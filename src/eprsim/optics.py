"""Beam-geometry and group-velocity walk-off arithmetic for the source design.

All lengths are in meters internally; `parse_length` converts the unit
suffixes accepted on the command line (nm, um, mm, cm, m) exactly.
"""

from __future__ import annotations

import math
import re

# Group velocities (as fractions of c) of the frequency-doubled pump and the
# down-converted signal in the periodically poled KTP crystals of the
# two-squeezer source.
WALKOFF_PRESETS: dict[str, tuple[float, float]] = {
    "ppktp": (0.41, 0.52),
}

_LENGTH_UNITS = {
    "nm": 1e-9,
    "um": 1e-6,
    "µm": 1e-6,
    "μm": 1e-6,
    "mm": 1e-3,
    "cm": 1e-2,
    "m": 1.0,
}

_LENGTH_RE = re.compile(r"^\s*([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)\s*([a-zµμ]*)\s*$")


def parse_length(text: str) -> float:
    """Parse a length like '12.4um', '390nm' or '0.001' (bare = meters).

    Raises ValueError on an unknown unit or a value that overflows to inf.
    """
    match = _LENGTH_RE.match(text)
    if not match:
        raise ValueError(f"cannot parse length {text!r}")
    value, unit = match.groups()
    if unit and unit not in _LENGTH_UNITS:
        raise ValueError(f"unknown length unit {unit!r} in {text!r}")
    length = float(value) * (_LENGTH_UNITS[unit] if unit else 1.0)
    if not math.isfinite(length):
        raise ValueError(f"length {text!r} is not finite")
    return length


def rayleigh_range(w0: float, wavelength: float) -> float:
    """z_R = pi w0^2 / lambda."""
    if w0 <= 0 or wavelength <= 0:
        raise ValueError("waist and wavelength must be positive")
    return math.pi * w0 * w0 / wavelength


def beam_radius(z: float, w0: float, wavelength: float) -> float:
    """Gaussian beam radius w(z) = w0 sqrt(1 + (z / z_R)^2)."""
    zr = rayleigh_range(w0, wavelength)
    return w0 * math.sqrt(1.0 + (z / zr) ** 2)


def walkoff_path(crystal_length: float, v_pump: float, v_signal: float) -> float:
    """Free-space-equivalent pump/signal delay accumulated over one crystal:
    L (c/v_pump - c/v_signal), velocities given as fractions of c.

    Positive when the pump is the slower pulse.
    """
    if crystal_length < 0:
        raise ValueError("crystal length must be >= 0")
    for name, v in (("pump", v_pump), ("signal", v_signal)):
        if not 0.0 < v <= 1.0:
            raise ValueError(f"{name} velocity must be in (0, 1] as a fraction of c")
    return crystal_length * (1.0 / v_pump - 1.0 / v_signal)


def compensation_length(target_delay: float, group_index_difference: float) -> float:
    """Length of birefringent pre-compensation crystal: delay / delta n_group."""
    if group_index_difference == 0:
        raise ValueError("group index difference must be nonzero")
    return target_delay / group_index_difference
