"""Per-operation correctness gates.

Each gate returns a list of failure reasons; an empty list means the output
passed.  Gates never raise on a bad result, so a run counts failures instead
of stopping at the first one.
"""

from __future__ import annotations

import math

EXTREMA_RTOL = 0.05  # fitted model minimum/maximum variance vs the true one
ETA_BOUND_TOL = 1e-6  # eta this close to 0 or 1 is "on its bound"
ETA_FREE_BELOW = 0.99  # a true eta below this must not be fitted on the bound
FIDELITY_MIN = 0.98
MEAN_PHOTON_ATOL = 0.02
DESIGN_RTOL = 1e-12


def variance_extrema(zeta: float, eta: float) -> tuple[float, float]:
    """Minimum and maximum of (eta/2)(cosh 2z -/+ cos(.) sinh 2z) + (1 - eta)/2.

    The single-mode and the sum/difference trace models share these extrema.
    """
    floor = 0.5 * (1.0 - eta)
    return 0.5 * eta * math.exp(-2.0 * zeta) + floor, 0.5 * eta * math.exp(2.0 * zeta) + floor


def eta_on_bound(eta: float) -> bool:
    return eta <= ETA_BOUND_TOL or eta >= 1.0 - ETA_BOUND_TOL


def fit_failures(
    fitted_zeta: float, fitted_eta: float, true_zeta: float, true_eta: float, label: str
) -> list[str]:
    """Extrema and on-bound gate for a fitted (zeta, eta); reasons start with `label`.

    (zeta, eta) are not compared directly: at small zeta they are poorly
    identified, and shot noise alone would fail such a comparison.
    """
    failures = []
    fit_min, fit_max = variance_extrema(fitted_zeta, fitted_eta)
    true_min, true_max = variance_extrema(true_zeta, true_eta)
    for which, fitted, true in (("min", fit_min, true_min), ("max", fit_max, true_max)):
        error = abs(fitted - true) / true
        if not error <= EXTREMA_RTOL:
            failures.append(f"{label}: model {which} variance off by {error:.1%}")
    if eta_on_bound(fitted_eta) and true_eta < ETA_FREE_BELOW:
        failures.append(f"{label}: eta on its bound ({fitted_eta:.9f}) with true eta {true_eta:.3f}")
    return failures


def tomography_failures(fid: float, mean_photons, reference_mean_photons) -> list[str]:
    """Fidelity and per-mode mean-photon gate for a reconstruction."""
    failures = []
    if not fid >= FIDELITY_MIN:
        failures.append(f"tomography: fidelity {fid:.4f} < {FIDELITY_MIN}")
    for mode, (got, want) in enumerate(zip(mean_photons, reference_mean_photons, strict=True)):
        if not abs(got - want) <= MEAN_PHOTON_ATOL:
            failures.append(
                f"tomography: mode-{mode + 1} mean photon {got:.4f} not within "
                f"{MEAN_PHOTON_ATOL} of {want:.4f}"
            )
    return failures


def design_failures(value: float, expected: float) -> list[str]:
    if not abs(value - expected) <= DESIGN_RTOL * abs(expected):
        return [f"design: value {value!r} != walkoff_path {expected!r}"]
    return []
