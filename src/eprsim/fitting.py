"""Least-squares extraction of (zeta, eta, theta0, rate) from variance
traces, plus dB conversion of squeezed variances.

Models fitted (n = bin_center_index, in sample units):

* single mode:    V(n) = (eta/2)(cosh 2z - cos(2 theta0 + 2 rate n) sinh 2z) + (1 - eta)/2
* sum/difference: V(n) = (eta/2)(cosh 2z +/- cos(theta0 + rate n) sinh 2z) + (1 - eta)/2

Both, and the plain sinusoid of `fit_sinusoid`, are one model

    values ~ mid + (amp / 2) * sign * cos(omega n + phase)

with sign -1 for the single mode (phase = 2 theta0, omega = 2 rate), the
per-trace signs +1/-1 for the stacked sum/difference pair (phase = theta0,
omega = rate) and +1 for the sinusoid.  The model is linear in (mid, amp)
once the tone (omega, phase) is fixed, so it is fitted by variable
projection (Golub & Pereyra 2003, Inverse Problems 19 R1): a 2-parameter
Levenberg-Marquardt search (`levenberg_marquardt`, numpy only) runs over the
two tone parameters only, from the dominant tone of the trace, with
Kaufman's Jacobian (1975, BIT 15 49), and at every tone (mid, amp) is
solved exactly.

For the squeezer models (mid, amp) is solved over the physical set eta in
(0, 1], zeta >= 0, where mid = (eta cosh 2z + 1 - eta)/2 and amp =
eta sinh 2z.  With gamma = 2 mid - 1 that set is the convex region
gamma < amp <= sqrt(gamma^2 + 2 gamma), and (zeta, eta) follow in closed
form: eta = (amp^2 - gamma^2) / (2 gamma), zeta = asinh(amp / eta) / 2.  The
free linear optimum is used when it lies inside; otherwise the optimum is
on the eta = 1 edge (a root of a quartic in u = e^{2 zeta}) or on the open
eta -> 0 edge amp = gamma, where zeta is unbounded and the fit is ill-posed.
A fit therefore cannot stall on the eta bound: at the returned tone the
(zeta, eta) it reports is the exact constrained optimum.

`fit_single` and `fit_epr` make this fit in one function, `_fit_squeezer`,
and differ only in their signs, their harmonic (theta0 = phase / harmonic)
and one check each: one period of 2 theta, or a shared binning.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import IllPosedFitError
from .homodyne import VarianceTrace

MIN_BINS = 8  # fewest variance bins a trace fit accepts
_FLAT_TOL = 1e-9
_SPACING_RTOL = 1e-9  # allowed deviation of a bin spacing from the mean spacing
# first damping, relative to the scaled diagonal; Madsen, Nielsen & Tingleff (2004,
# IMM DTU) advise 1e-6 when the start is close, as the FFT tone is
_DAMPING_START = 1e-6


def levenberg_marquardt(project, x0, *, ftol: float, xtol: float, gtol: float, max_nfev: int):
    """Minimize |r(x)|^2 over two parameters x, where project(x) returns
    (r, the Jacobian of r, anything else about x).

    Levenberg-Marquardt (Marquardt 1963, SIAM J. Appl. Math. 11 431) on the
    2x2 normal equations, scaled by the largest Jacobian column norms seen so
    far as in MINPACK's lmder, with Nielsen's damping update (IMM-REP-1999-05,
    DTU).  It stops on lmder's tests: the gradient is within gtol of
    orthogonal to every Jacobian column, or the next step is within xtol of
    |x| (both scaled) or is predicted to reduce |r|^2 by at most ftol of
    itself.  lmder also takes that last step and asks its actual reduction to
    be within ftol; at that size the actual reduction is rounding noise, so
    the step is not projected.  Otherwise the search stops after max_nfev
    projections.  Returns (x, project(x), converged), converged being False
    only when the cap stopped the search.
    """
    x = tuple(float(v) for v in x0)
    value = project(x)
    nfev, mu, nu = 1, _DAMPING_START, 2.0
    d0 = d1 = 0.0  # largest squared column norms so far
    while True:
        r, jac = value[0], value[1]
        cost = float(r @ r)
        (a, b), (_, c) = (jac.T @ jac).tolist()
        g0, g1 = (jac.T @ r).tolist()
        d0, d1 = max(d0, a), max(d1, c)
        s0, s1 = d0 or 1.0, d1 or 1.0
        # cosine of the angle between r and each nonzero Jacobian column
        cosines = [abs(g) / math.sqrt(n * cost) for g, n in ((g0, a), (g1, c)) if n > 0.0 and cost > 0.0]
        if max(cosines, default=0.0) <= gtol:
            return x, value, True
        while True:
            p, q = a + mu * s0, c + mu * s1
            det = p * q - b * b  # > 0 but for rounding while mu is tiny
            if not det > 0.0:
                mu, nu = mu * nu, nu * 2.0
                continue
            h0, h1 = (b * g1 - q * g0) / det, (b * g0 - p * g1) / det
            step = s0 * h0 * h0 + s1 * h1 * h1
            prered = (mu * step - g0 * h0 - g1 * h1) / cost
            if prered <= ftol or step <= xtol * xtol * (s0 * x[0] * x[0] + s1 * x[1] * x[1]):
                return x, value, True
            if nfev >= max_nfev:
                return x, value, False
            trial = (x[0] + h0, x[1] + h1)
            trial_value = project(trial)
            nfev += 1
            ratio = (1.0 - float(trial_value[0] @ trial_value[0]) / cost) / prered
            if ratio > 1e-4:
                x, value = trial, trial_value
                mu *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
                nu = 2.0
                break
            mu, nu = mu * nu, nu * 2.0


@dataclass(frozen=True)
class FitResult:
    zeta: float
    eta: float
    theta0: float
    rate: float
    rss: float
    converged: bool
    degenerate: bool = False

    def to_json_dict(self) -> dict:
        return asdict(self)


def squeezing_db(variance: float) -> float:
    """Squeezing below vacuum in dB: -10 log10(V / 0.5)."""
    if variance <= 0:
        raise ValueError(f"variance must be > 0, got {variance}")
    return -10.0 * math.log10(variance / 0.5)


def _fft_tone(values: np.ndarray) -> tuple[float, float]:
    """Dominant tone of a series: angular frequency (per bin) and phase at
    the first bin, so that values[k] ~ offset + c cos(omega k + phase), c > 0.

    The FFT peak is refined by maximizing the periodogram on a fine grid
    around it.  The phase then comes from a linear least-squares fit of
    [1, cos(omega k), sin(omega k)], which unlike the periodogram's is not
    biased when the series spans a non-integer number of periods.
    """
    demeaned = values - values.mean()
    n_bins = len(values)
    mags = np.abs(np.fft.rfft(demeaned))
    k = 1 + int(np.argmax(mags[1:]))
    grid = 2.0 * math.pi * (k + np.linspace(-1.0, 1.0, 81)) / n_bins
    grid = grid[grid > 0]
    index = np.arange(n_bins)
    tones = np.exp(-1j * np.outer(grid, index))
    omega = float(grid[int(np.argmax(np.abs(tones @ demeaned)))])
    design = np.column_stack([np.ones(n_bins), np.cos(omega * index), np.sin(omega * index)])
    (_, c, s), *_ = np.linalg.lstsq(design, values, rcond=None)
    return omega, math.atan2(-s, c)


def _bin_offsets(n: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Bin centers as offsets from the trace middle in units of the bin
    spacing, with that middle and spacing.  The tone search needs evenly
    spaced, strictly increasing centers."""
    spacing = float(n[-1] - n[0]) / (len(n) - 1)
    if not (spacing > 0 and np.all(np.abs(np.diff(n) - spacing) <= _SPACING_RTOL * spacing)):
        raise ValueError("bin centers must be strictly increasing and evenly spaced")
    middle = 0.5 * float(n[0] + n[-1])
    return (n - middle) / spacing, middle, spacing


def _linear_optimum(shape: np.ndarray, centered: np.ndarray, values: np.ndarray, physical: bool):
    """(mid, half_amp, edge) minimizing the rss of mid + half_amp * shape;
    `centered` is shape minus its mean.

    With `physical`, (mid, 2 half_amp) is kept in the set a squeezer with
    eta in (0, 1] reaches; edge is then "eta=1" or "eta->0" when the optimum
    lies on that edge of the set and None when it lies inside.
    """
    half_amp = float(centered @ values) / float(centered @ centered)
    mid = float(values.mean()) - half_amp * float(shape.mean())
    gamma, amp = 2.0 * mid - 1.0, 2.0 * half_amp
    if not physical or (gamma > 0.0 and amp > gamma and amp * amp - gamma * gamma <= 2.0 * gamma):
        return mid, half_amp, None
    # eta = 1: mid + half_amp * shape = u p + q / u with u = e^{2 zeta} >= 1; the rss is
    # stationary where (p.p) u^4 - (p.y) u^3 + (q.y) u - q.q = 0
    p, q = 0.25 * (1.0 + shape), 0.25 * (1.0 - shape)
    roots = np.roots([p @ p, -(p @ values), 0.0, q @ values, -(q @ q)])
    candidates = [(0.25 * (u + 1 / u), 0.25 * (u - 1 / u), "eta=1") for u in [1.0, *roots.real[roots.real > 1.0]]]
    # eta -> 0: mid + half_amp * shape = 1/2 + 2 gamma p with gamma >= 0
    gamma0 = max(0.0, float(p @ (values - 0.5)) / (2.0 * float(p @ p)))
    candidates.append((0.5 * (1.0 + gamma0), 0.5 * gamma0, "eta->0"))
    rss = [np.sum((m + a * shape - values) ** 2) for m, a, _ in candidates]
    return candidates[int(np.argmin(rss))]


@dataclass(frozen=True)
class _Tone:
    """A fitted values ~ mid + (amp / 2) * sign * cos(omega n + phase), with
    omega >= 0 per sample and phase in [0, 2 pi) at n = 0."""

    omega: float
    phase: float
    mid: float
    amp: float
    rss: float
    converged: bool
    edge: str | None


def _fit_tone(grid: tuple, traces: list[np.ndarray], signs: tuple, physical: bool = True) -> _Tone:
    """Variable-projection fit of one tone shared by traces on the bin
    centers `grid` (as `_bin_offsets` returns them), trace i carrying sign
    signs[i]; `physical` as in `_linear_optimum`."""
    offsets, middle, spacing = grid
    values = np.concatenate(traces)
    k = np.tile(offsets, len(traces))
    sign = np.repeat(np.asarray(signs, dtype=float), len(offsets))
    omega0, phase0 = _fft_tone(sum(s * t for s, t in zip(signs, traces)) / len(traces))

    def project(x):
        arg = x[0] * k + x[1]
        shape = sign * np.cos(arg)
        centered = shape - shape.mean()
        mid, half_amp, edge = _linear_optimum(shape, centered, values, physical)
        d_phase = -half_amp * sign * np.sin(arg)
        jac = np.column_stack([k * d_phase, d_phase])
        if edge is None:
            # Kaufman: the model derivative at fixed (mid, amp), projected off span(1, shape)
            jac -= jac.mean(axis=0) + np.outer(centered, centered @ jac) / (centered @ centered)
        return mid + half_amp * shape - values, jac, (mid, 2.0 * half_amp, edge)

    x, (residual, _, (mid, amp, edge)), converged = levenberg_marquardt(
        project,
        (omega0, phase0 - omega0 * offsets[0]),
        xtol=1e-15,
        ftol=1e-15,
        gtol=1e-13,
        max_nfev=2000,
    )
    omega, phase = x[0] / spacing, x[1] - x[0] * middle / spacing
    if omega < 0:
        omega, phase = -omega, -phase
    return _Tone(
        float(omega), float(phase % (2.0 * math.pi)), float(mid), float(amp),
        float(residual @ residual), converged, edge,
    )


def _fit_squeezer(n: np.ndarray, traces: list[np.ndarray], signs: tuple, harmonic: float) -> FitResult:
    """Fit a squeezer model to traces on bin centers n, trace i carrying sign
    signs[i]; the tone runs at `harmonic` times (theta0 + rate n).

    A flat signal cannot identify eta and gives the degenerate zeta = 0,
    eta = 1 fit; a fitted oscillation buried in the residual noise is
    flagged degenerate.
    """
    if len(n) < MIN_BINS:
        raise IllPosedFitError(f"need at least {MIN_BINS} bins, got {len(n)}")
    grid = _bin_offsets(n)
    values = np.concatenate(traces)
    signal = sum(s * t for s, t in zip(signs, traces)) / len(traces)
    if np.ptp(signal) < _FLAT_TOL * max(1.0, abs(traces[0].mean())):
        rss = float(np.sum((values - 0.5) ** 2))
        return FitResult(zeta=0.0, eta=1.0, theta0=0.0, rate=0.0, rss=rss, converged=False, degenerate=True)
    tone = _fit_tone(grid, traces, signs)
    if tone.edge == "eta->0":
        raise IllPosedFitError("fit diverged: zeta grows without bound as eta -> 0")
    gamma, amp = 2.0 * tone.mid - 1.0, tone.amp
    if tone.edge == "eta=1":
        zeta, eta = 0.5 * math.log(2.0 * tone.mid + amp), 1.0
    else:
        eta = (amp * amp - gamma * gamma) / (2.0 * gamma)
        zeta = 0.5 * math.asinh(amp / eta)
    noise = math.sqrt(tone.rss / max(len(values) - 4, 1))
    degenerate = eta * math.sinh(2.0 * zeta) < 4.0 * noise
    return FitResult(
        zeta=zeta, eta=eta, theta0=tone.phase / harmonic, rate=tone.omega / harmonic, rss=tone.rss,
        converged=tone.converged and not degenerate, degenerate=degenerate,
    )


def fit_single(trace: VarianceTrace) -> FitResult:
    """Fit the single-mode variance model to a trace.

    Raises IllPosedFitError when fewer than MIN_BINS bins are supplied, the
    fitted sweep covers less than one full period of 2 theta or the best fit
    has zeta unbounded (eta -> 0).  A flat trace cannot identify eta and is
    returned with the degenerate flag instead.  Raises ValueError when the
    bin centers are not strictly increasing and evenly spaced.
    """
    n = np.asarray(trace.bin_center_index, dtype=float)
    fit = _fit_squeezer(n, [np.asarray(trace.variance, dtype=float)], (-1.0,), 2.0)
    cycles = fit.rate * (n[-1] - n[0]) / math.pi
    if not fit.degenerate and cycles < 0.999:
        raise IllPosedFitError(
            f"trace covers {cycles:.3f} periods of 2*theta; need at least one"
        )
    return fit


def fit_epr(trace_sum: VarianceTrace, trace_diff: VarianceTrace) -> FitResult:
    """Joint fit of the sum and difference variance traces with shared
    (zeta, eta, theta0, rate); theta0 is the offset of theta1 + theta2.

    Raises ValueError unless both traces share strictly increasing, evenly
    spaced bin centers, and IllPosedFitError when fewer than MIN_BINS bins
    are supplied or the best fit has zeta unbounded (eta -> 0).
    """
    n_sum = np.asarray(trace_sum.bin_center_index, dtype=float)
    n_diff = np.asarray(trace_diff.bin_center_index, dtype=float)
    if len(n_sum) != len(n_diff) or np.any(np.abs(n_sum - n_diff) > 1e-9):
        raise ValueError("sum and difference traces must share their binning")
    v_sum = np.asarray(trace_sum.variance, dtype=float)
    v_diff = np.asarray(trace_diff.variance, dtype=float)
    return _fit_squeezer(n_sum, [v_sum, v_diff], (1.0, -1.0), 1.0)


@dataclass(frozen=True)
class SinusoidFit:
    offset: float
    amplitude: float
    omega: float
    phase: float
    rss: float
    converged: bool


def fit_sinusoid(n_index, values) -> SinusoidFit:
    """Fit y = offset + amplitude * cos(omega * n + phase) to a series.

    Utility for frequency/flatness checks on variance traces; `n_index` is
    in sample units, so `omega` is radians per sample, and must be strictly
    increasing and evenly spaced.
    """
    n = np.asarray(n_index, dtype=float)
    y = np.asarray(values, dtype=float)
    if len(n) < 4:
        raise IllPosedFitError("need at least 4 points for a sinusoid fit")
    grid = _bin_offsets(n)
    if np.ptp(y) == 0.0:
        return SinusoidFit(float(y[0]), 0.0, 0.0, 0.0, 0.0, True)
    tone = _fit_tone(grid, [y], (1.0,), physical=False)
    amplitude, phase = 0.5 * tone.amp, tone.phase
    if amplitude < 0:
        amplitude, phase = -amplitude, (phase + math.pi) % (2 * math.pi)
    return SinusoidFit(tone.mid, amplitude, tone.omega, phase, tone.rss, tone.converged)
