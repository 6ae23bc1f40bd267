"""Zero-mean multimode Gaussian states and the symplectic optics toolbox.

Conventions, fixed here and relied on by every other module:

* x = (a + a^dag)/sqrt(2), p = (a - a^dag)/(i sqrt(2)); vacuum variance 0.5.
* Quadratures are ordered (x1, p1, x2, p2, ...).
* ``quad_variance(state, mode, theta)`` measures X_theta = x cos(theta) +
  p sin(theta), so theta = 0 probes the squeezed quadrature of
  ``squeeze(state, mode, zeta, angle=0)`` for zeta > 0.
* ``beamsplit`` sends the first output to (X_a - X_b)/sqrt(2) and the second
  to (X_a + X_b)/sqrt(2), acting identically on the x and p subspaces.
* ``epr_pipeline`` applies the relative phase to the first squeezer, so the
  entangled output has positively correlated positions and anticorrelated
  momenta: the difference quadrature (X1 - X2)/sqrt(2) is squeezed at
  theta1 = theta2 = 0, the sum quadrature at theta1 + theta2 = pi.

All operations are pure: they return new states and never mutate inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

VACUUM_VARIANCE = 0.5

_SYMMETRY_TOL = 1e-12
_PHYSICALITY_TOL = 1e-10


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal [[0, 1], [-1, 0]] encoding the canonical commutators."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for m in range(n_modes):
        omega[2 * m, 2 * m + 1] = 1.0
        omega[2 * m + 1, 2 * m] = -1.0
    return omega


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Zero-mean Gaussian state stored as its quadrature covariance matrix.

    The constructor validates symmetry and the uncertainty relation
    cov + (i/2) Omega >= 0 (eigenvalues above -1e-10), so any instance that
    exists is a physical state.  Instances are immutable values, safe to
    share between threads.
    """

    n_modes: int
    cov: np.ndarray

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        cov = np.array(self.cov, dtype=float)
        dim = 2 * self.n_modes
        if cov.shape != (dim, dim):
            raise ValueError(
                f"covariance must be {dim}x{dim} for {self.n_modes} mode(s), "
                f"got {cov.shape}"
            )
        if not np.all(np.isfinite(cov)):
            raise ValueError("covariance contains non-finite entries")
        if np.max(np.abs(cov - cov.T)) > _SYMMETRY_TOL:
            raise ValueError("covariance matrix is not symmetric")
        cov = 0.5 * (cov + cov.T)
        eigs = np.linalg.eigvalsh(cov + 0.5j * symplectic_form(self.n_modes))
        if eigs.min() < -_PHYSICALITY_TOL:
            raise ValueError(
                f"unphysical covariance: min eigenvalue of cov + (i/2)Omega "
                f"is {eigs.min():.3e}"
            )
        cov.setflags(write=False)
        object.__setattr__(self, "cov", cov)


def vacuum(n_modes: int) -> GaussianState:
    """n-mode vacuum: cov = 0.5 * identity."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    return GaussianState(n_modes, VACUUM_VARIANCE * np.eye(2 * n_modes))


def _require_mode(state: GaussianState, mode: int) -> None:
    if not 0 <= mode < state.n_modes:
        raise ValueError(f"mode {mode} out of range for {state.n_modes} mode(s)")


def _apply_symplectic(state: GaussianState, s: np.ndarray) -> GaussianState:
    return GaussianState(state.n_modes, s @ state.cov @ s.T)


def _embed(n_modes: int, local: np.ndarray, modes: tuple[int, ...]) -> np.ndarray:
    """Place a local symplectic block acting on `modes` into the full matrix."""
    full = np.eye(2 * n_modes)
    idx = [i for m in modes for i in (2 * m, 2 * m + 1)]
    full[np.ix_(idx, idx)] = local
    return full


def squeeze_matrix(n_modes: int, mode: int, zeta: float, angle: float = 0.0) -> np.ndarray:
    """Symplectic matrix of a single-mode squeezer.

    For zeta > 0 the quadrature along `angle` is squeezed by e^(-zeta) and the
    orthogonal one stretched by e^(zeta).
    """
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    local = rot @ np.diag([math.exp(-zeta), math.exp(zeta)]) @ rot.T
    return _embed(n_modes, local, (mode,))


def phase_matrix(n_modes: int, mode: int, phi: float) -> np.ndarray:
    """Symplectic matrix of a phase-space rotation by phi on one mode.

    Moves the variance pattern forward: V'(theta) = V(theta - phi).
    """
    c, s = math.cos(phi), math.sin(phi)
    local = np.array([[c, -s], [s, c]])
    return _embed(n_modes, local, (mode,))


def beamsplit_matrix(n_modes: int, mode_a: int, mode_b: int) -> np.ndarray:
    """Symplectic matrix of the symmetric beam splitter on (mode_a, mode_b).

    The x and p subspaces are each transformed by (1/sqrt(2))[[1, -1], [1, 1]].
    """
    b = np.array(
        [
            [1.0, 0.0, -1.0, 0.0],
            [0.0, 1.0, 0.0, -1.0],
            [1.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 1.0],
        ]
    ) / math.sqrt(2.0)
    return _embed(n_modes, b, (mode_a, mode_b))


def squeeze(state: GaussianState, mode: int, zeta: float, angle: float = 0.0) -> GaussianState:
    """Apply a single-mode squeezer; zeta = 0 is the identity."""
    _require_mode(state, mode)
    return _apply_symplectic(state, squeeze_matrix(state.n_modes, mode, zeta, angle))


def phase_shift(state: GaussianState, mode: int, phi: float) -> GaussianState:
    """Rotate one mode in phase space by phi."""
    _require_mode(state, mode)
    return _apply_symplectic(state, phase_matrix(state.n_modes, mode, phi))


def beamsplit(state: GaussianState, mode_a: int, mode_b: int) -> GaussianState:
    """Interfere two modes on the symmetric beam splitter."""
    _require_mode(state, mode_a)
    _require_mode(state, mode_b)
    if mode_a == mode_b:
        raise ValueError("beamsplit needs two distinct modes")
    return _apply_symplectic(state, beamsplit_matrix(state.n_modes, mode_a, mode_b))


def loss(state: GaussianState, mode: int, eta: float) -> GaussianState:
    """Pure loss channel with transmissivity eta on one mode.

    The mode's block is scaled by eta and topped up with (1 - eta) of vacuum
    noise; correlations to other modes scale by sqrt(eta).
    """
    _require_mode(state, mode)
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity must be in [0, 1], got {eta}")
    scale = np.ones(2 * state.n_modes)
    scale[2 * mode : 2 * mode + 2] = math.sqrt(eta)
    cov = scale[:, None] * state.cov * scale[None, :]
    sl = slice(2 * mode, 2 * mode + 2)
    cov[sl, sl] += (1.0 - eta) * VACUUM_VARIANCE * np.eye(2)
    return GaussianState(state.n_modes, cov)


def _rotated_unit(state: GaussianState, mode: int, theta: float) -> np.ndarray:
    u = np.zeros(2 * state.n_modes)
    u[2 * mode] = math.cos(theta)
    u[2 * mode + 1] = math.sin(theta)
    return u


def quad_variance(state: GaussianState, mode: int, theta: float) -> float:
    """Variance of X_theta = x cos(theta) + p sin(theta) of one mode."""
    _require_mode(state, mode)
    u = _rotated_unit(state, mode, theta)
    return float(u @ state.cov @ u)


def joint_quad_variance(
    state: GaussianState, theta1: float, theta2: float, sign: str
) -> float:
    """Variance of (X_{1,theta1} -/+ X_{2,theta2})/sqrt(2).

    ``sign="minus"`` selects the difference quadrature, ``"plus"`` the sum.
    """
    if state.n_modes < 2:
        raise ValueError("joint quadrature variance needs at least 2 modes")
    if sign not in ("plus", "minus"):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    s = 1.0 if sign == "plus" else -1.0
    w = (_rotated_unit(state, 0, theta1) + s * _rotated_unit(state, 1, theta2)) / math.sqrt(2.0)
    return float(w @ state.cov @ w)


def reduce_modes(state: GaussianState, modes: tuple[int, ...]) -> GaussianState:
    """Partial trace: keep only the listed modes (in the given order)."""
    for m in modes:
        _require_mode(state, m)
    if len(set(modes)) != len(modes) or not modes:
        raise ValueError("modes must be a non-empty set of distinct indices")
    idx = [i for m in modes for i in (2 * m, 2 * m + 1)]
    return GaussianState(len(modes), state.cov[np.ix_(idx, idx)])


@dataclass(frozen=True)
class PipelineConfig:
    """Parameters of the squeeze -> phase -> interfere -> lose chain.

    mismatch is the interference-imperfection admixture: the fraction of the
    second squeezed mode that fails to overlap with the first and is replaced
    by vacuum before the beam splitter.  mismatch = 0 is perfect interference.
    """

    zeta: float
    relative_phase: float = math.pi / 2
    eta: float = 1.0
    mismatch: float = 0.0

    def __post_init__(self):
        if self.zeta < 0:
            raise ValueError("zeta must be >= 0")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must be in [0, 1]")
        if not 0.0 <= self.mismatch <= 1.0:
            raise ValueError("mismatch must be in [0, 1]")


def epr_pipeline(config: PipelineConfig) -> GaussianState:
    """Run the two-squeezer entanglement chain and return the 2-mode output.

    Both modes are squeezed along x by config.zeta, the first mode is then
    rotated by config.relative_phase (pi/2 makes the pair orthogonally
    squeezed), the modes interfere on the symmetric beam splitter, and each
    output passes a loss channel of transmissivity config.eta.

    A nonzero mismatch blends the second mode with vacuum before the beam
    splitter.  Blending only one input is deliberate: mode mismatch between
    the inputs is relative, and an equal blend of both would leave the
    individual output variances exactly phase-independent, hiding the
    imperfection it is meant to model.
    """
    state = vacuum(2)
    state = squeeze(state, 0, config.zeta)
    state = squeeze(state, 1, config.zeta)
    state = phase_shift(state, 0, config.relative_phase)
    if config.mismatch > 0.0:
        state = loss(state, 1, 1.0 - config.mismatch)
    state = beamsplit(state, 0, 1)
    state = loss(state, 0, config.eta)
    state = loss(state, 1, config.eta)
    return state


# Closed-form variance curves of the squeezed-then-lossy family.  The tests
# and the benchmark self-test check the matrix pipeline and the fits against
# them, and the command line takes its model minimum from epr_variance.

def single_mode_variance(zeta, eta, theta):
    """Quadrature variance of a squeezed vacuum after a loss channel:
    (eta/2)(cosh 2z - cos 2theta sinh 2z) + (1 - eta)/2."""
    zeta = np.asarray(zeta, dtype=float)
    return 0.5 * eta * (np.cosh(2 * zeta) - np.cos(2 * np.asarray(theta)) * np.sinh(2 * zeta)) + 0.5 * (1.0 - eta)


def epr_variance(zeta, eta, theta_sum, sign: str):
    """Sum/difference quadrature variance of the entangled pipeline output.

    theta_sum is theta1 + theta2.  With this package's phase origin the
    difference branch ("minus") carries -cos(theta_sum) sinh 2z, so it dips
    below vacuum at theta1 = theta2 = 0; the sum branch is shifted by pi.
    """
    if sign not in ("plus", "minus"):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    s = 1.0 if sign == "plus" else -1.0
    zeta = np.asarray(zeta, dtype=float)
    return 0.5 * eta * (np.cosh(2 * zeta) + s * np.cos(np.asarray(theta_sum)) * np.sinh(2 * zeta)) + 0.5 * (1.0 - eta)


def thermal_variance(zeta, eta):
    """Phase-independent single-mode variance of the ideal pipeline output:
    (eta/2) cosh 2z + (1 - eta)/2."""
    return 0.5 * eta * np.cosh(2 * np.asarray(zeta, dtype=float)) + 0.5 * (1.0 - eta)
