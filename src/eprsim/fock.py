"""Truncated photon-number representation of the squeezed-state family.

Density matrices are stored over the basis |n1> (one mode) or |n1 n2>
(two modes, lexicographic, index = n1*(cutoff+1) + n2) with photon numbers
0..cutoff per mode.  The phase convention makes squeezed-vacuum amplitudes
real with alternating sign, which squeezes x for zeta > 0; this matches the
theta = 0 convention of the covariance module.

Per-mode operations act on the mode's own row and column axes of the matrix
viewed as a tensor with one row and one column axis per mode.  Loss of
transmissivity eta is the beam-splitter photon-loss channel of homodyne
tomography, rho'_mn = sum_k sqrt(C(m+k,k) C(n+k,k)) eta^((m+n)/2) (1-eta)^k rho_{m+k,n+k}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedStateError
from .gaussian import VACUUM_VARIANCE, GaussianState

_HERMITICITY_TOL = 1e-10
_POSITIVITY_TOL = 1e-10

FOCK_BASIS_LABEL = "fock |n1 n2> lexicographic"


@dataclass(frozen=True, eq=False)
class FockDensityMatrix:
    """Truncated Fock-basis density operator for 1 or 2 modes.

    `tail_tol` is the declared truncation budget: the trace may fall short of
    one by at most this amount.  Hermiticity and positivity are validated on
    construction.
    """

    n_modes: int
    cutoff: int
    matrix: np.ndarray
    tail_tol: float = 1e-3

    def __post_init__(self):
        if self.n_modes not in (1, 2):
            raise ValueError("n_modes must be 1 or 2")
        if self.cutoff < 2:
            raise ValueError("cutoff must be >= 2")
        dim = (self.cutoff + 1) ** self.n_modes
        matrix = np.array(self.matrix, dtype=complex)
        if matrix.shape != (dim, dim):
            raise ValueError(f"matrix must be {dim}x{dim}, got {matrix.shape}")
        if np.max(np.abs(matrix - matrix.conj().T)) > _HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        matrix = _hermitian_part(matrix)
        eigs = np.linalg.eigvalsh(matrix)
        if eigs.min() < -_POSITIVITY_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {eigs.min():.3e}")
        trace = float(np.trace(matrix).real)
        if not (1.0 - self.tail_tol <= trace <= 1.0 + 1e-9):
            raise ValueError(
                f"trace {trace:.6f} outside [1 - {self.tail_tol:g}, 1]; "
                "raise the cutoff or declare a larger truncation budget"
            )
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @property
    def dim(self) -> int:
        return (self.cutoff + 1) ** self.n_modes

    def population(self, *ns: int) -> float:
        """Diagonal occupation of |n1> or |n1 n2>."""
        if len(ns) != self.n_modes:
            raise ValueError(f"expected {self.n_modes} photon number(s)")
        idx = 0
        for n in ns:
            if not 0 <= n <= self.cutoff:
                raise ValueError(f"photon number {n} above cutoff {self.cutoff}")
            idx = idx * (self.cutoff + 1) + n
        return float(self.matrix[idx, idx].real)

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def to_json_dict(self) -> dict:
        entries = [[float(v.real), float(v.imag)] for v in self.matrix.ravel()]
        return {
            "n_modes": self.n_modes,
            "cutoff": self.cutoff,
            "basis": FOCK_BASIS_LABEL,
            "entries": entries,
        }

    @classmethod
    def from_json_dict(cls, payload: dict, tail_tol: float = 1e-3) -> "FockDensityMatrix":
        if payload.get("basis") != FOCK_BASIS_LABEL:
            raise ValueError(f"unknown basis {payload.get('basis')!r}")
        n_modes = int(payload["n_modes"])
        cutoff = int(payload["cutoff"])
        dim = (cutoff + 1) ** n_modes
        flat = np.array([complex(re, im) for re, im in payload["entries"]])
        return cls(n_modes, cutoff, flat.reshape(dim, dim), tail_tol)


@dataclass(frozen=True)
class TruncationReport:
    """What a Fock-space conversion threw away."""

    trace_deficit: float
    largest_discarded_population: float


def destroy(dim: int) -> np.ndarray:
    """Annihilation operator truncated to `dim` levels."""
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)


def _hermitian_part(matrix: np.ndarray) -> np.ndarray:
    """0.5 (M + M^H): exactly Hermitian, and M itself if M already is."""
    return 0.5 * (matrix + matrix.conj().T)


def _mode_axes(matrix: np.ndarray, n_modes: int, mode: int):
    """An `n_modes`-mode density matrix viewed with one row and one column
    axis per mode, `mode`'s two axes last, and the inverse map back to a
    matrix."""
    if not 0 <= mode < n_modes:
        raise ValueError(f"mode {mode} out of range")
    dim = len(matrix)
    axes = (mode, n_modes + mode)
    tensor = matrix.reshape((math.isqrt(dim) if n_modes == 2 else dim,) * 2 * n_modes)

    def to_matrix(t: np.ndarray) -> np.ndarray:
        return np.moveaxis(t, (-2, -1), axes).reshape(dim, dim)

    return np.moveaxis(tensor, axes, (-2, -1)), to_matrix


def _squeezed_amplitudes(zeta: float, cutoff: int) -> np.ndarray:
    """Fock amplitudes of the x-squeezed vacuum: even levels only,
    c_{2k} = (-tanh z)^k sqrt((2k)!)/(2^k k!) / sqrt(cosh z)."""
    amps = np.zeros(cutoff + 1)
    amps[0] = 1.0 / math.sqrt(math.cosh(zeta))
    t = math.tanh(zeta)
    for k in range(1, cutoff // 2 + 1):
        amps[2 * k] = amps[2 * k - 2] * (-t) * math.sqrt((2 * k - 1) / (2 * k))
    return amps


def _check_squeezing(zeta: float, cutoff: int) -> None:
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    if zeta < 0:
        raise ValueError("zeta must be >= 0")


def _squeezed_vacuum(zeta: float, cutoff: int) -> np.ndarray:
    _check_squeezing(zeta, cutoff)
    amps = _squeezed_amplitudes(zeta, cutoff)
    return np.outer(amps, amps).astype(complex)


def squeezed_vacuum_fock(zeta: float, cutoff: int, tail_tol: float = 1e-3) -> FockDensityMatrix:
    """Single-mode squeezed vacuum as a truncated pure-state density matrix."""
    return FockDensityMatrix(1, cutoff, _squeezed_vacuum(zeta, cutoff), tail_tol)


def _tmsv(zeta: float, cutoff: int) -> np.ndarray:
    _check_squeezing(zeta, cutoff)
    lam = math.tanh(zeta)
    dim = cutoff + 1
    vec = np.zeros(dim * dim)
    norm = math.sqrt(1.0 - lam * lam)
    for n in range(dim):
        vec[n * dim + n] = norm * lam**n
    return np.outer(vec, vec).astype(complex)


def tmsv_fock(zeta: float, cutoff: int, tail_tol: float = 1e-3) -> FockDensityMatrix:
    """Two-mode squeezed vacuum, Schmidt form sqrt(1-L^2) sum_n L^n |nn> with
    L = tanh(zeta); positions correlated, momenta anticorrelated."""
    return FockDensityMatrix(2, cutoff, _tmsv(zeta, cutoff), tail_tol)


def _loss(matrix: np.ndarray, n_modes: int, mode: int, eta: float) -> np.ndarray:
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity must be in [0, 1], got {eta}")
    t, to_matrix = _mode_axes(matrix, n_modes, mode)
    dim = t.shape[-1]
    out = np.zeros_like(t)
    for k in range(dim):
        a = np.array([math.sqrt(math.comb(m, k) * eta ** (m - k) * (1.0 - eta) ** k) for m in range(k, dim)])
        out[..., : dim - k, : dim - k] += (a[:, None] * t[..., k:, k:]) * a
    return to_matrix(out)


def loss_fock(rho: FockDensityMatrix, mode: int, eta: float) -> FockDensityMatrix:
    """Apply a loss channel of transmissivity eta to one mode: the Kraus sum of
    A_k = sum_m sqrt(C(m,k) eta^(m-k) (1-eta)^k) |m-k><m|, trace-preserving
    on the truncated space, applied to the mode's axes in k order."""
    return FockDensityMatrix(rho.n_modes, rho.cutoff, _loss(rho.matrix, rho.n_modes, mode, eta), rho.tail_tol)


def _rotate(matrix: np.ndarray, n_modes: int, mode: int, phi: float) -> np.ndarray:
    t, to_matrix = _mode_axes(matrix, n_modes, mode)
    phases = np.exp(1j * phi * np.arange(t.shape[-1]))
    return to_matrix((phases[:, None] * t) * phases.conj())


def rotate_fock(rho: FockDensityMatrix, mode: int, phi: float) -> FockDensityMatrix:
    """Phase-space rotation by phi on one mode: entries pick up e^{i phi (n - m)}.

    Matches the covariance-module convention V'(theta) = V(theta - phi).
    """
    return FockDensityMatrix(rho.n_modes, rho.cutoff, _rotate(rho.matrix, rho.n_modes, mode, phi), rho.tail_tol)


def mean_photon(rho: FockDensityMatrix, mode: int) -> float:
    """Tr(rho n_mode), with n_mode applied to the mode's column axis."""
    t, to_matrix = _mode_axes(rho.matrix, rho.n_modes, mode)
    return float(np.trace(to_matrix(t * np.arange(rho.cutoff + 1))).real)


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(matrix)
    # eigh resolves true zeros only to ~eps * ||M||; flooring them before the
    # square root keeps spurious sqrt(eps) directions out of the support
    floor = max(float(vals.max()), 0.0) * len(vals) * np.finfo(float).eps
    vals = np.where(vals > floor, vals, 0.0)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(rho: FockDensityMatrix, sigma: FockDensityMatrix) -> float:
    """Uhlmann fidelity F = (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2,
    evaluated as the squared nuclear norm of sqrt(sigma) sqrt(rho)."""
    if rho.n_modes != sigma.n_modes or rho.cutoff != sigma.cutoff:
        raise ValueError("states must share mode count and cutoff")
    product = _psd_sqrt(sigma.matrix) @ _psd_sqrt(rho.matrix)
    singular_values = np.linalg.svd(product, compute_uv=False)
    return float(np.sum(singular_values) ** 2)


def quad_covariance(rho: FockDensityMatrix) -> np.ndarray:
    """Symmetrized covariance matrix of (x1, p1[, x2, p2]) computed from the
    truncated quadrature operators.  Used to cross-check Fock-side states
    against their covariance-side sources."""
    dim = rho.cutoff + 1
    a = destroy(dim)
    x = (a + a.conj().T) / math.sqrt(2.0)
    p = (a - a.conj().T) / (1j * math.sqrt(2.0))
    quads = []
    for mode in range(rho.n_modes):
        before, after = np.eye(dim**mode), np.eye(dim ** (rho.n_modes - 1 - mode))
        quads += [np.kron(np.kron(before, op), after) for op in (x, p)]
    size = 2 * rho.n_modes
    cov = np.zeros((size, size))
    for i in range(size):
        for j in range(i, size):
            sym = 0.5 * (quads[i] @ quads[j] + quads[j] @ quads[i])
            cov[i, j] = cov[j, i] = float(np.trace(rho.matrix @ sym).real)
    return cov


_FAMILY_TOL = 1e-8


def _single_mode_family(cov: np.ndarray) -> tuple[float, float, float]:
    """Recover (zeta, eta, angle) of a squeezed-then-lossy mode from its 2x2
    covariance, or raise UnsupportedStateError."""
    vals, vecs = np.linalg.eigh(cov)
    v_min, v_max = float(vals[0]), float(vals[1])
    if abs(v_min - VACUUM_VARIANCE) < _FAMILY_TOL and abs(v_max - VACUUM_VARIANCE) < _FAMILY_TOL:
        return 0.0, 1.0, 0.0
    alpha = 2.0 * v_min - 1.0
    beta = 2.0 * v_max - 1.0
    if alpha >= 0.0:
        raise UnsupportedStateError(
            "mode has no squeezed quadrature; not a squeezed vacuum plus loss"
        )
    eta = -alpha * beta / (alpha + beta)
    if not 0.0 < eta <= 1.0 + _FAMILY_TOL:
        raise UnsupportedStateError(f"recovered transmissivity {eta:.6f} is unphysical")
    eta = min(eta, 1.0)
    zeta = 0.5 * math.log((2.0 * v_max - (1.0 - eta)) / eta)
    # eigenvector of the squeezed (smallest) eigenvalue gives the axis
    angle = math.atan2(vecs[1, 0], vecs[0, 0])
    return zeta, eta, angle


def _two_mode_family(cov: np.ndarray) -> tuple[float, float]:
    """Recover (zeta, eta) of a symmetric two-mode squeezed state after equal
    loss on both modes, or raise UnsupportedStateError."""
    d = float(cov[0, 0])
    c = float(cov[0, 2])
    pattern = np.array(
        [
            [d, 0.0, c, 0.0],
            [0.0, d, 0.0, -c],
            [c, 0.0, d, 0.0],
            [0.0, -c, 0.0, d],
        ]
    )
    if np.max(np.abs(cov - pattern)) > _FAMILY_TOL:
        raise UnsupportedStateError(
            "covariance does not match the lossy two-mode-squeezed pattern"
        )
    gamma = 2.0 * d - 1.0
    if abs(gamma) < _FAMILY_TOL and abs(c) < _FAMILY_TOL:
        return 0.0, 1.0
    if c < 0:
        raise UnsupportedStateError("positions anticorrelated; outside the family")
    if gamma <= _FAMILY_TOL:
        raise UnsupportedStateError("no thermal excess; outside the family")
    eta = (4.0 * c * c - gamma * gamma) / (2.0 * gamma)
    if not 0.0 < eta <= 1.0 + _FAMILY_TOL:
        raise UnsupportedStateError(f"recovered transmissivity {eta:.6f} is unphysical")
    eta = min(eta, 1.0)
    zeta = 0.5 * math.asinh(2.0 * c / eta)
    return zeta, eta


def gaussian_to_fock(
    state: GaussianState, cutoff: int, tail_tol: float = 1e-3
) -> tuple[FockDensityMatrix, TruncationReport]:
    """Convert a covariance-matrix state of the pipeline family to Fock form.

    Supported states: single-mode squeezed vacuum plus loss (any squeezing
    axis) and the symmetric two-mode squeezed state after equal loss on both
    modes.  Anything else raises UnsupportedStateError.  The state is built
    at a working cutoff above the requested one, the discarded tail is
    measured, and the result is truncated down, so every conversion comes
    with an explicit TruncationReport.  The intermediate states at the
    working cutoff are made Hermitian after each step, as the
    FockDensityMatrix constructor makes them, but only the truncated result
    is validated: the channels keep states positive.
    """
    if state.n_modes not in (1, 2):
        raise UnsupportedStateError("only 1- and 2-mode states are supported")
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    margin = 8
    work = cutoff + margin

    n = state.n_modes
    if n == 1:
        zeta, eta, angle = _single_mode_family(state.cov)
        matrix = _hermitian_part(_squeezed_vacuum(zeta, work))
        if angle != 0.0:
            matrix = _hermitian_part(_rotate(matrix, 1, 0, angle))
    else:
        zeta, eta = _two_mode_family(state.cov)
        matrix = _hermitian_part(_tmsv(zeta, work))
    if eta < 1.0:
        for mode in range(n):
            matrix = _hermitian_part(_loss(matrix, n, mode, eta))

    # one axis per mode: keep photon numbers <= cutoff on every axis and
    # discard each diagonal entry with some photon number above it
    dim, wdim = cutoff + 1, work + 1
    kept = matrix.reshape((wdim,) * 2 * n)[(slice(dim),) * 2 * n].reshape(dim**n, dim**n)
    discarded = np.ones((wdim,) * n, dtype=bool)
    discarded[(slice(dim),) * n] = False
    discarded_diag = np.diag(matrix).real.reshape((wdim,) * n)[discarded]
    trace_kept = float(np.trace(kept).real)
    report = TruncationReport(
        trace_deficit=max(0.0, 1.0 - trace_kept),
        largest_discarded_population=float(discarded_diag.max()),
    )
    out = FockDensityMatrix(state.n_modes, cutoff, kept, tail_tol)
    return out, report
