"""Truncated photon-number representation of 1- and 2-mode states.

Density matrices are stored over the basis |n1> (one mode) or |n1 n2>
(two modes, lexicographic, index = n1*(cutoff+1) + n2) with photon numbers
0..cutoff per mode.  The phase convention makes squeezed-vacuum amplitudes
real with alternating sign, which squeezes x for zeta > 0; this matches the
theta = 0 convention of the covariance module.

Per-mode operations act on the mode's own row and column axes of the matrix
viewed as a tensor with one row and one column axis per mode.  Loss of
transmissivity eta is the beam-splitter photon-loss channel of homodyne
tomography, rho'_mn = sum_k sqrt(C(m+k,k) C(n+k,k)) eta^((m+n)/2) (1-eta)^k rho_{m+k,n+k}.

`gaussian_to_fock` converts any zero-mean 1- or 2-mode covariance exactly up
to the cutoff and returns the result's trace deficit beside it; the
closed-form squeezed states and channels here are its independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedStateError
from .gaussian import GaussianState

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
        # exactly Hermitian, and unchanged if it already was
        matrix = 0.5 * (matrix + matrix.conj().T)
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


def destroy(dim: int) -> np.ndarray:
    """Annihilation operator truncated to `dim` levels."""
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)


def _mode_axes(rho: FockDensityMatrix, mode: int):
    """rho's matrix viewed with one row and one column axis of cutoff + 1
    levels per mode, `mode`'s two axes last, and the inverse map back to a
    matrix."""
    if not 0 <= mode < rho.n_modes:
        raise ValueError(f"mode {mode} out of range")
    dim = len(rho.matrix)
    axes = (mode, rho.n_modes + mode)
    tensor = rho.matrix.reshape((rho.cutoff + 1,) * 2 * rho.n_modes)

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


def squeezed_vacuum_fock(zeta: float, cutoff: int, tail_tol: float = 1e-3) -> FockDensityMatrix:
    """Single-mode squeezed vacuum as a truncated pure-state density matrix."""
    _check_squeezing(zeta, cutoff)
    amps = _squeezed_amplitudes(zeta, cutoff)
    return FockDensityMatrix(1, cutoff, np.outer(amps, amps).astype(complex), tail_tol)


def tmsv_fock(zeta: float, cutoff: int, tail_tol: float = 1e-3) -> FockDensityMatrix:
    """Two-mode squeezed vacuum, Schmidt form sqrt(1-L^2) sum_n L^n |nn> with
    L = tanh(zeta); positions correlated, momenta anticorrelated."""
    _check_squeezing(zeta, cutoff)
    lam = math.tanh(zeta)
    dim = cutoff + 1
    vec = np.zeros(dim * dim)
    norm = math.sqrt(1.0 - lam * lam)
    for n in range(dim):
        vec[n * dim + n] = norm * lam**n
    return FockDensityMatrix(2, cutoff, np.outer(vec, vec).astype(complex), tail_tol)


def loss_fock(rho: FockDensityMatrix, mode: int, eta: float) -> FockDensityMatrix:
    """Apply a loss channel of transmissivity eta to one mode: the Kraus sum of
    A_k = sum_m sqrt(C(m,k) eta^(m-k) (1-eta)^k) |m-k><m|, trace-preserving
    on the truncated space, applied to the mode's axes in k order."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity must be in [0, 1], got {eta}")
    t, to_matrix = _mode_axes(rho, mode)
    dim = t.shape[-1]
    out = np.zeros_like(t)
    for k in range(dim):
        a = np.array([math.sqrt(math.comb(m, k) * eta ** (m - k) * (1.0 - eta) ** k) for m in range(k, dim)])
        out[..., : dim - k, : dim - k] += (a[:, None] * t[..., k:, k:]) * a
    return FockDensityMatrix(rho.n_modes, rho.cutoff, to_matrix(out), rho.tail_tol)


def rotate_fock(rho: FockDensityMatrix, mode: int, phi: float) -> FockDensityMatrix:
    """Phase-space rotation by phi on one mode: entries pick up e^{i phi (n - m)}.

    Matches the covariance-module convention V'(theta) = V(theta - phi).
    """
    t, to_matrix = _mode_axes(rho, mode)
    phases = np.exp(1j * phi * np.arange(t.shape[-1]))
    return FockDensityMatrix(rho.n_modes, rho.cutoff, to_matrix((phases[:, None] * t) * phases.conj()), rho.tail_tol)


def mean_photon(rho: FockDensityMatrix, mode: int) -> float:
    """Tr(rho n_mode), with n_mode applied to the mode's column axis."""
    t, to_matrix = _mode_axes(rho, mode)
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


def _hermite_table(a: np.ndarray, t: float, dim: int) -> np.ndarray:
    """G_k = t haf(A_k) / sqrt(k!) for every index k in [0, dim)^len(a),
    where A_k repeats row and column j of `a` k_j times.

    Filled one slab of the first index at a time by the recurrence
    G_{k+e_0} = sum_j a_0j sqrt(k_j) G_{k-e_j} / sqrt(k_0 + 1).  On the
    k_0 = 0 slab every j = 0 term vanishes, so that slab is the same table
    for a[1:, 1:].
    """
    n = len(a)
    if n == 0:
        return np.array(t, dtype=complex)
    g = np.zeros((dim,) * n, dtype=complex)
    g[0] = _hermite_table(a[1:, 1:], t, dim)
    root = np.sqrt(np.arange(dim))
    for k in range(dim - 1):
        # g[-1] is still all zeros at k = 0, and root[0] = 0 besides
        step = a[0, 0] * root[k] * g[k - 1]
        for j in range(1, n):
            # sqrt(k_j) G_{k-e_j}: the slab shifted up one level on its axis j - 1
            np.moveaxis(step, j - 1, -1)[..., 1:] += a[0, j] * root[1:] * np.moveaxis(g[k], j - 1, -1)[..., :-1]
        g[k + 1] = step / root[k + 1]
    return g


def gaussian_to_fock(
    state: GaussianState, cutoff: int, tail_tol: float = 1e-3
) -> tuple[FockDensityMatrix, float]:
    """Convert a zero-mean 1- or 2-mode Gaussian state to Fock form, exactly.

    <m|rho|n> = T haf(A_{m+n}) / sqrt(m! n!) with Q = W V W^dag + I/2,
    A = X (I - Q^-1)^* and T = det(Q)^(-1/2), where W maps (x1, p1, x2, p2)
    to (a1, a2, a1^dag, a2^dag) and X swaps the a and a^dag halves (Kruse et
    al., PRA 100, 032326 (2019); with zero mean the loop hafnian is a
    hafnian).  The hafnians come from the Hermite recurrence of Miatto &
    Quesada, Quantum 4, 366 (2020), which fills each entry from lower
    indices only, so the table stops at the cutoff.  Every covariance, pure
    or mixed, squeezed, thermal or separable, takes this one path.  Returns
    the validated matrix and its trace deficit max(0, 1 - Tr rho), exact
    because the kept entries are.  Other mode counts raise
    UnsupportedStateError.
    """
    n = state.n_modes
    if n not in (1, 2):
        raise UnsupportedStateError("only 1- and 2-mode states are supported")
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    w = np.vstack([np.kron(np.eye(n), [[1.0, 1j]]), np.kron(np.eye(n), [[1.0, -1j]])]) / math.sqrt(2.0)
    q = w @ state.cov @ w.conj().T + 0.5 * np.eye(2 * n)
    a = np.kron([[0.0, 1.0], [1.0, 0.0]], np.eye(n)) @ (np.eye(2 * n) - np.linalg.inv(q)).conj()
    dim = cutoff + 1
    table = _hermite_table(a, 1.0 / math.sqrt(np.linalg.det(q).real), dim)
    # the first n axes index the ket, the last n the bra
    rho = FockDensityMatrix(n, cutoff, table.reshape(dim**n, dim**n), tail_tol)
    return rho, max(0.0, 1.0 - float(np.trace(rho.matrix).real))
