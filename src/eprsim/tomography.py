"""Iterative maximum-likelihood reconstruction from homodyne records.

The estimator is the fixed-point iteration rho <- N[G rho G] with
G = (1 - d) I + d R(rho),  R(rho) = (1/M) sum_j Pi_j / Tr(rho Pi_j),
where Pi_j projects onto the quadrature eigenstate of datum j and d is the
dilution factor (d = 1 is the plain RrhoR map).  The log-likelihood is
checked every step; if a step would decrease it, the step is retried with
half the d, so accepted iterations are never worse than their predecessor.

The maximum-likelihood states of squeezed data are rank-deficient, where
the plain map crawls, so d adapts (Rehacek et al., PRA 75, 042108 (2007)):
it starts at 1, is carried from step to step, doubles after every step
accepted at its first try, up to _DILUTION_CAP, and halves on a rejection.
The stop test is the plain map's: a relative gain below stop_tol ends the
run only on a step started at d = 1; a small gain of any other step resets
d to 1 and tests again.

Each projector factorises over the modes, Pi = |a><a| (x) |b><b|, and each
factor is written in an orthonormal Hermitian basis of the
(cutoff + 1)^2-dimensional space of one mode's matrices: D = (cutoff + 1)^2
real features per record and mode (_ProjectorFeatures), stored as a D x M
array with one contiguous row per feature.  With r the real D x D
coordinates of a candidate rho, the likelihoods are Tr(rho Pi_j) =
phi_1(j)^T r phi_2(j), one real GEMM r^T Phi_1 and a column-dot with Phi_2;
R has the coordinates Phi_1 diag(w) Phi_2^T: w times each row of Phi_2
and one real GEMM.  One mode reduces both to a matvec.  Only the d x d
matrices G, rho and R are complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IllConditionedDatumError
from .fock import FockDensityMatrix
from .homodyne import QuadratureDataset

_LIKELIHOOD_FLOOR = 1e-300
# d = 8 was always rejected where tried, so a higher cap only costs passes
_DILUTION_CAP = 4.0
_SQRT2 = math.sqrt(2.0)
_SQRT_HALF = math.sqrt(0.5)
_FEATURE_BLOCK = 16384  # records per block of _mode_features


def quad_wavefunction(n: int, x) -> np.ndarray | float:
    """Harmonic-oscillator eigenfunction psi_n(x) in the vacuum-variance-0.5
    convention, computed by the stable upward recurrence
    psi_{n+1} = (sqrt(2) x psi_n - sqrt(n) psi_{n-1}) / sqrt(n+1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    psi = _wavefunction_table(n, x)[n]
    return float(psi[0]) if scalar else psi


def _wavefunction_table(n_max: int, x: np.ndarray) -> np.ndarray:
    """psi_n(x) for all n = 0..n_max, shape (n_max + 1, len(x))."""
    table = np.empty((n_max + 1, len(x)))
    table[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        table[1] = math.sqrt(2.0) * x * table[0]
    for k in range(1, n_max):
        table[k + 1] = (math.sqrt(2.0) * x * table[k] - math.sqrt(k) * table[k - 1]) / math.sqrt(k + 1)
    return table


def _hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal Hermitian basis of the n x n matrices, one flattened matrix
    per row, in the feature order of _mode_features: E_ii, then for each pair i < k
    by increasing k - i, (E_ik + E_ki)/sqrt 2 and i (E_ik - E_ki)/sqrt 2."""
    basis = np.zeros((n * n, n, n), dtype=complex)
    basis[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    row = n
    for shift in range(1, n):
        for i in range(n - shift):
            k = i + shift
            basis[row, i, k] = basis[row, k, i] = _SQRT_HALF
            basis[row + 1, i, k], basis[row + 1, k, i] = 1j * _SQRT_HALF, -1j * _SQRT_HALF
            row += 2
    return basis.reshape(n * n, n * n)


def _mode_features(thetas: np.ndarray, xs: np.ndarray, cutoff: int) -> np.ndarray:
    """Coordinates of each record's |theta, x><theta, x| in _hermitian_basis,
    shape ((cutoff + 1)^2, M), one contiguous row per feature: psi_i^2,
    sqrt 2 psi_i psi_k cos((k - i) theta) and -sqrt 2 psi_i psi_k
    sin((k - i) theta), written block by block of records into one array so
    that the temporaries stay small."""
    n = cutoff + 1
    out = np.empty((n * n, len(xs)))
    for start in range(0, len(xs), _FEATURE_BLOCK):
        rows = slice(start, start + _FEATURE_BLOCK)
        block = out[:, rows]
        psi = _wavefunction_table(cutoff, xs[rows])
        np.square(psi, out=block[:n])
        row = n
        for shift in range(1, n):
            angle = shift * thetas[rows]
            cos, neg_sin = np.cos(angle), -np.sin(angle)
            for i in range(n - shift):
                amplitude = _SQRT2 * psi[i] * psi[i + shift]
                np.multiply(amplitude, cos, out=block[row])
                np.multiply(amplitude, neg_sin, out=block[row + 1])
                row += 2
    return out


class _ProjectorFeatures:
    """A dataset's projectors in real coordinates: each mode's factor
    |theta, x><theta, x| in _hermitian_basis, one (D, M) array per mode.
    A Hermitian matrix H has the real coordinates Tr(B_mu [(x) B_nu] H): a
    D-vector for one mode, a D x D matrix for two."""

    def __init__(self, data: QuadratureDataset, cutoff: int):
        self.n = cutoff + 1
        self.basis = _hermitian_basis(self.n)
        self.first = _mode_features(data.thetas[:, 0], data.xs[:, 0], cutoff)
        self.second = None
        self.scratch = None
        if data.n_modes == 2:
            self.second = _mode_features(data.thetas[:, 1], data.xs[:, 1], cutoff)
            # one D x M temporary, shared by the likelihoods and R's weighted features
            self.scratch = np.empty_like(self.first)

    def likelihoods(self, rho: np.ndarray) -> np.ndarray:
        """Tr(rho Pi_j) = phi_1(j)^T r phi_2(j), or r^T phi(j) for one mode."""
        coords = self._coordinates(rho)
        if self.second is None:
            return coords @ self.first
        np.matmul(coords.T, self.first, out=self.scratch)
        return np.einsum("km,km->m", self.scratch, self.second)

    def weighted_sum(self, weights: np.ndarray) -> np.ndarray:
        """sum_j w_j Pi_j, from its coordinates Phi_1 diag(w) Phi_2^T, or Phi w."""
        if self.second is None:
            return self._from_coordinates(self.first @ weights)
        np.multiply(self.second, weights, out=self.scratch)
        return self._from_coordinates(self.first @ self.scratch.T)

    def _coordinates(self, matrix: np.ndarray) -> np.ndarray:
        conj = self.basis.conj()
        if self.second is None:
            return (conj @ matrix.reshape(-1)).real
        n = self.n
        # regroup H[(a, b), (c, d)] as y[(a, c), (b, d)], one mode per axis
        y = matrix.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
        return (conj @ y @ conj.T).real

    def _from_coordinates(self, coords: np.ndarray) -> np.ndarray:
        n = self.n
        if self.second is None:
            return (coords @ self.basis).reshape(n, n)
        y = self.basis.T @ coords @ self.basis
        return y.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)


@dataclass(frozen=True)
class TomographyConfig:
    cutoff: int = 5
    max_iterations: int = 2000
    stop_tol: float = 1e-8

    def __post_init__(self):
        if self.cutoff < 2:
            raise ValueError("cutoff must be >= 2")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 < self.stop_tol < math.inf:
            raise ValueError("stop_tol must be > 0 and finite")


@dataclass
class TomographyDiagnostics:
    iterations: int
    loglik: float
    phase_deficient: bool
    converged: bool
    loglik_history: list[float] = field(default_factory=list, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "loglik": self.loglik,
            "phase_deficient": self.phase_deficient,
        }


def _phase_deficient(data: QuadratureDataset) -> bool:
    """Whether some mode has fewer than 3 distinct LO phases modulo pi:
    |theta + pi, x> = |theta, -x>, so phases pi apart measure one axis."""
    for m in range(data.n_modes):
        folded = np.mod(data.thetas[:, m], math.pi)
        folded[math.pi - folded < 1e-9] = 0.0
        if len(np.unique(np.round(folded, 9))) < 3:
            return True
    return False


def reconstruct(
    data: QuadratureDataset, config: TomographyConfig
) -> tuple[FockDensityMatrix, TomographyDiagnostics]:
    """Maximum-likelihood density matrix from a quadrature dataset.

    Starts from the maximally mixed state and iterates the diluted
    fixed-point map with an adaptive step until a step started at d = 1 (the
    plain map) gains less than config.stop_tol relative log-likelihood, or
    config.max_iterations is reached.  Raises IllConditionedDatumError,
    naming the datum, if some record has effectively zero likelihood under
    a candidate iterate.
    """
    if data.n_samples == 0:
        raise ValueError("dataset is empty")
    features = _ProjectorFeatures(data, config.cutoff)
    m_records = data.n_samples
    dim = (config.cutoff + 1) ** data.n_modes
    identity = np.eye(dim, dtype=complex)
    rho = identity / dim

    def checked_likelihoods(candidate: np.ndarray) -> np.ndarray:
        p = features.likelihoods(candidate)
        if p.min() < _LIKELIHOOD_FLOOR:
            bad = int(np.argmin(p))
            raise IllConditionedDatumError(bad, float(p[bad]))
        return p

    p = checked_likelihoods(rho)
    loglik = float(np.sum(np.log(p)))
    history = [loglik]
    converged = False
    iterations = 0
    step = 1.0

    for _ in range(config.max_iterations):
        r_op = features.weighted_sum(1.0 / (m_records * p))
        r_op = 0.5 * (r_op + r_op.conj().T)

        dilution = step
        for _attempt in range(60):
            g = (1.0 - dilution) * identity + dilution * r_op
            candidate = g @ rho @ g.conj().T
            candidate = 0.5 * (candidate + candidate.conj().T)
            candidate /= np.trace(candidate).real
            p_new = checked_likelihoods(candidate)
            loglik_new = float(np.sum(np.log(p_new)))
            if loglik_new >= loglik:
                break
            dilution *= 0.5
        else:
            # fixed point reached to machine precision; no admissible step
            converged = True
            break
        iterations += 1
        rho, p = candidate, p_new
        gain = loglik_new - loglik
        loglik = loglik_new
        history.append(loglik)
        if gain <= config.stop_tol * max(1.0, abs(loglik)):
            if step == 1.0:
                converged = True
                break
            # a small over- or under-relaxed gain proves nothing: re-test
            # with the plain map
            step = 1.0
        elif dilution == step:
            step = min(2.0 * step, _DILUTION_CAP)
        else:
            step = dilution

    state = FockDensityMatrix(data.n_modes, config.cutoff, rho)
    diagnostics = TomographyDiagnostics(
        iterations=iterations,
        loglik=loglik,
        phase_deficient=_phase_deficient(data),
        converged=converged,
        loglik_history=history,
    )
    return state, diagnostics
