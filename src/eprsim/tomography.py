"""Maximum-likelihood reconstruction from homodyne records.

The density matrix is written through a full complex factor,
rho = A A^dagger / Tr(A A^dagger), so every A gives a physical state
(James et al., PRA 64, 052312 (2001)), and log L = sum_j log Tr(rho Pi_j),
where Pi_j projects onto the quadrature eigenstate of datum j, is maximised
over A.  Its gradient over the real coordinates (Re A, Im A) is

    dlog L/dA = 2 (M/t) (R - I) A,   t = Tr(A A^dagger),
    R = (1/M) sum_j Pi_j / Tr(rho Pi_j),

so one gradient costs one likelihood pass and one R pass, both at rho.
The ascent is limited-memory BFGS (Liu & Nocedal, Math. Program. 45, 503
(1989)) from A = I / sqrt(d), the maximally mixed state, with an Armijo
backtracking search that halves the step from 1, so no accepted step
lowers log L.  The maximum-likelihood states of squeezed data are
rank-deficient; A need not be, so the ascent never has to reach a
boundary of the state space.

Each projector factorises over the modes, Pi = |a><a| (x) |b><b|, and each
factor is written in an orthonormal Hermitian basis of the
(cutoff + 1)^2-dimensional space of one mode's matrices: D = (cutoff + 1)^2
real features per record and mode (_ProjectorFeatures), stored as a D x M
array with one contiguous row per feature.  One mode gets a second factor
that spans the 1-dimensional space, the single feature 1 in the basis
[[1]], so every dataset has two factors of D_1 and D_2 features.  With r
the real D_1 x D_2 coordinates of a candidate rho, the likelihoods are
Tr(rho Pi_j) = phi_1(j)^T r phi_2(j), a real GEMM r^T Phi_1 and a
column-dot with Phi_2; R has the coordinates Phi_1 diag(w) Phi_2^T: w
times each row of Phi_2 and a real GEMM.  Both passes walk the records
one homodyne block at a time, and R's coordinates are summed block by
block in record order.  Only the d x d matrices A, rho and R are complex.

A mode's records identify its covariance only if its LO phases span the
second-moment design (cos^2 theta, sin^2 theta, 2 sin theta cos theta), the
design a covariance regression solves on (D'Auria et al., PRL 102, 020502
(2009)).  _second_moment_ranks gives each mode's numerical rank of it, and
TomographyDiagnostics.phase_deficient is "some mode's rank < 3": fewer than
3 quadrature directions modulo pi, resolved to the relative eigenvalue
tolerance _RANK_RTOL.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import IllConditionedDatumError
from .fock import FockDensityMatrix
from .homodyne import QuadratureDataset, _blocks

_LIKELIHOOD_FLOOR = 1e-300
_MEMORY = 8  # (s, y) pairs kept by the L-BFGS ascent
_FIRST_STEP = 0.1  # Frobenius length of a step taken with an empty memory; |A_0| = 1
_ARMIJO = 1e-4  # sufficient-increase fraction of the predicted gain
_HALVINGS = 30  # step halvings before a search gives up
# a design Gram's eigenvalues at or below this fraction of its largest are zero;
# a uniform sweep of span w leaves about w^4/180, so spans below ~3.7e-3 rad fail
_RANK_RTOL = 1e-12
_SQRT2 = math.sqrt(2.0)
_SQRT_HALF = math.sqrt(0.5)


def _wavefunction_table(n_max: int, x: np.ndarray) -> np.ndarray:
    """Harmonic-oscillator eigenfunctions psi_n(x) for all n = 0..n_max, shape
    (n_max + 1, len(x)), in the vacuum-variance-0.5 convention, by the stable
    upward recurrence psi_{n+1} = (sqrt(2) x psi_n - sqrt(n) psi_{n-1}) / sqrt(n+1)."""
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
    for rows in _blocks(len(xs)):
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
    |theta, x><theta, x| in _hermitian_basis, one (D, M) array per mode; one
    mode's second factor is the (1, M) ones of the 1-dimensional space.  A
    Hermitian matrix H has the real coordinates Tr((B_mu (x) B_nu) H), a
    D_1 x D_2 matrix."""

    def __init__(self, data: QuadratureDataset, cutoff: int):
        self.first = _mode_features(data.thetas[:, 0], data.xs[:, 0], cutoff)
        if data.n_modes == 2:
            self.second = _mode_features(data.thetas[:, 1], data.xs[:, 1], cutoff)
        else:
            self.second = np.broadcast_to(1.0, (1, data.n_samples))  # a view, nothing allocated
        self.dims = (cutoff + 1, math.isqrt(len(self.second)))
        self.bases = tuple(_hermitian_basis(k) for k in self.dims)

    def likelihoods(self, rho: np.ndarray) -> np.ndarray:
        """Tr(rho Pi_j) = phi_1(j)^T r phi_2(j)."""
        coords = self._coordinates(rho)
        p = np.empty(self.second.shape[1])
        for rows in _blocks(len(p)):
            np.einsum("km,km->m", coords.T @ self.first[:, rows], self.second[:, rows], out=p[rows])
        return p

    def weighted_sum(self, weights: np.ndarray) -> np.ndarray:
        """sum_j w_j Pi_j, from its coordinates Phi_1 diag(w) Phi_2^T, summed
        block by block in record order."""
        # summed as the transpose Phi_2 diag(w) Phi_1^T, the product order
        # that OpenBLAS runs faster for this small result of a long sum
        coords_t = np.zeros((len(self.second), len(self.first)))
        for rows in _blocks(len(weights)):
            coords_t += (self.second[:, rows] * weights[rows]) @ self.first[:, rows].T
        return self._from_coordinates(coords_t.T)

    def _coordinates(self, matrix: np.ndarray) -> np.ndarray:
        (n1, n2), (basis1, basis2) = self.dims, self.bases
        # regroup H[(a, b), (c, d)] as y[(a, c), (b, d)], one mode per axis
        y = matrix.reshape(n1, n2, n1, n2).transpose(0, 2, 1, 3).reshape(n1 * n1, n2 * n2)
        return (basis1.conj() @ y @ basis2.conj().T).real

    def _from_coordinates(self, coords: np.ndarray) -> np.ndarray:
        (n1, n2), (basis1, basis2) = self.dims, self.bases
        y = basis1.T @ coords @ basis2
        return y.reshape(n1, n1, n2, n2).transpose(0, 2, 1, 3).reshape(n1 * n2, n1 * n2)


@dataclass(frozen=True)
class TomographyConfig:
    cutoff: int = 4
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
    # likelihood passes, the start and rejected trials included; not in to_json_dict
    evaluations: int
    loglik_history: list[float] = field(default_factory=list, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "loglik": self.loglik,
            "phase_deficient": self.phase_deficient,
        }


def _second_moment_ranks(data: QuadratureDataset) -> list[int]:
    """Numerical rank of each mode's second-moment design, the columns
    (cos^2 theta, sin^2 theta, 2 sin theta cos theta) that take the mode's
    covariance (V_xx, V_pp, V_xp) to <x_theta^2>, one row per record.  The
    3 x 3 Gram is summed one block of records at a time; its rank counts
    the eigenvalues above _RANK_RTOL times the largest.  The columns are
    pi-periodic, as |theta + pi, x> = |theta, -x> measures the same axis, so
    rank 3 needs 3 directions modulo pi, resolved to that tolerance."""
    ranks = []
    for m in range(data.n_modes):
        gram = np.zeros((3, 3))
        for rows in _blocks(data.n_samples):
            theta = data.thetas[rows, m]
            cos, sin = np.cos(theta), np.sin(theta)
            design = np.stack([cos * cos, sin * sin, 2.0 * sin * cos])
            gram += design @ design.T
        eigenvalues = np.linalg.eigvalsh(gram)
        ranks.append(int(np.count_nonzero(eigenvalues > _RANK_RTOL * eigenvalues[-1])))
    return ranks


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """Real inner product of two complex matrices over (Re, Im)."""
    return float(np.vdot(u, v).real)


def _lbfgs_direction(gradient: np.ndarray, pairs: deque) -> np.ndarray:
    """H gradient, with H the L-BFGS inverse-Hessian estimate of -log L from
    the (s, y, 1/y.s) pairs, scaled by s.y/y.y of the newest (two-loop
    recursion, Nocedal & Wright, Numerical Optimization, alg. 7.4)."""
    q = gradient.copy()
    alphas = []
    for s, y, inv_sy in reversed(pairs):
        alpha = inv_sy * _dot(s, q)
        q -= alpha * y
        alphas.append(alpha)
    s, y, _ = pairs[-1]
    q *= _dot(s, y) / _dot(y, y)
    for (s, y, inv_sy), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - inv_sy * _dot(y, q)) * s
    return q


def _density(factor: np.ndarray) -> np.ndarray:
    """rho = A A^dagger / Tr(A A^dagger)."""
    rho = factor @ factor.conj().T
    return rho / np.trace(rho).real


def _gradient(features: _ProjectorFeatures, factor: np.ndarray, p: np.ndarray) -> np.ndarray:
    """dlog L/dA = 2 (M/t) (R - I) A at rho = _density(A), whose datum
    likelihoods are p; one R pass."""
    m_records = len(p)
    r_op = features.weighted_sum(1.0 / (m_records * p))
    return (2.0 * m_records / _dot(factor, factor)) * (r_op @ factor - factor)


def reconstruct(
    data: QuadratureDataset, config: TomographyConfig
) -> tuple[FockDensityMatrix, TomographyDiagnostics]:
    """Maximum-likelihood density matrix from a quadrature dataset.

    Ascends log L over the factor A of rho = A A^dagger / Tr(A A^dagger)
    from the maximally mixed state, A = I / sqrt(d), by L-BFGS with memory
    _MEMORY.  The gradient is 2 (M/t) (R - I) A.  A step with an empty
    memory has length _FIRST_STEP along the gradient; later steps are
    scaled by s.y/y.y, and a pair whose curvature s.y is not positive is
    not stored.  The Armijo search tries the step at 1, 1/2, 1/4, ...
    (_HALVINGS times) and accepts the first with a sufficient increase; a
    trial with some datum likelihood below _LIKELIHOOD_FLOOR is rejected.
    A failed search drops the memory and retries along the gradient; a
    failed gradient search means no admissible step is left, and the run
    stops converged.

    Stops, converged, on an accepted step that gains at most
    config.stop_tol * max(1, |log L|) where its quadratic model (half the
    step times the slope along it) predicted at most that too, or, not
    converged, after config.max_iterations accepted steps.  Raises
    IllConditionedDatumError, naming the datum, if some record has
    effectively zero likelihood under the maximally mixed state.
    """
    if data.n_samples == 0:
        raise ValueError("dataset is empty")
    phase_deficient = min(_second_moment_ranks(data)) < 3
    features = _ProjectorFeatures(data, config.cutoff)
    dim = (config.cutoff + 1) ** data.n_modes
    a = np.eye(dim, dtype=complex) / math.sqrt(dim)
    rho = _density(a)
    p = features.likelihoods(rho)
    if p.min() < _LIKELIHOOD_FLOOR:
        bad = int(np.argmin(p))
        raise IllConditionedDatumError(bad, float(p[bad]))
    loglik = float(np.sum(np.log(p)))
    history = [loglik]
    evaluations = 1
    grad = _gradient(features, a, p)
    pairs: deque = deque(maxlen=_MEMORY)
    converged = False
    iterations = 0

    while iterations < config.max_iterations:
        if pairs:
            direction = _lbfgs_direction(grad, pairs)
        else:
            direction = (_FIRST_STEP / math.sqrt(_dot(grad, grad))) * grad
        slope = _dot(grad, direction)
        step = 1.0
        for _ in range(_HALVINGS):
            trial = a + step * direction
            trial_rho = _density(trial)
            trial_p = features.likelihoods(trial_rho)
            evaluations += 1
            if trial_p.min() >= _LIKELIHOOD_FLOOR:
                trial_loglik = float(np.sum(np.log(trial_p)))
                if trial_loglik >= loglik + _ARMIJO * step * slope:
                    break
            step *= 0.5
        else:
            if pairs:
                pairs.clear()
                continue
            # no admissible step along the gradient: a maximum to machine precision
            converged = True
            break
        iterations += 1
        gain = trial_loglik - loglik
        a, rho, p, loglik = trial, trial_rho, trial_p, trial_loglik
        history.append(loglik)
        # a small gain where the step's quadratic model predicted a large
        # one is a poor step, not a maximum
        if max(gain, 0.5 * step * slope) <= config.stop_tol * max(1.0, abs(loglik)):
            converged = True
            break
        new_grad = _gradient(features, a, p)
        s, y = step * direction, grad - new_grad
        sy = _dot(s, y)
        if sy > 0.0:
            pairs.append((s, y, 1.0 / sy))
        grad = new_grad

    state = FockDensityMatrix(data.n_modes, config.cutoff, rho)
    diagnostics = TomographyDiagnostics(
        iterations=iterations,
        loglik=loglik,
        phase_deficient=phase_deficient,
        converged=converged,
        evaluations=evaluations,
        loglik_history=history,
    )
    return state, diagnostics
