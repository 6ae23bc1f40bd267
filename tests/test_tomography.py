import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad as integrate

from eprsim import tomography
from eprsim.errors import IllConditionedDatumError
from eprsim.fock import fidelity, loss_fock, quad_covariance, tmsv_fock
from eprsim.gaussian import PipelineConfig, epr_pipeline, loss, squeeze, vacuum
from eprsim.homodyne import _BLOCK_ROWS, PhaseSchedule, QuadratureDataset, SweepConfig, sample
from eprsim.tomography import TomographyConfig, reconstruct


def wavefunction(n: int, x: float) -> float:
    """psi_n(x) at one point, read off the library's wavefunction table."""
    return float(tomography._wavefunction_table(n, np.atleast_1d(float(x)))[n, 0])


def projector_overlaps(theta: float, x: float, cutoff: int) -> np.ndarray:
    """Overlap vector <n|theta, x> = e^{i n theta} psi_n(x), n = 0..cutoff."""
    psi = tomography._wavefunction_table(cutoff, np.atleast_1d(float(x)))[:, 0]
    return np.exp(1j * theta * np.arange(cutoff + 1)) * psi


def complex_overlaps(data: QuadratureDataset, cutoff: int) -> np.ndarray:
    """Per-record overlap vectors o_j = <n|theta, x> (Kronecker products for two
    modes), shape (M, dim), so that Tr(rho Pi_j) = <o_j| rho |o_j>: the complex
    reference form of the projectors that reconstruct holds as real features."""
    ns = np.arange(cutoff + 1)
    per_mode = [
        np.exp(1j * np.outer(data.thetas[:, m], ns)) * tomography._wavefunction_table(cutoff, data.xs[:, m]).T
        for m in range(data.n_modes)
    ]
    if data.n_modes == 1:
        return per_mode[0]
    return np.einsum("ma,mb->mab", *per_mode).reshape(data.n_samples, -1)


class TestQuadWavefunction:
    def test_ground_state_at_origin(self):
        assert wavefunction(0, 0.0) == pytest.approx(math.pi ** -0.25, abs=1e-14)

    def test_vacuum_variance_by_quadrature(self):
        value, _ = integrate(lambda x: wavefunction(0, x) ** 2 * x * x, -12, 12)
        assert value == pytest.approx(0.5, abs=1e-8)

    def test_orthonormality_by_quadrature(self):
        for n in range(11):
            for m in range(n, 11):
                value, _ = integrate(
                    lambda x: wavefunction(n, x) * wavefunction(m, x),
                    -14,
                    14,
                    limit=200,
                )
                assert value == pytest.approx(1.0 if n == m else 0.0, abs=1e-8)

    def test_vectorized(self):
        xs = np.linspace(-3, 3, 11)
        values = tomography._wavefunction_table(4, xs)[4]
        assert values.shape == (11,)
        assert values[5] == pytest.approx(wavefunction(4, 0.0), abs=1e-14)


class TestProjectorOverlaps:
    def test_real_at_zero_phase(self):
        vec = projector_overlaps(0.0, 0.7, 8)
        np.testing.assert_allclose(vec.imag, 0.0, atol=1e-15)
        for n in range(9):
            assert vec[n].real == pytest.approx(wavefunction(n, 0.7), abs=1e-14)

    def test_pi_phase_flips_odd_orders(self):
        base = projector_overlaps(0.0, 0.4, 6)
        flipped = projector_overlaps(math.pi, 0.4, 6)
        for n in range(7):
            expected = base[n] * (-1) ** n
            assert flipped[n] == pytest.approx(expected, abs=1e-12)

    def test_norm_independent_of_phase(self):
        # at x = 0 the squared norm is the direct sum over even orders
        expected = sum(wavefunction(n, 0.0) ** 2 for n in range(0, 11, 2))
        for theta in (0.0, 0.9, 2.4):
            vec = projector_overlaps(theta, 0.0, 10)
            assert np.sum(np.abs(vec) ** 2) == pytest.approx(expected, abs=1e-12)

    def test_cache_rows_are_tensor_products(self):
        data = QuadratureDataset(
            thetas=np.array([[0.3, 1.1]]), xs=np.array([[0.5, -0.2]])
        )
        row = complex_overlaps(data, 3)[0]
        left = projector_overlaps(0.3, 0.5, 3)
        right = projector_overlaps(1.1, -0.2, 3)
        np.testing.assert_allclose(row, np.kron(left, right), atol=1e-12)


def _random_state(rng, dim):
    # a random full-rank density matrix, mixed with the identity to keep it well conditioned
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return 0.5 * rho / np.trace(rho).real + 0.5 * np.eye(dim) / dim


class TestProjectorFeatures:
    """The real Hermitian-basis arithmetic of reconstruct against the complex overlaps."""

    @pytest.mark.parametrize(
        "cutoff, n_modes, m",
        [pytest.param(c, n, 300, id=f"{c}-{n}") for c in (2, 3, 4, 5, 6) for n in (1, 2)]
        # crosses the 16384-record homodyne._BLOCK_ROWS boundary of _mode_features and the passes
        + [pytest.param(3, 2, 16_500, id="3-2-16500")],
    )
    def test_matches_complex_overlaps(self, cutoff, n_modes, m):
        rng = np.random.default_rng(10 * cutoff + n_modes)
        data = QuadratureDataset(
            thetas=rng.uniform(-8.0, 8.0, (m, n_modes)), xs=rng.uniform(-6.0, 6.0, (m, n_modes))
        )
        overlaps = complex_overlaps(data, cutoff)
        features = tomography._ProjectorFeatures(data, cutoff)
        for _ in range(3):
            rho = _random_state(rng, overlaps.shape[1])
            expected = np.einsum("md,de,me->m", overlaps.conj(), rho, overlaps).real
            np.testing.assert_allclose(features.likelihoods(rho), expected, rtol=1e-10, atol=0.0)
            weights = rng.uniform(0.1, 2.0, m)
            expected_r = np.einsum("m,md,me->de", weights, overlaps, overlaps.conj())
            error = np.linalg.norm(features.weighted_sum(weights) - expected_r)
            assert error <= 1e-10 * np.linalg.norm(expected_r)

    @pytest.mark.parametrize("cutoff", [2, 4, 6])
    def test_one_mode_pass_is_bit_exact(self, cutoff):
        # one mode through the two-factor path against the matvec forms it
        # replaced, bit for bit: likelihoods r^T Phi, and R's coordinates
        # Phi w summed block by block of _BLOCK_ROWS records in record order
        rng = np.random.default_rng(70 + cutoff)
        m = 20_000
        data = QuadratureDataset(thetas=rng.uniform(0.0, 2 * math.pi, (m, 1)), xs=rng.normal(0.0, 0.8, (m, 1)))
        features = tomography._ProjectorFeatures(data, cutoff)
        basis = tomography._hermitian_basis(cutoff + 1)
        blocks = [slice(start, start + _BLOCK_ROWS) for start in range(0, m, _BLOCK_ROWS)]
        for _ in range(3):
            rho = _random_state(rng, cutoff + 1)
            coords = (basis.conj() @ rho.ravel()).real
            assert np.array_equal(features.likelihoods(rho), coords @ features.first)
            weights = rng.uniform(0.1, 2.0, m)
            r_coords = sum(features.first[:, rows] @ weights[rows] for rows in blocks)
            expected_r = (r_coords @ basis).reshape(cutoff + 1, cutoff + 1)
            assert np.array_equal(features.weighted_sum(weights), expected_r)

    def test_passes_hold_one_block_of_scratch(self):
        # two modes over three blocks and a remainder: above the features, a
        # likelihood and an R pass hold one D x _BLOCK_ROWS block of scratch
        # and a few record-length vectors, not another D x M array
        cutoff, m = 4, 3 * _BLOCK_ROWS + 7
        d = (cutoff + 1) ** 2
        rng = np.random.default_rng(80)
        data = QuadratureDataset(thetas=rng.uniform(0.0, 2 * math.pi, (m, 2)), xs=rng.normal(0.0, 0.8, (m, 2)))
        rho = _random_state(rng, d)
        weights = rng.uniform(0.1, 2.0, m)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            features = tomography._ProjectorFeatures(data, cutoff)
            features.likelihoods(rho)
            features.weighted_sum(weights)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        extra = peak - features.first.nbytes - features.second.nbytes
        assert extra < 8 * (d * _BLOCK_ROWS + 4 * m)


def _two_mode_small():
    state = epr_pipeline(PipelineConfig(zeta=0.44, eta=0.5))
    n = 60_000
    phases = (PhaseSchedule(0.0, 2 * math.pi * 11 / n), PhaseSchedule(0.3, 2 * math.pi * 4 / n))
    data = sample(state, SweepConfig(phases=phases, n_samples=n, seed=53))
    return data, TomographyConfig(cutoff=3, stop_tol=1e-7)


def _squeezed_cutoff_6():
    state = loss(squeeze(vacuum(1), 0, 0.44), 0, 0.52)
    data = sample(state, SweepConfig(phases=(PhaseSchedule(0.0, 2e-4),), n_samples=30_000, seed=55))
    return data, TomographyConfig(cutoff=6)


def _vacuum_cutoff_4():
    config = SweepConfig(phases=(PhaseSchedule(0.0, 2 * math.pi * 7 / 100_000),), n_samples=100_000, seed=51)
    return sample(vacuum(1), config), TomographyConfig(cutoff=4)


# Final log-likelihood and iteration count of the plain map (d = 1 at every
# step, halved only on a decrease) on the datasets of three tests below.
PLAIN_MAP_RESULTS = {
    "two_mode_round_trip_small": (_two_mode_small, -136735.4881, 74),
    "loglik_monotone": (_squeezed_cutoff_6, -34536.4887, 71),
    "vacuum_recovery": (_vacuum_cutoff_4, -107050.9291, 264),
}


# Final log-likelihood of the adaptively diluted RrhoR map (Rehacek et al.,
# PRA 75, 042108 (2007); step from 1 up to 4, halved on a decrease), the
# estimator before the L-BFGS ascent, on the datasets of two tests below.
DILUTED_MAP_LOGLIK = {
    "two_mode_round_trip_small": (_two_mode_small, -136735.2765),
    "loglik_monotone": (_squeezed_cutoff_6, -34536.4834),
}


class TestReconstruct:
    def test_vacuum_recovery(self):
        config = SweepConfig(
            phases=(PhaseSchedule(0.0, 2 * math.pi * 7 / 100_000),),
            n_samples=100_000,
            seed=51,
        )
        data = sample(vacuum(1), config)
        rho, diag = reconstruct(data, TomographyConfig(cutoff=4))
        assert rho.population(0) >= 0.99
        assert not diag.phase_deficient

    def test_single_mode_squeezed_covariance(self):
        state = loss(squeeze(vacuum(1), 0, 0.44), 0, 0.52)
        config = SweepConfig(
            phases=(PhaseSchedule(0.0, 2 * math.pi * 7 / 150_000),),
            n_samples=150_000,
            seed=52,
        )
        data = sample(state, config)
        rho, _ = reconstruct(data, TomographyConfig(cutoff=8))
        np.testing.assert_allclose(quad_covariance(rho), state.cov, atol=0.02)

    def test_two_mode_round_trip_small(self):
        state = epr_pipeline(PipelineConfig(zeta=0.44, eta=0.5))
        n = 60_000
        config = SweepConfig(
            phases=(
                PhaseSchedule(0.0, 2 * math.pi * 11 / n),
                PhaseSchedule(0.3, 2 * math.pi * 4 / n),
            ),
            n_samples=n,
            seed=53,
        )
        data = sample(state, config)
        rho, diag = reconstruct(data, TomographyConfig(cutoff=3, stop_tol=1e-7))
        reference = loss_fock(loss_fock(tmsv_fock(0.44, 3), 0, 0.5), 1, 0.5)
        assert fidelity(rho, reference) >= 0.97
        assert diag.converged

    def test_trace_and_hermiticity_preserved(self):
        data = sample(
            vacuum(1),
            SweepConfig(phases=(PhaseSchedule(0.0, 1e-3),), n_samples=5000, seed=54),
        )
        rho, _ = reconstruct(data, TomographyConfig(cutoff=4))
        assert float(np.trace(rho.matrix).real) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(rho.matrix, rho.matrix.conj().T, atol=1e-12)

    def test_loglik_monotone_over_accepted_iterations(self):
        state = loss(squeeze(vacuum(1), 0, 0.44), 0, 0.52)
        data = sample(
            state,
            SweepConfig(phases=(PhaseSchedule(0.0, 2e-4),), n_samples=30_000, seed=55),
        )
        _, diag = reconstruct(data, TomographyConfig(cutoff=6))
        history = np.array(diag.loglik_history)
        assert np.all(np.diff(history) >= 0)

    def test_phase_deficient_flagged_but_converges(self):
        state = squeeze(vacuum(1), 0, 0.3)
        data = sample(
            state,
            SweepConfig(phases=(PhaseSchedule(0.0, 0.0),), n_samples=20_000, seed=56),
        )
        rho, diag = reconstruct(data, TomographyConfig(cutoff=4, max_iterations=300))
        assert diag.phase_deficient
        assert float(np.trace(rho.matrix).real) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("case", sorted(PLAIN_MAP_RESULTS))
    def test_ends_above_plain_map_in_fewer_iterations(self, case):
        make, plain_loglik, plain_iterations = PLAIN_MAP_RESULTS[case]
        _, diag = reconstruct(*make())
        assert diag.converged
        assert diag.loglik >= plain_loglik
        assert diag.iterations < plain_iterations

    @pytest.mark.parametrize("case", sorted(DILUTED_MAP_LOGLIK))
    def test_ends_above_diluted_map(self, case):
        make, diluted_loglik = DILUTED_MAP_LOGLIK[case]
        _, diag = reconstruct(*make())
        assert diag.converged
        assert diag.loglik >= diluted_loglik

    @pytest.mark.parametrize("n_modes, cutoff", [(1, 3), (2, 2)])
    def test_gradient_matches_finite_differences(self, n_modes, cutoff):
        # dlog L/dA = 2 (M/t) (R - I) A over (Re A, Im A), against central
        # differences of log L computed from the complex overlaps
        rng = np.random.default_rng(59)
        m = 400
        data = QuadratureDataset(
            thetas=rng.uniform(0.0, 2 * math.pi, (m, n_modes)), xs=rng.normal(0.0, 0.8, (m, n_modes))
        )
        overlaps = complex_overlaps(data, cutoff)
        features = tomography._ProjectorFeatures(data, cutoff)
        dim = overlaps.shape[1]

        def loglik(factor):
            rho = factor @ factor.conj().T / np.vdot(factor, factor).real
            return float(np.sum(np.log(np.einsum("md,de,me->m", overlaps.conj(), rho, overlaps).real)))

        factor = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        p = features.likelihoods(tomography._density(factor))
        analytic = tomography._gradient(features, factor, p)
        numeric = np.zeros_like(factor)
        h = 1e-6
        for index in np.ndindex(factor.shape):
            for unit in (1.0, 1j):
                step = np.zeros_like(factor)
                step[index] = h * unit
                numeric[index] += unit * (loglik(factor + step) - loglik(factor - step)) / (2 * h)
        assert np.linalg.norm(numeric - analytic) <= 1e-6 * np.linalg.norm(analytic)

    def test_no_admissible_step_ends_converged(self):
        # no gain passes a stop_tol this small, so the run ends when a search
        # along the gradient, after the memory is dropped, finds no step
        data = sample(vacuum(1), SweepConfig(phases=(PhaseSchedule(0.0, 1e-3),), n_samples=5000, seed=54))
        config = TomographyConfig(cutoff=4, stop_tol=1e-300)
        _, diag = reconstruct(data, config)
        assert diag.converged
        assert diag.iterations < config.max_iterations
        assert diag.evaluations >= diag.iterations + 1 + tomography._HALVINGS
        assert np.all(np.diff(diag.loglik_history) >= 0)

    @pytest.mark.parametrize("stop_tol", [1e-2, 1e-3])
    def test_loose_stop_tol_stops_early(self, stop_tol):
        # a loose tolerance must end the ascent after a few steps
        data, _ = _squeezed_cutoff_6()
        _, diag = reconstruct(data, TomographyConfig(cutoff=6, stop_tol=stop_tol))
        assert diag.converged
        assert diag.iterations < 20

    def test_loglik_is_that_of_the_returned_state(self):
        full, config = _two_mode_small()
        data = QuadratureDataset(thetas=full.thetas[:6000], xs=full.xs[:6000])
        rho, diag = reconstruct(data, config)
        overlaps = complex_overlaps(data, config.cutoff)
        p = np.einsum("md,md->m", overlaps.conj() @ rho.matrix, overlaps).real
        assert diag.loglik == pytest.approx(float(np.sum(np.log(p))), rel=1e-12)

    def test_empty_dataset_rejected(self):
        data = QuadratureDataset(thetas=np.empty((0, 1)), xs=np.empty((0, 1)))
        with pytest.raises(ValueError):
            reconstruct(data, TomographyConfig(cutoff=4))

    def test_ill_conditioned_datum_named(self):
        thetas = np.zeros((3, 1))
        xs = np.array([[0.1], [40.0], [-0.2]])
        data = QuadratureDataset(thetas=thetas, xs=xs)
        with pytest.raises(IllConditionedDatumError) as err:
            reconstruct(data, TomographyConfig(cutoff=4))
        assert err.value.index == 1

    def test_ill_conditioned_datum_named_two_modes(self):
        thetas = np.array([[0.0, 0.3], [0.5, 1.1], [1.0, 2.2], [1.5, 0.7]])
        xs = np.array([[0.1, -0.3], [0.4, 0.2], [-0.2, 40.0], [0.3, 0.1]])
        data = QuadratureDataset(thetas=thetas, xs=xs)
        with pytest.raises(IllConditionedDatumError) as err:
            reconstruct(data, TomographyConfig(cutoff=3))
        assert err.value.index == 2

    @pytest.mark.parametrize(
        "phases, deficient",
        [
            ([k * math.pi for k in range(12)], True),  # an LO phase step of pi
            ([0.0, 2 * math.pi, 4 * math.pi] * 4, True),
            ([0.3, 0.3 + math.pi, 1.1, 1.1 - 3 * math.pi] * 3, True),
            ([0.0, math.pi - 1e-12, 0.8, 2 * math.pi + 1e-12] * 3, True),
            ([0.0, 1.0 + math.pi, 2.0 - 2 * math.pi] * 4, False),
            # thousands of distinct phases within 1e-3 rad resolve 2 directions, not 3
            (np.linspace(0.0, 1e-3, 50_000), True),
            (np.linspace(0.0, 0.1, 50_000), False),
            ([0.0] * 3000 + [1.0] * 3000 + [2.0], False),
            # a 2-D entry is the whole thetas array: one mode at two phases
            ([[0.0], [1.0]] * 6, True),
        ],
    )
    def test_phase_deficiency_counts_phases_modulo_pi(self, phases, deficient):
        # |theta + pi, x> = |theta, -x>: phases pi apart measure one quadrature axis
        rng = np.random.default_rng(58)
        phases = np.asarray(phases)
        thetas = phases if phases.ndim == 2 else np.column_stack([np.linspace(0.0, 3.0, len(phases)), phases])
        data = QuadratureDataset(thetas=thetas, xs=rng.normal(0.0, 0.7, thetas.shape))
        _, diag = reconstruct(data, TomographyConfig(cutoff=3, max_iterations=3))
        assert diag.phase_deficient == deficient

    @pytest.mark.parametrize(
        "phases, n_samples, ranks",
        [
            # the phase-complete schedule: mode 1 over 11 periods, mode 2 over 4
            (
                (PhaseSchedule(0.0, 2 * math.pi * 11 / 50_000), PhaseSchedule(0.3, 2 * math.pi * 4 / 50_000)),
                50_000,
                [3, 3],
            ),
            # the README epr-sweep: mode 1 over its default 4 pi, mode 2 held at --theta2
            ((PhaseSchedule(0.0, 4 * math.pi / 400_000), PhaseSchedule(0.0)), 400_000, [3, 1]),
        ],
        ids=["tomo-complete", "readme-held-theta2"],
    )
    def test_second_moment_ranks(self, phases, n_samples, ranks):
        thetas = SweepConfig(phases=phases, n_samples=n_samples, seed=1).thetas()
        data = QuadratureDataset(thetas=thetas, xs=np.zeros_like(thetas))
        assert tomography._second_moment_ranks(data) == ranks

    def test_diagnostics_json_fields(self, monkeypatch):
        data = sample(
            vacuum(1),
            SweepConfig(phases=(PhaseSchedule(0.0, 1e-3),), n_samples=2000, seed=57),
        )
        passes = []
        likelihoods = tomography._ProjectorFeatures.likelihoods

        def counted(features, rho):
            passes.append(1)
            return likelihoods(features, rho)

        monkeypatch.setattr(tomography._ProjectorFeatures, "likelihoods", counted)
        _, diag = reconstruct(data, TomographyConfig(cutoff=3))
        # the start and every trial, accepted or rejected, are counted
        assert diag.evaluations == len(passes)
        assert diag.evaluations >= diag.iterations + 1
        payload = diag.to_json_dict()
        assert set(payload) == {"iterations", "loglik", "phase_deficient"}


class TestTomographyConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TomographyConfig(cutoff=1)
        # inf would stop after one step reporting convergence; nan would never converge
        for stop_tol in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="stop_tol"):
                TomographyConfig(stop_tol=stop_tol)
        with pytest.raises(ValueError):
            TomographyConfig(max_iterations=0)
