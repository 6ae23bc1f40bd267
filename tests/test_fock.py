import hashlib
import math

import numpy as np
import pytest
from scipy.linalg import expm

from eprsim.errors import UnsupportedStateError
from eprsim.fock import (
    FockDensityMatrix,
    destroy,
    fidelity,
    gaussian_to_fock,
    loss_fock,
    mean_photon,
    quad_covariance,
    rotate_fock,
    squeezed_vacuum_fock,
    tmsv_fock,
)
from eprsim.gaussian import (
    PipelineConfig,
    beamsplit,
    epr_pipeline,
    loss,
    phase_shift,
    reduce_modes,
    squeeze,
    vacuum,
)


def squeeze_operator_oracle(zeta, dim):
    """Brute force: numerically exponentiate (z/2)(a^2 - adag^2) onto |0>."""
    a = destroy(dim)
    gen = 0.5 * zeta * (a @ a - a.conj().T @ a.conj().T)
    return expm(gen) @ np.eye(dim)[:, 0]


def two_mode_squeeze_oracle(zeta, dim):
    a = destroy(dim)
    eye = np.eye(dim)
    big_a, big_b = np.kron(a, eye), np.kron(eye, a)
    gen = zeta * (big_a.conj().T @ big_b.conj().T - big_a @ big_b)
    return expm(gen) @ np.eye(dim * dim)[:, 0]


def lift_oracle(op, mode):
    """A single-mode operator embedded in the 2-mode product space."""
    eye = np.eye(op.shape[0], dtype=complex)
    return np.kron(op, eye) if mode == 0 else np.kron(eye, op)


def loss_oracle(rho, mode, eta):
    """Sum over photon numbers k of 2-mode lifted Kraus operators
    A_k = sum_m sqrt(C(m,k) eta^(m-k) (1-eta)^k) |m-k><m|, in k order, as a
    state (whose constructor symmetrizes the sum)."""
    dim = rho.cutoff + 1
    out = np.zeros_like(rho.matrix)
    for k in range(dim):
        a = np.zeros((dim, dim), dtype=complex)
        for m in range(k, dim):
            a[m - k, m] = math.sqrt(math.comb(m, k) * eta ** (m - k) * (1.0 - eta) ** k)
        full = lift_oracle(a, mode)
        out += full @ rho.matrix @ full.conj().T
    return FockDensityMatrix(rho.n_modes, rho.cutoff, out, rho.tail_tol)


def lossy_tmsv(zeta, eta, cutoff):
    rho = tmsv_fock(zeta, cutoff)
    rho = loss_fock(rho, 0, eta)
    return loss_fock(rho, 1, eta)


class TestSqueezedVacuumFock:
    def test_matches_exponentiated_generator(self):
        psi = squeeze_operator_oracle(0.44, 41)
        rho = squeezed_vacuum_fock(0.44, 40, tail_tol=1.0)
        np.testing.assert_allclose(rho.matrix, np.outer(psi, psi.conj()), atol=1e-8)

    def test_ground_population(self):
        rho = squeezed_vacuum_fock(0.44, 12)
        assert rho.population(0) == pytest.approx(1.0 / math.cosh(0.44), abs=1e-12)

    def test_zero_squeezing_is_vacuum(self):
        rho = squeezed_vacuum_fock(0.0, 4)
        expected = np.zeros((5, 5))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-15)

    def test_odd_populations_vanish(self):
        rho = squeezed_vacuum_fock(0.7, 11)
        for n in range(1, 12, 2):
            assert rho.population(n) == 0.0

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            squeezed_vacuum_fock(0.3, 1)

    def test_trace_budget_enforced(self):
        # cutoff 5 leaves ~1.7e-3 of a zeta=0.44 squeezed vacuum above it
        with pytest.raises(ValueError, match="trace"):
            squeezed_vacuum_fock(0.44, 5, tail_tol=1e-3)
        rho = squeezed_vacuum_fock(0.44, 5, tail_tol=5e-3)
        assert float(np.trace(rho.matrix).real) > 0.995


class TestTmsvFock:
    def test_matches_exponentiated_generator(self):
        dim = 26
        psi = two_mode_squeeze_oracle(0.44, dim)
        rho = tmsv_fock(0.44, dim - 1, tail_tol=1.0)
        np.testing.assert_allclose(rho.matrix, np.outer(psi, psi.conj()), atol=1e-8)

    def test_schmidt_populations(self):
        rho = tmsv_fock(0.44, 8)
        lam = math.tanh(0.44)
        assert rho.population(0, 0) == pytest.approx(1 - lam**2, abs=1e-12)
        assert rho.population(1, 1) == pytest.approx((1 - lam**2) * lam**2, abs=1e-12)

    def test_zero_squeezing_is_vacuum(self):
        rho = tmsv_fock(0.0, 3)
        assert rho.population(0, 0) == pytest.approx(1.0, abs=1e-15)

    def test_photon_numbers_correlated(self):
        rho = tmsv_fock(0.6, 6)
        for n in range(7):
            for m in range(7):
                if n != m:
                    assert rho.population(n, m) == 0.0


class TestLossFock:
    def test_identity_at_full_transmission(self):
        rho = tmsv_fock(0.44, 6)
        out = loss_fock(rho, 0, 1.0)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_single_photon_bernoulli(self):
        matrix = np.zeros((4, 4), dtype=complex)
        matrix[1, 1] = 1.0
        rho = FockDensityMatrix(1, 3, matrix)
        out = loss_fock(rho, 0, 0.5)
        assert out.population(0) == pytest.approx(0.5, abs=1e-12)
        assert out.population(1) == pytest.approx(0.5, abs=1e-12)

    def test_mean_photon_after_loss(self):
        rho = lossy_tmsv(0.44, 0.5, 12)
        expected = 0.5 * math.sinh(0.44) ** 2
        for mode in (0, 1):
            assert mean_photon(rho, mode) == pytest.approx(expected, abs=1e-7)

    def test_trace_preserved(self):
        rho = squeezed_vacuum_fock(0.6, 14)
        out = loss_fock(rho, 0, 0.37)
        assert float(np.trace(out.matrix).real) == pytest.approx(
            float(np.trace(rho.matrix).real), abs=1e-10
        )

    def test_composition(self):
        rho = squeezed_vacuum_fock(0.5, 12)
        once = loss_fock(rho, 0, 0.7 * 0.6)
        twice = loss_fock(loss_fock(rho, 0, 0.7), 0, 0.6)
        np.testing.assert_allclose(once.matrix, twice.matrix, atol=1e-10)

    def test_eta_validated(self):
        with pytest.raises(ValueError):
            loss_fock(tmsv_fock(0.3, 4), 0, -0.1)


class TestModeAsymmetricOracle:
    """Per-mode operations on a state that changes under mode exchange, so a
    swapped mode axis cannot pass; each is checked against the same operation
    on kron-lifted full-space operators."""

    @pytest.fixture(scope="class")
    def rho(self):
        # lossy TMSV coherences change both photon numbers alike, so the
        # squeezed-vacuum-times-vacuum half is what tells a rotation's mode
        lossy = rotate_fock(loss_fock(tmsv_fock(0.5, 5), 0, 0.3), 0, 0.7)
        ground = np.zeros((6, 6))
        ground[0, 0] = 1.0
        product = np.kron(rotate_fock(squeezed_vacuum_fock(0.3, 5), 0, 0.4).matrix, ground)
        rho = FockDensityMatrix(2, 5, 0.5 * (lossy.matrix + product))
        swapped = rho.matrix.reshape((6,) * 4).transpose(1, 0, 3, 2).reshape(36, 36)
        assert np.max(np.abs(swapped - rho.matrix)) > 0.05
        return rho

    @pytest.mark.parametrize("mode", [0, 1])
    @pytest.mark.parametrize("eta", [0.0, 0.35, 1.0])
    def test_loss_matches_lifted_kraus_sum(self, rho, mode, eta):
        np.testing.assert_array_equal(loss_fock(rho, mode, eta).matrix, loss_oracle(rho, mode, eta).matrix)

    @pytest.mark.parametrize("mode", [0, 1])
    def test_rotation_matches_lifted_phase(self, rho, mode):
        u = lift_oracle(np.diag(np.exp(1.1j * np.arange(6))), mode)
        expected = FockDensityMatrix(2, 5, u @ rho.matrix @ u.conj().T).matrix
        np.testing.assert_allclose(rotate_fock(rho, mode, 1.1).matrix, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("mode", [0, 1])
    def test_mean_photon_matches_lifted_number_operator(self, rho, mode):
        n_op = lift_oracle(np.diag(np.arange(6.0)).astype(complex), mode)
        assert mean_photon(rho, mode) == float(np.trace(rho.matrix @ n_op).real)


class TestMeanPhoton:
    def test_vacuum(self):
        assert mean_photon(squeezed_vacuum_fock(0.0, 4), 0) == 0.0

    def test_single_photon(self):
        matrix = np.zeros((4, 4), dtype=complex)
        matrix[1, 1] = 1.0
        assert mean_photon(FockDensityMatrix(1, 3, matrix), 0) == pytest.approx(1.0)

    def test_pure_squeezed(self):
        rho = squeezed_vacuum_fock(0.44, 30)
        assert mean_photon(rho, 0) == pytest.approx(math.sinh(0.44) ** 2, abs=1e-8)


class TestFidelity:
    def test_self_fidelity(self):
        # cutoff deep enough that the truncation deficit sits below 1e-10
        rho = lossy_tmsv(0.44, 0.5, 16)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_states(self):
        zero = np.zeros((4, 4), dtype=complex)
        one = zero.copy()
        zero[0, 0] = 1.0
        one[1, 1] = 1.0
        assert fidelity(FockDensityMatrix(1, 3, zero), FockDensityMatrix(1, 3, one)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_symmetry(self):
        rho = lossy_tmsv(0.44, 0.5, 8)
        sigma = lossy_tmsv(0.40, 0.5, 8)
        assert fidelity(rho, sigma) == pytest.approx(fidelity(sigma, rho), abs=1e-8)

    def test_frozen_regression_value(self):
        # frozen from the eigendecomposition/SVD oracle at cutoff 12
        rho = lossy_tmsv(0.44, 0.5, 12)
        sigma = lossy_tmsv(0.40, 0.5, 12)
        assert fidelity(rho, sigma) == pytest.approx(0.9987667480664337, abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(squeezed_vacuum_fock(0.3, 4), squeezed_vacuum_fock(0.3, 5))


class TestPurity:
    def test_pure_before_loss(self):
        assert squeezed_vacuum_fock(0.44, 30, tail_tol=1.0).purity() == pytest.approx(1.0, abs=1e-10)
        assert tmsv_fock(0.44, 14).purity() == pytest.approx(1.0, abs=1e-10)

    def test_mixed_after_loss(self):
        assert lossy_tmsv(0.44, 0.5, 8).purity() < 0.99


class TestGaussianToFock:
    def test_pipeline_equals_lossy_tmsv(self):
        # deep cutoff: the construction identity holds to 1e-10 once the
        # truncation tail of the direct route drops below that level
        state = epr_pipeline(PipelineConfig(zeta=0.44, eta=0.5))
        rho, _ = gaussian_to_fock(state, 16)
        expected = lossy_tmsv(0.44, 0.5, 16)
        np.testing.assert_allclose(rho.matrix, expected.matrix, atol=1e-10)

    def test_trace_deficit_small_at_default_cutoff(self):
        state = epr_pipeline(PipelineConfig(zeta=0.44, eta=0.5))
        rho, deficit = gaussian_to_fock(state, 5)
        expected = lossy_tmsv(0.44, 0.5, 5)
        np.testing.assert_allclose(rho.matrix, expected.matrix, atol=1e-4)
        assert deficit < 1e-4

    def test_vacuum(self):
        rho, deficit = gaussian_to_fock(vacuum(2), 3)
        assert rho.population(0, 0) == pytest.approx(1.0, abs=1e-12)
        assert deficit == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        ("state", "cutoff", "digest"),
        [
            (
                epr_pipeline(PipelineConfig(zeta=0.44, eta=0.5)),
                4,
                "9f2f67e806388d1ced902457f7f25a9bac8788298c6c2ca530d4f1ec9d157db6",
            ),
            (
                loss(squeeze(vacuum(1), 0, 0.44), 0, 0.52),
                4,
                "c9ae439598568b228420ea757eb4b8fc86ef52f673c5a56c51e1a34e45360f7d",
            ),
            (
                epr_pipeline(PipelineConfig(zeta=0.44, relative_phase=0.3, eta=0.5, mismatch=0.2)),
                8,
                "06ffd184ae94f344cb76c1ea45fa75ec1c043e7285bfba725ed5c86a8dd15495",
            ),
        ],
        ids=["readme-reference", "one-mode", "mismatched-pipeline"],
    )
    def test_matrix_bytes_pinned(self, state, cutoff, digest):
        # sha256 of the matrix bytes as the conversion wrote them when its
        # Hermite table still ran two levels past the cutoff: the recurrence
        # fills each entry from lower indices only, so stopping at the
        # cutoff changes no kept entry
        rho, deficit = gaussian_to_fock(state, cutoff)
        assert hashlib.sha256(rho.matrix.tobytes()).hexdigest() == digest
        assert deficit == max(0.0, 1.0 - float(np.trace(rho.matrix).real))

    def test_single_mode_round_trip_covariance(self):
        state = loss(squeeze(vacuum(1), 0, 0.44), 0, 0.52)
        rho, _ = gaussian_to_fock(state, 10)
        np.testing.assert_allclose(quad_covariance(rho), state.cov, atol=1e-3)

    def test_rotated_single_mode(self):
        state = loss(phase_shift(squeeze(vacuum(1), 0, 0.5), 0, 0.7), 0, 0.8)
        rho, _ = gaussian_to_fock(state, 12)
        np.testing.assert_allclose(quad_covariance(rho), state.cov, atol=1e-3)

    def test_two_mode_round_trip_covariance(self):
        for zeta, eta in ((0.2, 1.0), (0.44, 0.5), (0.6, 0.3)):
            state = epr_pipeline(PipelineConfig(zeta=zeta, eta=eta))
            rho, _ = gaussian_to_fock(state, 10)
            np.testing.assert_allclose(quad_covariance(rho), state.cov, atol=1e-3)

    def test_report_of_pure_states(self):
        # the deficit is the population above the cutoff: a squeezed vacuum's
        # levels 6, 8, ... and a TMSV's |44>, |55>, ...
        zeta = 0.6
        _, deficit = gaussian_to_fock(squeeze(vacuum(1), 0, zeta), 5, tail_tol=1.0)
        populations = squeezed_vacuum_fock(zeta, 13, tail_tol=1.0).matrix.diagonal().real
        assert deficit == pytest.approx(1.0 - populations[:6].sum(), rel=1e-9)
        lam2 = math.tanh(zeta) ** 2
        _, deficit = gaussian_to_fock(epr_pipeline(PipelineConfig(zeta=zeta)), 3, tail_tol=1.0)
        assert deficit == pytest.approx(lam2**4, rel=1e-9)

    @pytest.fixture(scope="class")
    def deep_lossy_tmsv(self):
        """(state, closed-form chain at cutoff 40) pairs: at zeta <= 0.7 the
        TMSV fills level n with tanh(zeta)^(2n), so the chain's own tail
        stays below 1e-16.  Each chain costs seconds, so the cutoffs share
        a lossy one and a pure one."""
        rng = np.random.default_rng(40)
        zeta, eta = rng.uniform(0.0, 0.7), rng.uniform(0.0, 1.0)
        lossy = loss_fock(loss_fock(tmsv_fock(0.7, 40, tail_tol=1.0), 0, eta), 1, eta)
        return [
            (epr_pipeline(PipelineConfig(zeta=0.7, eta=eta)), lossy.matrix.reshape((41,) * 4)),
            (epr_pipeline(PipelineConfig(zeta=zeta)), tmsv_fock(zeta, 40, tail_tol=1.0).matrix.reshape((41,) * 4)),
        ]

    @pytest.mark.parametrize("cutoff", [2, 4, 7])
    def test_equals_validated_public_chain(self, deep_lossy_tmsv, cutoff):
        # the closed-form chains at a deep cutoff, then truncated, are exact
        # to rounding; squeezed vacuum fills level n with ~tanh(zeta)^n, so
        # its chain needs twice the TMSV's cutoff
        dim = cutoff + 1
        for state, chain in deep_lossy_tmsv:
            kept = chain[:dim, :dim, :dim, :dim].reshape(dim**2, dim**2)
            rho, _ = gaussian_to_fock(state, cutoff, tail_tol=1.0)
            np.testing.assert_allclose(rho.matrix, kept, rtol=0, atol=1e-14)
        rng = np.random.default_rng(cutoff)
        for zeta, eta, angle in zip(rng.uniform(0.0, 0.7, 8), [1.0, *rng.uniform(0.0, 1.0, 7)], rng.uniform(0, 3, 8)):
            state = loss(squeeze(vacuum(1), 0, zeta, angle), 0, eta)
            chain = loss_fock(rotate_fock(squeezed_vacuum_fock(zeta, 80, tail_tol=1.0), 0, angle), 0, eta)
            rho, _ = gaussian_to_fock(state, cutoff, tail_tol=1.0)
            np.testing.assert_allclose(rho.matrix, chain.matrix[:dim, :dim], rtol=0, atol=1e-14)

    def test_near_vacuum_squeezing(self):
        # a covariance this close to the vacuum once read as a transmissivity
        # above 1 and was rejected
        rho, _ = gaussian_to_fock(loss(squeeze(vacuum(1), 0, 1.36e-6), 0, 1.0), 4)
        np.testing.assert_allclose(rho.matrix, squeezed_vacuum_fock(1.36e-6, 4).matrix, rtol=0, atol=1e-15)

    def test_thermal_mode_bose_einstein(self):
        # a reduced pipeline mode is thermal: diagonal, n^k / (n + 1)^(k + 1)
        reduced = reduce_modes(epr_pipeline(PipelineConfig(zeta=0.44, eta=0.5)), (0,))
        nbar = 0.5 * math.sinh(0.44) ** 2
        rho, _ = gaussian_to_fock(reduced, 6)
        expected = np.diag([nbar**k / (nbar + 1) ** (k + 1) for k in range(7)])
        np.testing.assert_allclose(rho.matrix, expected, rtol=0, atol=1e-15)

    def test_separable_two_mode_is_product(self):
        state = epr_pipeline(PipelineConfig(zeta=0.44, relative_phase=0.0))
        rho, _ = gaussian_to_fock(state, 6)
        modes = [gaussian_to_fock(reduce_modes(state, (m,)), 6)[0].matrix for m in range(2)]
        np.testing.assert_allclose(rho.matrix, np.kron(*modes), rtol=0, atol=1e-15)

    def test_states_outside_the_pipeline_round_trip_covariance(self):
        # unequal squeezers at arbitrary angles, asymmetric loss, then
        # interference and a phase shift; zeta <= 0.4 keeps what the
        # cutoff-14 quadrature operators miss below 1e-8
        rng = np.random.default_rng(16)
        for _ in range(5):
            z1, z2, eta1, eta2 = *rng.uniform(0.0, 0.4, 2), *rng.uniform(0.2, 1.0, 2)
            state = squeeze(squeeze(vacuum(2), 0, z1, rng.uniform(0, math.pi)), 1, z2, rng.uniform(0, math.pi))
            state = phase_shift(beamsplit(loss(loss(state, 0, eta1), 1, eta2), 0, 1), 1, rng.uniform(0, math.pi))
            rho, _ = gaussian_to_fock(state, 14)
            np.testing.assert_allclose(quad_covariance(rho), state.cov, rtol=0, atol=1e-8)

    def test_three_modes_unsupported(self):
        with pytest.raises(UnsupportedStateError):
            gaussian_to_fock(vacuum(3), 4)


class TestRotateFock:
    def test_rotation_matches_covariance_side(self):
        rho = squeezed_vacuum_fock(0.5, 16)
        rotated = rotate_fock(rho, 0, 0.9)
        state = phase_shift(squeeze(vacuum(1), 0, 0.5), 0, 0.9)
        np.testing.assert_allclose(quad_covariance(rotated), state.cov, atol=1e-3)


class TestValidation:
    def test_non_hermitian_rejected(self):
        matrix = np.eye(4, dtype=complex)
        matrix[0, 1] = 0.5
        with pytest.raises(ValueError, match="Hermitian"):
            FockDensityMatrix(1, 3, matrix)

    def test_negative_eigenvalue_rejected(self):
        matrix = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            FockDensityMatrix(1, 3, matrix)

    def test_json_round_trip_bit_exact(self):
        rho = lossy_tmsv(0.44, 0.5, 4)
        payload = rho.to_json_dict()
        assert payload["basis"] == "fock |n1 n2> lexicographic"
        assert (payload["n_modes"], payload["cutoff"]) == (2, 4)
        # row-major [re, im] pairs rebuild the matrix bit for bit
        again = np.array([complex(re, im) for re, im in payload["entries"]]).reshape(rho.dim, rho.dim)
        np.testing.assert_array_equal(again.view(np.uint64), rho.matrix.view(np.uint64))
