import math

import numpy as np
import pytest

from eprsim.gaussian import (
    GaussianState,
    PipelineConfig,
    beamsplit,
    beamsplit_matrix,
    epr_pipeline,
    epr_variance,
    joint_quad_variance,
    loss,
    phase_matrix,
    phase_shift,
    quad_variance,
    reduce_modes,
    single_mode_variance,
    squeeze,
    squeeze_matrix,
    symplectic_form,
    vacuum,
)


def squeezed_lossy(zeta, eta):
    return loss(squeeze(vacuum(1), 0, zeta), 0, eta)


class TestVacuum:
    def test_single_mode(self):
        np.testing.assert_allclose(vacuum(1).cov, 0.5 * np.eye(2))

    def test_two_modes(self):
        np.testing.assert_allclose(vacuum(2).cov, 0.5 * np.eye(4))

    def test_vacuum_noise_level(self):
        for theta in (0.0, 0.3, math.pi / 2, 2.0):
            assert quad_variance(vacuum(1), 0, theta) == pytest.approx(0.5, abs=1e-15)

    def test_zero_modes_rejected(self):
        with pytest.raises(ValueError):
            vacuum(0)


class TestStateValidation:
    def test_asymmetric_rejected(self):
        cov = 0.5 * np.eye(2)
        cov[0, 1] = 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            GaussianState(1, cov)

    def test_unphysical_rejected(self):
        # below the uncertainty bound in both quadratures
        with pytest.raises(ValueError, match="unphysical"):
            GaussianState(1, 0.1 * np.eye(2))

    def test_cov_is_immutable(self):
        state = vacuum(1)
        with pytest.raises(ValueError):
            state.cov[0, 0] = 1.0


class TestSqueeze:
    def test_pure_squeezed_variance(self):
        state = squeeze(vacuum(1), 0, 0.44)
        # 0.5 e^{-2 zeta}, oracle arithmetic
        assert quad_variance(state, 0, 0.0) == pytest.approx(0.20739145584079072, abs=1e-12)
        assert quad_variance(state, 0, math.pi / 2) == pytest.approx(0.5 * math.exp(0.88), abs=1e-12)

    def test_zeta_zero_is_identity(self):
        state = squeeze(vacuum(1), 0, 0.0, angle=0.7)
        np.testing.assert_allclose(state.cov, 0.5 * np.eye(2), atol=1e-15)

    def test_inverse_recovers_vacuum(self):
        state = squeeze(squeeze(vacuum(1), 0, 0.6, angle=0.3), 0, -0.6, angle=0.3)
        np.testing.assert_allclose(state.cov, 0.5 * np.eye(2), atol=1e-12)

    def test_angle_moves_minimum(self):
        state = squeeze(vacuum(1), 0, 0.5, angle=0.8)
        assert quad_variance(state, 0, 0.8) == pytest.approx(0.5 * math.exp(-1.0), abs=1e-12)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            squeeze(vacuum(1), 1, 0.1)


class TestPhaseShift:
    def test_rotates_squeezing_axis(self):
        state = phase_shift(squeeze(vacuum(1), 0, 0.44), 0, math.pi / 2)
        assert quad_variance(state, 0, math.pi / 2) == pytest.approx(0.20739145584079072, abs=1e-12)
        assert quad_variance(state, 0, 0.0) == pytest.approx(0.5 * math.exp(0.88), abs=1e-12)

    def test_variance_map_convention(self):
        # V'(theta) = V(theta - phi) for any phi
        state = squeeze(vacuum(1), 0, 0.3)
        phi = 0.9
        shifted = phase_shift(state, 0, phi)
        for theta in np.linspace(0, 2 * math.pi, 7):
            assert quad_variance(shifted, 0, theta) == pytest.approx(
                quad_variance(state, 0, theta - phi), abs=1e-12
            )

    def test_zero_is_identity(self):
        state = squeeze(vacuum(1), 0, 0.44)
        np.testing.assert_allclose(phase_shift(state, 0, 0.0).cov, state.cov, atol=1e-15)

    def test_full_turn_is_identity(self):
        state = squeeze(vacuum(1), 0, 0.44)
        np.testing.assert_allclose(phase_shift(state, 0, 2 * math.pi).cov, state.cov, atol=1e-12)


class TestBeamsplit:
    def test_orthogonally_squeezed_inputs(self):
        # mode 0 squeezed along x, mode 1 squeezed along p; congruence by hand:
        # Var(x_i) = Var(p_i) = 0.5 cosh 2z and, with the (X0 - X1)/sqrt(2)
        # first output, Cov(x1, x2) = -0.5 sinh 2z, Cov(p1, p2) = +0.5 sinh 2z.
        z = 0.44
        state = squeeze(squeeze(vacuum(2), 0, z), 1, z, angle=math.pi / 2)
        out = beamsplit(state, 0, 1)
        ch, sh = 0.5 * math.cosh(2 * z), 0.5 * math.sinh(2 * z)
        expected = np.array(
            [
                [ch, 0.0, -sh, 0.0],
                [0.0, ch, 0.0, sh],
                [-sh, 0.0, ch, 0.0],
                [0.0, sh, 0.0, ch],
            ]
        )
        np.testing.assert_allclose(out.cov, expected, atol=1e-12)

    def test_vacuum_in_vacuum_out(self):
        out = beamsplit(vacuum(2), 0, 1)
        np.testing.assert_allclose(out.cov, 0.5 * np.eye(4), atol=1e-15)

    def test_four_applications_are_identity(self):
        state = squeeze(squeeze(vacuum(2), 0, 0.3), 1, 0.7, angle=0.2)
        out = state
        for _ in range(4):
            out = beamsplit(out, 0, 1)
        np.testing.assert_allclose(out.cov, state.cov, atol=1e-12)

    def test_equal_modes_rejected(self):
        with pytest.raises(ValueError):
            beamsplit(vacuum(2), 1, 1)


class TestLoss:
    def test_full_transmission_is_identity(self):
        state = squeeze(vacuum(1), 0, 0.44)
        np.testing.assert_allclose(loss(state, 0, 1.0).cov, state.cov, atol=1e-15)

    def test_zero_transmission_gives_vacuum(self):
        state = epr_pipeline(PipelineConfig(zeta=0.6))
        out = loss(state, 0, 0.0)
        np.testing.assert_allclose(out.cov[:2, :2], 0.5 * np.eye(2), atol=1e-12)
        np.testing.assert_allclose(out.cov[:2, 2:], np.zeros((2, 2)), atol=1e-12)

    def test_fig2a_operating_point(self):
        state = squeezed_lossy(0.44, 0.52)
        assert quad_variance(state, 0, 0.0) == pytest.approx(0.34784355703721115, abs=1e-12)

    def test_eta_out_of_range(self):
        with pytest.raises(ValueError):
            loss(vacuum(1), 0, 1.2)


class TestQuadVariance:
    def test_operating_point_min_max(self):
        state = squeezed_lossy(0.44, 0.52)
        assert quad_variance(state, 0, 0.0) == pytest.approx(0.34784355703721115, abs=1e-12)
        assert quad_variance(state, 0, math.pi / 2) == pytest.approx(0.8668339236684746, abs=1e-12)

    def test_full_loss_is_vacuum_noise(self):
        state = squeezed_lossy(1.3, 0.0)
        for theta in np.linspace(0, 2 * math.pi, 9):
            assert quad_variance(state, 0, theta) == pytest.approx(0.5, abs=1e-12)

    def test_matches_closed_form_random(self):
        # matrix route vs analytic curve on 100 random parameter triples
        rng = np.random.default_rng(7)
        for _ in range(100):
            z = rng.uniform(0, 1.5)
            eta = rng.uniform(0, 1)
            theta = rng.uniform(0, 2 * math.pi)
            state = squeezed_lossy(z, eta)
            assert quad_variance(state, 0, theta) == pytest.approx(
                float(single_mode_variance(z, eta, theta)), abs=1e-12
            )


class TestJointQuadVariance:
    def test_operating_point_extrema(self):
        state = epr_pipeline(PipelineConfig(zeta=0.44, eta=0.50))
        assert joint_quad_variance(state, 0.0, 0.0, "minus") == pytest.approx(
            0.3536957279203954, abs=1e-12
        )
        assert joint_quad_variance(state, 0.0, 0.0, "plus") == pytest.approx(
            0.8527249266043024, abs=1e-12
        )

    def test_vacuum_for_zero_squeezing(self):
        state = epr_pipeline(PipelineConfig(zeta=0.0, eta=0.7))
        for t1 in (0.0, 0.4, 1.9):
            for sign in ("plus", "minus"):
                assert joint_quad_variance(state, t1, 0.3, sign) == pytest.approx(0.5, abs=1e-12)

    def test_matches_closed_form_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            z = rng.uniform(0, 1.5)
            eta = rng.uniform(0, 1)
            t1, t2 = rng.uniform(0, 2 * math.pi, size=2)
            state = epr_pipeline(PipelineConfig(zeta=z, eta=eta))
            for sign in ("plus", "minus"):
                assert joint_quad_variance(state, t1, t2, sign) == pytest.approx(
                    float(epr_variance(z, eta, t1 + t2, sign)), abs=1e-12
                )

    def test_needs_two_modes(self):
        with pytest.raises(ValueError):
            joint_quad_variance(vacuum(1), 0.0, 0.0, "plus")

    def test_sign_validated(self):
        with pytest.raises(ValueError):
            joint_quad_variance(vacuum(2), 0.0, 0.0, "sum")


class TestEprPipeline:
    def test_single_mode_variance_is_thermal(self):
        state = epr_pipeline(PipelineConfig(zeta=0.44, eta=0.50))
        for mode in (0, 1):
            for theta in np.linspace(0, 2 * math.pi, 13):
                assert quad_variance(state, mode, theta) == pytest.approx(
                    0.6032103272623489, abs=1e-12
                )

    def test_zero_squeezing_gives_vacuum(self):
        state = epr_pipeline(PipelineConfig(zeta=0.0))
        np.testing.assert_allclose(state.cov, 0.5 * np.eye(4), atol=1e-12)

    def test_zero_relative_phase_is_separable(self):
        state = epr_pipeline(PipelineConfig(zeta=0.44, relative_phase=0.0, eta=1.0))
        np.testing.assert_allclose(state.cov[:2, 2:], np.zeros((2, 2)), atol=1e-12)
        # both outputs stay squeezed along x
        for mode in (0, 1):
            assert quad_variance(state, mode, 0.0) == pytest.approx(
                0.5 * math.exp(-0.88), abs=1e-12
            )

    def test_positions_correlated_momenta_anticorrelated(self):
        state = epr_pipeline(PipelineConfig(zeta=0.44, eta=0.50))
        assert state.cov[0, 2] > 0
        assert state.cov[1, 3] < 0
        assert state.cov[0, 2] == pytest.approx(0.25 * math.sinh(0.88), abs=1e-12)

    def test_pipeline_correlation_coefficient(self):
        state = epr_pipeline(PipelineConfig(zeta=0.44, eta=0.50))
        sub = state.cov[np.ix_([0, 2], [0, 2])]
        corr = sub[0, 1] / math.sqrt(sub[0, 0] * sub[1, 1])
        assert corr == pytest.approx(0.41364444218713514, abs=1e-12)

    def test_mismatch_breaks_thermal_flatness(self):
        state = epr_pipeline(PipelineConfig(zeta=0.44, eta=0.50, mismatch=0.05))
        v0 = quad_variance(state, 0, 0.0)
        v90 = quad_variance(state, 0, math.pi / 2)
        assert abs(v0 - v90) > 1e-3

    def test_mismatch_zero_phase_pi_half_is_ideal(self):
        ideal = epr_pipeline(PipelineConfig(zeta=0.3, eta=0.8))
        explicit = epr_pipeline(
            PipelineConfig(zeta=0.3, relative_phase=math.pi / 2, eta=0.8, mismatch=0.0)
        )
        np.testing.assert_allclose(explicit.cov, ideal.cov, atol=1e-15)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(zeta=-0.1)
        with pytest.raises(ValueError):
            PipelineConfig(zeta=0.1, eta=1.3)
        with pytest.raises(ValueError):
            PipelineConfig(zeta=0.1, mismatch=-0.2)


class TestInvariants:
    def test_symplectic_ops_preserve_form(self):
        omega = symplectic_form(2)
        mats = [
            squeeze_matrix(2, 0, 0.7, angle=0.3),
            phase_matrix(2, 1, 1.1),
            beamsplit_matrix(2, 0, 1),
        ]
        for s in mats:
            np.testing.assert_allclose(s @ omega @ s.T, omega, atol=1e-12)

    def test_random_sequences_stay_physical(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            state = vacuum(n)
            for _ in range(int(rng.integers(1, 8))):
                op = rng.integers(0, 4)
                mode = int(rng.integers(0, n))
                if op == 0:
                    state = squeeze(state, mode, rng.uniform(0, 1.5), rng.uniform(0, math.pi))
                elif op == 1:
                    state = phase_shift(state, mode, rng.uniform(0, 2 * math.pi))
                elif op == 2 and n > 1:
                    other = int((mode + 1) % n)
                    state = beamsplit(state, mode, other)
                else:
                    state = loss(state, mode, rng.uniform(0, 1))
            eigs = np.linalg.eigvalsh(state.cov + 0.5j * symplectic_form(n))
            assert eigs.min() > -1e-10

    def test_half_frequency_property(self):
        # single-mode curve has period pi in theta, the joint curve period 2 pi
        thetas = np.linspace(0, 2 * math.pi, 41)
        v_single = single_mode_variance(0.44, 0.52, thetas)
        np.testing.assert_allclose(
            v_single, single_mode_variance(0.44, 0.52, thetas + math.pi), atol=1e-12
        )
        v_joint = epr_variance(0.44, 0.50, thetas, "minus")
        v_joint_shift = epr_variance(0.44, 0.50, thetas + math.pi, "minus")
        assert np.max(np.abs(v_joint - v_joint_shift)) > 0.1
        np.testing.assert_allclose(
            v_joint, epr_variance(0.44, 0.50, thetas + 2 * math.pi, "minus"), atol=1e-12
        )

    def test_sum_difference_complementarity(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            z = rng.uniform(0, 1.2)
            eta = rng.uniform(0, 1)
            t1, t2 = rng.uniform(0, 2 * math.pi, size=2)
            state = epr_pipeline(PipelineConfig(zeta=z, eta=eta))
            total = joint_quad_variance(state, t1, t2, "plus") + joint_quad_variance(
                state, t1, t2, "minus"
            )
            assert total == pytest.approx(eta * math.cosh(2 * z) + (1 - eta), abs=1e-12)

    def test_large_squeezing_supported(self):
        state = squeeze(vacuum(1), 0, 5.0)
        assert quad_variance(state, 0, math.pi / 2) == pytest.approx(0.5 * math.exp(10.0), rel=1e-12)
        assert quad_variance(state, 0, 0.0) == pytest.approx(0.5 * math.exp(-10.0), rel=1e-12)


class TestReduceModes:
    def test_keeps_selected_block(self):
        state = epr_pipeline(PipelineConfig(zeta=0.44, eta=0.5))
        single = reduce_modes(state, (1,))
        np.testing.assert_allclose(single.cov, state.cov[2:, 2:], atol=1e-15)

    def test_reorders(self):
        state = epr_pipeline(PipelineConfig(zeta=0.44, eta=0.5, mismatch=0.1))
        swapped = reduce_modes(state, (1, 0))
        np.testing.assert_allclose(swapped.cov[:2, :2], state.cov[2:, 2:], atol=1e-15)

    def test_rejects_empty_or_duplicate(self):
        with pytest.raises(ValueError):
            reduce_modes(vacuum(2), ())
        with pytest.raises(ValueError):
            reduce_modes(vacuum(2), (0, 0))
