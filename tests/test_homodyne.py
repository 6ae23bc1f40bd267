import math

import numpy as np
import pytest

from eprsim.errors import DataFormatError
from eprsim.gaussian import (
    PipelineConfig,
    epr_pipeline,
    epr_variance,
    loss,
    quad_variance,
    squeeze,
    vacuum,
)
from eprsim.homodyne import (
    PhaseSchedule,
    QuadratureDataset,
    SweepConfig,
    VarianceTrace,
    binned_variance,
    sample,
)
from eprsim.fitting import fit_sinusoid


def fixed_config(theta, n, seed=0, modes=1):
    return SweepConfig(
        phases=tuple(PhaseSchedule(theta, 0.0) for _ in range(modes)),
        n_samples=n,
        seed=seed,
    )


class TestSample:
    def test_vacuum_variance(self):
        data = sample(vacuum(1), fixed_config(0.0, 1_000_000, seed=5))
        est = data.xs[:, 0].var(ddof=1)
        # 3 sigma of the variance estimator: 0.5 * sqrt(2/n) * 3 ~ 0.0021
        assert est == pytest.approx(0.5, abs=0.002)

    def test_squeezed_lossy_variance(self):
        state = loss(squeeze(vacuum(1), 0, 0.44), 0, 0.52)
        data = sample(state, fixed_config(0.0, 400_000, seed=6))
        assert data.xs[:, 0].var(ddof=1) == pytest.approx(0.34784355703721115, abs=0.003)

    def test_rotated_quadrature_tracks_phase(self):
        state = loss(squeeze(vacuum(1), 0, 0.44), 0, 0.52)
        theta = 1.1
        data = sample(state, fixed_config(theta, 300_000, seed=7))
        assert data.xs[:, 0].var(ddof=1) == pytest.approx(
            quad_variance(state, 0, theta), abs=0.005
        )

    def test_two_mode_correlations(self):
        state = epr_pipeline(PipelineConfig(zeta=0.44, eta=0.5))
        data = sample(state, fixed_config(0.0, 400_000, seed=8, modes=2))
        emp = np.cov(data.xs.T)
        np.testing.assert_allclose(
            emp, state.cov[np.ix_([0, 2], [0, 2])], atol=0.01
        )

    def test_deterministic_given_seed(self):
        state = epr_pipeline(PipelineConfig(zeta=0.44, eta=0.5))
        config = SweepConfig(
            phases=(PhaseSchedule(0.0, 1e-4), PhaseSchedule(0.3, 0.0)),
            n_samples=5000,
            seed=42,
        )
        a = sample(state, config)
        b = sample(state, config)
        np.testing.assert_array_equal(a.xs, b.xs)
        np.testing.assert_array_equal(a.thetas, b.thetas)

    def test_different_seeds_differ(self):
        a = sample(vacuum(1), fixed_config(0.0, 100, seed=1))
        b = sample(vacuum(1), fixed_config(0.0, 100, seed=2))
        assert not np.array_equal(a.xs, b.xs)

    def test_mode_count_mismatch(self):
        with pytest.raises(ValueError):
            sample(vacuum(2), fixed_config(0.0, 10, modes=1))

    def test_thetas_follow_schedule_exactly(self):
        config = SweepConfig(
            phases=(PhaseSchedule(0.25, 1e-3), PhaseSchedule(1.5, 0.0)),
            n_samples=1000,
            seed=0,
        )
        data = sample(epr_pipeline(PipelineConfig(zeta=0.2)), config)
        idx = np.arange(1000)
        np.testing.assert_array_equal(data.thetas[:, 0], 0.25 + 1e-3 * idx)
        np.testing.assert_array_equal(data.thetas[:, 1], np.full(1000, 1.5))


class TestBinnedVariance:
    def test_constant_variance_bins(self):
        state = epr_pipeline(PipelineConfig(zeta=0.44, eta=0.5))
        data = sample(state, fixed_config(0.0, 200_000, seed=9, modes=2))
        trace = binned_variance(data, 5000, "mode1")
        true = quad_variance(state, 0, 0.0)
        sigma = true * math.sqrt(2.0 / 5000)
        assert np.all(np.abs(trace.variance - true) < 5 * sigma)
        assert np.all(trace.count == 5000)

    def test_difference_trace_minimum(self):
        state = epr_pipeline(PipelineConfig(zeta=0.44, eta=0.5))
        n = 400_000
        config = SweepConfig(
            phases=(PhaseSchedule(0.0, 2 * math.pi / n), PhaseSchedule(0.0, 0.0)),
            n_samples=n,
            seed=10,
        )
        data = sample(state, config)
        trace = binned_variance(data, 10_000, "difference")
        assert trace.variance.min() == pytest.approx(0.3536957279203954, abs=0.01)

    def test_sum_and_difference_antiphase(self):
        state = epr_pipeline(PipelineConfig(zeta=0.44, eta=0.5))
        n = 200_000
        config = SweepConfig(
            phases=(PhaseSchedule(0.0, 4 * math.pi / n), PhaseSchedule(0.0, 0.0)),
            n_samples=n,
            seed=11,
        )
        data = sample(state, config)
        t_sum = binned_variance(data, 2000, "sum")
        t_diff = binned_variance(data, 2000, "difference")
        fit_sum = fit_sinusoid(t_sum.bin_center_index, t_sum.variance)
        fit_diff = fit_sinusoid(t_diff.bin_center_index, t_diff.variance)
        delta = (fit_sum.phase - fit_diff.phase) % (2 * math.pi)
        assert min(abs(delta - math.pi), abs(delta + math.pi - 2 * math.pi)) < 0.1

    def test_estimator_consistency_joint(self):
        state = epr_pipeline(PipelineConfig(zeta=0.44, eta=0.5))
        data = sample(state, fixed_config(0.7, 100_000, seed=12, modes=2))
        trace = binned_variance(data, 100_000, "sum")
        true = float(epr_variance(0.44, 0.5, 1.4, "plus"))
        sigma = true * math.sqrt(2.0 / 100_000)
        assert trace.variance[0] == pytest.approx(true, abs=5 * sigma)

    def test_remainder_dropped(self):
        data = sample(vacuum(1), fixed_config(0.0, 1050, seed=3))
        trace = binned_variance(data, 100, "mode1")
        assert trace.n_bins == 10
        assert int(trace.count.sum()) == 1000

    def test_window_validation(self):
        data = sample(vacuum(1), fixed_config(0.0, 100, seed=3))
        with pytest.raises(ValueError):
            binned_variance(data, 1, "mode1")

    def test_target_validation(self):
        data = sample(vacuum(1), fixed_config(0.0, 100, seed=3))
        with pytest.raises(ValueError):
            binned_variance(data, 10, "mode2")
        with pytest.raises(ValueError):
            binned_variance(data, 10, "x1")

    def test_sweep_frequency_single_vs_joint(self):
        rate = 4 * math.pi / 100_000
        single_state = loss(squeeze(vacuum(1), 0, 0.44), 0, 0.52)
        single_data = sample(
            single_state,
            SweepConfig(phases=(PhaseSchedule(0.0, rate),), n_samples=100_000, seed=13),
        )
        single_trace = binned_variance(single_data, 1000, "mode1")
        single_fit = fit_sinusoid(single_trace.bin_center_index, single_trace.variance)

        epr_state = epr_pipeline(PipelineConfig(zeta=0.44, eta=0.5))
        epr_data = sample(
            epr_state,
            SweepConfig(
                phases=(PhaseSchedule(0.0, rate), PhaseSchedule(0.0, 0.0)),
                n_samples=100_000,
                seed=14,
            ),
        )
        epr_trace = binned_variance(epr_data, 1000, "difference")
        epr_fit = fit_sinusoid(epr_trace.bin_center_index, epr_trace.variance)

        assert single_fit.omega == pytest.approx(2 * rate, rel=0.02)
        assert epr_fit.omega == pytest.approx(rate, rel=0.02)


class TestCsvRoundTrips:
    def test_dataset_round_trip(self, tmp_path):
        state = epr_pipeline(PipelineConfig(zeta=0.44, eta=0.5))
        config = SweepConfig(
            phases=(PhaseSchedule(0.1, 1e-3), PhaseSchedule(0.9, 0.0)),
            n_samples=500,
            seed=21,
        )
        data = sample(state, config)
        path = tmp_path / "data.csv"
        data.to_csv(path)
        again = QuadratureDataset.from_csv(path)
        np.testing.assert_array_equal(again.thetas, data.thetas)
        np.testing.assert_array_equal(again.xs, data.xs)

    def test_dataset_bytes_deterministic(self, tmp_path):
        data = sample(vacuum(1), fixed_config(0.3, 200, seed=4))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        data.to_csv(p1)
        sample(vacuum(1), fixed_config(0.3, 200, seed=4)).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert b"\r" not in p1.read_bytes()

    def test_trace_round_trip(self, tmp_path):
        data = sample(vacuum(2), fixed_config(0.2, 1000, seed=5, modes=2))
        trace = binned_variance(data, 100, "sum")
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        again = VarianceTrace.from_csv(path)
        np.testing.assert_array_equal(again.bin_center_index, trace.bin_center_index)
        np.testing.assert_array_equal(again.theta_centers, trace.theta_centers)
        np.testing.assert_array_equal(again.variance, trace.variance)
        np.testing.assert_array_equal(again.count, trace.count)

    def test_bad_header_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("idx,theta,x\n0,0.0,0.1\n")
        with pytest.raises(DataFormatError) as err:
            QuadratureDataset.from_csv(path)
        assert err.value.line == 1

    def test_bad_field_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,theta1,x1\n0,0.0,0.1\n1,0.0,oops\n")
        with pytest.raises(DataFormatError) as err:
            QuadratureDataset.from_csv(path)
        assert err.value.line == 3

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,theta1,x1\n0,0.0\n")
        with pytest.raises(DataFormatError) as err:
            QuadratureDataset.from_csv(path)
        assert err.value.line == 2


class TestConfigValidation:
    def test_n_samples_positive(self):
        with pytest.raises(ValueError):
            SweepConfig(phases=(PhaseSchedule(0.0, 0.0),), n_samples=0, seed=0)

    def test_finite_rate(self):
        with pytest.raises(ValueError):
            PhaseSchedule(0.0, math.inf)

    def test_needs_phases(self):
        with pytest.raises(ValueError):
            SweepConfig(phases=(), n_samples=10, seed=0)

    def test_non_finite_columns_rejected(self):
        with pytest.raises(ValueError):
            QuadratureDataset(np.array([[0.0], [math.nan]]), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            VarianceTrace(np.arange(3.0), np.zeros((3, 1)), np.array([0.5, math.inf, 0.5]), np.ones(3, dtype=int))
