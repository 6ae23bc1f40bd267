import math

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from eprsim import fitting
from eprsim.errors import IllPosedFitError
from eprsim.fitting import FitResult, fit_epr, fit_single, fit_sinusoid, squeezing_db
from eprsim.gaussian import (
    PipelineConfig,
    epr_pipeline,
    epr_variance,
    loss,
    single_mode_variance,
    squeeze,
    vacuum,
)
from eprsim.homodyne import PhaseSchedule, SweepConfig, VarianceTrace, binned_variance, sample


def synthetic_single_trace(zeta, eta, theta0, rate, n_bins=60, spacing=2000.0, start=1000.0):
    n = start + spacing * np.arange(n_bins)
    theta = theta0 + rate * n
    v = single_mode_variance(zeta, eta, theta)
    return VarianceTrace(n, theta[:, None], v, np.full(n_bins, int(spacing), dtype=int))


def synthetic_epr_traces(zeta, eta, theta0, rate, n_bins=60, spacing=2000.0, start=1000.0):
    n = start + spacing * np.arange(n_bins)
    theta = theta0 + rate * n
    traces = {}
    for sign in ("plus", "minus"):
        v = epr_variance(zeta, eta, theta, sign)
        traces[sign] = VarianceTrace(
            n, np.column_stack([theta, np.zeros(n_bins)]), v, np.full(n_bins, int(spacing), dtype=int)
        )
    return traces["plus"], traces["minus"]


SYNTHETIC_SPAN = 59 * 2000.0  # sample span of the default synthetic trace


def sweep_cases(seed, count):
    """(zeta, eta, theta0, periods) over the supported range, weighted towards
    its edges: eta up to 1 (every tenth case exactly 1) and half of the traces
    spanning only 1.0-1.5 periods."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        zeta = rng.uniform(0.1, 1.0)
        if i % 10 == 0:
            eta = 1.0
        elif i % 3 == 0:
            eta = rng.uniform(0.95, 1.0)
        else:
            eta = rng.uniform(0.05, 1.0)
        periods = rng.uniform(1.0, 1.5) if i % 2 else rng.uniform(1.5, 8.0)
        yield zeta, eta, rng.uniform(0.0, 2.0 * math.pi), periods


def round_trip_errors(fit, zeta, eta, theta0, rate, period):
    """What a noiseless fit gets wrong: the parameters outside the tolerances
    of `test_random_round_trips`, and `converged` if it reports no convergence."""
    delta = abs((fit.theta0 - theta0) % period)
    errors = {
        "zeta": abs(fit.zeta - zeta) > 1e-5,
        "eta": abs(fit.eta - eta) > 1e-5,
        "rate": abs(fit.rate - rate) > 1e-5 * rate,
        "theta0": min(delta, period - delta) >= 1e-5,
        "converged": not fit.converged,
    }
    return [name for name, bad in errors.items() if bad]


def planted_tone(n, theta0, rate, phase_scale):
    """Stand-in optimizer that stops the tone search at the given phase
    schedule and reports success; phase_scale is 2 for the single-mode model
    (it oscillates with 2 theta) and 1 for the sum/difference pair."""
    _, middle, spacing = fitting._bin_offsets(n)
    omega, phase = phase_scale * rate, phase_scale * theta0
    # the search runs over (omega per bin, phase at the middle bin center)
    x = np.array([omega * spacing, phase + omega * middle])
    return lambda fun, x0, jac, **options: OptimizeResult(x=x, status=1)


# case 11 of the seed-23 single-mode sweep, and the phase schedule at which
# the earlier logistic-reparameterised fit stalled with (zeta, eta) = (0.752, 1.0)
CASE_11 = (0.8441526293843389, 0.7831405492589794, 2.4525890188068136, 8.898730107990856e-05)
CASE_11_STUCK_PHASE = (2.450973048068252, 8.900727594900096e-05)


class TestSqueezingDb:
    def test_vacuum_is_zero(self):
        assert squeezing_db(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_rounded_trace_minimum(self):
        assert squeezing_db(0.36) == pytest.approx(1.4266750356873157, abs=1e-12)
        assert abs(squeezing_db(0.36) - 1.43) < 0.05

    def test_half_vacuum(self):
        assert squeezing_db(0.25) == pytest.approx(3.0102999566398116, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            squeezing_db(0.0)
        with pytest.raises(ValueError):
            squeezing_db(-0.1)


class TestFitSingle:
    def test_noiseless_round_trip(self):
        rate = 5e-5
        trace = synthetic_single_trace(0.44, 0.52, 0.3, rate)
        fit = fit_single(trace)
        assert fit.converged
        assert fit.zeta == pytest.approx(0.44, abs=1e-6)
        assert fit.eta == pytest.approx(0.52, abs=1e-6)
        assert fit.rate == pytest.approx(rate, abs=1e-11)
        assert fit.theta0 == pytest.approx(0.3, abs=1e-6)

    def test_flat_trace_degenerate(self):
        n = np.arange(0, 20000, 1000, dtype=float)
        trace = VarianceTrace(n, np.zeros((len(n), 1)), np.full(len(n), 0.5), np.full(len(n), 1000, dtype=int))
        fit = fit_single(trace)
        assert fit.degenerate
        assert not fit.converged
        assert fit.zeta == 0.0

    def test_sampled_trace_recovery(self):
        n = 400_000
        rate = 4 * math.pi / n
        state = loss(squeeze(vacuum(1), 0, 0.44), 0, 0.52)
        data = sample(state, SweepConfig(phases=(PhaseSchedule(0.0, rate),), n_samples=n, seed=31))
        trace = binned_variance(data, 10_000, "mode1")
        fit = fit_single(trace)
        assert fit.zeta == pytest.approx(0.44, abs=0.02)
        assert fit.eta == pytest.approx(0.52, abs=0.03)

    def test_rss_matches_returned_parameters(self):
        trace = synthetic_single_trace(0.3, 0.7, 1.0, 3e-5)
        fit = fit_single(trace)
        theta = fit.theta0 + fit.rate * trace.bin_center_index
        model = single_mode_variance(fit.zeta, fit.eta, theta)
        assert float(np.sum((model - trace.variance) ** 2)) == pytest.approx(fit.rss, abs=1e-10)

    def test_too_few_bins(self):
        trace = synthetic_single_trace(0.44, 0.52, 0.0, 5e-5, n_bins=6)
        with pytest.raises(IllPosedFitError):
            fit_single(trace)

    def test_insufficient_phase_coverage(self):
        # half a period of 2*theta across the whole trace
        rate = math.pi / 2 / (60 * 2000.0) / 2
        trace = synthetic_single_trace(0.44, 0.52, 0.0, rate)
        with pytest.raises(IllPosedFitError):
            fit_single(trace)

    def test_random_round_trips(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            zeta = rng.uniform(0.1, 1.0)
            eta = rng.uniform(0.2, 1.0)
            theta0 = rng.uniform(0, math.pi)
            rate = rng.uniform(2e-5, 2e-4)
            trace = synthetic_single_trace(zeta, eta, theta0, rate)
            fit = fit_single(trace)
            assert fit.zeta == pytest.approx(zeta, abs=1e-5)
            assert fit.eta == pytest.approx(eta, abs=1e-5)
            assert fit.rate == pytest.approx(rate, rel=1e-5)
            delta = abs((fit.theta0 - theta0) % math.pi)
            assert min(delta, math.pi - delta) < 1e-5

    def test_wrong_basin_sweep(self):
        wrong = []
        for zeta, eta, theta0, periods in sweep_cases(41, 300):
            rate = periods * math.pi / SYNTHETIC_SPAN
            fit = fit_single(synthetic_single_trace(zeta, eta, theta0, rate))
            if errors := round_trip_errors(fit, zeta, eta, theta0, rate, math.pi):
                wrong.append((zeta, eta, theta0, periods, errors))
        assert wrong == []

    def test_sub_period_sweep_rejected(self):
        rng = np.random.default_rng(43)
        # the first case drives zeta to overflow (eta -> 0) on its way out
        cases = [(0.2694710607318427, 0.057032744931893635, 4.057914263176287, 0.370431433515189)]
        cases += [
            (rng.uniform(0.1, 1.0), rng.uniform(0.05, 1.0), rng.uniform(0.0, math.pi), rng.uniform(0.3, 0.99))
            for _ in range(50)
        ]
        for zeta, eta, theta0, periods in cases:
            trace = synthetic_single_trace(zeta, eta, theta0, periods * math.pi / SYNTHETIC_SPAN)
            with pytest.raises(IllPosedFitError):
                fit_single(trace)

    def test_excess_noise_rejected(self):
        # midline 1.0 with a 0.2 swing needs eta < 0; the best squeezer fit
        # lies on the eta -> 0 edge, where zeta is unbounded
        n = 1000.0 + 2000.0 * np.arange(60)
        theta = 0.3 + 7e-5 * n
        trace = VarianceTrace(n, theta[:, None], 1.0 - 0.1 * np.cos(2 * theta), np.full(60, 2000))
        with pytest.raises(IllPosedFitError, match="eta -> 0"):
            fit_single(trace)

    def test_eta_one_optimum_converged(self):
        # eta ends on its bound, but moving it inward raises the rss
        fit = fit_single(synthetic_single_trace(0.6, 1.0, 0.4, 7e-5))
        assert fit.eta == pytest.approx(1.0, abs=1e-6)
        assert fit.converged

    def test_stuck_phase_interior_optimum(self, monkeypatch):
        # at a fixed phase (zeta, eta) is the exact constrained optimum, so the
        # phase that once left eta on its bound yields the interior optimum
        trace = synthetic_single_trace(*CASE_11)
        monkeypatch.setattr(fitting, "least_squares", planted_tone(trace.bin_center_index, *CASE_11_STUCK_PHASE, 2.0))
        fit = fit_single(trace)
        assert fit.zeta == pytest.approx(CASE_11[0], abs=1e-3)
        assert fit.eta == pytest.approx(CASE_11[1], abs=1e-3)
        assert (fit.theta0, fit.rate) == pytest.approx(CASE_11_STUCK_PHASE, rel=1e-12)
        assert fit.converged
        assert not fit.degenerate


class TestFitEpr:
    def test_noiseless_round_trip(self):
        rate = 6e-5
        t_sum, t_diff = synthetic_epr_traces(0.44, 0.50, 0.8, rate)
        fit = fit_epr(t_sum, t_diff)
        assert fit.converged
        assert fit.zeta == pytest.approx(0.44, abs=1e-6)
        assert fit.eta == pytest.approx(0.50, abs=1e-6)
        assert fit.rate == pytest.approx(rate, rel=1e-6)
        assert fit.theta0 == pytest.approx(0.8, abs=1e-6)

    def test_swapped_inputs_shift_theta0_by_pi(self):
        rate = 6e-5
        t_sum, t_diff = synthetic_epr_traces(0.44, 0.50, 0.8, rate)
        fit = fit_epr(t_sum, t_diff)
        swapped = fit_epr(t_diff, t_sum)
        assert swapped.zeta == pytest.approx(fit.zeta, abs=1e-6)
        assert swapped.eta == pytest.approx(fit.eta, abs=1e-6)
        delta = (swapped.theta0 - fit.theta0) % (2 * math.pi)
        assert delta == pytest.approx(math.pi, abs=1e-5)

    def test_zero_squeezing_degenerate(self):
        t_sum, t_diff = synthetic_epr_traces(0.0, 0.7, 0.0, 5e-5)
        fit = fit_epr(t_sum, t_diff)
        assert fit.degenerate
        assert fit.zeta == 0.0

    def test_mismatched_binning_rejected(self):
        t_sum, _ = synthetic_epr_traces(0.44, 0.5, 0.0, 5e-5)
        _, t_diff = synthetic_epr_traces(0.44, 0.5, 0.0, 5e-5, start=2000.0)
        with pytest.raises(ValueError):
            fit_epr(t_sum, t_diff)

    def test_sampled_traces_recovery(self):
        state = epr_pipeline(PipelineConfig(zeta=0.44, eta=0.50))
        n = 400_000
        rate = 4 * math.pi / n
        config = SweepConfig(
            phases=(PhaseSchedule(0.0, rate), PhaseSchedule(0.0, 0.0)),
            n_samples=n,
            seed=33,
        )
        data = sample(state, config)
        t_sum = binned_variance(data, 10_000, "sum")
        t_diff = binned_variance(data, 10_000, "difference")
        fit = fit_epr(t_sum, t_diff)
        assert fit.zeta == pytest.approx(0.44, abs=0.02)
        assert fit.eta == pytest.approx(0.50, abs=0.03)

    def test_random_round_trips(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            zeta = rng.uniform(0.1, 1.0)
            eta = rng.uniform(0.2, 1.0)
            theta0 = rng.uniform(0, 2 * math.pi)
            rate = rng.uniform(2e-5, 2e-4)
            t_sum, t_diff = synthetic_epr_traces(zeta, eta, theta0, rate)
            fit = fit_epr(t_sum, t_diff)
            assert fit.zeta == pytest.approx(zeta, abs=1e-5)
            assert fit.eta == pytest.approx(eta, abs=1e-5)
            assert fit.rate == pytest.approx(rate, rel=1e-5)
            delta = abs((fit.theta0 - theta0) % (2 * math.pi))
            assert min(delta, 2 * math.pi - delta) < 1e-5

    def test_wrong_basin_sweep(self):
        wrong = []
        for zeta, eta, theta0, periods in sweep_cases(47, 300):
            rate = periods * 2.0 * math.pi / SYNTHETIC_SPAN
            fit = fit_epr(*synthetic_epr_traces(zeta, eta, theta0, rate))
            if errors := round_trip_errors(fit, zeta, eta, theta0, rate, 2.0 * math.pi):
                wrong.append((zeta, eta, theta0, periods, errors))
        assert wrong == []

    def test_eta_one_optimum_converged(self):
        fit = fit_epr(*synthetic_epr_traces(0.6, 1.0, 0.4, 7e-5))
        assert fit.eta == pytest.approx(1.0, abs=1e-6)
        assert fit.converged

    def test_stuck_phase_interior_optimum(self, monkeypatch):
        t_sum, t_diff = synthetic_epr_traces(*CASE_11)
        monkeypatch.setattr(fitting, "least_squares", planted_tone(t_sum.bin_center_index, *CASE_11_STUCK_PHASE, 1.0))
        fit = fit_epr(t_sum, t_diff)
        assert fit.zeta == pytest.approx(CASE_11[0], abs=1e-3)
        assert fit.eta == pytest.approx(CASE_11[1], abs=1e-3)
        assert (fit.theta0, fit.rate) == pytest.approx(CASE_11_STUCK_PHASE, rel=1e-12)
        assert fit.converged
        assert not fit.degenerate

    def test_model_extrema_match_closed_form(self):
        t_sum, t_diff = synthetic_epr_traces(0.44, 0.5, 0.2, 5e-5)
        fit = fit_epr(t_sum, t_diff)
        v_min = float(epr_variance(fit.zeta, fit.eta, 0.0, "minus"))
        v_max = float(epr_variance(fit.zeta, fit.eta, math.pi, "minus"))
        expected_min = 0.5 * fit.eta * math.exp(-2 * fit.zeta) + 0.5 * (1 - fit.eta)
        expected_max = 0.5 * fit.eta * math.exp(2 * fit.zeta) + 0.5 * (1 - fit.eta)
        assert v_min == pytest.approx(expected_min, abs=1e-10)
        assert v_max == pytest.approx(expected_max, abs=1e-10)


class TestFitSinusoid:
    def test_exact_recovery(self):
        n = np.arange(0, 5000, 50, dtype=float)
        y = 0.6 + 0.11 * np.cos(3e-3 * n + 1.2)
        fit = fit_sinusoid(n, y)
        assert fit.offset == pytest.approx(0.6, abs=1e-9)
        assert fit.amplitude == pytest.approx(0.11, abs=1e-9)
        assert fit.omega == pytest.approx(3e-3, rel=1e-9)
        assert fit.phase == pytest.approx(1.2, abs=1e-8)

    def test_flat_series(self):
        n = np.arange(10, dtype=float)
        fit = fit_sinusoid(n, np.full(10, 0.5))
        assert fit.amplitude == 0.0

    def test_json_payload(self):
        result = FitResult(zeta=0.4, eta=0.5, theta0=0.1, rate=1e-4, rss=1e-9, converged=True)
        payload = result.to_json_dict()
        assert payload["zeta"] == 0.4
        assert payload["degenerate"] is False
