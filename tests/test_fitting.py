import math

import numpy as np
import pytest
from scipy.optimize import least_squares

from eprsim import fitting
from eprsim.errors import IllPosedFitError
from eprsim.fitting import FitResult, fit_epr, fit_single, fit_sinusoid, levenberg_marquardt, squeezing_db
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
    """Stand-in for `fitting.levenberg_marquardt` that stops the tone search
    at the given phase schedule and reports convergence; phase_scale is 2 for
    the single-mode model (it oscillates with 2 theta) and 1 for the
    sum/difference pair."""
    _, middle, spacing = fitting._bin_offsets(n)
    omega, phase = phase_scale * rate, phase_scale * theta0
    # the search runs over (omega per bin, phase at the middle bin center)
    x = (omega * spacing, phase + omega * middle)
    return lambda project, x0, **options: (x, project(x), True)


def scipy_search(project, x0, *, ftol, xtol, gtol, max_nfev):
    """`fitting.levenberg_marquardt` done by scipy's MINPACK Levenberg-Marquardt
    with the same settings: the reference the in-house search is held to."""
    last = {}

    def evaluate(x):
        # MINPACK asks for the Jacobian at the point whose residual it just took
        key = np.asarray(x, dtype=float).tobytes()
        if key not in last:
            last.clear()
            last[key] = project(x)
        return last[key]

    result = least_squares(
        lambda x: evaluate(x)[0],
        np.asarray(x0, dtype=float),
        jac=lambda x: evaluate(x)[1],
        method="lm",
        ftol=ftol,
        xtol=xtol,
        gtol=gtol,
        max_nfev=max_nfev,
    )
    return result.x, evaluate(result.x), bool(result.status > 0)


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

    def test_zero_bins(self):
        trace = synthetic_single_trace(0.44, 0.52, 0.0, 5e-5, n_bins=0)
        with pytest.raises(IllPosedFitError, match="need at least 8 bins, got 0"):
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
        planted = planted_tone(trace.bin_center_index, *CASE_11_STUCK_PHASE, 2.0)
        monkeypatch.setattr(fitting, "levenberg_marquardt", planted)
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

    @pytest.mark.parametrize("n_bins", [0, 6])
    def test_too_few_bins(self, n_bins):
        t_sum, t_diff = synthetic_epr_traces(0.44, 0.52, 0.0, 5e-5, n_bins=n_bins)
        with pytest.raises(IllPosedFitError, match=f"need at least 8 bins, got {n_bins}"):
            fit_epr(t_sum, t_diff)

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
        planted = planted_tone(t_sum.bin_center_index, *CASE_11_STUCK_PHASE, 1.0)
        monkeypatch.setattr(fitting, "levenberg_marquardt", planted)
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


def sampled_single_trace(zeta, eta, seed, records=40_000, window=1000):
    """Mode-1 trace of a seeded single-mode sweep over 2 periods of 2 theta."""
    state = loss(squeeze(vacuum(1), 0, zeta), 0, eta)
    phases = (PhaseSchedule(0.3, 2 * math.pi / records),)
    return binned_variance(sample(state, SweepConfig(phases=phases, n_samples=records, seed=seed)), window, "mode1")


def sampled_epr_traces(zeta, eta, seed, records=40_000, window=1000):
    """Sum and difference traces of a seeded EPR sweep over 2 periods of theta1."""
    state = epr_pipeline(PipelineConfig(zeta=zeta, eta=eta))
    phases = (PhaseSchedule(0.3, 4 * math.pi / records), PhaseSchedule(0.0, 0.0))
    data = sample(state, SweepConfig(phases=phases, n_samples=records, seed=seed))
    return binned_variance(data, window, "sum"), binned_variance(data, window, "difference")


def flat_single_trace():
    """20 bins of variance 0.6: flat, off the vacuum 0.5, so its rss is not 0."""
    n = np.arange(0, 20000, 1000, dtype=float)
    return VarianceTrace(n, np.zeros((20, 1)), np.full(20, 0.6), np.full(20, 1000, dtype=int))


# float.hex of (zeta, eta, theta0, rate, rss), then (converged, degenerate), of
# fits recorded at commit fffa825, before fit_single and fit_epr shared one
# squeezer fit: the fits keep every bit
PINNED_FITS = {
    "single-interior": (
        lambda: fit_single(sampled_single_trace(0.44, 0.52, 1)),
        ("0x1.aa68cd55479b9p-2", "0x1.20cef4f614aa3p-1", "0x1.35fd81cbf1588p-2", "0x1.47639a9cad23bp-13",
         "0x1.962a823cb4918p-6"),
        (True, False),
    ),
    "single-eta-one": (
        lambda: fit_single(sampled_single_trace(0.6, 1.0, 1)),
        ("0x1.32c8dac534c18p-1", "0x1.0000000000000p+0", "0x1.325bd876bcf10p-2", "0x1.489c25b870ba1p-13",
         "0x1.2de9d16edfce8p-4"),
        (True, False),
    ),
    "single-flat": (
        lambda: fit_single(flat_single_trace()),
        ("0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "0x1.9999999999998p-3"),
        (False, True),
    ),
    # no squeezing: the fitted oscillation is buried in the sampling noise
    "single-unresolvable": (
        lambda: fit_single(sampled_single_trace(0.0, 0.5, 2)),
        ("0x1.b998914263971p-2", "0x1.90d22e9617c02p-7", "0x1.2db18458e8a88p+1", "0x1.9bc65b68b71c3p-10",
         "0x1.fc80441eea103p-7"),
        (False, True),
    ),
    "epr-interior": (
        lambda: fit_epr(*sampled_epr_traces(0.44, 0.5, 1)),
        ("0x1.c2067bb809a28p-2", "0x1.030c559b371ccp-1", "0x1.42f30b8b75ad0p-2", "0x1.48d49006256ecp-12",
         "0x1.996ccf53968fap-5"),
        (True, False),
    ),
    "epr-flat": (
        lambda: fit_epr(*synthetic_epr_traces(0.0, 0.7, 0.0, 5e-5)),
        ("0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        (False, True),
    ),
}


class TestPinnedFits:
    @pytest.mark.parametrize("case", sorted(PINNED_FITS))
    def test_fit_bits(self, case):
        job, floats, flags = PINNED_FITS[case]
        fit = job()
        assert tuple(float(v).hex() for v in (fit.zeta, fit.eta, fit.theta0, fit.rate, fit.rss)) == floats
        assert (fit.converged, fit.degenerate) == flags


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


TONE_SEARCH = {"ftol": 1e-15, "xtol": 1e-15, "gtol": 1e-13, "max_nfev": 2000}  # as `_fit_tone` runs it


def sampled_fit_jobs(seed, count, records=40_000, window=400):
    """Fits of seeded sampled traces, alternately single-mode and EPR, over
    zeta in [0.1, 1], eta in [0.3, 1] and spans of 1.1-4 trace periods."""
    rng = np.random.default_rng(seed)
    jobs = []
    for i in range(count):
        zeta, eta, theta0 = rng.uniform(0.1, 1.0), rng.uniform(0.3, 1.0), rng.uniform(0, 2 * math.pi)
        periods = rng.uniform(1.1, 4.0)
        if i % 2 == 0:
            phases = (PhaseSchedule(theta0, periods * math.pi / records),)
            state = loss(squeeze(vacuum(1), 0, zeta), 0, eta)
            data = sample(state, SweepConfig(phases=phases, n_samples=records, seed=i))
            trace = binned_variance(data, window, "mode1")
            jobs.append(lambda trace=trace: fit_single(trace))
        else:
            phases = (PhaseSchedule(theta0, periods * 2 * math.pi / records), PhaseSchedule(0.0, 0.0))
            state = epr_pipeline(PipelineConfig(zeta=zeta, eta=eta))
            data = sample(state, SweepConfig(phases=phases, n_samples=records, seed=i))
            traces = (binned_variance(data, window, "sum"), binned_variance(data, window, "difference"))
            jobs.append(lambda traces=traces: fit_epr(*traces))
    return jobs


def wrong_basin_jobs(kind):
    """Fits of the noiseless wrong-basin sweep cases of `kind`."""
    if kind == "single":
        return [
            lambda c=c: fit_single(synthetic_single_trace(*c[:3], c[3] * math.pi / SYNTHETIC_SPAN))
            for c in sweep_cases(41, 300)
        ]
    return [
        lambda c=c: fit_epr(*synthetic_epr_traces(*c[:3], c[3] * 2.0 * math.pi / SYNTHETIC_SPAN))
        for c in sweep_cases(47, 300)
    ]


def run_fits(monkeypatch, search, jobs):
    """The outcome of each job with `search` as the tone search (the fit, or
    the message it raised), and the projections each made."""
    linear_optimum, projections = fitting._linear_optimum, [0]

    def counted(*args):
        projections[0] += 1  # one exact (mid, amp) solve per projection
        return linear_optimum(*args)

    monkeypatch.setattr(fitting, "_linear_optimum", counted)
    monkeypatch.setattr(fitting, "levenberg_marquardt", search)
    outcomes, counts = [], []
    for job in jobs:
        projections[0] = 0
        try:
            outcomes.append(job())
        except IllPosedFitError as exc:
            outcomes.append(str(exc))
        counts.append(projections[0])
    monkeypatch.undo()
    return outcomes, counts


def assert_same_fits(monkeypatch, jobs):
    """The in-house search gives scipy's fits with no more projections."""
    own, own_projections = run_fits(monkeypatch, levenberg_marquardt, jobs)
    ref, ref_projections = run_fits(monkeypatch, scipy_search, jobs)
    for fit, expected in zip(own, ref):
        if isinstance(expected, str):
            assert fit == expected
            continue
        assert fit.zeta == pytest.approx(expected.zeta, abs=1e-7)
        assert fit.eta == pytest.approx(expected.eta, abs=1e-7)
        # a noiseless trace ends at a rounding-level rss near 1e-27
        assert fit.rss == pytest.approx(expected.rss, rel=1e-9, abs=1e-24)
        assert (fit.converged, fit.degenerate) == (expected.converged, expected.degenerate)
    assert np.mean(own_projections) <= np.mean(ref_projections)


def rosenbrock(x):
    r = np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])
    return r, np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]]), None


class TestLevenbergMarquardt:
    def test_matches_scipy_on_sampled_traces(self, monkeypatch):
        assert_same_fits(monkeypatch, sampled_fit_jobs(61, 60))

    @pytest.mark.parametrize("kind", ["single", "epr"])
    def test_matches_scipy_on_wrong_basin_cases(self, monkeypatch, kind):
        assert_same_fits(monkeypatch, wrong_basin_jobs(kind))

    def test_zero_jacobian_returns(self):
        r = np.array([1.0, -2.0, 0.5])
        zero = np.zeros((3, 2))
        x, value, converged = levenberg_marquardt(lambda x: (r, zero, None), (0.3, 0.1), **TONE_SEARCH)
        assert x == (0.3, 0.1)
        assert value[0] is r
        assert converged

    def test_singular_jacobian_reaches_minimum(self):
        u, y = np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0, 2.0])
        jac = np.outer(u, [1.0, 2.0])
        project = lambda x: (jac @ x - y, jac, None)
        _, (r, _, _), converged = levenberg_marquardt(project, (0.0, 0.0), **TONE_SEARCH)
        assert converged
        assert r @ r == pytest.approx(y @ y - (u @ y) ** 2 / (u @ u), rel=1e-12)

    def test_cap_reports_not_converged(self, monkeypatch):
        _, _, converged = levenberg_marquardt(rosenbrock, (-1.2, 1.0), **{**TONE_SEARCH, "max_nfev": 5})
        assert not converged
        x, _, converged = levenberg_marquardt(rosenbrock, (-1.2, 1.0), **TONE_SEARCH)
        assert converged
        assert x == pytest.approx((1.0, 1.0), abs=1e-9)
        # a fit whose tone search hit the cap says so
        capped = lambda project, x0, **options: levenberg_marquardt(project, x0, **{**options, "max_nfev": 2})
        monkeypatch.setattr(fitting, "levenberg_marquardt", capped)
        fit = fit_single(synthetic_single_trace(0.44, 0.52, 0.3, 5e-5))
        assert not fit.converged
        assert not fit.degenerate
