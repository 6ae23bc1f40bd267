import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

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
    _BLOCK_ROWS,
    _TARGETS,
    PhaseSchedule,
    QuadratureDataset,
    SweepConfig,
    VarianceTrace,
    _standard_normals,
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


def per_value_dataset_csv(data: QuadratureDataset) -> bytes:
    """The dataset writer before block formatting: one f"{v:.17g}" per value."""
    cols = ["index"]
    for m in range(data.n_modes):
        cols += [f"theta{m + 1}", f"x{m + 1}"]
    lines = [",".join(cols)]
    for i in range(data.n_samples):
        row = [str(i)]
        for m in range(data.n_modes):
            row += [f"{data.thetas[i, m]:.17g}", f"{data.xs[i, m]:.17g}"]
        lines.append(",".join(row))
    return ("\n".join(lines) + "\n").encode("ascii")


def per_value_trace_csv(trace: VarianceTrace) -> bytes:
    """The trace writer before block formatting."""
    cols = ["bin_center_index", "theta1_center"] + (["theta2_center"] if trace.n_modes == 2 else [])
    lines = [",".join(cols + ["variance", "count"])]
    for i in range(trace.n_bins):
        row = [f"{trace.bin_center_index[i]:.17g}"] + [f"{t:.17g}" for t in trace.theta_centers[i]]
        lines.append(",".join(row + [f"{trace.variance[i]:.17g}", str(int(trace.count[i]))]))
    return ("\n".join(lines) + "\n").encode("ascii")


def line_by_line_dataset(text: str):
    """The dataset reader before bulk parsing: (thetas, xs), or the
    (message, line) of the DataFormatError it raised."""
    lines = text.splitlines()
    if not lines:
        return "empty dataset file", 1
    header = lines[0].strip()
    n_modes = {"index,theta1,x1": 1, "index,theta1,x1,theta2,x2": 2}.get(header)
    if n_modes is None:
        return f"unrecognized dataset header {header!r}", 1
    rows, row_lines = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 1 + 2 * n_modes:
            return f"expected {1 + 2 * n_modes} fields, got {len(parts)}", lineno
        try:
            rows.append([float(p) for p in parts[1:]])
        except ValueError as exc:
            return str(exc), lineno
        row_lines.append(lineno)
    if not rows:
        return "dataset has no records", 2
    data = np.array(rows)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        return "values must be finite", row_lines[int(np.argmin(finite))]
    return data[:, 0::2], data[:, 1::2]


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


SPECIAL_VALUES = [-0.0, 5e-324, 1e308, 1 / 3, -1e-300, 2.0**-1074 * 3, 123456789.0, -7.0]


class TestBlockCsv:
    def test_percent_format_matches_format_spec(self):
        bits = np.random.default_rng(1).integers(0, 2**64, size=20_000, dtype=np.uint64)
        values = [v for v in bits.view(float).tolist() if math.isfinite(v)] + SPECIAL_VALUES
        assert ["%.17g" % v for v in values] == [f"{v:.17g}" for v in values]

    @pytest.mark.parametrize("modes", [1, 2])
    def test_dataset_bytes_and_round_trip(self, tmp_path, modes):
        n = 2 * _BLOCK_ROWS + 7
        rng = np.random.default_rng(modes)
        thetas, xs = rng.normal(size=(n, modes)), rng.normal(scale=1e3, size=(n, modes))
        specials = np.array(SPECIAL_VALUES)
        thetas[_BLOCK_ROWS - 4 : _BLOCK_ROWS + 4, 0] = specials
        xs[-len(specials) :, modes - 1] = specials[::-1]
        data = QuadratureDataset(thetas, xs)
        path = tmp_path / "data.csv"
        data.to_csv(path)
        assert path.read_bytes() == per_value_dataset_csv(data)
        again = QuadratureDataset.from_csv(path)
        assert same_bits(again.thetas, data.thetas) and same_bits(again.xs, data.xs)

    @pytest.mark.parametrize("modes", [1, 2])
    def test_trace_bytes_and_round_trip(self, tmp_path, modes):
        data = sample(vacuum(modes), fixed_config(0.2, 10_000, seed=6, modes=modes))
        trace = binned_variance(data, 100, "mode1")
        trace = VarianceTrace(
            trace.bin_center_index, trace.theta_centers + [[-0.0] * modes], trace.variance, trace.count
        )
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        assert path.read_bytes() == per_value_trace_csv(trace)
        again = VarianceTrace.from_csv(path)
        for name in ("bin_center_index", "theta_centers", "variance", "count"):
            assert same_bits(getattr(again, name), getattr(trace, name)), name


def rows_with(*edits) -> str:
    """A 1-mode dataset CSV past one write block, each (line, text) edit
    replacing that file line."""
    lines = ["index,theta1,x1"] + [f"{i},{0.001 * i:.17g},{math.sin(i):.17g}" for i in range(_BLOCK_ROWS + 20)]
    for line, text in edits:
        lines[line - 1] = text
    return "\n".join(lines) + "\n"


LATE = _BLOCK_ROWS + 9
READER_CASES = {
    "bad field past a block": rows_with((LATE, "7,0.5,oops")),
    "field count past a block": rows_with((LATE, "7,0.5")),
    "extra field past a block": rows_with((LATE, "7,0.5,0.1,0.2")),
    "bad field before a short line": rows_with((6, "5,x,1"), (LATE, "7,0.5")),
    "counts that cancel": "index,theta1,x1\n0,1\n1,2,3,4\n2,0.5,0.5\n",
    "non-finite past a block": rows_with((LATE, "7,0.5,nan")),
    "blank and whitespace lines": "index,theta1,x1\n\n0,0.1,0.2\n   \n\t\n1,0.3,0.4\n\n",
    "non-finite after blanks": "index,theta1,x1\n\n0,0.1,0.2\n  \n1,inf,0.4\n",
    "crlf": "index,theta1,x1\r\n0,0.1,0.2\r\n\r\n1,0.3,0.4\r\n",
    "crlf bad field": "index,theta1,x1\r\n0,0.1,0.2\r\n\r\n1,0.3,bad\r\n",
    "lone cr": "index,theta1,x1\r0,0.1,0.2\r1,0.3,x\r",
    "junk index column": "index,theta1,x1\nabc,0.1,0.2\n,0.3,0.4\n",
    "padded fields": "index,theta1,x1\n0, 0.1 ,0.2 \n",
    "two modes": "index,theta1,x1,theta2,x2\n0,0.1,0.2,0.3,0.4\n1,0.1,0.2,0.3\n",
    "header only": "index,theta1,x1\n",
    "header and blanks": "index,theta1,x1\n\n  \n",
    "empty file": "",
    "bad header": "idx,theta,x\n0,0.0,0.1\n",
}


class TestBulkReader:
    @pytest.mark.parametrize("case", list(READER_CASES))
    def test_matches_line_by_line_reader(self, tmp_path, case):
        text = READER_CASES[case]
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("ascii"))
        expected = line_by_line_dataset(text)
        if isinstance(expected[0], str):
            with pytest.raises(DataFormatError) as err:
                QuadratureDataset.from_csv(path)
            assert (str(err.value), err.value.line) == (f"line {expected[1]}: {expected[0]}", expected[1])
        else:
            data = QuadratureDataset.from_csv(path)
            assert same_bits(data.thetas, expected[0]) and same_bits(data.xs, expected[1])

    @pytest.mark.parametrize("reader", [QuadratureDataset, VarianceTrace])
    @pytest.mark.parametrize("body, line", [("0,0.1,0.2,1\n1,0.3,0.4µ\n", 3), ("\rµ0,0.1,0.2,1\n", 3), ("µ\n", 2)])
    def test_non_ascii_byte_names_line(self, tmp_path, reader, body, line):
        header = "index,theta1,x1" if reader is QuadratureDataset else "bin_center_index,theta1_center,variance,count"
        path = tmp_path / "data.csv"
        path.write_bytes(f"{header}\r\n{body}".encode("utf-8"))
        with pytest.raises(DataFormatError) as err:
            reader.from_csv(path)
        assert (str(err.value), err.value.line) == (f"line {line}: non-ASCII byte 0xc2", line)


class TestTraceCounts:
    @pytest.mark.parametrize("count", [2.7, -3, 0, math.nan])
    def test_constructor_rejects_non_positive_integer(self, count):
        with pytest.raises(ValueError, match="counts must be positive integers"):
            VarianceTrace(np.arange(3.0), np.zeros((3, 1)), np.full(3, 0.5), [100, count, 100])

    def test_constructor_accepts_integral_floats(self):
        trace = VarianceTrace(np.arange(2.0), np.zeros((2, 1)), np.full(2, 0.5), [100.0, 7.0])
        assert trace.count.tolist() == [100, 7]
        assert trace.count.dtype.kind == "i"

    @pytest.mark.parametrize("count, shown", [("2.7", "2.7"), ("-3", "-3.0"), ("0", "0.0"), ("1e300", "1e+300")])
    def test_from_csv_names_line(self, tmp_path, count, shown):
        path = tmp_path / "trace.csv"
        path.write_text(
            f"bin_center_index,theta1_center,variance,count\n50,0.0,0.5,100\n\n150,0.1,0.4,{count}\n"
        )
        with pytest.raises(DataFormatError) as err:
            VarianceTrace.from_csv(path)
        assert err.value.line == 4
        assert str(err.value) == f"line 4: count must be a positive integer, got {shown}"


def interleaved_thetas(config: SweepConfig) -> np.ndarray:
    """SweepConfig.thetas as a record-major (n, modes) array."""
    idx = np.arange(config.n_samples, dtype=float)[:, None]
    theta0 = np.array([p.theta0 for p in config.phases])
    rate = np.array([p.rate for p in config.phases])
    return theta0[None, :] + rate[None, :] * idx


def interleaved_sample(state, config: SweepConfig):
    """`sample` on record-major (n, modes) arrays: (thetas, xs)."""
    thetas = interleaved_thetas(config)
    c = np.cos(thetas)
    s = np.sin(thetas)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    u = rng.random((config.n_samples, state.n_modes))
    z = ndtri(np.where(u == 0.0, 0.5**54, u))
    cov = state.cov
    s11 = c[:, 0] ** 2 * cov[0, 0] + 2 * c[:, 0] * s[:, 0] * cov[0, 1] + s[:, 0] ** 2 * cov[1, 1]
    l11 = np.sqrt(s11)
    x1 = l11 * z[:, 0]
    if state.n_modes == 1:
        return thetas, x1[:, None]
    s22 = c[:, 1] ** 2 * cov[2, 2] + 2 * c[:, 1] * s[:, 1] * cov[2, 3] + s[:, 1] ** 2 * cov[3, 3]
    s12 = (
        c[:, 0] * c[:, 1] * cov[0, 2]
        + c[:, 0] * s[:, 1] * cov[0, 3]
        + s[:, 0] * c[:, 1] * cov[1, 2]
        + s[:, 0] * s[:, 1] * cov[1, 3]
    )
    l21 = s12 / l11
    l22 = np.sqrt(np.clip(s22 - l21**2, 0.0, None))
    x2 = l21 * z[:, 0] + l22 * z[:, 1]
    return thetas, np.column_stack([x1, x2])


def interleaved_binned_variance(thetas, xs, window, target):
    """`binned_variance` on record-major arrays: (index, theta centres, variance).

    Two modes' theta centres are each column's own numpy mean, the 1-mode rule.
    """
    if target == "mode1":
        values = xs[:, 0]
    elif target == "mode2":
        values = xs[:, 1]
    elif target == "sum":
        values = (xs[:, 0] + xs[:, 1]) / math.sqrt(2.0)
    else:
        values = (xs[:, 0] - xs[:, 1]) / math.sqrt(2.0)
    n_bins = len(values) // window
    used = n_bins * window
    variance = values[:used].reshape(n_bins, window).var(axis=1, ddof=1)
    idx = np.arange(used, dtype=float).reshape(n_bins, window).mean(axis=1)
    if thetas.shape[1] == 1:
        theta_centers = thetas[:used].reshape(n_bins, window, 1).mean(axis=1)
    else:
        columns = [np.ascontiguousarray(thetas[:used, m]).reshape(n_bins, window) for m in range(2)]
        theta_centers = np.column_stack([column.mean(axis=1) for column in columns])
    return idx, theta_centers, variance


def layout_cases(count=120):
    """Seeded (state, config, window) cases: 1 and 2 modes, held and swept
    phases, log-uniform n in [1, 200k] and windows in [2, min(n, 5000)]."""
    rng = np.random.default_rng(15)
    cases = []
    for i in range(count):
        modes = 1 + i % 2
        zeta, eta = rng.uniform(0.0, 1.2), rng.uniform(0.05, 1.0)
        if modes == 1:
            state = loss(squeeze(vacuum(1), 0, zeta, rng.uniform(0.0, math.pi)), 0, eta)
        else:
            state = epr_pipeline(PipelineConfig(zeta=zeta, eta=eta, relative_phase=rng.uniform(0.0, math.pi)))
        n = 200_000 if i < 4 else int(np.exp(rng.uniform(0.0, math.log(200_000))))
        phases = []
        for m in range(modes):
            swept = rng.random() < 0.6 or (m == 0 and i % 4 == 1)
            rate = rng.uniform(-2.0, 2.0) * 8 * math.pi / n if swept else 0.0
            phases.append(PhaseSchedule(rng.uniform(-7.0, 7.0), rate))
        window = int(np.exp(rng.uniform(math.log(2), math.log(max(2, min(n, 5000))))))
        if i == 5:
            phases[0], n, window = PhaseSchedule(-0.0, -0.0), 3000, 100  # every phase -0.0
        cases.append((state, SweepConfig(tuple(phases), n, int(rng.integers(0, 2**31))), window))
    return cases


class TestModeMajorLayout:
    """Per-mode contiguous columns change no value: `sample` and
    `binned_variance` give the bytes of the record-major reference."""

    def test_byte_equal_to_record_major_reference(self):
        compared = 0
        for state, config, window in layout_cases():
            data = sample(state, config)
            thetas, xs = interleaved_sample(state, config)
            assert same_bits(config.thetas(), thetas)
            assert same_bits(data.thetas, thetas) and same_bits(data.xs, xs)
            if window > config.n_samples:
                continue
            targets = _TARGETS if data.n_modes == 2 else ("mode1",)
            for target in targets:
                trace = binned_variance(data, window, target)
                idx, centers, variance = interleaved_binned_variance(thetas, xs, window, target)
                assert same_bits(trace.bin_center_index, idx)
                assert same_bits(trace.theta_centers, centers)
                assert same_bits(trace.variance, variance)
            compared += 1
        assert compared >= 100

    def test_two_mode_theta_centres_are_the_one_mode_ones(self):
        compared = 0
        for state, config, window in layout_cases():
            if config.n_modes != 2 or window > config.n_samples:
                continue
            data = sample(state, config)
            trace = binned_variance(data, window, "sum")
            for m in range(2):
                single = QuadratureDataset(data.thetas[:, [m]], data.xs[:, [m]])
                expected = binned_variance(single, window, "mode1").theta_centers
                assert same_bits(trace.theta_centers[:, [m]], expected)
            compared += 1
        assert compared >= 50

    @staticmethod
    def assert_mode_columns(data):
        for array in (data.thetas, data.xs):
            for m in range(data.n_modes):
                column = array[:, m]
                assert column.flags.c_contiguous and not column.flags.writeable

    @pytest.mark.parametrize("modes", [1, 2])
    def test_columns_contiguous_and_read_only(self, tmp_path, modes):
        config = fixed_config(0.3, 1000, seed=4, modes=modes)
        sampled = sample(epr_pipeline(PipelineConfig(zeta=0.4)) if modes == 2 else vacuum(1), config)
        self.assert_mode_columns(sampled)
        sampled.to_csv(tmp_path / "data.csv")
        self.assert_mode_columns(QuadratureDataset.from_csv(tmp_path / "data.csv"))
        rng = np.random.default_rng(modes)
        thetas, xs = rng.normal(size=(50, modes)), rng.normal(size=(50, modes))
        built = QuadratureDataset(thetas, xs)
        self.assert_mode_columns(built)
        assert same_bits(built.thetas, thetas) and same_bits(built.xs, xs)

    def test_exact_zero_draw(self):
        class ZeroDraws:
            def random(self, shape):
                u = np.random.default_rng(3).random(shape)
                u[[0, 3, 3, 7], [0, 0, 1, 1]] = 0.0
                return u

        z = _standard_normals(ZeroDraws(), (10, 2))
        u = ZeroDraws().random((10, 2))
        zero = u == 0.0
        assert zero.sum() == 4
        assert np.all(np.isfinite(z))
        assert np.all(z[zero] == ndtri(0.5**54))
        assert same_bits(z[~zero], ndtri(u[~zero]))


B = _BLOCK_ROWS
BLOCK_SIZES = [1, B - 1, B, B + 1, 2 * B + 7]


def block_schedules(n):
    """Every held/swept combination of 1 and 2 modes, and the -0.0 phase."""
    swept1, swept2 = PhaseSchedule(1.3, 9.0 / n), PhaseSchedule(-2.2, -5.0 / n)
    held1, held2 = PhaseSchedule(2.1, 0.0), PhaseSchedule(-0.4, 0.0)
    negative_zero = PhaseSchedule(-0.0, -0.0)
    return [
        (swept1,), (held1,), (negative_zero,),
        (swept1, held2), (held1, swept2), (swept1, swept2), (held1, held2),
        (negative_zero, swept2), (swept1, negative_zero), (negative_zero, negative_zero),
    ]


def block_state(modes):
    if modes == 1:
        return loss(squeeze(vacuum(1), 0, 0.7, 0.4), 0, 0.6)
    return epr_pipeline(PipelineConfig(zeta=0.5, eta=0.7, relative_phase=1.1))


class TestBlockBoundaries:
    """Sampling and binning a block at a time give the bytes of the
    whole-array reference at every block boundary."""

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_sample(self, n):
        for seed, phases in enumerate(block_schedules(n)):
            state, config = block_state(len(phases)), SweepConfig(phases, n, seed)
            data = sample(state, config)
            thetas, xs = interleaved_sample(state, config)
            assert same_bits(data.thetas, thetas) and same_bits(data.xs, xs), phases

    @pytest.mark.parametrize("n", BLOCK_SIZES[1:])
    def test_binned_variance(self, n):
        windows = [window for window in sorted({2, 7, B, B + 1, n}) if window <= n]
        for seed, phases in enumerate(block_schedules(n)):
            config = SweepConfig(phases, n, seed)
            data = sample(block_state(len(phases)), config)
            for window in windows:
                for target in _TARGETS if data.n_modes == 2 else ("mode1",):
                    trace = binned_variance(data, window, target)
                    idx, centers, variance = interleaved_binned_variance(data.thetas, data.xs, window, target)
                    assert same_bits(trace.bin_center_index, idx), (phases, window, target)
                    assert same_bits(trace.theta_centers, centers), (phases, window, target)
                    assert same_bits(trace.variance, variance), (phases, window, target)


def traced_peak(call):
    """`call()`'s result and the peak bytes tracemalloc saw above its start."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


class TestBlockMemory:
    """Peak memory is the output plus a few blocks, not record-length
    temporaries (400k 2-mode records: 3.2 MB per column, a block is 128 KiB)."""

    BLOCK_BYTES = B * 8  # one mode's float64s of one block

    @pytest.fixture(scope="class")
    def sweep(self):
        n = 400_000
        config = SweepConfig((PhaseSchedule(0.3, 4 * math.pi / n), PhaseSchedule(0.0, 0.0)), n, seed=2)
        state = block_state(2)
        sample(state, SweepConfig(config.phases, 100, seed=2))  # warm up lazy imports
        return state, config

    def test_sample(self, sweep):
        data, peak = traced_peak(lambda: sample(*sweep))
        output = data.thetas.nbytes + data.xs.nbytes
        assert output == 2 * 2 * 400_000 * 8
        assert peak <= output + 16 * self.BLOCK_BYTES

    @pytest.mark.parametrize("window", [2000, 10_000])
    @pytest.mark.parametrize("target", _TARGETS)
    def test_binned_variance(self, sweep, window, target):
        data = sample(*sweep)  # outside the traced call
        trace, peak = traced_peak(lambda: binned_variance(data, window, target))
        assert trace.n_bins == 400_000 // window
        assert peak <= 4 * self.BLOCK_BYTES
