import argparse
import json
import math
import os
import shlex
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import eprsim
from eprsim.cli import _write_json, build_parser, main
from eprsim import fitting
from eprsim.fitting import FitResult, fit_sinusoid, levenberg_marquardt
from eprsim.fock import gaussian_to_fock, mean_photon
from eprsim.gaussian import PipelineConfig, epr_pipeline, vacuum
from eprsim.homodyne import PhaseSchedule, QuadratureDataset, SweepConfig, VarianceTrace, sample
from eprsim.tomography import TomographyConfig, reconstruct


def read_json(path: Path):
    return json.loads(path.read_text())


def write_single_trace(path: Path, centers, variances) -> Path:
    lines = ["bin_center_index,theta1_center,variance,count"]
    lines += [f"{n:.17g},0.0,{v:.17g},100" for n, v in zip(centers, variances)]
    path.write_text("\n".join(lines) + "\n")
    return path


def single_trace_rows(n_bins=20):
    """Bin centers and variances of a clean two-period single-mode trace."""
    centers = 50.0 + 100.0 * np.arange(n_bins)
    return centers, 0.6 - 0.3 * np.cos(4.0 * math.pi * centers / (100.0 * n_bins))


class TestSingleSweep:
    def test_defaults_recover_parameters(self, tmp_path):
        rc = main(["single-sweep", "--seed", "3", "--out", str(tmp_path)])
        assert rc == 0
        fit = read_json(tmp_path / "single_fit.json")
        assert abs(fit["zeta"] - 0.44) < 0.02
        assert abs(fit["eta"] - 0.52) < 0.03
        assert (tmp_path / "single_trace.csv").exists()
        assert (tmp_path / "single_manifest.json").exists()

    def test_zero_squeezing_flat_trace(self, tmp_path):
        rc = main(
            ["single-sweep", "--zeta", "0", "--samples", "100000", "--seed", "4", "--out", str(tmp_path)]
        )
        assert rc == 0
        trace = VarianceTrace.from_csv(tmp_path / "single_trace.csv")
        assert trace.variance.mean() == pytest.approx(0.5, abs=0.005)
        assert read_json(tmp_path / "single_fit.json")["degenerate"] is True

    def test_same_seed_identical_bytes(self, tmp_path):
        args = ["single-sweep", "--samples", "50000", "--seed", "9", "--write-dataset"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("single_data.csv", "single_trace.csv", "single_fit.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_validates_before_writing(self, tmp_path):
        out = tmp_path / "untouched"
        for bad in (["--eta", "1.5"], ["--seed", "-1"]):
            assert main(["single-sweep", *bad, "--out", str(out)]) == 2
            assert not out.exists()

    @pytest.mark.parametrize(
        "command, ill_posed",
        [("single-sweep", ["--rate", "1e-4"]), ("epr-sweep", ["--rate", "0"])],
        ids=["single-sweep", "epr-sweep"],
    )
    def test_failed_fit_creates_no_directory(self, tmp_path, capsys, command, ill_posed):
        # under one period of 2*theta, or no sweep at all: the fit is ill-posed
        out = tmp_path / "untouched"
        rc = main([command, "--samples", "20000", "--window", "1000", *ill_posed, "--out", str(out)])
        assert rc == 4
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["single-sweep", "epr-sweep"])
    def test_warns_of_dropped_trailing_samples(self, tmp_path, capsys, command):
        def run(samples):
            out = tmp_path / samples
            assert main([command, "--samples", samples, "--window", "1000", "--seed", "3", "--out", str(out)]) == 0
            captured = capsys.readouterr()
            assert captured.out.startswith(f"{command}: fitted ")
            return captured.err.splitlines()

        assert run("20500") == [
            f"eprsim: warning: {command} dropped 500 trailing samples (--samples not a multiple of --window)"
        ]
        assert run("20000") == []

    @pytest.mark.parametrize(
        "command, samples, window, n_bins",
        [("epr-sweep", "4000", None, 2), ("single-sweep", "1000", "2000", 0), ("epr-sweep", "7999", "1000", 7)],
    )
    def test_too_few_bins_rejected_before_sampling(
        self, tmp_path, capsys, monkeypatch, command, samples, window, n_bins
    ):
        def no_sampling(*args):
            raise AssertionError("sampled")

        monkeypatch.setattr("eprsim.cli.sample", no_sampling)
        out = tmp_path / "untouched"
        size = ["--samples", samples] + (["--window", window] if window else [])
        assert main([command, *size, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("eprsim: invalid parameters: ")
        assert f"give {n_bins} variance bins; the fit needs at least {fitting.MIN_BINS}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["single-sweep", "epr-sweep"])
    def test_window_below_two_rejected_before_sampling(self, tmp_path, capsys, monkeypatch, command):
        def no_sampling(*args):
            raise AssertionError("sampled")

        monkeypatch.setattr("eprsim.cli.sample", no_sampling)
        out = tmp_path / "untouched"
        assert main([command, "--window", "1", "--out", str(out)]) == 2
        assert "argument --window: must be >= 2, got 1" in capsys.readouterr().err
        assert not out.exists()

    def test_exactly_min_bins_runs(self, tmp_path):
        # the console-script check of CI: 4000 records in windows of 500
        samples = str(500 * fitting.MIN_BINS)
        assert main(["epr-sweep", "--samples", samples, "--window", "500", "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize(
        "command, size, shown",
        [
            # default rate: 4 periods of 2*theta over 8 bins
            ("single-sweep", ["--samples", "4000", "--window", "500"], "--rate 0.00314159 and --window 500 give 2 "),
            # the same, where 2*pi / (2 * rate * window) rounds to just above 2
            ("single-sweep", ["--samples", "4800", "--window", "600"], "--window 600 give 2 "),
            ("single-sweep", ["--rate", "0.01"], "--rate 0.01 and --window 2000 give 0.157 "),
            # the joint tone is theta1 itself: 2 bins per period at pi/1000 rad/sample
            ("epr-sweep", ["--samples", "20000", "--window", "1000", "--rate", str(math.pi / 1000)], "give 2 "),
        ],
        ids=["single-default", "single-rounded", "single-rate", "epr-rate"],
    )
    def test_tone_at_nyquist_rejected_before_sampling(self, tmp_path, capsys, monkeypatch, command, size, shown):
        def no_sampling(*args):
            raise AssertionError("sampled")

        monkeypatch.setattr("eprsim.cli.sample", no_sampling)
        out = tmp_path / "untouched"
        assert main([command, *size, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("eprsim: invalid parameters: ")
        assert shown in err and err.rstrip().endswith("bins per period of the fitted tone; the fit needs more than 2")
        assert not out.exists()

    def test_three_bins_per_period_runs(self, tmp_path):
        # default rate: 4 periods of 2*theta over 12 bins
        assert main(["single-sweep", "--samples", "6000", "--window", "500", "--out", str(tmp_path)]) == 0


class TestEprSweep:
    def test_defaults_against_published_point(self, tmp_path):
        rc = main(
            [
                "epr-sweep",
                "--samples", "400000",
                "--window", "10000",
                "--seed", "5",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        for name in ("mode1", "mode2", "sum", "difference"):
            assert (tmp_path / f"epr_{name}_trace.csv").exists()
        fit = read_json(tmp_path / "epr_fit.json")
        assert abs(fit["zeta"] - 0.44) < 0.02
        assert abs(fit["eta"] - 0.50) < 0.03
        assert abs(fit["trace_min_difference_variance"] - 0.3537) < 0.01
        assert 1.25 < fit["squeezing_db_at_model_min"] < 1.55

    def test_individual_traces_thermal(self, tmp_path):
        rc = main(
            [
                "epr-sweep",
                "--samples", "400000",
                "--window", "10000",
                "--seed", "6",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        for mode in ("mode1", "mode2"):
            trace = VarianceTrace.from_csv(tmp_path / f"epr_{mode}_trace.csv")
            assert trace.variance.mean() == pytest.approx(0.6032103272623489, abs=0.01)
            flat = fit_sinusoid(trace.bin_center_index, trace.variance)
            assert flat.amplitude < 0.01

    def test_mismatch_restores_phase_dependence(self, tmp_path):
        rc = main(
            [
                "epr-sweep",
                "--mismatch", "0.2",
                "--samples", "400000",
                "--window", "10000",
                "--seed", "7",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        trace = VarianceTrace.from_csv(tmp_path / "epr_mode1_trace.csv")
        wobble = fit_sinusoid(trace.bin_center_index, trace.variance)
        assert wobble.amplitude > 0.01

    def test_validates_before_writing(self, tmp_path):
        out = tmp_path / "untouched"
        for bad in (["--mismatch", "1.5"], ["--seed", "-1"]):
            assert main(["epr-sweep", *bad, "--out", str(out)]) == 2
            assert not out.exists()


class TestTomographyCommand:
    def test_round_trip_with_reference(self, tmp_path):
        state = epr_pipeline(PipelineConfig(zeta=0.44, eta=0.5))
        n = 60_000
        config = SweepConfig(
            phases=(
                PhaseSchedule(0.0, 2 * math.pi * 11 / n),
                PhaseSchedule(0.3, 2 * math.pi * 4 / n),
            ),
            n_samples=n,
            seed=61,
        )
        data_path = tmp_path / "records.csv"
        sample(state, config).to_csv(data_path)
        rc = main(
            [
                "tomography",
                "--input", str(data_path),
                "--cutoff", "3",
                "--stop-tol", "1e-7",
                "--ref-zeta", "0.44",
                "--ref-eta", "0.5",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        summary = read_json(tmp_path / "tomo_summary.json")
        assert summary["reference"]["fidelity"] > 0.97
        # the reference is the library's exact conversion of the same state
        reference, _ = gaussian_to_fock(state, 3)
        assert summary["reference"]["mean_photon"] == [mean_photon(reference, m) for m in range(2)]
        for value in summary["mean_photon"]:
            assert abs(value - 0.1032103272623489) < 0.02
        diagnostics = read_json(tmp_path / "tomo_diagnostics.json")
        assert set(diagnostics) == {"iterations", "loglik", "phase_deficient"}
        state_payload = read_json(tmp_path / "tomo_state.json")
        assert state_payload["n_modes"] == 2
        assert state_payload["cutoff"] == 3
        # the written entries are an in-process reconstruction of the same CSV, bit for bit
        rho, _ = reconstruct(QuadratureDataset.from_csv(data_path), TomographyConfig(cutoff=3, stop_tol=1e-7))
        written = np.array([complex(re, im) for re, im in state_payload["entries"]]).reshape(rho.dim, rho.dim)
        np.testing.assert_array_equal(written.view(np.uint64), rho.matrix.view(np.uint64))

    def test_vacuum_dataset(self, tmp_path):
        config = SweepConfig(
            phases=(PhaseSchedule(0.0, 1e-3), PhaseSchedule(0.5, 1.3e-3)),
            n_samples=120_000,
            seed=62,
        )
        data_path = tmp_path / "vac.csv"
        sample(vacuum(2), config).to_csv(data_path)
        rc = main(["tomography", "--input", str(data_path), "--cutoff", "3", "--out", str(tmp_path)])
        assert rc == 0
        payload = read_json(tmp_path / "tomo_state.json")
        dim = (payload["cutoff"] + 1) ** 2
        p00 = payload["entries"][0][0]
        assert p00 >= 0.99
        assert len(payload["entries"]) == dim * dim

    def test_warns_when_not_converged_or_phase_deficient(self, tmp_path, capsys):
        swept, fixed = tmp_path / "swept.csv", tmp_path / "fixed.csv"
        for path, rate in ((swept, 1e-3), (fixed, 0.0)):
            config = SweepConfig(phases=(PhaseSchedule(0.0, rate),), n_samples=2000, seed=64)
            sample(vacuum(1), config).to_csv(path)

        def run(path, *extra):
            out = tmp_path / f"{path.stem}{len(extra)}"
            assert main(["tomography", "--input", str(path), "--cutoff", "3", *extra, "--out", str(out)]) == 0
            assert set(read_json(out / "tomo_diagnostics.json")) == {"iterations", "loglik", "phase_deficient"}
            captured = capsys.readouterr()
            assert captured.out.startswith("tomography: ")
            return captured.err.splitlines()

        assert run(swept) == []
        (line,) = run(swept, "--max-iterations", "2")
        assert line.startswith("eprsim: warning: ") and "--max-iterations 2" in line
        (line,) = run(fixed)
        assert line.startswith("eprsim: warning: ") and "phase-deficient" in line
        # one line per caveat, the iteration cap first
        capped, deficient = run(fixed, "--max-iterations", "2")
        assert capped == "eprsim: warning: tomography stopped at --max-iterations 2 before converging"
        assert deficient == line

    def test_non_ascii_byte_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes("index,theta1,x1\n0,0.0,0.1\n1,0.5,0.2µ\n".encode("utf-8"))
        rc = main(["tomography", "--input", str(bad), "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err == "eprsim: data format error: line 3: non-ASCII byte 0xc2\n"

    def test_parse_failure_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("index,theta1,x1\n0,0.0,not-a-number\n")
        rc = main(["tomography", "--input", str(bad), "--out", str(tmp_path)])
        assert rc == 3
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["1,nan,0.25", "1,0.5,inf"])
    def test_non_finite_value_names_line(self, tmp_path, capsys, row):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"index,theta1,x1\n0,0.0,0.1\n\n{row}\n2,1.0,-0.3\n")
        rc = main(["tomography", "--input", str(bad), "--cutoff", "3", "--out", str(tmp_path)])
        assert rc == 3
        assert "line 4" in capsys.readouterr().err

    def test_reference_needs_two_modes_before_reconstructing(self, tmp_path, capsys, monkeypatch):
        config = SweepConfig(phases=(PhaseSchedule(0.0, 1e-3),), n_samples=2000, seed=63)
        data_path = tmp_path / "one_mode.csv"
        sample(vacuum(1), config).to_csv(data_path)
        monkeypatch.setattr("eprsim.cli.reconstruct", lambda *a: pytest.fail("reconstruct ran"))
        out = tmp_path / "untouched"
        rc = main(
            ["tomography", "--input", str(data_path), "--ref-zeta", "0.4", "--ref-eta", "0.5", "--out", str(out)]
        )
        assert rc == 4
        assert "reference comparison needs a 2-mode dataset" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ref_zeta", ["2.0", "1e6"], ids=["trace-budget", "overflow"])
    def test_reference_beyond_cutoff_before_reconstructing(self, tmp_path, capsys, monkeypatch, ref_zeta):
        config = SweepConfig(phases=(PhaseSchedule(0.0, 1e-3), PhaseSchedule(0.5, 1.3e-3)), n_samples=2000, seed=63)
        data_path = tmp_path / "two_mode.csv"
        sample(vacuum(2), config).to_csv(data_path)
        monkeypatch.setattr("eprsim.cli.reconstruct", lambda *a: pytest.fail("reconstruct ran"))
        out = tmp_path / "untouched"
        rc = main(
            ["tomography", "--input", str(data_path), "--cutoff", "4", "--ref-zeta", ref_zeta, "--ref-eta", "0.5",
             "--out", str(out)]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("eprsim: invalid parameters: ")
        assert not out.exists()

    def test_missing_reference_flag_pair(self, tmp_path, capsys):
        out = tmp_path / "untouched"
        rc = main(["tomography", "--input", "x.csv", "--ref-zeta", "0.4", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "eprsim: invalid parameters: --ref-zeta and --ref-eta must be given together\n"
        )
        assert not out.exists()

    def test_defaults_are_the_config_defaults(self):
        # one default per setting: the library and the command reconstruct alike
        args = build_parser().parse_args(["tomography", "--input", "x.csv"])
        defaults = TomographyConfig()
        assert (args.cutoff, args.max_iterations, args.stop_tol) == (
            defaults.cutoff, defaults.max_iterations, defaults.stop_tol
        )


class TestFitCommand:
    def test_epr_kind_from_files(self, tmp_path):
        assert (
            main(
                [
                    "epr-sweep",
                    "--samples", "200000",
                    "--window", "5000",
                    "--seed", "8",
                    "--out", str(tmp_path),
                ]
            )
            == 0
        )
        rc = main(
            [
                "fit",
                "--kind", "epr",
                "--trace-sum", str(tmp_path / "epr_sum_trace.csv"),
                "--trace-diff", str(tmp_path / "epr_difference_trace.csv"),
                "--out", str(tmp_path),
                "--prefix", "refit",
            ]
        )
        assert rc == 0
        fit = read_json(tmp_path / "refit_fit.json")
        assert abs(fit["zeta"] - 0.44) < 0.03

    def test_single_kind_from_file(self, tmp_path):
        assert main(["single-sweep", "--seed", "12", "--out", str(tmp_path)]) == 0
        rc = main(
            [
                "fit",
                "--kind", "single",
                "--trace", str(tmp_path / "single_trace.csv"),
                "--out", str(tmp_path),
                "--prefix", "refit",
            ]
        )
        assert rc == 0
        assert abs(read_json(tmp_path / "refit_fit.json")["zeta"] - 0.44) < 0.02

    @pytest.mark.parametrize("command", ["single-sweep", "epr-sweep"])
    def test_refit_reproduces_sweep_fit(self, tmp_path, replay_inputs, command):
        # the trace CSVs keep 17 significant digits, so the refit sees the sweep's traces
        kind = command.removesuffix("-sweep")
        run_case(f"fit-{kind}", replay_inputs, tmp_path)
        refit = read_json(tmp_path / "fit_fit.json")
        swept = read_json(replay_inputs / f"{kind}_fit.json")
        assert list(refit) == list(FitResult.__dataclass_fields__)
        assert refit == {key: swept[key] for key in refit}

    def test_warns_of_weak_fit(self, tmp_path, capsys, monkeypatch):
        def run(*args):
            assert main([*args, "--out", str(tmp_path)]) == 0
            captured = capsys.readouterr()
            assert captured.out.startswith(f"{args[0]}: ")
            return captured.err

        refit = ["fit", "--kind", "single", "--trace", str(tmp_path / "single_trace.csv"), "--prefix", "refit"]
        assert run("single-sweep", "--seed", "12") == ""
        assert run(*refit) == ""
        degenerate = "fit is degenerate (oscillation below the noise)\n"
        flat = ["single-sweep", "--zeta", "0", "--samples", "100000", "--seed", "4"]
        assert run(*flat) == f"eprsim: warning: single-sweep {degenerate}"
        assert run(*refit) == f"eprsim: warning: fit {degenerate}"
        assert read_json(tmp_path / "refit_fit.json")["degenerate"] is True
        # a tone search cut off by its evaluation cap
        monkeypatch.setattr(
            fitting, "levenberg_marquardt",
            lambda project, x0, **options: levenberg_marquardt(project, x0, **{**options, "max_nfev": 2}),
        )
        capped = run("epr-sweep", "--samples", "40000", "--window", "1000")
        assert capped == "eprsim: warning: epr-sweep fit did not converge\n"
        assert read_json(tmp_path / "epr_fit.json")["converged"] is False

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--kind", "single"], "fit --kind single needs --trace"),
            (
                ["--kind", "single", "--trace", "T", "--trace-sum", "T"],
                "fit --kind single takes no --trace-sum or --trace-diff",
            ),
            (
                ["--kind", "single", "--trace", "T", "--trace-diff", "T"],
                "fit --kind single takes no --trace-sum or --trace-diff",
            ),
            (
                ["--kind", "epr", "--trace", "T", "--trace-sum", "T", "--trace-diff", "T"],
                "fit --kind epr takes no --trace",
            ),
        ],
        ids=["single-without-trace", "single-with-trace-sum", "single-with-trace-diff", "epr-with-trace"],
    )
    def test_single_kind_needs_trace(self, tmp_path, capsys, flags, message):
        # T is a readable trace, so only the flag check can stop the run
        trace = write_single_trace(tmp_path / "trace.csv", *single_trace_rows())
        out = tmp_path / "untouched"
        argv = [str(trace) if flag == "T" else flag for flag in flags]
        assert main(["fit", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"eprsim: invalid parameters: {message}\n"
        assert not out.exists()

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # six bins cannot support the four-parameter fit
        lines = ["bin_center_index,theta1_center,variance,count"]
        for i in range(6):
            lines.append(f"{i * 100 + 50},{i * 0.01},{0.4 + 0.01 * i},100")
        short = tmp_path / "short.csv"
        short.write_text("\n".join(lines) + "\n")
        rc = main(["fit", "--kind", "single", "--trace", str(short), "--out", str(tmp_path)])
        assert rc == 4
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["repeated", "decreasing"])
    def test_bin_centers_not_evenly_increasing(self, tmp_path, capsys, edit):
        centers, variances = single_trace_rows()
        if edit == "repeated":
            centers[1] = centers[0]
        else:
            centers = centers[::-1]
        path = write_single_trace(tmp_path / "trace.csv", centers, variances)
        rc = main(["fit", "--kind", "single", "--trace", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "evenly spaced" in capsys.readouterr().err

    def test_non_ascii_byte_exit_code(self, tmp_path, capsys):
        centers, variances = single_trace_rows()
        path = write_single_trace(tmp_path / "trace.csv", centers, variances)
        lines = path.read_text().splitlines()
        lines[3] += "µ"
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        rc = main(["fit", "--kind", "single", "--trace", str(path), "--out", str(tmp_path)])
        assert rc == 3
        assert "line 4: non-ASCII byte 0xc2" in capsys.readouterr().err

    def test_fractional_count_names_line(self, tmp_path, capsys):
        centers, variances = single_trace_rows()
        path = write_single_trace(tmp_path / "trace.csv", centers, variances)
        lines = path.read_text().splitlines()
        lines[5] = lines[5].replace(",100", ",2.7")
        path.write_text("\n".join(lines) + "\n")
        rc = main(["fit", "--kind", "single", "--trace", str(path), "--out", str(tmp_path)])
        assert rc == 3
        assert "line 6: count must be a positive integer" in capsys.readouterr().err

    def test_non_finite_variance_names_line(self, tmp_path, capsys):
        centers, variances = single_trace_rows()
        variances[2] = math.nan
        path = write_single_trace(tmp_path / "trace.csv", centers, variances)
        rc = main(["fit", "--kind", "single", "--trace", str(path), "--out", str(tmp_path)])
        assert rc == 3
        assert "line 4" in capsys.readouterr().err


class TestDesignCommand:
    def test_rayleigh(self, capsys):
        rc = main(["design", "rayleigh", "--w0", "12.4um", "--wavelength", "390nm"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["quantity"] == "rayleigh_range"
        assert rows[0]["value"] == pytest.approx(1.238593042092222e-3, rel=1e-12)
        assert rows[0]["unit"] == "m"

    def test_radius_ratio(self, capsys):
        rc = main(
            ["design", "radius", "--z", "0.72mm", "--w0", "12.4um", "--wavelength", "390nm"]
        )
        assert rc == 0
        rows = {row["quantity"]: row for row in json.loads(capsys.readouterr().out)}
        assert rows["beam_radius_over_waist"]["value"] == pytest.approx(1.156682841073419, rel=1e-9)

    def test_walkoff_preset(self, capsys):
        rc = main(["design", "walkoff", "--length", "1mm", "--preset", "ppktp"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["value"] == pytest.approx(0.5159474671669795e-3, rel=1e-12)

    def test_compensation(self, capsys):
        rc = main(["design", "compensation", "--delay", "0.58mm", "--dn-group", "0.16111111111111112"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["value"] == pytest.approx(3.6e-3, rel=1e-9)

    @pytest.mark.parametrize(
        "argv",
        [
            ["compensation", "--delay", "-0.52mm", "--dn-group", "0.1611"],
            ["radius", "--z", "-0.72mm", "--w0", "12.4um", "--wavelength", "390nm"],
        ],
        ids=["compensation-delay", "radius-z"],
    )
    def test_negative_length_needs_equals_form(self, tmp_path, capsys, argv):
        # argparse reads a spaced "-0.52mm" as an option, not as the value
        quantity, flag, value, *rest = argv
        rc = main(["design", quantity, flag, value, *rest, "--out", str(tmp_path / "spaced")])
        assert rc == 2
        assert "expected one argument" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        rc = main(["design", quantity, f"{flag}={value}", *rest])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert all(math.isfinite(row["value"]) for row in rows)

    def test_missing_parameters_usage_error(self, capsys):
        rc = main(["design", "rayleigh", "--w0", "12.4um"])
        assert rc == 2
        assert "--wavelength" in capsys.readouterr().err

    def test_walkoff_needs_preset_or_velocities(self, tmp_path, capsys):
        # one velocity alone, or a preset mixed with a velocity
        for velocities in (["--v-pump", "0.4"], ["--preset", "ppktp", "--v-pump", "0.9"]):
            rc = main(["design", "walkoff", "--length", "1mm", *velocities, "--out", str(tmp_path)])
            assert rc == 2
            assert "--preset or both --v-pump and --v-signal" in capsys.readouterr().err
            assert not list(tmp_path.iterdir())

    def test_bad_unit_token_reported(self, capsys):
        rc = main(["design", "rayleigh", "--w0", "12.4lightyears", "--wavelength", "390nm"])
        assert rc == 2
        assert "12.4lightyears" in capsys.readouterr().err

    def test_writes_rows_file_when_out_given(self, tmp_path):
        rc = main(
            [
                "design", "walkoff",
                "--length", "1mm",
                "--preset", "ppktp",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        rows = read_json(tmp_path / "design_design.json")
        assert rows[0]["quantity"] == "walkoff_path"
        assert (tmp_path / "design_manifest.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["compensation", "--delay", "1e300m", "--dn-group", "1e-300"],
            ["walkoff", "--length", "1e308m", "--v-pump", "1e-10", "--v-signal", "1"],
            ["radius", "--z", "1m", "--w0", "1e-200m", "--wavelength", "1m"],
            ["radius", "--z", "1m", "--w0", "1e-100m", "--wavelength", "1m"],
        ],
        ids=["compensation-overflow", "walkoff-overflow", "radius-rayleigh-underflow", "radius-overflow"],
    )
    def test_non_finite_result_is_numerical_failure(self, tmp_path, capsys, argv):
        out = tmp_path / "untouched"
        assert main(["design", *argv, "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"eprsim: numerical failure: design {argv[0]}: ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_json_writer_refuses_non_finite_values(self, tmp_path):
        with pytest.raises(FloatingPointError, match="rows.json"):
            _write_json(tmp_path / "rows.json", {"value": math.inf})
        assert not (tmp_path / "rows.json").exists()


class TestCliPlumbing:
    def test_usage_error_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_outdir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EPRSIM_OUTDIR", str(tmp_path / "env_out"))
        rc = main(["single-sweep", "--samples", "40000", "--seed", "2"])
        assert rc == 0
        assert (tmp_path / "env_out" / "single_trace.csv").exists()

    def test_unwritable_output_path(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        rc = main(
            ["single-sweep", "--samples", "40000", "--seed", "2", "--out", str(blocker / "sub")]
        )
        assert rc == 1
        assert "I/O error" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "eprsim" in capsys.readouterr().out

    def test_every_option_has_help(self):
        def leaves(parser):
            subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            if not subs:
                yield parser
            for sub in subs:
                for child in sub.choices.values():
                    yield from leaves(child)

        missing = [
            f"{parser.prog} {action.option_strings[-1]}"
            for parser in leaves(build_parser())
            for action in parser._actions
            if action.option_strings and not (action.help or "").strip()
        ]
        assert missing == []

    @pytest.mark.parametrize(
        "argv, shown",
        [
            (["tomography", "--input", "x.csv", "--stop-tol", "inf"], "--stop-tol: must be finite"),
            (["tomography", "--input", "x.csv", "--stop-tol", "nan"], "--stop-tol: must be finite"),
            (
                ["tomography", "--input", "x.csv", "--ref-zeta", "nan", "--ref-eta", "0.5"],
                "--ref-zeta: must be finite",
            ),
            (["design", "compensation", "--delay", "0.58mm", "--dn-group", "nan"], "--dn-group: must be finite"),
            (
                ["design", "rayleigh", "--w0", "1e999um", "--wavelength", "390nm"],
                "--w0: length '1e999um' is not finite",
            ),
            (["single-sweep", "--theta0", "nan"], "--theta0: must be finite"),
            # a finite number outside the bound its config enforces is refused by the parser too
            (["tomography", "--input", "x.csv", "--cutoff", "1"], "--cutoff: must be >= 2, got 1"),
        ],
        ids=["stop-tol-inf", "stop-tol-nan", "ref-zeta-nan", "dn-group-nan", "w0-overflow", "theta0-nan", "cutoff-1"],
    )
    def test_non_finite_number_rejected(self, tmp_path, capsys, argv, shown):
        out = tmp_path / "untouched"
        assert main([*argv, "--out", str(out)]) == 2
        assert f"argument {shown}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "path, required, flag, value",
        [
            (["single-sweep"], [], "--rate", "-6.3e-4"),
            (["single-sweep"], [], "--theta0", "-1e-3"),
            (["epr-sweep"], [], "--theta2", "-1e-3"),
            (["epr-sweep"], [], "--relative-phase", "-1e-1"),
            (["design", "compensation"], ["--delay", "0.58mm"], "--dn-group", "-1e-1"),
        ],
        ids=["single-rate", "single-theta0", "epr-theta2", "epr-relative-phase", "compensation-dn-group"],
    )
    def test_negative_exponent_needs_equals_form(self, tmp_path, capsys, path, required, flag, value):
        # argparse reads a spaced "-1e-3" as an option, not as the value
        assert main([*path, *required, flag, value, "--out", str(tmp_path)]) == 2
        assert f"argument {flag}: expected one argument" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        parser = build_parser()
        args = parser.parse_args([*path, *required, f"{flag}={value}"])
        assert getattr(args, flag[2:].replace("-", "_")) == float(value)
        for name in path:
            parser = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[name]
        (action,) = [action for action in parser._actions if flag in action.option_strings]
        assert f"{flag}=-" in action.help

    def test_unparsable_number_names_its_type(self, capsys):
        assert main(["tomography", "--input", "x.csv", "--stop-tol", "tight"]) == 2
        assert "argument --stop-tol: invalid float value: 'tight'" in capsys.readouterr().err
        assert main(["single-sweep", "--samples", "2.5"]) == 2
        assert "argument --samples: invalid int value: '2.5'" in capsys.readouterr().err

    def test_serial_flag_rejected(self, tmp_path, capsys):
        rc = main(
            ["single-sweep", "--samples", "40000", "--seed", "2", "--serial", "--out", str(tmp_path)]
        )
        assert rc == 2
        assert "unrecognized arguments: --serial" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


SMALL_SWEEP = ["--samples", "20000", "--window", "1000", "--seed", "5"]

# One small run of each subcommand; "{inputs}" is the directory of the
# ``replay_inputs`` fixture.  ``--theta0=-1e-05`` is a negative value in
# exponent form, which argparse would take for an option if given as a
# separate word.
REPLAY_CASES = {
    "single-sweep": ["single-sweep", *SMALL_SWEEP, "--theta0", "-0.7", "--write-dataset"],
    "epr-sweep": ["epr-sweep", *SMALL_SWEEP, "--theta0=-1e-05", "--write-dataset"],
    "tomography": [
        "tomography", "--input", "{inputs}/epr_data.csv", "--cutoff", "2", "--max-iterations", "30",
    ],
    "tomography-reference": [
        "tomography", "--input", "{inputs}/epr_data.csv", "--cutoff", "3", "--max-iterations", "30",
        "--ref-zeta", "0.44", "--ref-eta", "0.5",
    ],
    "fit-single": ["fit", "--kind", "single", "--trace", "{inputs}/single_trace.csv"],
    "fit-epr": [
        "fit", "--kind", "epr",
        "--trace-sum", "{inputs}/epr_sum_trace.csv",
        "--trace-diff", "{inputs}/epr_difference_trace.csv",
    ],
    "design-walkoff": ["design", "walkoff", "--length", "1mm", "--preset", "ppktp"],
    "design-radius": ["design", "radius", "--z", "0.72mm", "--w0", "12.4um", "--wavelength", "390nm"],
}

# The manifest parameters of each case as the hand-written manifests recorded
# them, except that tomography without a reference no longer records
# ref_zeta/ref_eta as null, tomography no longer has a dilution option and
# design now records its prefix.
PINNED_PARAMETERS = {
    "single-sweep": {
        "zeta": 0.44, "eta": 0.52, "samples": 20000, "theta0": -0.7, "rate": 0.0006283185307179586,
        "window": 1000, "write_dataset": True, "prefix": "single",
    },
    "epr-sweep": {
        "zeta": 0.44, "eta": 0.5, "relative_phase": 1.5707963267948966, "mismatch": 0.0,
        "samples": 20000, "theta0": -1e-05, "theta2": 0.0, "rate": 0.0006283185307179586,
        "window": 1000, "write_dataset": True, "prefix": "epr",
    },
    "tomography": {
        "input": "{inputs}/epr_data.csv", "cutoff": 2, "max_iterations": 30, "stop_tol": 1e-08,
        "prefix": "tomo",
    },
    "tomography-reference": {
        "input": "{inputs}/epr_data.csv", "cutoff": 3, "max_iterations": 30, "stop_tol": 1e-08,
        "ref_zeta": 0.44, "ref_eta": 0.5, "prefix": "tomo",
    },
    "fit-single": {"kind": "single", "trace": "{inputs}/single_trace.csv", "prefix": "fit"},
    "fit-epr": {
        "kind": "epr", "trace_sum": "{inputs}/epr_sum_trace.csv",
        "trace_diff": "{inputs}/epr_difference_trace.csv", "prefix": "fit",
    },
    "design-walkoff": {
        "quantity": "walkoff", "length": 0.001, "v_pump": 0.41, "v_signal": 0.52, "prefix": "design",
    },
    "design-radius": {
        "quantity": "radius", "z": 0.0007199999999999999, "w0": 1.24e-05, "wavelength": 3.9e-07,
        "prefix": "design",
    },
}

# The manifest ``outputs`` of each case, in the order they are written.
PINNED_OUTPUTS = {
    "single-sweep": ["single_data.csv", "single_trace.csv", "single_fit.json"],
    "epr-sweep": [
        "epr_data.csv", "epr_mode1_trace.csv", "epr_mode2_trace.csv", "epr_sum_trace.csv",
        "epr_difference_trace.csv", "epr_fit.json",
    ],
    "tomography": ["tomo_state.json", "tomo_diagnostics.json", "tomo_summary.json"],
    "tomography-reference": ["tomo_state.json", "tomo_diagnostics.json", "tomo_summary.json"],
    "fit-single": ["fit_fit.json"],
    "fit-epr": ["fit_fit.json"],
    "design-walkoff": ["design_design.json"],
    "design-radius": ["design_design.json"],
}


@pytest.fixture(scope="module")
def replay_inputs(tmp_path_factory):
    """Dataset and trace CSVs that the tomography and fit cases read."""
    inputs = tmp_path_factory.mktemp("inputs")
    for command in ("single-sweep", "epr-sweep"):
        assert main([command, *SMALL_SWEEP, "--write-dataset", "--out", str(inputs)]) == 0
    return inputs


def run_case(case: str, inputs: Path, out: Path) -> dict:
    """Run a replay case into ``out`` and return its manifest."""
    argv = [word.replace("{inputs}", str(inputs)) for word in REPLAY_CASES[case]]
    assert main(argv + ["--out", str(out)]) == 0
    (manifest_path,) = out.glob("*_manifest.json")
    return read_json(manifest_path)


def with_out(manifest: dict, out: Path) -> dict:
    argv = list(manifest["argv"])
    argv[argv.index("--out") + 1] = str(out)
    return {**manifest, "argv": argv}


class TestManifest:
    @pytest.mark.parametrize("case", sorted(REPLAY_CASES))
    def test_manifest_rerun_reproduces_bytes(self, tmp_path, replay_inputs, case):
        out1, out2 = tmp_path / "first", tmp_path / "second"
        manifest = run_case(case, replay_inputs, out1)
        assert main(with_out(manifest, out2)["argv"]) == 0
        for name in manifest["outputs"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        (replayed_path,) = out2.glob("*_manifest.json")
        assert with_out(read_json(replayed_path), out1) == manifest

    @pytest.mark.parametrize("case", sorted(REPLAY_CASES))
    def test_parameters_pinned(self, tmp_path, replay_inputs, case):
        parameters = run_case(case, replay_inputs, tmp_path)["parameters"]
        expected = {
            key: value.replace("{inputs}", str(replay_inputs)) if isinstance(value, str) else value
            for key, value in PINNED_PARAMETERS[case].items()
        }
        assert list(parameters.items()) == list(expected.items())

    @pytest.mark.parametrize("case", sorted(REPLAY_CASES))
    def test_outputs_pinned(self, tmp_path, replay_inputs, case):
        outputs = run_case(case, replay_inputs, tmp_path)["outputs"]
        assert outputs == PINNED_OUTPUTS[case]
        written = [path.name for path in tmp_path.iterdir() if not path.name.endswith("_manifest.json")]
        assert sorted(written) == sorted(outputs)


def readme_commands() -> list[list[str]]:
    """The ``eprsim ...`` commands of README's "Command line" section, each
    split into words, continuation lines joined and comments dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    blocks = section.split("```")[1::2]
    lines = "\n".join(block.split("\n", 1)[1] for block in blocks).replace("\\\n", " ")
    return [words for words in map(partial(shlex.split, comments=True), lines.splitlines()) if words]


class TestReadme:
    def test_command_line_examples_parse(self):
        commands = readme_commands()
        assert {words[1] for words in commands} == {"single-sweep", "epr-sweep", "tomography", "fit", "design"}
        for words in commands:
            assert words[0] == "eprsim"
            build_parser().parse_args(words[1:])


class TestModuleEntry:
    @pytest.mark.parametrize("module", ["eprsim", "eprsim.cli"])
    def test_python_dash_m(self, tmp_path, module):
        src = str(Path(eprsim.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("EPRSIM_OUTDIR", None)

        def run(*args):
            return subprocess.run(
                [sys.executable, "-m", module, *args], env=env, capture_output=True, text=True, timeout=120
            )

        version = run("--version")
        assert version.returncode == 0
        assert version.stdout.startswith("eprsim ")
        out = tmp_path / "run"
        sweep = run("single-sweep", "--samples", "20000", "--window", "1000", "--seed", "3", "--out", str(out))
        assert sweep.returncode == 0, sweep.stderr
        assert read_json(out / "single_manifest.json")["subcommand"] == "single-sweep"

    def test_import_loads_no_scipy_solver(self, tmp_path):
        # scipy is a test dependency only: sampling converts its uniforms by
        # homodyne._ndtri, a numpy port of Cephes ndtri, and the fits,
        # tomography and design arithmetic use numpy alone.  The import loads
        # no scipy module, and every command runs with scipy blocked.
        src = str(Path(eprsim.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("EPRSIM_OUTDIR", None)

        def run_child(code):
            result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
            assert result.returncode == 0, result.stderr
            return result.stdout

        loaded = run_child("import sys, eprsim, eprsim.cli\nprint(*(m for m in sys.modules if m.startswith('scipy')))")
        assert loaded.split() == []
        sweep = ["--samples", "20000", "--window", "1000", "--write-dataset"]
        single, epr = str(tmp_path / "single"), str(tmp_path / "epr")
        commands = [
            ["single-sweep", *sweep, "--out", single],
            ["epr-sweep", *sweep, "--out", epr],
            ["fit", "--kind", "single", "--trace", f"{single}/single_trace.csv", "--out", str(tmp_path / "refit1")],
            [
                "fit", "--kind", "epr", "--trace-sum", f"{epr}/epr_sum_trace.csv",
                "--trace-diff", f"{epr}/epr_difference_trace.csv", "--out", str(tmp_path / "refit"),
            ],
            [
                "tomography", "--input", f"{epr}/epr_data.csv", "--cutoff", "3",
                "--ref-zeta", "0.44", "--ref-eta", "0.5", "--out", str(tmp_path / "tomo"),
            ],
            ["design", "walkoff", "--length", "1mm", "--preset", "ppktp", "--out", str(tmp_path / "design")],
        ]
        # with sys.modules["scipy"] = None, any scipy import raises ImportError
        code = "import sys\nsys.modules['scipy'] = None\nimport eprsim.cli\n"
        run_child(code + "".join(f"assert eprsim.cli.main({argv!r}) == 0, {argv!r}\n" for argv in commands))
        assert read_json(tmp_path / "tomo" / "tomo_summary.json")["reference"] is not None

    def test_import_of_optics_loads_no_numpy(self):
        # the package root re-exports nothing, so the design arithmetic and
        # the exception types load without the numerical modules
        src = str(Path(eprsim.__file__).resolve().parents[1])
        code = "import sys, eprsim, eprsim.errors, eprsim.optics\n"
        code += "print(*sorted(m for m in sys.modules if m.startswith('numpy')))"
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == []
