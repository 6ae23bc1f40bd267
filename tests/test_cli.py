import json
import math
from pathlib import Path

import numpy as np
import pytest

from eprsim.cli import main
from eprsim.fitting import fit_sinusoid
from eprsim.gaussian import PipelineConfig, epr_pipeline, vacuum
from eprsim.homodyne import PhaseSchedule, SweepConfig, VarianceTrace, sample


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

    def test_manifest_rerun_reproduces_bytes(self, tmp_path):
        out1 = tmp_path / "first"
        assert main(["single-sweep", "--samples", "60000", "--seed", "11", "--out", str(out1)]) == 0
        manifest = read_json(out1 / "single_manifest.json")
        argv = manifest["argv"]
        out2 = tmp_path / "second"
        argv[argv.index("--out") + 1] = str(out2)
        assert main(argv) == 0
        for name in manifest["outputs"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_validates_before_writing(self, tmp_path):
        out = tmp_path / "untouched"
        rc = main(["single-sweep", "--eta", "1.5", "--out", str(out)])
        assert rc == 2
        assert not out.exists()


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
        for value in summary["mean_photon"]:
            assert abs(value - 0.1032103272623489) < 0.02
        diagnostics = read_json(tmp_path / "tomo_diagnostics.json")
        assert set(diagnostics) == {"iterations", "loglik", "phase_deficient"}
        state_payload = read_json(tmp_path / "tomo_state.json")
        assert state_payload["n_modes"] == 2
        assert state_payload["cutoff"] == 3

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

    def test_missing_reference_flag_pair(self, tmp_path):
        rc = main(["tomography", "--input", "x.csv", "--ref-zeta", "0.4", "--out", str(tmp_path)])
        assert rc == 2


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

    def test_single_kind_needs_trace(self, tmp_path):
        assert main(["fit", "--kind", "single", "--out", str(tmp_path)]) == 2

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

    def test_missing_parameters_usage_error(self, capsys):
        rc = main(["design", "rayleigh", "--w0", "12.4um"])
        assert rc == 2
        assert "--wavelength" in capsys.readouterr().err

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

    def test_serial_flag_accepted(self, tmp_path):
        rc = main(
            ["single-sweep", "--samples", "40000", "--seed", "2", "--serial", "--out", str(tmp_path)]
        )
        assert rc == 0
