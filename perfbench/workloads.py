"""The three benchmark workloads: inputs from the workload seed, the timed
operation, and the per-operation correctness gates.

Every workload is a closed loop with one caller: operation n+1 starts when
operation n has returned.  A workload has a pool of POOL inputs; operation n
runs input n mod POOL, and input i is a pure function of (workload seed, i).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import eprsim.cli
from eprsim import fitting, fock, gaussian, homodyne, optics, tomography

import gates

SWEEP_RECORDS = 200_000  # the CLI defaults
SWEEP_WINDOW = 2000
TOMO_RECORDS = 50_000
TOMO_CUTOFF = 4
TOMO_STATES = ((0.44, 0.5), (0.3, 0.8), (0.6, 0.4))  # (zeta, eta), cycled per op
CLI_TIMEOUT_S = 150.0
SPAWN = Path(__file__).with_name("spawn.py")


def op_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


class SweepFit:
    """Single-mode and EPR sweep-and-fit, in-process."""

    name = "sweep_fit"
    POOL = 128

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.records: list[dict] = []

    def setup(self) -> None:
        # one op of each kind at the README points lets lazy set-up finish
        self._single(0.44, 0.52, 0.0, 2.0, 1)
        self._epr(0.44, 0.50, 0.0, 2.0, 1)

    def op(self, index: int) -> list[str]:
        """One single-mode sweep-and-fit, then one EPR sweep-and-fit.

        Both kinds run in every op so that op times form one population; a
        median over ops that alternate kinds would fall between two modes.
        """
        rng = op_rng(self.seed, index)
        failures = []
        for kind, run in (("single", self._single), ("epr", self._epr)):
            zeta = rng.uniform(0.1, 1.0)
            eta = rng.uniform(0.3, 1.0)
            theta0 = rng.uniform(0.0, 2.0 * math.pi)
            periods = rng.uniform(1.1, 4.0)
            sample_seed = int(rng.integers(1, 2**31))
            try:
                fit = run(zeta, eta, theta0, periods, sample_seed)
            except Exception as exc:  # a raising call is a failed op, not a stopped run
                reasons = [f"{kind} sweep: raised {type(exc).__name__}: {exc}"]
            else:
                reasons = gates.fit_failures(fit.zeta, fit.eta, zeta, eta, f"fit_{kind}")
            self.records.append({"kind": kind, "zeta": zeta, "eta": eta, "periods": periods, "failures": reasons})
            failures += reasons
        return failures

    @staticmethod
    def _single(zeta, eta, theta0, periods, sample_seed):
        state = gaussian.loss(gaussian.squeeze(gaussian.vacuum(1), 0, zeta), 0, eta)
        # one trace period is pi of LO phase (the trace oscillates with 2 theta)
        rate = periods * math.pi / SWEEP_RECORDS
        config = homodyne.SweepConfig(
            phases=(homodyne.PhaseSchedule(theta0, rate),), n_samples=SWEEP_RECORDS, seed=sample_seed
        )
        data = homodyne.sample(state, config)
        trace = homodyne.binned_variance(data, SWEEP_WINDOW, "mode1")
        return fitting.fit_single(trace)

    @staticmethod
    def _epr(zeta, eta, theta0, periods, sample_seed):
        state = gaussian.epr_pipeline(gaussian.PipelineConfig(zeta=zeta, eta=eta))
        # one trace period is 2 pi of theta1 + theta2; mode 2 is held at 0
        rate = periods * 2.0 * math.pi / SWEEP_RECORDS
        config = homodyne.SweepConfig(
            phases=(homodyne.PhaseSchedule(theta0, rate), homodyne.PhaseSchedule(0.0, 0.0)),
            n_samples=SWEEP_RECORDS,
            seed=sample_seed,
        )
        data = homodyne.sample(state, config)
        traces = {
            target: homodyne.binned_variance(data, SWEEP_WINDOW, target)
            for target in ("mode1", "mode2", "sum", "difference")
        }
        return fitting.fit_epr(traces["sum"], traces["difference"])


class TomoComplete:
    """Sample phase-complete 2-mode data, reconstruct by MaxLik, compare."""

    name = "tomo_complete"
    POOL = 2 * len(TOMO_STATES)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.records: list[dict] = []

    def setup(self) -> None:
        # the first Fock conversions pay the package's lazy set-up
        for zeta, eta in TOMO_STATES:
            fock.gaussian_to_fock(gaussian.epr_pipeline(gaussian.PipelineConfig(zeta=zeta, eta=eta)), TOMO_CUTOFF)
        # warm the reconstruction's array paths on a tiny dataset
        tiny = homodyne.sample(
            gaussian.epr_pipeline(gaussian.PipelineConfig(zeta=0.44, eta=0.5)), self._sweep(1000, 1)
        )
        tomography.reconstruct(tiny, tomography.TomographyConfig(cutoff=TOMO_CUTOFF, max_iterations=2))

    @staticmethod
    def _sweep(n: int, seed: int):
        """The phase-complete schedule: mode 1 over 11 periods, mode 2 over 4, offset 0.3."""
        return homodyne.SweepConfig(
            phases=(
                homodyne.PhaseSchedule(0.0, 2.0 * math.pi * 11 / n),
                homodyne.PhaseSchedule(0.3, 2.0 * math.pi * 4 / n),
            ),
            n_samples=n,
            seed=seed,
        )

    def op(self, index: int) -> list[str]:
        zeta, eta = TOMO_STATES[index % len(TOMO_STATES)]
        sample_seed = int(op_rng(self.seed, index).integers(1, 2**31))
        try:
            state = gaussian.epr_pipeline(gaussian.PipelineConfig(zeta=zeta, eta=eta))
            data = homodyne.sample(state, self._sweep(TOMO_RECORDS, sample_seed))
            rho, diagnostics = tomography.reconstruct(data, tomography.TomographyConfig(cutoff=TOMO_CUTOFF))
            reference, _ = fock.gaussian_to_fock(state, TOMO_CUTOFF)
            fid = fock.fidelity(rho, reference)
            failures = gates.tomography_failures(
                fid,
                [fock.mean_photon(rho, m) for m in range(2)],
                [fock.mean_photon(reference, m) for m in range(2)],
            )
            detail = {"fidelity": fid, "iterations": diagnostics.iterations}
        except Exception as exc:  # a raising call is a failed op, not a stopped run
            failures = [f"tomography: raised {type(exc).__name__}: {exc}"]
            detail = {}
        self.records.append({"zeta": zeta, "eta": eta, "failures": failures, **detail})
        return failures


class CliWorkflow:
    """The README commands at README sizes, one child process per command."""

    name = "cli_workflow"
    POOL = 2
    SINGLE = (0.44, 0.52)  # README single-sweep point
    EPR = (0.44, 0.50)  # README epr-sweep point

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        # the traced run calls eprsim.cli.main in-process, with one span per command
        self.in_process = False
        self.tracer = None
        self.records: list[dict] = []

    def setup(self) -> None:
        # cutoff 4 keeps 99.8 % of the squeezed vacuum's trace: declare that budget
        squeezed = fock.squeezed_vacuum_fock(self.SINGLE[0], 4, tail_tol=1.0)
        reference = fock.loss_fock(squeezed, 0, self.SINGLE[1])
        self.reference_mean_photon = fock.mean_photon(reference, 0)
        self.design_value = optics.walkoff_path(
            optics.parse_length("1mm"), *optics.WALKOFF_PRESETS["ppktp"]
        )
        self.workdir.mkdir(parents=True, exist_ok=True)

    def commands(self, index: int) -> list[list[str]]:
        single_seed, epr_seed = (str(s) for s in op_rng(self.seed, index).integers(1, 2**31, size=2))
        d = self.workdir / f"op{index}"
        return [
            ["single-sweep", "--zeta", "0.44", "--eta", "0.52", "--samples", "200000",
             "--window", "2000", "--seed", single_seed, "--out", str(d / "single"), "--write-dataset"],
            ["epr-sweep", "--zeta", "0.44", "--eta", "0.50", "--samples", "400000",
             "--window", "10000", "--seed", epr_seed, "--out", str(d / "epr"), "--write-dataset"],
            ["tomography", "--input", str(d / "single" / "single_data.csv"), "--cutoff", "4",
             "--out", str(d / "tomo")],
            ["fit", "--kind", "epr", "--trace-sum", str(d / "epr" / "epr_sum_trace.csv"),
             "--trace-diff", str(d / "epr" / "epr_difference_trace.csv"), "--out", str(d / "refit")],
            ["design", "walkoff", "--length", "1mm", "--preset", "ppktp"],
        ]

    def op(self, index: int) -> list[str]:
        failures, steps, stdout = [], [], {}
        for argv in self.commands(index):
            if self.in_process:
                step = self._run_in_process(argv)
            else:
                step = run_child(cli_argv(argv), self.workdir / "stdout.txt")
            steps.append({"command": argv[0], **{k: v for k, v in step.items() if k != "stdout"}})
            stdout[argv[0]] = step["stdout"]
            if step["exit_code"] != 0:
                failures.append(f"{argv[0]}: exit code {step['exit_code']}")
        try:
            failures += self._check(self.workdir / f"op{index}", stdout["design"])
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            failures.append(f"check: unreadable output ({type(exc).__name__}: {exc})")
        self.records.append({"steps": steps, "failures": failures})
        return failures

    def after_op(self, index: int) -> None:
        shutil.rmtree(self.workdir / f"op{index}", ignore_errors=True)

    def _run_in_process(self, argv: list[str]) -> dict:
        out = io.StringIO()
        span = self.tracer.open(f"cli.{argv[0]}") if self.tracer else None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = eprsim.cli.main(argv)
        except Exception:  # what a child process would report as a traceback and exit code 1
            code = 1
        finally:
            if span is not None:
                self.tracer.close(span)
        return {"exit_code": code, "stdout": out.getvalue()}

    def _check(self, d: Path, design_stdout: str) -> list[str]:
        failures = []
        for sub, prefix in (("single", "single"), ("epr", "epr"), ("tomo", "tomo"), ("refit", "fit")):
            manifest = json.loads((d / sub / f"{prefix}_manifest.json").read_text())
            missing = [name for name in manifest["outputs"] if not (d / sub / name).is_file()]
            if missing:
                failures.append(f"{sub}: manifest outputs missing: {missing}")
        for path, (zeta, eta), label in (
            (d / "single" / "single_fit.json", self.SINGLE, "fit_single"),
            (d / "refit" / "fit_fit.json", self.EPR, "fit_epr"),
        ):
            fit = json.loads(path.read_text())
            failures += gates.fit_failures(fit["zeta"], fit["eta"], zeta, eta, label)
        summary = json.loads((d / "tomo" / "tomo_summary.json").read_text())
        got = summary["mean_photon"][0]
        if not abs(got - self.reference_mean_photon) <= gates.MEAN_PHOTON_ATOL:
            failures.append(
                f"tomography: mean photon {got:.4f} not within {gates.MEAN_PHOTON_ATOL} "
                f"of {self.reference_mean_photon:.4f}"
            )
        rows = json.loads(design_stdout)
        failures += gates.design_failures(rows[0]["value"], self.design_value)
        return failures


def child_env() -> dict:
    env = dict(os.environ)
    env.pop(eprsim.cli.OUTDIR_ENV, None)
    src = str(Path(eprsim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_argv(argv: list[str]) -> list[str]:
    """The `eprsim` command run from this checkout's sources."""
    return [sys.executable, "-c", "import sys; from eprsim.cli import main; sys.exit(main(sys.argv[1:]))", *argv]


def run_child(argv: list[str], stdout_path: Path) -> dict:
    """Run a child to completion through spawn.py, which reports the child's
    own rusage from os.wait4; its stdout goes to `stdout_path`."""
    launcher = subprocess.run(
        [sys.executable, "-I", "-S", str(SPAWN), str(stdout_path), str(CLI_TIMEOUT_S), *argv],
        capture_output=True, text=True, env=child_env(), timeout=CLI_TIMEOUT_S + 10, check=True,
    )
    step = json.loads(launcher.stdout)
    step["stdout"] = Path(stdout_path).read_text(encoding="utf-8", errors="replace")
    return step


WORKLOADS = {w.name: w for w in (SweepFit, TomoComplete, CliWorkflow)}
