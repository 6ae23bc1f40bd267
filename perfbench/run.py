"""eprsim benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload sweep_fit --seed 1 --seconds 38 --trace 0

Each workload draws a fixed pool of inputs from the seed and runs them in
turn, again and again, until the time is up (and at least once each).  The
result line's `attempted` is the pool size and `failed` the number of pool
inputs whose output missed its gate, so both depend on the seed alone, not
on how many operations fit in the time.

With --trace 0 the run times operations back to back with no tracing and
prints the end-to-end metrics.  With --trace 1 it wraps the package's public
functions, runs each operation once untraced and once traced on the same
inputs, writes the spans under .perfbench_runs/ and prints the per-layer
metrics and the tracing overhead.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Earlier lines are a readable
summary, the environment record and the per-op failure reasons.

The program is imported from ./src of the checkout this file sits in; the
run exits with code 2 and prints no result when that source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_PROBES = 4  # child processes that repeat the set-up; the run's own is a fifth sample
IMPORT_PROBES = 3
MAX_FAIL_SHARE = 0.25  # `correct` is false when more than this share of ops fail

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MB"}
CLI_COMMANDS = ("single-sweep", "epr-sweep", "tomography", "fit", "design")
LAYER_UNITS = {
    "homodyne.sample.calls": "count",
    "homodyne.sample.busy_s": "s",
    "homodyne.sample.records": "count",
    "homodyne.binned_variance.calls": "count",
    "homodyne.binned_variance.busy_s": "s",
    "fitting.fit_single.calls": "count",
    "fitting.fit_single.busy_s": "s",
    "fitting.fit_epr.calls": "count",
    "fitting.fit_epr.busy_s": "s",
    "fitting.failed": "count",
    "fitting.on_bound": "count",
    "gaussian.state.busy_s": "s",
    "tomography.reconstruct.calls": "count",
    "tomography.reconstruct.busy_s": "s",
    "tomography.reconstruct.self_s": "s",
    "tomography.reconstruct.iterations": "count",
    "tomography.reconstruct.s_per_iteration": "s",
    "tomography.reconstruct.converged": "count",
    "tomography.reconstruct.cmacs_computed": "count",
    "tomography.build_projector_cache.busy_s": "s",
    "tomography.build_projector_cache.bytes_computed": "B",
    "tomography.fidelity_min": "ratio",
    "fock.gaussian_to_fock.calls": "count",
    "fock.gaussian_to_fock.busy_s": "s",
    "fock.fidelity.busy_s": "s",
    "homodyne.dataset_to_csv.busy_s": "s",
    "homodyne.dataset_to_csv.bytes": "B",
    "homodyne.dataset_from_csv.busy_s": "s",
    "homodyne.dataset_from_csv.bytes": "B",
    "homodyne.trace_csv.busy_s": "s",
    "cli.import_s": "s",
    **{f"cli.{c}.{k}": u for c in CLI_COMMANDS for k, u in (("wall_s", "s"), ("cpu_s", "s"), ("maxrss_mb", "MB"))},
    "ops.fail_ratio": "ratio",
    "trace.untraced_op_s": "s",
    "trace.traced_op_s": "s",
    "trace.overhead_s": "s",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep_fit", "tomo_complete", "cli_workflow"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "eprsim" / "__init__.py").is_file():
        print(f"perfbench: no eprsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"

    start = time.perf_counter()
    import workloads  # numpy, scipy and eprsim: part of the timed set-up

    if Path(workloads.eprsim.__file__).resolve().parents[1] != SRC:
        print(f"perfbench: eprsim imported from outside {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        elapsed = time.perf_counter() - start
        workloads.shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": elapsed}))
        return 0

    RUNS.mkdir(exist_ok=True)
    try:
        if args.trace:
            import tracing

            result = traced_run(workloads, tracing, args, workdir)
        else:
            result = timed_run(workloads, args, workdir, start)
    finally:
        workloads.shutil.rmtree(workdir, ignore_errors=True)
    report(args, workloads, result)
    return 0


def closed_loop(seconds: float, unit, minimum: int = 1) -> tuple[list[float], float]:
    """Run unit(0), unit(1), ... back to back; unit returns its own duration.

    A unit is not started when the median unit so far would end it past
    `seconds`, so a run ends close to its budget.  At least `minimum` units run.
    """
    durations: list[float] = []
    start = time.perf_counter()
    while len(durations) < minimum or time.perf_counter() - start + statistics.median(durations) <= seconds:
        durations.append(unit(len(durations)))
    return durations, time.perf_counter() - start


class Verdicts:
    """Gate results per pool input.

    An input's first run gives its verdict; a later run of the same input
    that gates differently adds a reason, so a non-deterministic output
    counts as a failure instead of being averaged away.
    """

    def __init__(self, pool: int):
        self.by_input: list[list[str] | None] = [None] * pool

    def add(self, item: int, failures: list[str]) -> None:
        first = self.by_input[item]
        if first is None:
            self.by_input[item] = list(failures)
        elif [f for f in first if not f.startswith("repeat:")] != failures:
            first.append(f"repeat: gate result changed to {failures}")

    def failures(self) -> list[list[str]]:
        assert None not in self.by_input, "every pool input runs at least once"
        return self.by_input


def timed_run(workloads, args, workdir: Path, start: float) -> dict:
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    workload.setup()
    setups = [time.perf_counter() - start] + [setup_probe(workloads, args) for _ in range(SETUP_PROBES)]
    verdicts = Verdicts(workload.POOL)

    def unit(index: int) -> float:
        item = index % workload.POOL
        t0 = time.perf_counter()
        failures = workload.op(item)
        duration = time.perf_counter() - t0
        verdicts.add(item, failures)
        if hasattr(workload, "after_op"):
            workload.after_op(item)
        return duration

    durations, window = closed_loop(args.seconds, unit, workload.POOL)
    if args.workload == "cli_workflow":
        peak = max(s["maxrss_mb"] for r in workload.records for s in r["steps"])
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(durations) / window,
        "op_p50_s": statistics.median(durations),
        "peak_rss_mb": peak,
    }
    extra = {"setup_samples_s": setups, "ops": len(durations), "window_s": window}
    if len(durations) >= 100:
        extra["op_p90_s"] = statistics.quantiles(durations, n=10)[-1]
    fids = [r["fidelity"] for r in workload.records if "fidelity" in r]
    if fids:
        extra["fidelity_min"] = min(fids)
    if args.workload == "cli_workflow":
        extra["step_p50_s"] = {
            c: statistics.median(s["wall_s"] for r in workload.records for s in r["steps"] if s["command"] == c)
            for c in CLI_COMMANDS
        }
    return {"metrics": metrics, "failures": verdicts.failures(), "extra": extra}


def setup_probe(workloads, args) -> float:
    """Set-up time of a fresh process doing this workload's set-up."""
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--setup-probe"]
    child = workloads.run_child(argv, RUNS / f"probe-{os.getpid()}.txt")
    (RUNS / f"probe-{os.getpid()}.txt").unlink()
    if child["exit_code"] != 0:
        raise RuntimeError(f"set-up probe exited with {child['exit_code']}")
    return json.loads(child["stdout"].strip().splitlines()[-1])["setup_s"]


def install_tracing(tracer, workloads) -> None:
    """Wrap the public functions at every site the benchmark or the CLI calls them from."""
    from eprsim import cli, fitting, fock, gaussian, homodyne, tomography

    gates = workloads.gates

    def arg(args, kwargs, position, name):
        return kwargs[name] if name in kwargs else args[position]

    def file_bytes(args, kwargs, result):
        return {"bytes": os.path.getsize(arg(args, kwargs, 1, "path"))}

    def reconstruct_counts(args, kwargs, result):
        data, (state, diagnostics) = arg(args, kwargs, 0, "data"), result
        dim = state.matrix.shape[0]
        return {
            "iterations": diagnostics.iterations,
            "converged": int(diagnostics.converged),
            "cmacs_computed": diagnostics.iterations * 2 * data.n_samples * dim * dim,
        }

    layers = {
        "gaussian.state": ((gaussian, cli), ("vacuum", "squeeze", "loss", "epr_pipeline"), None),
        "homodyne.sample": ((homodyne, cli), ("sample",),
                            lambda a, k, r: {"records": arg(a, k, 1, "config").n_samples}),
        "homodyne.binned_variance": ((homodyne, cli), ("binned_variance",), None),
        "fitting.fit_single": ((fitting, cli), ("fit_single",), lambda a, k, r: {"on_bound": gates.eta_on_bound(r.eta)}),
        "fitting.fit_epr": ((fitting, cli), ("fit_epr",), lambda a, k, r: {"on_bound": gates.eta_on_bound(r.eta)}),
        "tomography.reconstruct": ((tomography, cli), ("reconstruct",), reconstruct_counts),
        "tomography.build_projector_cache": ((tomography,), ("build_projector_cache",),
                                             lambda a, k, r: {"bytes_computed": r.overlaps.nbytes}),
        "fock.gaussian_to_fock": ((fock,), ("gaussian_to_fock",), None),
        "fock.fidelity": ((fock, cli), ("fidelity",), None),
        "homodyne.dataset_to_csv": ((homodyne.QuadratureDataset,), ("to_csv",), file_bytes),
        "homodyne.dataset_from_csv": ((homodyne.QuadratureDataset,), ("from_csv",), file_bytes),
        "homodyne.trace_csv": ((homodyne.VarianceTrace,), ("to_csv", "from_csv"), file_bytes),
    }
    for layer, (owners, names, attrs) in layers.items():
        for owner in owners:
            for name in names:
                if name in vars(owner):
                    tracer.patch(owner, name, layer, attrs)


def traced_run(workloads, tracing, args, workdir: Path) -> dict:
    tracer = tracing.Tracer()
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    is_cli = args.workload == "cli_workflow"
    install_tracing(tracer, workloads)
    tracer.op = "setup"
    workload.setup()
    tracer.uninstall()
    pairs: list[tuple[float, float]] = []
    verdicts = Verdicts(workload.POOL)
    child_steps: list[dict] = []

    def timed(index: int, traced: bool) -> float:
        if traced:
            install_tracing(tracer, workloads)
            tracer.op = index
            if is_cli:
                workload.tracer = tracer
        t0 = time.perf_counter()
        try:
            failures = workload.op(index)
        finally:
            duration = time.perf_counter() - t0
            tracer.uninstall()
            if is_cli:
                workload.tracer = None
        if traced:
            verdicts.add(index, failures)
        if hasattr(workload, "after_op"):
            workload.after_op(index)
        return duration

    def unit(index: int) -> float:
        index %= workload.POOL
        t0 = time.perf_counter()
        if is_cli:  # the command processes themselves, for per-command rusage
            workload.in_process = False
            workload.op(index)
            child_steps.extend(workload.records[-1]["steps"])
            workload.after_op(index)
            workload.in_process = True
        order = (False, True) if index % 2 == 0 else (True, False)
        times = dict(zip(order, (timed(index, traced) for traced in order)))
        pairs.append((times[False], times[True]))
        return time.perf_counter() - t0

    closed_loop(args.seconds, unit, workload.POOL)
    traced_failures = verdicts.failures()
    tracer.dump(RUNS / f"spans-{args.workload}-{args.seed}.json")

    totals = tracing.layer_totals(tracer.spans)
    metrics = {name: 0.0 for name in LAYER_UNITS}
    for key in LAYER_UNITS:
        layer, _, field = key.rpartition(".")
        if layer in totals and field in totals[layer]:
            metrics[key] = totals[layer][field]
    rec = totals.get("tomography.reconstruct", {})
    if rec.get("iterations"):
        metrics["tomography.reconstruct.s_per_iteration"] = rec["self_s"] / rec["iterations"]
    metrics["fitting.on_bound"] = sum(
        totals.get(f"fitting.{f}", {}).get("on_bound", 0) for f in ("fit_single", "fit_epr")
    )
    metrics["fitting.failed"] = sum(  # failed fits of the pool: an input holds up to two, each with up to three reasons
        len({r.split(":")[0] for r in f if r.startswith("fit_")}) for f in traced_failures
    )
    fids = [r["fidelity"] for r in workload.records if "fidelity" in r]
    metrics["tomography.fidelity_min"] = min(fids) if fids else 0.0
    if is_cli:
        for command in CLI_COMMANDS:
            steps = [s for s in child_steps if s["command"] == command]
            for field in ("wall_s", "cpu_s", "maxrss_mb"):
                metrics[f"cli.{command}.{field}"] = statistics.median(s[field] for s in steps)
        metrics["cli.import_s"] = statistics.median(
            workloads.run_child([sys.executable, "-c", "import eprsim.cli"], RUNS / f"import-{os.getpid()}.txt")["wall_s"]
            for _ in range(IMPORT_PROBES)
        )
        (RUNS / f"import-{os.getpid()}.txt").unlink()
    metrics["ops.fail_ratio"] = sum(bool(f) for f in traced_failures) / len(traced_failures)
    metrics["trace.untraced_op_s"] = statistics.median(u for u, _ in pairs)
    metrics["trace.traced_op_s"] = statistics.median(t for _, t in pairs)
    metrics["trace.overhead_s"] = statistics.median(t - u for u, t in pairs)
    return {"metrics": metrics, "failures": traced_failures, "extra": {"pairs": len(pairs)}}


def environment(args, workloads) -> dict:
    np = workloads.np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = {"name": None, "version": None}
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
    }


def report(args, workloads, result: dict) -> None:
    failures = result["failures"]
    attempted, failed = len(failures), sum(bool(f) for f in failures)
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    reasons = Counter(re.sub(r"\d[\d.e%+-]*", "#", r) for f in failures for r in f)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for name, m in metrics.items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    print(f"#   fail_ratio = {failed}/{attempted} pool inputs = {failed / attempted:.4f}")
    for name, value in result["extra"].items():
        print(f"#   {name} = {value}")
    print(json.dumps({"environment": environment(args, workloads)}))
    print(json.dumps({"failure_reasons": dict(reasons)}))
    print(json.dumps({
        "correct": failed <= MAX_FAIL_SHARE * attempted,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    sys.exit(main())
