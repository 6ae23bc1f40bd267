"""Command-line interface: reproducible sweep, tomography, fit and design runs.

Every run that writes files also writes a ``*_manifest.json`` recording the
tool version, the fully resolved parameters, the seed and the canonical
argument vector, so the run can be repeated byte-for-byte.  Parameters and
argument vector are both derived from the parser (see ``_replay``), so a new
flag is recorded without further code.

Exit codes: 0 success, 2 usage error, 3 data-format error, 4 numerical
failure, 1 I/O error.  Each handler returns its caveats, and ``main`` prints
them, one ``eprsim: warning:`` line each, after the outputs are written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    DataFormatError,
    IllConditionedDatumError,
    IllPosedFitError,
    UnsupportedStateError,
)
from .fitting import MIN_BINS, fit_epr, fit_single, squeezing_db
from .fock import fidelity, gaussian_to_fock, mean_photon
from .gaussian import PipelineConfig, epr_pipeline, epr_variance, loss, squeeze, vacuum
from .homodyne import PhaseSchedule, QuadratureDataset, SweepConfig, VarianceTrace, binned_variance, sample
from .optics import (
    WALKOFF_PRESETS,
    beam_radius,
    compensation_length,
    parse_length,
    rayleigh_range,
    walkoff_path,
)
from .tomography import TomographyConfig, reconstruct

OUTDIR_ENV = "EPRSIM_OUTDIR"


def _number(convert, rule: str = "", ok=lambda value: True):
    """An argparse type: ``convert`` the text and require a finite value that
    satisfies ``ok``, else report "must be <rule>, got <text>".

    It keeps ``convert``'s name, so text ``convert`` rejects is still
    reported as e.g. "invalid float value".
    """

    def parse(text: str):
        value = convert(text)
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = convert.__name__
    return parse


_finite_float = _number(float)
_nonneg_float = _number(float, ">= 0", lambda value: value >= 0)
_positive_float = _number(float, "> 0", lambda value: value > 0)
_unit_interval = _number(float, "in [0, 1]", lambda value: 0.0 <= value <= 1.0)
_nonneg_int = _number(int, ">= 0", lambda value: value >= 0)
_positive_int = _number(int, ">= 1", lambda value: value >= 1)
_int_at_least_2 = _number(int, ">= 2", lambda value: value >= 2)


def _length(text: str) -> float:
    try:
        return parse_length(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _write_json(path: Path, payload: dict) -> None:
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:  # a NaN or an infinity in the payload
        raise FloatingPointError(f"{path.name}: {exc}") from None
    path.write_bytes((text + "\n").encode("ascii"))


# Replayed in ``argv`` but not parameters: the seed has its own manifest field
# and the output directory is wherever the replay is asked to write.
_ARGV_ONLY = ("seed", "out")


def _replay(args) -> tuple[dict, list[str]]:
    """The manifest ``parameters`` and ``argv`` of a resolved namespace.

    Both are read off the parser: the subcommand names lead ``argv`` (below
    the top level they are parameters too, e.g. ``design``'s ``quantity``),
    then each option of the leaf subcommand in definition order.  Unset
    (``None``) options are left out; a ``store_true`` option is a bare flag
    in ``argv`` and a bool in ``parameters``; floats are written with 17
    significant digits, everything else with ``str``.  A value that starts
    with '-' is attached as ``--flag=value``, so argparse cannot read a
    negative number in exponent form as an option.
    """
    parser, parameters, argv = build_parser(), {}, []
    while sub := next((a for a in parser._actions if isinstance(a, argparse._SubParsersAction)), None):
        name = getattr(args, sub.dest)
        if argv:
            parameters[sub.dest] = name
        argv.append(name)
        parser = sub.choices[name]
    for action in parser._actions:
        value = getattr(args, action.dest, None)
        if value is None:
            continue
        if action.dest not in _ARGV_ONLY:
            parameters[action.dest] = value
        flag = action.option_strings[0]
        if isinstance(action, argparse._StoreTrueAction):
            argv += [flag] if value else []
            continue
        text = f"{value:.17g}" if isinstance(value, float) else str(value)
        argv += [f"{flag}={text}"] if text.startswith("-") else [flag, text]
    return parameters, argv


def _write_outputs(args, files: dict) -> Path:
    """Write ``files``, an ordered ``{name: writer}``, and the manifest.

    The output directory is ``--out``, else ``$EPRSIM_OUTDIR``, else '.'.
    It is stored back as ``args.out``, so the manifest replays into the
    directory the run actually wrote.  Each writer takes the file's path.
    """
    outdir = Path(args.out if args.out is not None else os.environ.get(OUTDIR_ENV) or ".")
    args.out = str(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, write in files.items():
        write(outdir / name)
    parameters, argv = _replay(args)
    manifest = {
        "tool": "eprsim",
        "version": __version__,
        "subcommand": args.command,
        "parameters": parameters,
        "seed": getattr(args, "seed", None),
        "outputs": list(files),
        "argv": argv,
    }
    _write_json(outdir / f"{args.prefix}_manifest.json", manifest)
    return outdir


def _sweep_config(args, harmonic: int, *held_phases: float) -> SweepConfig:
    """Mode 1 swept from ``--theta0`` at ``--rate`` (default: 4π over
    ``--samples``), each further mode held at its phase.  The fitted trace's
    tone is ``harmonic`` × θ₁.  Raises ValueError, before anything is
    sampled, if the sweep would leave too few bins to fit, or two or fewer
    bins per period of the tone (at or past its Nyquist frequency)."""
    if (n_bins := args.samples // args.window) < MIN_BINS:
        raise ValueError(
            f"--samples {args.samples} and --window {args.window} give {n_bins} variance bins; "
            f"the fit needs at least {MIN_BINS}"
        )
    if args.rate is None:
        args.rate = 4.0 * math.pi / args.samples
    if args.rate != 0.0:
        per_period = 2.0 * math.pi / (harmonic * abs(args.rate) * args.window)
        # isclose: the default rate at exactly 2 bins per period can round above 2
        if per_period < 2.0 or math.isclose(per_period, 2.0):
            raise ValueError(
                f"--rate {args.rate:.6g} and --window {args.window} give {per_period:.3g} bins per period "
                "of the fitted tone; the fit needs more than 2"
            )
    phases = (PhaseSchedule(args.theta0, args.rate), *(PhaseSchedule(theta, 0.0) for theta in held_phases))
    return SweepConfig(phases=phases, n_samples=args.samples, seed=args.seed)


def _fit_caveats(fit) -> list[str]:
    if fit.degenerate:
        return ["fit is degenerate (oscillation below the noise)"]
    return [] if fit.converged else ["fit did not converge"]


def _write_sweep(args, dataset, traces: dict, fit, fit_payload: dict) -> tuple[Path, list[str]]:
    """Write a sweep's optional dataset, its ``{name: trace}`` and its fit;
    return the output directory and the caveats: dropped trailing samples,
    then a weak fit."""
    files = {f"{args.prefix}_data.csv": dataset.to_csv} if args.write_dataset else {}
    files |= {name: trace.to_csv for name, trace in traces.items()}
    files[f"{args.prefix}_fit.json"] = partial(_write_json, payload=fit_payload)
    outdir = _write_outputs(args, files)
    dropped = args.samples % args.window
    caveats = [f"dropped {dropped} trailing samples (--samples not a multiple of --window)"] if dropped else []
    return outdir, caveats + _fit_caveats(fit)


def _cmd_single_sweep(args) -> list[str]:
    config = _sweep_config(args, 2)
    state = loss(squeeze(vacuum(1), 0, args.zeta), 0, args.eta)

    dataset = sample(state, config)
    trace = binned_variance(dataset, args.window, "mode1")
    fit = fit_single(trace)

    outdir, caveats = _write_sweep(args, dataset, {f"{args.prefix}_trace.csv": trace}, fit, fit.to_json_dict())
    print(f"single-sweep: fitted zeta={fit.zeta:.4f} eta={fit.eta:.4f} -> {outdir}")
    return caveats


def _cmd_epr_sweep(args) -> list[str]:
    pipeline = PipelineConfig(
        zeta=args.zeta,
        relative_phase=args.relative_phase,
        eta=args.eta,
        mismatch=args.mismatch,
    )
    config = _sweep_config(args, 1, args.theta2)
    state = epr_pipeline(pipeline)

    dataset = sample(state, config)
    traces = {
        target: binned_variance(dataset, args.window, target)
        for target in ("mode1", "mode2", "sum", "difference")
    }
    fit = fit_epr(traces["sum"], traces["difference"])

    trace_min = float(traces["difference"].variance.min())
    model_min = float(epr_variance(fit.zeta, fit.eta, 0.0, "minus"))
    fit_payload = {
        **fit.to_json_dict(),
        "trace_min_difference_variance": trace_min,
        "squeezing_db_at_trace_min": squeezing_db(trace_min),
        "model_min_difference_variance": model_min,
        "squeezing_db_at_model_min": squeezing_db(model_min),
    }
    named = {f"{args.prefix}_{target}_trace.csv": trace for target, trace in traces.items()}
    outdir, caveats = _write_sweep(args, dataset, named, fit, fit_payload)
    print(
        f"epr-sweep: fitted zeta={fit.zeta:.4f} eta={fit.eta:.4f}, "
        f"difference-trace min {trace_min:.4f} "
        f"({squeezing_db(trace_min):.2f} dB) -> {outdir}"
    )
    return caveats


def _cmd_tomography(args) -> list[str]:
    config = TomographyConfig(
        cutoff=args.cutoff,
        max_iterations=args.max_iterations,
        stop_tol=args.stop_tol,
    )
    if (args.ref_zeta is None) != (args.ref_eta is None):
        raise ValueError("--ref-zeta and --ref-eta must be given together")
    dataset = QuadratureDataset.from_csv(args.input)
    reference = None
    if args.ref_zeta is not None:
        if dataset.n_modes != 2:
            raise UnsupportedStateError("reference comparison needs a 2-mode dataset")
        ref_state = epr_pipeline(PipelineConfig(zeta=args.ref_zeta, eta=args.ref_eta))
        reference, _ = gaussian_to_fock(ref_state, args.cutoff)

    state, diagnostics = reconstruct(dataset, config)

    summary = {
        "mean_photon": [mean_photon(state, m) for m in range(state.n_modes)],
        "reference": None,
    }
    if reference is not None:
        summary["reference"] = {
            "zeta": args.ref_zeta,
            "eta": args.ref_eta,
            "fidelity": fidelity(state, reference),
            "mean_photon": [mean_photon(reference, m) for m in range(2)],
        }
    payloads = {"state": state.to_json_dict(), "diagnostics": diagnostics.to_json_dict(), "summary": summary}
    files = {f"{args.prefix}_{kind}.json": partial(_write_json, payload=payload) for kind, payload in payloads.items()}
    outdir = _write_outputs(args, files)
    caveats = []
    if not diagnostics.converged:
        caveats.append(f"stopped at --max-iterations {args.max_iterations} before converging")
    if diagnostics.phase_deficient:
        caveats.append("phase-deficient dataset (a mode's LO phases do not resolve 3 quadrature directions modulo π)")
    print(
        f"tomography: {diagnostics.iterations} iterations, "
        f"loglik {diagnostics.loglik:.2f}, mean photon "
        + "/".join(f"{v:.4f}" for v in summary["mean_photon"])
        + f" -> {outdir}"
    )
    return caveats


def _cmd_fit(args) -> list[str]:
    if args.kind == "single":
        if args.trace is None:
            raise ValueError("fit --kind single needs --trace")
        if args.trace_sum is not None or args.trace_diff is not None:
            raise ValueError("fit --kind single takes no --trace-sum or --trace-diff")
        result = fit_single(VarianceTrace.from_csv(args.trace))
    else:
        if args.trace_sum is None or args.trace_diff is None:
            raise ValueError("fit --kind epr needs --trace-sum and --trace-diff")
        if args.trace is not None:
            raise ValueError("fit --kind epr takes no --trace")
        result = fit_epr(
            VarianceTrace.from_csv(args.trace_sum), VarianceTrace.from_csv(args.trace_diff)
        )

    fit_name = f"{args.prefix}_fit.json"
    outdir = _write_outputs(args, {fit_name: partial(_write_json, payload=result.to_json_dict())})
    print(f"fit: zeta={result.zeta:.4f} eta={result.eta:.4f} -> {outdir / fit_name}")
    return _fit_caveats(result)


def _design_rows(args) -> list[dict]:
    if args.quantity == "rayleigh":
        value = rayleigh_range(args.w0, args.wavelength)
        return [{"quantity": "rayleigh_range", "value": value, "unit": "m"}]
    if args.quantity == "radius":
        value = beam_radius(args.z, args.w0, args.wavelength)
        return [
            {"quantity": "beam_radius", "value": value, "unit": "m"},
            {"quantity": "beam_radius_over_waist", "value": value / args.w0, "unit": "dimensionless"},
        ]
    if args.quantity == "walkoff":
        if args.preset is not None and args.v_pump is None and args.v_signal is None:
            # the manifest replays the preset as the velocities it stands for
            args.v_pump, args.v_signal = WALKOFF_PRESETS[args.preset]
            args.preset = None
        elif args.preset is not None or args.v_pump is None or args.v_signal is None:
            raise ValueError("walkoff needs --preset or both --v-pump and --v-signal")
        value = walkoff_path(args.length, args.v_pump, args.v_signal)
        return [{"quantity": "walkoff_path", "value": value, "unit": "m"}]
    value = compensation_length(args.delay, args.dn_group)
    return [{"quantity": "compensation_length", "value": value, "unit": "m"}]


def _cmd_design(args) -> list[str]:
    try:
        rows = _design_rows(args)
    except ArithmeticError as exc:
        raise FloatingPointError(f"design {args.quantity}: {type(exc).__name__} in an intermediate result") from None
    if overflowed := [f"{row['quantity']} = {row['value']}" for row in rows if not math.isfinite(row["value"])]:
        raise FloatingPointError(f"design {args.quantity}: {', '.join(overflowed)}")
    print(json.dumps(rows, indent=2))
    if args.out is not None or os.environ.get(OUTDIR_ENV):
        _write_outputs(args, {f"{args.prefix}_design.json": partial(_write_json, payload=rows)})
    return []


def _add_common_output_options(parser, default_prefix: str) -> None:
    parser.add_argument("--out", help=f"output directory (default: ${OUTDIR_ENV} or '.')")
    parser.add_argument("--prefix", default=default_prefix, help="output file prefix")


def _add_signed_float(parser, flag: str, text: str, **kwargs) -> None:
    """A finite float option whose help names the = form of a negative value:
    argparse reads a spaced negative number in exponent form as an option."""
    parser.add_argument(flag, type=_finite_float, help=f"{text}; a negative one as {flag}=-1e-3", **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eprsim",
        description="Simulate two-squeezer EPR-state synthesis, homodyne sweeps, "
        "maximum-likelihood tomography and source-design arithmetic.",
    )
    parser.add_argument("--version", action="version", version=f"eprsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("single-sweep", help="sample one squeezed mode under a swept LO phase")
    p.add_argument("--zeta", type=_nonneg_float, default=0.44, help="squeezing parameter")
    p.add_argument("--eta", type=_unit_interval, default=0.52, help="detection transmissivity")
    p.add_argument("--samples", type=_positive_int, default=200_000, help="homodyne records to draw")
    _add_signed_float(p, "--theta0", "LO phase at sample 0 (rad)", default=0.0)
    _add_signed_float(p, "--rate", "LO phase rate (rad/sample); default spans 4 trace periods")
    p.add_argument("--window", type=_int_at_least_2, default=2000, help="samples per variance bin")
    p.add_argument("--seed", type=_nonneg_int, default=1, help="seed of the sampling stream")
    p.add_argument("--write-dataset", action="store_true", help="also write the raw samples CSV")
    _add_common_output_options(p, "single")
    p.set_defaults(handler=_cmd_single_sweep)

    p = sub.add_parser("epr-sweep", help="sample the entangled pipeline output under a swept LO phase")
    p.add_argument("--zeta", type=_nonneg_float, default=0.44, help="squeezing parameter")
    p.add_argument("--eta", type=_unit_interval, default=0.50, help="detection transmissivity")
    _add_signed_float(p, "--relative-phase", "phase between the squeezed vacua (rad)", default=math.pi / 2)
    p.add_argument("--mismatch", type=_unit_interval, default=0.0, help="interference-imperfection admixture")
    p.add_argument("--samples", type=_positive_int, default=200_000, help="homodyne records to draw")
    _add_signed_float(p, "--theta0", "mode-1 LO phase at sample 0 (rad)", default=0.0)
    _add_signed_float(p, "--theta2", "fixed mode-2 LO phase (rad)", default=0.0)
    _add_signed_float(p, "--rate", "mode-1 LO phase rate (rad/sample); default spans 2 trace periods")
    p.add_argument("--window", type=_int_at_least_2, default=2000, help="samples per variance bin")
    p.add_argument("--seed", type=_nonneg_int, default=1, help="seed of the sampling stream")
    p.add_argument("--write-dataset", action="store_true", help="also write the raw samples CSV")
    _add_common_output_options(p, "epr")
    p.set_defaults(handler=_cmd_epr_sweep)

    p = sub.add_parser("tomography", help="maximum-likelihood reconstruction from a dataset CSV")
    p.add_argument("--input", required=True, help="dataset CSV (homodyne format)")
    p.add_argument("--cutoff", type=_int_at_least_2, default=TomographyConfig.cutoff, help="Fock cutoff per mode")
    p.add_argument(
        "--max-iterations", type=_positive_int, default=TomographyConfig.max_iterations, help="cap on accepted steps"
    )
    p.add_argument(
        "--stop-tol", type=_positive_float, default=TomographyConfig.stop_tol, help="relative log L gain to stop at"
    )
    p.add_argument("--ref-zeta", type=_nonneg_float, default=None, help="reference state squeezing")
    p.add_argument("--ref-eta", type=_unit_interval, default=None, help="reference state transmissivity")
    _add_common_output_options(p, "tomo")
    p.set_defaults(handler=_cmd_tomography)

    p = sub.add_parser("fit", help="fit a variance-trace CSV back to physical parameters")
    p.add_argument("--kind", choices=("single", "epr"), required=True, help="trace kind: one mode, or the EPR pair")
    p.add_argument("--trace", help="trace CSV (kind=single)")
    p.add_argument("--trace-sum", help="sum-quadrature trace CSV (kind=epr)")
    p.add_argument("--trace-diff", help="difference-quadrature trace CSV (kind=epr)")
    _add_common_output_options(p, "fit")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("design", help="beam-geometry and walk-off calculators")
    quantities = p.add_subparsers(dest="quantity", required=True)
    p = quantities.add_parser("rayleigh", help="Rayleigh range of a Gaussian beam")
    p.add_argument("--w0", type=_length, required=True, help="waist radius (e.g. 12.4um)")
    p.add_argument("--wavelength", type=_length, required=True, help="wavelength (e.g. 390nm)")
    p = quantities.add_parser("radius", help="beam radius at a distance from the waist")
    p.add_argument(
        "--z", type=_length, required=True, help="distance from the waist (e.g. 0.72mm; a negative one as --z=-0.72mm)"
    )
    p.add_argument("--w0", type=_length, required=True, help="waist radius (e.g. 12.4um)")
    p.add_argument("--wavelength", type=_length, required=True, help="wavelength (e.g. 390nm)")
    p = quantities.add_parser("walkoff", help="pump/signal walk-off path in a crystal")
    p.add_argument("--length", type=_length, required=True, help="crystal length (e.g. 1mm)")
    p.add_argument("--preset", choices=sorted(WALKOFF_PRESETS), help="built-in group-velocity pair")
    p.add_argument("--v-pump", type=_positive_float, help="pump group velocity (fraction of c)")
    p.add_argument("--v-signal", type=_positive_float, help="signal group velocity (fraction of c)")
    p = quantities.add_parser("compensation", help="compensator length for a walk-off delay")
    p.add_argument(
        "--delay", type=_length, required=True, help="delay to compensate (e.g. 0.58mm; a negative one as --delay=-0.52mm)"
    )
    _add_signed_float(p, "--dn-group", "group-index difference of the compensator", required=True)
    for p in quantities.choices.values():
        _add_common_output_options(p, "design")
        p.set_defaults(handler=_cmd_design)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        caveats = args.handler(args)
    except DataFormatError as exc:
        print(f"eprsim: data format error: {exc}", file=sys.stderr)
        return 3
    except (
        IllPosedFitError,
        IllConditionedDatumError,
        UnsupportedStateError,
        np.linalg.LinAlgError,
        FloatingPointError,
    ) as exc:
        print(f"eprsim: numerical failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OverflowError) as exc:
        # OverflowError: a finite value too large for math.exp/cosh, e.g. --zeta 1e6
        print(f"eprsim: invalid parameters: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"eprsim: I/O error: {exc}", file=sys.stderr)
        return 1
    for caveat in caveats:
        print(f"eprsim: warning: {args.command} {caveat}", file=sys.stderr)
    return 0


def entry_point() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry_point()
