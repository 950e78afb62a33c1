"""Command-line surface.

Subcommands: simulate, populations, reconstruct, conditional, calibrate,
fit, orientation, scenario.  Exit codes: 0 success, 2 usage error,
3 numerical failure, 4 invariant violation.  Every artifact starts with a
metadata comment block (# key=value) recording the parameters, the seed and
the artifact version, so identical invocations yield byte-identical files.

Importing this module loads only what the parser needs; each handler
imports the engines it runs, so a subcommand never loads another's.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    EprSimError,
    FitFailureError,
    IdentifiabilityError,
    InvariantViolationError,
    ModelViolationError,
    DegeneratePolarizationError,
    NoInformationError,
    StatisticsError,
)
from .multilevel_rates import (
    PopulationState,
    propagate_populations,
    transition_rates,
)
from .scenarios import (
    INITIAL_POP,
    READOUT_DEFAULTS,
    SCENARIO_NAMES,
    TIME_GRID,
    inclusive_range,
    run_scenario,
    scenario_params,
)
from .spin_model import ModelParams, json_object

ARTIFACT_VERSION = 1
MAX_GRID_POINTS = 1_000_000
# CSV rows formatted and written at a time: the text held at once is one
# block, about 0.3 MB for the 7-column time series
ROWS_PER_BLOCK = 4096

# OSError: a path that cannot be read or written as asked (missing, a
# directory, an existing file where --out wants a directory)
_USAGE_ERRORS = (ValueError, KeyError, OSError)
_NUMERICAL_ERRORS = (FitFailureError, IdentifiabilityError, StatisticsError,
                     NoInformationError, ZeroDivisionError, FloatingPointError)
_INVARIANT_ERRORS = (InvariantViolationError, ModelViolationError,
                     DegeneratePolarizationError)


def _seed(text: str) -> int:
    """``--seed``: an integer in [0, 2**64), the record sampler's range;
    argparse turns the ArgumentTypeError into exit code 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"{value} outside [0, 2**64)")
    return value


# Options several subcommands share (``--<name>``).  Each subcommand takes
# only the ones it reads, so an option it would ignore is a usage error.
_SHARED_OPTIONS = {
    "params": dict(help="model parameter JSON file"),
    "seed": dict(type=_seed, default=0),
    "out": dict(help="output directory (default: stdout)"),
    "grid": dict(default=",".join(map(repr, TIME_GRID)),
                 help="time grid t0,t1,dt in ms"),
    "pops": dict(default=",".join(map(repr, dataclasses.astuple(
        INITIAL_POP))), help="initial populations n44,n43,nh"),
    "trials": dict(type=int, default=READOUT_DEFAULTS["trials"]),
    "format": dict(choices=("csv", "json"), default="csv"),
    **{name: dict(type=float, dest=dest, default=READOUT_DEFAULTS[dest])
       for name, dest in (("gamma-s", "gamma_s"),
                          ("gamma-extra", "gamma_extra"),
                          ("probe-ms", "probe_ms"), ("dt-ms", "dt_ms"))},
    "pump": dict(action="store_true",
                 help="add the incoherent pump at rate Gamma_pump; the "
                      "default parameters have Gamma_pump = 0, so this "
                      "needs --params with a nonzero Gamma_pump"),
}


def _metadata_block(params: ModelParams | None, seed: int | None,
                    extra: dict | None = None) -> str:
    lines = [f"# artifact_version={ARTIFACT_VERSION}"]
    if seed is not None:
        lines.append(f"# seed={seed}")
    if params is not None:  # its fields are floats: no asdict deep copy
        compact = json.dumps(vars(params), sort_keys=True,
                             separators=(",", ":"))
        lines.append(f"# params={compact}")
    for k, v in (extra or {}).items():
        lines.append(f"# {k}={v}")
    return "\n".join(lines) + "\n"


def _load_params(args) -> ModelParams:
    if args.params is None:
        return scenario_params("fig2a")
    return ModelParams.from_json(Path(args.params).read_text())


def _range(start: float, stop: float, step: float, flag: str) -> np.ndarray:
    """inclusive_range after rejecting non-finite bounds, a step <= 0 or too
    many points (ValueError)."""
    if not (math.isfinite(start + stop + step) and step > 0):
        raise ValueError(f"{flag} requires finite bounds and a step > 0")
    if (stop - start) / step >= MAX_GRID_POINTS:
        raise ValueError(f"{flag} exceeds {MAX_GRID_POINTS} points")
    return inclusive_range(start, stop, step)


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(",")
    if len(parts) != 3:
        raise ValueError("--grid expects t0,t1,dt")
    t0, t1, dt = (float(p) for p in parts)
    grid = _range(t0, t1, dt, "--grid")
    if not t1 > t0:
        raise ValueError("--grid requires t0 < t1")
    return grid


def _open(args, name: str):
    """The stream of artifact ``name``: ``--out/<name>``, or stdout (left
    open)."""
    if args.out is None:
        return contextlib.nullcontext(sys.stdout)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return open(out / name, "w")


def _write_csv(args, name: str, head: str, columns: dict):
    """Write ``columns`` (header -> equal-length values) as CSV artifact
    ``name`` after the metadata ``head``.

    Numbers are written as %.17g, strings as they are and a None column as
    empty cells, with one ``%`` per row.  Rows are formatted ROWS_PER_BLOCK
    at a time and each block is written before the next is formatted, so the
    whole text is never held.
    """
    cols = [None if c is None else np.asarray(c) for c in columns.values()]
    fmt = ",".join("" if c is None else "%s" if c.dtype.kind == "U"
                   else "%.17g" for c in cols) + "\n"
    cols = [c for c in cols if c is not None]
    with _open(args, name) as f:
        f.write(head + ",".join(columns) + "\n")
        for i in range(0, len(cols[0]), ROWS_PER_BLOCK):
            rows = zip(*[c[i:i + ROWS_PER_BLOCK].tolist() for c in cols])
            f.write("".join([fmt % r for r in rows]))


def _emit_report(args, name: str, report: dict, params=None, seed=None):
    if args.format == "json":
        doc = {"artifact_version": ARTIFACT_VERSION, "report": report}
        if seed is not None:
            doc["seed"] = seed
        if params is not None:
            doc["params"] = vars(params)  # as in _metadata_block
        with _open(args, name + ".json") as f:
            f.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        keys = sorted(report)
        values = [json.dumps(v) if isinstance(v, (dict, list, tuple))
                  else f"{v}" for v in map(report.get, keys)]
        _write_csv(args, name + ".csv", _metadata_block(params, seed),
                   {"key": keys, "value": values})


def _read_rows(path: str, header: str, widths: tuple, usage: str) -> list:
    """Numeric rows of a CSV file past its ``#`` and ``header`` lines, empty
    cells NaN; no rows, or a row length not in ``widths``, is a ValueError."""
    rows = [[float(c) if c else math.nan for c in ln.split(",")]
            for ln in Path(path).read_text().splitlines()
            if ln.strip() and not ln.startswith(("#", header))]
    if not rows or any(len(r) not in widths for r in rows):
        raise ValueError(f"{path} needs rows of {usage}")
    return rows


def _initial_pop(args) -> PopulationState:
    values = args.pops.split(",")
    if len(values) != 3:
        raise ValueError(f"--pops expects n44,n43,nh (3 values); got "
                         f"{len(values)}")
    n44, n43, nh = (float(x) for x in values)
    return PopulationState(n44=n44, n43=n43, nh=nh)


def _cmd_simulate(args) -> int:
    from .estimation import forward_model
    from .gaussian_dynamics import trajectory_to_csv
    params = _load_params(args)
    grid = _parse_grid(args.grid)
    traj = forward_model(params, _initial_pop(args), grid, pump=args.pump)[2]
    _write_csv(args, "trajectory.csv", _metadata_block(params, args.seed),
               trajectory_to_csv(traj))
    return 0


def _cmd_populations(args) -> int:
    from .gaussian_dynamics import series_columns
    params = _load_params(args)
    grid = _parse_grid(args.grid)
    rates = transition_rates(params, pump=args.pump)
    series = propagate_populations(_initial_pop(args), rates, grid)
    _write_csv(args, "populations.csv", _metadata_block(params, args.seed),
               series_columns(series.times, pops=series))
    return 0


def _check_record_options(args, gamma: float) -> None:
    """ValueError unless --probe-ms, --dt-ms and --handover-ms (if taken)
    are finite and positive, leave a nonempty window and a finite ``gamma``
    times record length and --dt-ms times ``gamma`` at most MAX_DT_GAMMA
    (aliasing, checked whether or not records are drawn), and --trials >= 1
    (conditional: >= 2)."""
    from .records import MAX_DT_GAMMA
    flags = {"--probe-ms": args.probe_ms, "--dt-ms": args.dt_ms}
    conditional = "handover_ms" in args  # its probe window starts there
    if conditional:
        flags["--handover-ms"] = args.handover_ms
    for flag, value in flags.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{flag} must be finite and positive")
    if conditional and \
            not args.handover_ms + args.probe_ms > args.handover_ms:
        raise ValueError("--handover-ms + --probe-ms rounds to --handover-ms")
    length = args.probe_ms + (args.handover_ms if conditional else 0.0)
    if not math.isfinite(gamma * length):  # the record's decay exponent
        raise ValueError("--gamma-s + --gamma-extra times the record length "
                         "must be finite")
    if args.dt_ms * gamma > MAX_DT_GAMMA:
        raise ValueError(f"--dt-ms {args.dt_ms:g} is too coarse for --gamma-s "
                         f"+ --gamma-extra = {gamma:g}: their product must "
                         f"be <= {MAX_DT_GAMMA:g} (aliasing)")
    if args.trials < (2 if conditional else 1):
        raise ValueError("--trials must be at least 2 for conditional"
                         if conditional else "--trials must be at least 1")


def _readout_calibration(args, params: ModelParams) -> tuple:
    """(loss, mu_nu, kappa_sq, slope, floor): the closed-form calibration of
    the --probe-ms window, after the rates and record options are checked."""
    from .light_readout import (LossParams, closed_form_calibration,
                                readout_kappa_sq)
    loss = LossParams(gamma_s=args.gamma_s, gamma_extra=args.gamma_extra,
                      eta=params.eta)
    _check_record_options(args, loss.gamma)
    mu_nu = (params.mu, params.nu)
    kappa_sq = readout_kappa_sq(loss, mu_nu, args.probe_ms)
    slope, floor = closed_form_calibration(kappa_sq, mu_nu, loss.eta)
    return loss, mu_nu, kappa_sq, slope, floor


def _cmd_reconstruct(args) -> int:
    from .light_readout import invert_readout
    from .records import hybrid_readout
    params = _load_params(args)
    loss, mu_nu, kappa_sq, slope, floor = _readout_calibration(args, params)
    T = args.probe_ms
    branches = {"css": 1.0, "steady": params.squeeze_sq}
    report = {"kappa_sq": kappa_sq}
    readouts = None  # both branches from one draw per seed
    for k, (label, v) in enumerate(branches.items()):
        y = slope * v + floor  # noise-free: the calibration's forward map
        report[f"xi_{label}"] = invert_readout((y, y), slope, floor)
        report[f"xi_{label}_true"] = v
        if args.trials > 1:
            if readouts is None:
                readouts = hybrid_readout(
                    args.trials, loss, mu_nu, args.dt_ms, (0.0, T),
                    args.seed, initial_vars=tuple(branches.values()))
            report[f"xi_{label}_mc"] = invert_readout(
                readouts[k].unconditional, slope, floor)
    _emit_report(args, "reconstruct", report, params, args.seed)
    return 0


def _cmd_conditional(args) -> int:
    from .light_readout import invert_readout
    from .records import hybrid_readout
    params = _load_params(args)
    loss, mu_nu, kappa_sq, slope, floor = _readout_calibration(args, params)
    T, probe = args.handover_ms, args.probe_ms
    grid = _range(args.gm_min, args.gm_max, args.gm_step,
                  "--gm-min/--gm-max/--gm-step")
    # the exact gamma_m scan is checked and run before any draw
    r, = hybrid_readout(args.trials, loss, mu_nu, args.dt_ms, (T, T + probe),
                        args.seed, gamma_m_grid=grid)
    report = {
        "alpha_star": r.alpha_star,
        "gamma_m_star": r.gamma_m_star,
        "conditional_var_cos": r.conditional[0],
        "conditional_var_sin": r.conditional[1],
        "kappa_sq": kappa_sq,
        "xi_conditional": invert_readout(r.conditional, slope, floor),
    }
    _emit_report(args, "conditional", report, params, args.seed)
    return 0


def _cmd_calibrate(args) -> int:
    from .estimation import CalibrationPoint, calibrate_pn
    rows = _read_rows(args.points, "theta", (2, 3), "theta,xi0[,weight]")
    points = [CalibrationPoint(*r) for r in rows]
    a, b, frac = calibrate_pn(points)
    _emit_report(args, "calibrate",
                 {"linear_coeff": a, "quad_coeff": b, "quad_fraction": frac})
    return 0


def _cmd_fit(args) -> int:
    from .estimation import FitProblem, fit_parameters
    params = _load_params(args)
    data = np.array(_read_rows(args.observed, "t", (5,),
                               "t,xi,xi_err,jx_norm,jx_err"))
    problem = FitProblem(times=data[:, 0], xi=data[:, 1], xi_err=data[:, 2],
                         jx_norm=data[:, 3], jx_err=data[:, 4],
                         free=tuple(args.free), fixed=params,
                         initial_pop=_initial_pop(args), pump=args.pump,
                         slope_obs=args.slope_obs)
    result = fit_parameters(problem)
    report = {
        "free": list(result.free),
        "estimates": {n: getattr(result.params, n) for n in result.free},
        "cost": result.cost,
        "residual_norm": float(np.linalg.norm(result.residuals)),
        "covariance": result.covariance.tolist(),
        "at_bound": list(result.at_bound),
    }
    _emit_report(args, "fit", report, result.params, args.seed)
    return 0


def _cmd_orientation(args) -> int:
    from .estimation import orientation
    p = [float(x) for x in args.populations.split(",")]
    o = orientation(p)
    _emit_report(args, "orientation", {"orientation": o})
    return 0


def _cmd_scenario(args) -> int:
    overrides = (json_object(args.overrides, "--overrides")
                 if args.overrides else None)
    grid = _parse_grid(args.grid) if args.grid else None
    result = run_scenario(args.name, overrides=overrides, seed=args.seed,
                          grid=grid, trials=args.trials)
    head = _metadata_block(result.params, args.seed,
                           {"scenario": result.name})
    for fname, columns in result.artifacts.items():
        _write_csv(args, fname, head, columns)
    _emit_report(args, f"{result.name}_report", result.report,
                 result.params, args.seed)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by every later one.

    Handlers are bound at that build, and each imports the engine it runs
    when called, so tests patch the engine module (``records.hybrid_readout``),
    never ``cli._cmd_*``; no default is mutable."""
    ap = argparse.ArgumentParser(
        prog="eprsim",
        description="Two-ensemble dissipative entanglement simulator",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def shared(p, *names):
        for name in names:
            p.add_argument(f"--{name}", **_SHARED_OPTIONS[name])

    p = sub.add_parser("simulate", help="moment-equation trajectory")
    shared(p, "params", "seed", "out", "grid", "pops", "pump")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("populations", help="three-level rate model")
    shared(p, "params", "seed", "out", "grid", "pops", "pump")
    p.set_defaults(func=_cmd_populations)

    p = sub.add_parser("reconstruct", help="readout round trip")
    shared(p, "params", "seed", "out", "trials", "format", "gamma-s",
           "gamma-extra", "probe-ms", "dt-ms")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("conditional", help="hybrid conditional variance")
    shared(p, "params", "seed", "out", "trials", "format", "gamma-s",
           "gamma-extra")
    p.add_argument("--handover-ms", type=float, dest="handover_ms",
                   default=READOUT_DEFAULTS["handover_ms"])
    shared(p, "probe-ms", "dt-ms")
    p.add_argument("--gm-min", type=float, dest="gm_min",
                   default=READOUT_DEFAULTS["gm_min"])
    p.add_argument("--gm-max", type=float, dest="gm_max",
                   default=READOUT_DEFAULTS["gm_max"])
    p.add_argument("--gm-step", type=float, default=0.01, dest="gm_step")
    p.set_defaults(func=_cmd_conditional)

    p = sub.add_parser("calibrate", help="projection-noise calibration")
    shared(p, "out", "format")
    p.add_argument("points", help="CSV of theta,xi0[,weight]")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("fit", help="rate/dephasing parameter fit")
    shared(p, "params", "seed", "out", "format")
    p.add_argument("observed", help="CSV of t,xi,xi_err,jx_norm,jx_err")
    p.add_argument("--free", nargs="+", default=("d", "Gamma_col",
                                                 "Gamma_tilde"))
    shared(p, "pops", "pump")
    p.add_argument("--slope-obs", type=float, dest="slope_obs",
                   help="observed t = 0 polarisation slope (ms^-1); pins "
                        "Gamma_L_out, which then cannot be --free")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("orientation", help="orientation from populations")
    shared(p, "out", "format")
    p.add_argument("populations", help="nine comma-separated p_m, m=-4..4")
    p.set_defaults(func=_cmd_orientation)

    p = sub.add_parser("scenario", help="end-to-end fixture")
    shared(p, "seed", "out", "trials", "format")
    p.add_argument("--grid", help="time grid t0,t1,dt in ms "
                   "(default: the scenario's own)")
    p.add_argument("name", choices=SCENARIO_NAMES)
    p.add_argument("--overrides", help="JSON object of parameter overrides")
    # None tells an explicit --trials, which only fig2d takes, from none
    p.set_defaults(func=_cmd_scenario, trials=None)
    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        return args.func(args)
    except _INVARIANT_ERRORS as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return 4
    except _NUMERICAL_ERRORS as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except _USAGE_ERRORS as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except EprSimError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
