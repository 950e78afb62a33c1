"""The three benchmark workloads: their inputs, item lists and checks.

An item is one ``eprsim`` CLI invocation (run in-process through
``eprsim.cli.main``) or one library call.  Each item has a runner, an
``extract`` step that reads its outputs into plain numbers, and a ``check``
against the reference fixtures in ``fixtures/reference.json``.  The
workload seed only shapes the inputs: mixed into 32 bits, it becomes the
CLI ``--seed`` of the items.  The noise of the noisy fit series is drawn
once from a fixed seed (see FIT_NOISE_SEED).

Importing this module pulls in numpy only; ``eprsim`` is imported inside the
functions so that set-up timing sees the import of ``eprsim.cli`` itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "reference.json"

# Monte Carlo values must agree with their reference within K_SE standard
# errors.  Five keeps the false-alarm rate near 1e-6 per check, so a
# benchmark seed never trips a check by chance.
K_SE = 5.0
# Deterministic series: loose enough for an exact closed-form moment engine
# (about 2e-8 from the RK45 path), tight enough to catch a wrong rate.
DET_ATOL = 1e-6
# Noise-free fit: relative recovery of each free parameter.  The solver
# stops at the RK45 noise floor, a few 1e-4 from the truth.
FIT_EXACT_RTOL = 2e-3

FIT_FREE = ("d", "Gamma_col", "Gamma_tilde")
# Start point of the fit: the truth (fig2a) with the free rates moved, as in
# the fit-recovery acceptance criterion.
FIT_START = {"d": 40.0, "Gamma_col": 0.004, "Gamma_tilde": 0.15}
FIT_NOISE = 0.05  # multiplicative noise of the noisy series
# The noise realisation sets how many least-squares iterations the noisy fit
# needs: over seeds 0-7 it took 49-79 forward-model calls and 12-22 s, which
# no end-to-end bound could carry.  One fixed realisation keeps the work of a
# pass the same under every workload seed.
FIT_NOISE_SEED = 0
FIT_ERR_XI, FIT_ERR_JX = 0.01, 0.005  # quoted errors of the noise-free series

HYBRID_TRIALS = {"fig2d": 10_000, "conditional": 2000, "reconstruct": 2000}
# reconstruct inverts discrete-sampler statistics with the continuous
# closed-form kappa^2, which is exact only for gamma_extra = 0; at the CLI
# default gamma_extra = 0.08 its Monte Carlo values are biased.  The check
# stays on and counts as a failed item; it is not an unexpected failure.
KNOWN_DEFECTS = {
    "reconstruct": "xi_*_mc are biased: discrete records inverted with the "
                   "continuous kappa^2 (exact only for gamma_extra = 0)",
}


@dataclass
class Item:
    """One unit of work of a pass."""

    name: str
    run: Callable[[Path], int]  # out_dir -> exit code
    extract: Callable[[Path], dict]  # out_dir -> values
    check: Callable[[dict, dict], list]  # (values, reference) -> messages
    cli: bool = True  # artifacts are hashed for the determinism check
    # checks that fail because of a defect listed in KNOWN_DEFECTS: they
    # fail the item but do not make the run incorrect
    known: Callable[[dict], list] | None = None


@dataclass
class Workload:
    name: str
    items: list
    warmup: Callable[[], None]
    notes: Callable[[dict], list] = field(default=lambda values: [])


def load_reference() -> dict:
    return json.loads(FIXTURES.read_text())


# ---------------------------------------------------------------- helpers

def read_csv(path: Path) -> dict:
    """Columns of an eprsim CSV artifact; '#' metadata lines are skipped."""
    rows = [ln for ln in path.read_text().splitlines()
            if ln and not ln.startswith("#")]
    header = rows[0].split(",")
    cols = {h: [] for h in header}
    for ln in rows[1:]:
        for h, v in zip(header, ln.split(",")):
            cols[h].append(float(v) if v else math.nan)
    return {h: np.array(v) for h, v in cols.items()}


def read_report(path: Path) -> dict:
    return json.loads(path.read_text())["report"]


def program_seed(seed: int) -> int:
    """CLI ``--seed`` for a workload seed.

    Trial i of a record batch uses ``master ^ i``, so small master seeds
    share most trial streams (seeds 0 and 1 draw the same trials in another
    order).  Mixing the workload seed over 32 bits keeps the Monte Carlo
    inputs of different workload seeds independent.
    """
    return int(np.random.SeedSequence(seed).generate_state(1)[0])


def _cli(argv):
    def run(out: Path) -> int:
        from eprsim import cli
        return cli.main([*argv, "--out", str(out)])
    return run


def _series_close(name, got, ref, atol=DET_ATOL):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return [f"{name}: {got.size} points, reference has {ref.size}"]
    err = float(np.max(np.abs(got - ref))) if got.size else 0.0
    return [] if err <= atol else [f"{name}: max |diff| {err:.3g} > {atol}"]


def _mc_close(name, got, se, ref, ref_se=0.0):
    tol = K_SE * math.hypot(se, ref_se)
    diff = abs(got - ref)
    return [] if diff <= tol else [
        f"{name}: {got:.6g} vs reference {ref:.6g}, "
        f"|diff| {diff:.3g} > {K_SE:g} SE ({tol:.3g})"]


def _xi_se(var_cos, var_sin, trials, slope):
    """SE of 0.5 (inv(var_cos) + inv(var_sin)) for a linear inversion."""
    return (0.5 * math.hypot(var_cos, var_sin)
            * math.sqrt(2.0 / (trials - 1)) / slope)


# ------------------------------------------------------------- trajectory

def _scenario_item(name, series, seed):
    def extract(out):
        vals = {}
        for fname in series:
            cols = read_csv(out / fname)
            vals[fname] = {"time_ms": cols["time_ms"].tolist(),
                           "xi": cols["xi"].tolist()}
        return vals

    def check(vals, ref):
        msgs = []
        for fname in series:
            for col in ("time_ms", "xi"):
                msgs += _series_close(f"{fname}:{col}", vals[fname][col],
                                      ref[fname][col])
        return msgs

    return Item(name=f"scenario_{name}",
                run=_cli(["scenario", name, "--seed", str(seed)]),
                extract=extract, check=check)


def _columns_item(name, argv, fname, columns):
    def extract(out):
        cols = read_csv(out / fname)
        return {c: cols[c].tolist() for c in columns}

    def check(vals, ref):
        return sum((_series_close(f"{fname}:{c}", vals[c], ref[c])
                    for c in columns), [])

    return Item(name=name, run=_cli(argv), extract=extract, check=check)


def _oracle_item():
    box = {}

    def run(out):
        from eprsim.gaussian_dynamics import NoiseChannels
        from eprsim.lindblad_oracle import validate_against_oracle
        from eprsim.scenarios import scenario_params
        p = scenario_params("fig2a")
        # horizon 0.1 / gamma_c: the Gaussian-regime contract (< 0.05)
        box["diff"] = validate_against_oracle(
            p, 0.1 / (p.d * p.Gamma), NoiseChannels(dephasing=0.0))
        return 0

    def check(vals, ref):
        msgs = _series_close("oracle diff", [vals["diff"]], [ref["diff"]])
        if not vals["diff"] < 0.05:
            msgs.append(f"oracle diff {vals['diff']:.4g} breaks the 0.05 "
                        "contract")
        return msgs

    return Item(name="validate_against_oracle", run=run,
                extract=lambda out: {"diff": box["diff"]}, check=check,
                cli=False)


def trajectory(seed: int, work: Path) -> Workload:
    """fig2a-fig2c, simulate, populations and the Lindblad oracle."""
    seed = program_seed(seed)
    s = str(seed)
    items = [
        _scenario_item("fig2a", ["xi_multilevel.csv"], seed),
        _scenario_item("fig2b", ["xi_drive_on.csv", "xi_drive_off.csv"],
                       seed),
        _scenario_item("fig2c", ["xi_pump.csv", "xi_no_pump.csv",
                                 "xi_dark_decay.csv"], seed),
        _columns_item("simulate", ["simulate", "--seed", s],
                      "trajectory.csv", ("time_ms", "xi", "Jx_norm")),
        _columns_item("populations", ["populations", "--seed", s],
                      "populations.csv", ("time_ms", "Jx_norm", "N2", "P2")),
        _oracle_item(),
    ]
    warm = work / "warmup"

    def warmup():
        _cli(["populations", "--seed", s])(warm)

    return Workload(name="trajectory", items=items, warmup=warmup)


# ----------------------------------------------------------------- hybrid

def _fig2d_item(seed):
    trials = HYBRID_TRIALS["fig2d"]

    def extract(out):
        return read_report(out / "fig2d_report.json")

    def xi_uncond_se(rep, branch):
        slope, floor = rep["calibration_slope"], rep["calibration_floor"]
        v = rep[branch]["xi_unconditional"] * slope + floor
        return _xi_se(v, v, trials, slope)

    def check(rep, ref):
        msgs = []
        for key in ("calibration_slope", "calibration_floor", "gamma_total"):
            msgs += _series_close(key, [rep[key]], [ref[key]])
        for branch in ("css", "anti_squeezed"):
            got, want = rep[branch], ref[branch]
            msgs += _mc_close(f"{branch}.xi_conditional",
                              got["xi_conditional"],
                              got["xi_conditional_se"],
                              want["xi_conditional"],
                              want["xi_conditional_se"])
            msgs += _mc_close(f"{branch}.xi_unconditional",
                              got["xi_unconditional"],
                              xi_uncond_se(rep, branch),
                              want["xi_unconditional"],
                              xi_uncond_se(ref, branch))
        if not rep["initial_state_gap"] < K_SE * rep["initial_state_gap_se"]:
            msgs.append("initial_state_gap exceeds its statistical error")
        return msgs

    return Item(name="scenario_fig2d",
                run=_cli(["scenario", "fig2d", "--trials", str(trials),
                          "--seed", str(seed), "--format", "json"]),
                extract=extract, check=check)


def _conditional_item(seed, eta):
    trials = HYBRID_TRIALS["conditional"]

    def se(rep):
        return _xi_se(rep["conditional_var_cos"], rep["conditional_var_sin"],
                      trials, eta * rep["kappa_sq"])

    def check(rep, ref):
        return (_series_close("kappa_sq", [rep["kappa_sq"]],
                              [ref["kappa_sq"]])
                + _mc_close("xi_conditional", rep["xi_conditional"], se(rep),
                            ref["xi_conditional"], se(ref)))

    return Item(name="conditional",
                run=_cli(["conditional", "--trials", str(trials),
                          "--seed", str(seed), "--format", "json"]),
                extract=lambda out: read_report(out / "conditional.json"),
                check=check)


def _reconstruct_item(seed, eta, mu_nu):
    trials = HYBRID_TRIALS["reconstruct"]
    s2 = (mu_nu[0] - mu_nu[1]) ** 2

    def se(rep, xi):
        # forward model of the CLI's own inversion: var(y) for atomic xi
        k = rep["kappa_sq"]
        var_y = eta * (k * xi + 1.0 - k * s2) + 1.0 - eta
        return _xi_se(var_y, var_y, trials, eta * k)

    def check(rep, ref):
        msgs = _series_close("kappa_sq", [rep["kappa_sq"]],
                             [ref["kappa_sq"]])
        for label in ("css", "steady"):
            msgs += _series_close(f"xi_{label}", [rep[f"xi_{label}"]],
                                  [rep[f"xi_{label}_true"]])
            # the biased estimate must stay where the unoptimised code puts
            # it: a drift anywhere but to the truth (which would call for new
            # fixtures) makes the run incorrect
            key = f"xi_{label}_mc"
            msgs += _mc_close(key, rep[key], se(rep, rep[key]), ref[key],
                              se(ref, ref[key]))
        return msgs

    def known(rep):
        msgs = []
        for label in ("css", "steady"):
            truth = rep[f"xi_{label}_true"]
            msgs += _mc_close(f"xi_{label}_mc", rep[f"xi_{label}_mc"],
                              se(rep, truth), truth)
        return msgs

    return Item(name="reconstruct",
                run=_cli(["reconstruct", "--trials", str(trials),
                          "--seed", str(seed), "--format", "json"]),
                extract=lambda out: read_report(out / "reconstruct.json"),
                check=check, known=known)


def hybrid(seed: int, work: Path) -> Workload:
    """fig2d at 10 k trials, conditional and reconstruct."""
    seed = program_seed(seed)
    from eprsim.scenarios import scenario_params
    p = scenario_params("fig2d")
    items = [_fig2d_item(seed), _conditional_item(seed, p.eta),
             _reconstruct_item(seed, p.eta, (p.mu, p.nu))]
    warm = work / "warmup"

    def warmup():
        _cli(["reconstruct", "--trials", "2", "--seed", str(seed),
              "--format", "json"])(warm)

    def notes(values):
        # No exact reference exists yet for either conditional witness;
        # the two surfaces are shown side by side.
        fig2d = values.get("scenario_fig2d", {}).get("css", {})
        cond = values.get("conditional", {})
        return [f"xi_conditional fig2d(css)="
                f"{fig2d.get('xi_conditional', float('nan')):.4f} "
                f"conditional={cond.get('xi_conditional', float('nan')):.4f}"]

    return Workload(name="hybrid", items=items, warmup=warmup, notes=notes)


# -------------------------------------------------------------------- fit

def _write_observed(path: Path, t, xi, xi_err, jx, jx_err):
    lines = ["t,xi,xi_err,jx_norm,jx_err"]
    lines += [",".join(f"{v:.17g}" for v in row)
              for row in zip(t, xi, xi_err, jx, jx_err)]
    path.write_text("\n".join(lines) + "\n")


def _fit_item(name, observed, params, truth, exact, seed):
    def extract(out):
        rep = read_report(out / "fit.json")
        return {"estimates": rep["estimates"],
                "sigma": np.sqrt(np.diag(rep["covariance"])).tolist()}

    def check(vals, ref):
        msgs = []
        for k, pname in enumerate(FIT_FREE):
            est, want = vals["estimates"][pname], truth[pname]
            if exact:
                rel = abs(est - want) / want
                if not rel <= FIT_EXACT_RTOL:
                    msgs.append(f"{pname}: {est:.6g} vs truth {want:.6g}, "
                                f"relative error {rel:.3g}")
            else:
                msgs += _mc_close(pname, est, vals["sigma"][k], want)
        return msgs

    return Item(name=name,
                run=_cli(["fit", str(observed), "--params", str(params),
                          "--free", *FIT_FREE, "--seed", str(seed),
                          "--format", "json"]),
                extract=extract, check=check)


def fit(seed: int, work: Path) -> Workload:
    """Rate fits of a noise-free and a 5 % noisy series on the truth."""
    seed = program_seed(seed)
    ref = load_reference()
    truth = ref["fit"]["truth_params"]
    t, xi, jx = (np.array(ref["fit"]["truth"][k])
                 for k in ("time_ms", "xi", "jx_norm"))
    work.mkdir(parents=True, exist_ok=True)
    params = work / "start_params.json"
    params.write_text(json.dumps({**truth, **FIT_START}, sort_keys=True))
    # noise-free: every second truth point, criterion-8 style errors
    exact = work / "observed_exact.csv"
    _write_observed(exact, t[::2], xi[::2], np.full(t[::2].size, FIT_ERR_XI),
                    jx[::2], np.full(t[::2].size, FIT_ERR_JX))
    rng = np.random.default_rng(FIT_NOISE_SEED)
    xi_n = xi * (1.0 + FIT_NOISE * rng.standard_normal(xi.size))
    jx_n = jx * (1.0 + FIT_NOISE * rng.standard_normal(jx.size))
    noisy = work / "observed_noisy.csv"
    _write_observed(noisy, t, xi_n, FIT_NOISE * xi, jx_n, FIT_NOISE * jx)
    items = [_fit_item("fit_exact", exact, params, truth, True, seed),
             _fit_item("fit_noisy", noisy, params, truth, False, seed)]

    def warmup():
        # one forward-model evaluation at the start point: the unit of work
        # every fit iteration repeats
        from eprsim.estimation import forward_model
        from eprsim.multilevel_rates import PopulationState
        from eprsim.spin_model import ModelParams
        forward_model(ModelParams.from_json(params.read_text()),
                      PopulationState(n44=0.99, n43=0.01, nh=0.0), t[::2])

    return Workload(name="fit", items=items, warmup=warmup)


WORKLOADS = {"trajectory": trajectory, "hybrid": hybrid, "fit": fit}
