import argparse
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eprsim import cli, records, scenarios
from eprsim.cli import _SHARED_OPTIONS, _build_parser, _parse_grid, main
from eprsim.errors import NoInformationError
from eprsim.estimation import forward_model
from eprsim.multilevel_rates import PopulationState, transition_rates
from eprsim.scenarios import inclusive_range, scenario_params

from test_multilevel_rates import steady_state


def run(argv):
    return main(argv)


class TestExitCodes:
    def test_bad_grid_is_usage_error(self, capsys):
        assert run(["simulate", "--grid", "5,1,0.5"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_params_file(self, tmp_path, capsys):
        assert run(["simulate", "--params",
                    str(tmp_path / "missing.json")]) == 2
        capsys.readouterr()

    def test_invalid_model_is_invariant_violation(self, tmp_path, capsys):
        params = json.loads(scenario_params("fig2a").to_json())
        params["mu"], params["nu"] = 1.05, 1.45  # mu < nu: unphysical
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(params))
        assert run(["simulate", "--params", str(f)]) == 4
        assert "invariant" in capsys.readouterr().err

    def test_degenerate_populations_numeric_path(self, tmp_path, capsys):
        # all atoms outside F=4: polarisation-normalised outputs blow up
        code = run(["simulate", "--pops", "0,0,1",
                    "--out", str(tmp_path)])
        assert code == 4
        capsys.readouterr()

    @pytest.mark.parametrize("extra", [[], ["--slope-obs", "0"]],
                             ids=["unconstrained", "slope-constrained"])
    def test_fit_zero_polarization(self, extra, tmp_path, capsys):
        # a zero initial <J_x> is an invariant violation, also where the
        # slope constraint divides by it
        obs = tmp_path / "observed.csv"
        obs.write_text("t,xi,xi_err,jx_norm,jx_err\n"
                       "0,1,0.01,1,0.005\n10,0.8,0.01,0.9,0.005\n")
        assert run(["fit", str(obs), "--free", "d", "--pops", "0,0,1",
                    *extra, "--out", str(tmp_path / "out")]) == 4
        assert "Traceback" not in capsys.readouterr().err


class TestDeterminism:
    def test_simulate_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["simulate", "--grid", "0,10,0.5", "--out", str(a)]) == 0
        assert run(["simulate", "--grid", "0,10,0.5", "--out", str(b)]) == 0
        assert (a / "trajectory.csv").read_bytes() == \
            (b / "trajectory.csv").read_bytes()

    def test_reconstruct_mc_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["reconstruct", "--trials", "200", "--seed", "7",
                "--format", "json"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert (a / "reconstruct.json").read_bytes() == \
            (b / "reconstruct.json").read_bytes()

    def test_conditional_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["conditional", "--trials", "200", "--seed", "7"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert (a / "conditional.csv").read_bytes() == \
            (b / "conditional.csv").read_bytes()

    def test_fig2d_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["scenario", "fig2d", "--trials", "200", "--seed", "5"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        names = sorted(f.name for f in a.iterdir())
        assert names == ["fig2d_report.csv", "hybrid_summary.csv"]
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_changes_mc_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["reconstruct", "--trials", "200", "--seed", "1",
             "--out", str(a)])
        run(["reconstruct", "--trials", "200", "--seed", "2",
             "--out", str(b)])
        assert (a / "reconstruct.csv").read_text() != \
            (b / "reconstruct.csv").read_text()


@pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 5)])
def test_seed_outside_64_bits_rejected(seed, capsys, tmp_path):
    # masked to 64 bits these would repeat another seed's trials while the
    # artifact records this one
    assert main(["reconstruct", "--trials", "3", "--seed", seed,
                 "--out", str(tmp_path)]) == 2
    assert "outside [0, 2**64)" in capsys.readouterr().err
    assert not tmp_path.joinpath("reconstruct.csv").exists()


def test_largest_seed_accepted(tmp_path):
    assert main(["reconstruct", "--trials", "3", "--seed", str(2**64 - 1),
                 "--out", str(tmp_path)]) == 0
    assert f"# seed={2**64 - 1}\n" in (
        tmp_path / "reconstruct.csv").read_text()

class TestInclusiveRange:
    def test_grid_stops_at_t1(self, tmp_path):
        assert run(["simulate", "--grid", "0,1,0.6",
                    "--out", str(tmp_path)]) == 0
        rows = [ln for ln in
                (tmp_path / "trajectory.csv").read_text().splitlines()
                if not ln.startswith(("#", "time_ms"))]
        assert [float(r.split(",")[0]) for r in rows] == [0.0, 0.6]

    def test_default_grids_unchanged(self):
        # the np.arange padding each site used before, bit for bit
        np.testing.assert_array_equal(_parse_grid("0,45,0.25"),
                                      np.arange(0.0, 45.125, 0.25))
        assert _parse_grid("0,45,0.25").size == 181
        np.testing.assert_array_equal(inclusive_range(0.0, 45.0, 0.25),
                                      np.arange(0.0, 45.0 + 1e-9, 0.25))
        gm = inclusive_range(0.1, 1.5, 0.01)
        np.testing.assert_array_equal(gm, np.arange(0.1, 1.5 + 1e-12, 0.01))
        assert gm.size == 141
        f2d = scenarios._F2D_GRID
        np.testing.assert_array_equal(f2d, np.arange(0.10, 1.501, 0.05))
        assert f2d.size == 29 and f2d[-1] == 1.5000000000000004
        np.testing.assert_array_equal(inclusive_range(0.0, 8.0, 0.05),
                                      np.arange(0.0, 8.025, 0.05))

    def test_never_past_stop(self):
        for start, stop, step in ((0.0, 1.0, 0.6), (0.0, 1.0, 0.3),
                                  (0.1, 1.5, 0.05), (-2.0, 3.0, 0.7)):
            grid = inclusive_range(start, stop, step)
            assert grid[-1] <= stop + 1e-9 * step
            assert grid[-1] + step > stop


class TestArtifacts:
    def test_simulate_metadata_header(self, tmp_path):
        run(["simulate", "--grid", "0,5,1", "--out", str(tmp_path)])
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "# artifact_version=1"
        assert lines[1] == "# seed=0"
        assert lines[2].startswith("# params={")
        assert lines[3] == "time_ms,var_x_minus,var_p_plus,xi,Jx_norm,N2,P2"

    def test_populations_artifact(self, tmp_path):
        assert run(["populations", "--grid", "0,20,1", "--pump",
                    "--out", str(tmp_path)]) == 0
        text = (tmp_path / "populations.csv").read_text()
        assert "time_ms" in text

    @pytest.mark.parametrize("gamma_extra", ["0", "0.08", "0.3"])
    @pytest.mark.parametrize("probe_ms", ["1", "5", "20"])
    def test_reconstruct_round_trip_values(self, probe_ms, gamma_extra,
                                           tmp_path):
        assert run(["reconstruct", "--format", "json", "--probe-ms",
                    probe_ms, "--gamma-extra", gamma_extra,
                    "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "reconstruct.json").read_text())
        rep = doc["report"]
        assert rep["xi_css"] == pytest.approx(1.0, abs=1e-12)
        assert rep["xi_steady"] == pytest.approx(0.16, abs=1e-12)

    def test_orientation_stdout(self, capsys):
        assert run(["orientation", "--format", "json",
                    "0,0,0,0,0,0,0,0.008,0.992"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["orientation"] == pytest.approx(0.998)

    def test_calibrate_from_file(self, tmp_path, capsys):
        pts = tmp_path / "points.csv"
        pts.write_text("theta,xi0\n1.0,1.004\n2.0,2.016\n4.0,4.064\n")
        assert run(["calibrate", "--format", "json", str(pts)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["linear_coeff"] == pytest.approx(1.0, abs=1e-9)
        assert doc["report"]["quad_coeff"] == pytest.approx(0.004, abs=1e-9)

    def test_fit_single_parameter(self, tmp_path):
        truth = scenario_params("fig2a")
        grid = np.linspace(0.0, 30.0, 11)
        pop0 = PopulationState(n44=0.99, n43=0.01, nh=0.0)
        xi, jx, _, _ = forward_model(truth, pop0, grid)
        obs = tmp_path / "observed.csv"
        obs.write_text("t,xi,xi_err,jx_norm,jx_err\n" + "\n".join(
            f"{t},{x},0.01,{j},0.005" for t, x, j in zip(grid, xi, jx)))
        start = tmp_path / "start.json"
        start.write_text(truth.replace(Gamma_tilde=0.12).to_json())
        out = tmp_path / "out"
        assert run(["fit", str(obs), "--params", str(start),
                    "--free", "Gamma_tilde", "--format", "json",
                    "--out", str(out)]) == 0
        doc = json.loads((out / "fit.json").read_text())
        assert doc["report"]["estimates"]["Gamma_tilde"] == pytest.approx(
            truth.Gamma_tilde, rel=1e-4)

    def test_scenario_drive_off(self, tmp_path):
        assert run(["scenario", "fig2b", "--grid", "0,20,0.5",
                    "--format", "json", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "fig2b_report.json").read_text())
        assert doc["report"]["drive_off_entangled"] is False
        assert doc["report"]["xi_min_drive_on"] < 1.0


@pytest.mark.parametrize("command", ["simulate", "populations", "fit"])
@pytest.mark.parametrize("pops", ["0.99,0.01", "0.5,0.25,0.25,0"])
def test_pops_value_count_named(command, pops, tmp_path, capsys):
    # a wrong number of --pops values is a usage error that names the
    # option and its form, not Python's unpacking message
    obs = tmp_path / "observed.csv"
    obs.write_text("t,xi,xi_err,jx_norm,jx_err\n0,1,0.01,1,0.005\n")
    argv = [command, "--pops", pops, "--out", str(tmp_path)]
    assert run(argv + [str(obs)] * (command == "fit")) == 2
    err = capsys.readouterr().err
    assert "--pops expects n44,n43,nh" in err
    assert "unpack" not in err


_EXTREME_VALUES = dict(Gamma_col=0.1 + 0.2, Gamma_tilde=1e-300,
                       Gamma_pump=5e-324, d=1.7976931348623157e308,
                       Gamma_L_out=np.float64(0.025))


@pytest.mark.parametrize("params", [
    *(scenario_params(name) for name in ("fig2a", "fig2b", "fig2c", "fig2d")),
    scenario_params("fig2a").replace(**_EXTREME_VALUES)],
    ids=["fig2a", "fig2b", "fig2c", "fig2d", "extreme-values"])
def test_params_json_built_once(params, tmp_path):
    # the parameter JSON of every artifact is dumped from the fields in one
    # step; it must read exactly as the to_json -> loads -> dumps round trip
    from eprsim.cli import ARTIFACT_VERSION, _emit_report, _metadata_block

    doc = json.loads(params.to_json())
    compact = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert _metadata_block(params, 5).splitlines()[2] == f"# params={compact}"
    report = {"cost": 0.1 + 0.2}
    _emit_report(argparse.Namespace(format="json", out=str(tmp_path)),
                 "fit", report, params, 5)
    want = {"artifact_version": ARTIFACT_VERSION, "report": report,
            "seed": 5, "params": doc}
    assert (tmp_path / "fit.json").read_text() == json.dumps(
        want, indent=2, sort_keys=True) + "\n"


def reference_csv(header, columns):
    """The per-cell writer the block writer replaced: one f-string per
    value, %.17g for numbers."""
    n = len(next(c for c in columns if c is not None))
    cells = [[""] * n if c is None else
             [v if isinstance(v, str) else f"{v:.17g}" for v in c]
             for c in columns]
    rows = [",".join(header)] + [",".join(row) for row in zip(*cells)]
    return "\n".join(rows) + "\n"


def written(columns, tmp_path, head="# h=1\n"):
    """Text of ``columns`` (a list, headers c0, c1, ...) as _write_csv
    writes it to ``--out``, less ``head``."""
    header = [f"c{k}" for k in range(len(columns))]
    cli._write_csv(argparse.Namespace(out=str(tmp_path)), "t.csv", head,
                   dict(zip(header, columns)))
    text = (tmp_path / "t.csv").read_text()
    assert text.startswith(head)
    return header, text[len(head):]


_EDGE_VALUES = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324,
                         1.7976931348623157e308, 0.1 + 0.2])


class TestWriterReferee:
    @pytest.mark.parametrize("columns", [
        [_EDGE_VALUES, _EDGE_VALUES[::-1]],
        [np.arange(7), np.ones(7), np.array([2**53 + 1, -3, 0, 7, 1, 10**17,
                                             -(2**62)])],
        [None, _EDGE_VALUES, np.ones(7)],
        [_EDGE_VALUES, None, None, np.ones(7)],
        [np.ones(7), _EDGE_VALUES, None],
        [np.array([0.25]), None, np.array([-1.5])],
        [["css", "anti_squeezed"], [0.1 + 0.2, 5e-324], None],
    ], ids=["edge-values", "integer-valued", "none-first", "none-middle",
            "none-last", "one-row", "label-column"])
    def test_matches_per_cell_writer(self, columns, tmp_path):
        header, text = written(columns, tmp_path)
        assert text == reference_csv(header, columns)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(values=hnp.arrays(np.float64, hnp.array_shapes(
               min_dims=2, max_dims=2, max_side=6)),
           none_at=st.integers(0, 6))
    def test_matches_per_cell_writer_property(self, tmp_path, values,
                                              none_at):
        columns = list(values.T)
        columns.insert(min(none_at, len(columns)), None)
        header, text = written(columns, tmp_path)
        assert text == reference_csv(header, columns)

    @pytest.mark.parametrize("extra", [1 - cli.ROWS_PER_BLOCK, 0, 1],
                             ids=["one-row", "one-block",
                                  "one-block-plus-one"])
    def test_block_boundaries(self, extra, tmp_path, capsys):
        n = cli.ROWS_PER_BLOCK + extra
        rng = np.random.default_rng(n)
        columns = [rng.standard_normal(n), None, [f"r{k}" for k in range(n)],
                   np.arange(n)]
        header, text = written(columns, tmp_path)
        assert text == reference_csv(header, columns)
        assert text.count("\n") == n + 1
        # stdout gets the same bytes
        cli._write_csv(argparse.Namespace(out=None), "t.csv", "",
                       dict(zip(header, columns)))
        assert capsys.readouterr().out == text

    def test_memory_bounded_by_one_block(self, tmp_path):
        # a 32-block table: the traced peak is about one block's text and
        # cells, far below the 4 MB file
        n = 32 * cli.ROWS_PER_BLOCK
        columns = {"t": np.linspace(0.0, 1.0, n), "x": None,
                   "y": np.random.default_rng(0).standard_normal(n)}
        args = argparse.Namespace(out=str(tmp_path))
        tracemalloc.start()
        try:
            cli._write_csv(args, "big.csv", "", columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = (tmp_path / "big.csv").stat().st_size
        assert size > 3e6
        assert peak < size / 4, (peak, size)


class TestSharedParser:
    """main() builds its parser once per process; no call may leave state
    in it for the next."""

    def test_usage_error_leaves_no_state(self, tmp_path, capsys):
        _build_parser.cache_clear()
        argv = ["simulate", "--grid", "0,10,0.5", "--out"]
        assert run([*argv, str(tmp_path / "first")]) == 0
        assert run(["simulate", "--grid"]) == 2
        assert run(["simulate", "--grid", "0,10,0.5", "--pops"]) == 2
        assert run([*argv, str(tmp_path / "again")]) == 0
        assert _build_parser.cache_info().misses == 1
        assert (tmp_path / "first" / "trajectory.csv").read_bytes() == \
            (tmp_path / "again" / "trajectory.csv").read_bytes()
        capsys.readouterr()

    def test_default_free_list_unchanged_by_fit(self, tmp_path):
        truth = scenario_params("fig2a")
        grid = np.linspace(0.0, 30.0, 7)
        xi, jx, _, _ = forward_model(
            truth, PopulationState(n44=0.99, n43=0.01, nh=0.0), grid)
        obs = tmp_path / "observed.csv"
        obs.write_text("t,xi,xi_err,jx_norm,jx_err\n" + "\n".join(
            f"{t},{x},0.01,{j},0.005" for t, x, j in zip(grid, xi, jx)))
        assert run(["fit", str(obs), "--out", str(tmp_path / "out")]) == 0
        assert _build_parser().parse_args(["fit", "x"]).free == \
            ("d", "Gamma_col", "Gamma_tilde")

    @pytest.mark.parametrize("argv", [
        ["--version"], ["simulate", "--help"], ["fit", "--help"],
        ["scenario", "--help"],
    ])
    def test_exit_zero_after_parser_built(self, argv, capsys):
        _build_parser()
        assert run(argv) == 0
        assert run(argv) == 0
        assert capsys.readouterr().out


SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh_env(drop=()):
    """Environment of a fresh interpreter that imports eprsim from ``src``,
    without the variables named in ``drop``."""
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


class _Text(str):
    """An exit-code matrix argv element that stands for a file of this
    text."""


# an exit-code matrix argv element that stands for an existing directory
_DIR = object()


_FIT_HEAD = "t,xi,xi_err,jx_norm,jx_err\n"
_FIT_ROWS = _FIT_HEAD + "0,1,0.01,1,0.005\n10,0.8,0.01,0.9,0.005\n"

_BAD_INPUT = [
    (["scenario", "fig2a", "--overrides", '{"Gamma_tilde": NaN}'], 4),
    (["scenario", "fig2a", "--overrides", '{"Gamma_tilde": Infinity}'], 4),
    (["scenario", "fig2a", "--overrides", '{"d": "x"}'], 4),
    (["scenario", "fig2a", "--overrides", '{"foo": 1}'], 2),
    (["scenario", "fig2a", "--overrides", "[1]"], 2),
    (["simulate", "--pops", "nan,0,1"], 4),
    (["simulate", "--pops", "inf,0,1"], 4),
    (["simulate", "--grid", "0,1e9,0.001"], 2),
    (["simulate", "--grid", "0,inf,1"], 2),
    (["simulate", "--grid", "nan,1,0.5"], 2),
    (["conditional", "--handover-ms", "inf"], 2),
    (["reconstruct", "--probe-ms", "inf", "--trials", "2"], 2),
    (["conditional", "--trials", "100000000"], 2),
    # the readout's cap counts trials, not trial-bins: 100001 trials of
    # 250 bins run, one over MAX_READOUT_TRIALS does not
    (["conditional", "--trials", "100001"], 0),
    (["conditional", "--trials", "600001"], 2),
    (["reconstruct", "--dt-ms", "1e-9", "--trials", "2"], 2),
    (["conditional", "--gm-step", "0"], 2),
    (["conditional", "--gm-step", "1e-12"], 2),
    (["scenario", "fig2a", "--overrides", '{"d": 1e12}'], 0),
    (["conditional", "--gm-step", "0.0001"], 2),
    (["reconstruct", "--trials", "2", "--dt-ms", "1e-4"], 2),
    (["populations", "--pops", "0,0,1"], 4),
    (["conditional", "--trials", "2", "--gm-step", "2e-6"], 2),
    (["orientation", "--trials", "5", "0,0,0,0,0,0,0,0.008,0.992"], 2),
    (["scenario", "fig2a", "--params", "p.json"], 2),
    (["simulate", "--format", "json"], 2),
    (["scenario", "fig2a", "--trials", "7"], 2),
    (["scenario", "fig2d", "--grid", "0,1,0.5"], 2),
    (["reconstruct", "--trials", "0"], 2),
    (["reconstruct", "--trials", "-5"], 2),
    (["orientation", "nan,0,0,0,0,0,0,0,1"], 2),
    (["reconstruct", "--probe-ms", "0"], 2),
    (["reconstruct", "--probe-ms", "-1"], 2),
    (["reconstruct", "--dt-ms", "-1", "--trials", "1"], 2),
    (["reconstruct", "--dt-ms", "nan", "--trials", "1"], 2),
    (["conditional", "--gamma-s", "1e-300", "--gamma-extra", "0",
      "--trials", "200"], 3),
    (["reconstruct", "--gamma-s", "1e-300", "--gamma-extra", "0",
      "--trials", "2000"], 3),
    (["reconstruct", "--probe-ms", "1e-300", "--trials", "1"], 3),
    # rounding of the floor alone would move xi by 0.06, 0.007 and 1e-4
    (["reconstruct", "--probe-ms", "1e-15", "--trials", "1"], 3),
    (["reconstruct", "--probe-ms", "1e-14", "--trials", "1"], 3),
    (["reconstruct", "--probe-ms", "1e-12", "--trials", "1"], 3),
    (["conditional", "--probe-ms", "1e-12", "--trials", "2"], 3),
    # finite rates that overflow; a dict is written as a --params file of
    # the fig2a defaults with those values
    (["scenario", "fig2a", "--grid", "0,1,0.5", "--overrides",
      '{"Gamma_tilde": 1e308}'], 4),
    (["scenario", "fig2a", "--grid", "0,1,0.5", "--overrides",
      '{"Gamma_L_out": 1e308}'], 4),
    (["scenario", "fig2a", "--grid", "0,1,0.5", "--overrides",
      '{"Gamma_col": 1e308}'], 4),
    (["scenario", "fig2a", "--grid", "0,1,0.5", "--overrides",
      '{"d": 1e308, "Gamma": 10}'], 4),
    (["scenario", "fig2c", "--grid", "0,1,0.5", "--overrides",
      '{"Gamma_pump": 1e308}'], 4),
    (["simulate", "--params", {"Gamma_col": 1e308}], 4),
    (["simulate", "--params", {"Gamma_tilde": 1e308}], 4),
    (["simulate", "--params", {"d": 1e308, "Gamma": 10}, "--pops",
      "0.5,0.5,0"], 4),
    (["reconstruct", "--gamma-s", "1e308", "--gamma-extra", "1e308",
      "--trials", "1"], 4),
    (["conditional", "--gamma-s", "1e308", "--gamma-extra", "1e308"], 4),
    (["conditional", "--handover-ms", "nan"], 2),
    (["conditional", "--handover-ms", "-1"], 2),
    (["conditional", "--handover-ms", "0"], 2),
    (["conditional", "--handover-ms", "1e300"], 2),
    (["conditional", "--trials", "1"], 2),
    (["reconstruct", "--gamma-s", "1e308", "--gamma-extra", "0",
      "--trials", "1"], 2),
    (["reconstruct", "--gamma-s", "1e308", "--gamma-extra", "0",
      "--trials", "2"], 2),
    (["conditional", "--gamma-s", "1e308", "--gamma-extra", "0",
      "--trials", "2"], 2),
    # --dt-ms 0.1 times a decay rate of 1000: refused with and without
    # Monte Carlo
    (["reconstruct", "--gamma-s", "1000", "--gamma-extra", "0",
      "--trials", "1"], 2),
    (["reconstruct", "--gamma-s", "1000", "--gamma-extra", "0",
      "--trials", "2"], 2),
    (["conditional", "--gamma-s", "1000", "--gamma-extra", "0"], 2),
    (["scenario", "fig2d", "--trials", "1"], 2),
    (["scenario", "fig2d", "--trials", "0"], 2),
    # fig2d's exact calibration at eta = 0 has slope 0; at eta = 1e-300 the
    # floor's rounding swamps it
    (["scenario", "fig2d", "--overrides", '{"eta": 0}'], 3),
    (["scenario", "fig2d", "--overrides", '{"eta": 1e-300}', "--trials",
      "200"], 3),
    # the same zero slope on the CLI's readout commands
    (["conditional", "--params", {"eta": 0.0}, "--trials", "2"], 3),
    (["reconstruct", "--params", {"eta": 0.0}, "--trials", "2"], 3),
    # an integer too large for a float is refused like an infinity
    (["scenario", "fig2a", "--overrides", '{"mu": 1%s}' % ("0" * 400)], 4),
    (["simulate", "--params", {"mu": 10**400}], 4),
    # paths that cannot be used as asked, and documents too deep to parse
    (["simulate", "--params", _DIR], 2),
    (["simulate", "--out", _Text("")], 2),
    (["scenario", "fig2a", "--overrides", "[" * 100_000], 2),
    (["simulate", "--params", _Text("[" * 100_000)], 2),
    # rates so large that the fit's tangents (Gamma above ~1e166) or its
    # d * Gamma overflowed, with warnings, before the fit's own exit
    (["fit", _Text(_FIT_ROWS), "--params", {"Gamma": 1e170}, "--free", "d"],
     3),
    (["fit", _Text(_FIT_ROWS), "--params", {"Gamma": 1e300}, "--free", "d"],
     3),
    (["fit", _Text(_FIT_ROWS), "--params", {"Gamma": 5e306}, "--free", "d"],
     4),
]
_BAD_INPUT_IDS = [
    "overrides-nan", "overrides-inf", "overrides-str", "overrides-key",
    "overrides-list", "pops-nan", "pops-inf", "grid-huge", "grid-inf",
    "grid-nan", "handover-inf", "probe-inf", "trials-huge",
    "trials-over-trial-bins", "trials-over-readout-cap", "dt-tiny",
    "gm-step-zero", "gm-step-tiny", "overrides-stiff", "gm-scan-huge",
    "bins-huge", "populations-degenerate", "gm-scan-long",
    "orientation-trials", "scenario-params", "simulate-format",
    "scenario-trials", "scenario-grid", "reconstruct-trials-zero",
    "reconstruct-trials-negative", "orientation-nan", "probe-zero",
    "probe-negative", "dt-negative", "dt-nan", "conditional-slope-vanishes",
    "reconstruct-slope-vanishes", "probe-slope-vanishes",
    "probe-1e-15-rounding", "probe-1e-14-rounding", "probe-1e-12-rounding",
    "conditional-probe-rounding", "tilde-overflow", "loss-overflow",
    "collision-overflow", "collective-overflow", "pump-overflow",
    "params-collision-overflow", "params-tilde-overflow",
    "params-unpolarised-overflow", "reconstruct-decay-overflow",
    "conditional-decay-overflow", "handover-nan", "handover-negative",
    "handover-zero", "handover-huge", "conditional-trials-one",
    "reconstruct-record-decay-overflow", "reconstruct-mc-decay-overflow",
    "conditional-record-decay-overflow", "reconstruct-aliasing",
    "reconstruct-mc-aliasing", "conditional-aliasing",
    "scenario-fig2d-trials-one", "scenario-fig2d-trials-zero",
    "scenario-fig2d-eta-zero", "scenario-fig2d-eta-tiny",
    "conditional-eta-zero", "reconstruct-eta-zero", "overrides-huge-int",
    "params-huge-int", "params-directory", "out-existing-file",
    "overrides-deep", "params-deep", "fit-tangent-overflow-1e170",
    "fit-tangent-overflow-1e300", "fit-collective-overflow"]

# the cause each of these cases names on its one stderr line
_BAD_INPUT_CAUSES = {
    "trials-huge": "trials per readout",
    "trials-over-readout-cap": "600001 trials exceeds 600000",
    "tilde-overflow": "moment rates overflow",
    "loss-overflow": "population rates overflow",
    "collision-overflow": "population rates overflow",
    "collective-overflow": "d * Gamma",
    "pump-overflow": "population rates overflow",
    "params-collision-overflow": "population rates overflow",
    "params-tilde-overflow": "moment rates overflow",
    "params-unpolarised-overflow": "d * Gamma",
    "reconstruct-decay-overflow": "total decay rate",
    "conditional-decay-overflow": "total decay rate",
    "handover-inf": "--handover-ms",
    "handover-nan": "--handover-ms",
    "handover-negative": "--handover-ms",
    "handover-zero": "--handover-ms",
    "handover-huge": "--handover-ms",
    "conditional-trials-one": "--trials must be at least 2 for conditional",
    "reconstruct-record-decay-overflow": "--gamma-s + --gamma-extra",
    "reconstruct-mc-decay-overflow": "--gamma-s + --gamma-extra",
    "conditional-record-decay-overflow": "--gamma-s + --gamma-extra",
    "reconstruct-aliasing": "--dt-ms 0.1 is too coarse for --gamma-s",
    "reconstruct-mc-aliasing": "--dt-ms 0.1 is too coarse for --gamma-s",
    "conditional-aliasing": "--dt-ms 0.1 is too coarse for --gamma-s",
    "scenario-fig2d-trials-one": "fig2d needs at least 2 trials",
    "scenario-fig2d-trials-zero": "fig2d needs at least 2 trials",
    "scenario-fig2d-eta-zero": "carries no atomic information",
    "scenario-fig2d-eta-tiny": "carries no atomic information",
    "conditional-eta-zero": "carries no atomic information",
    "reconstruct-eta-zero": "carries no atomic information",
    "overrides-huge-int": "mu must be a finite number",
    "params-huge-int": "mu must be a finite number",
    "params-directory": "Is a directory",
    "out-existing-file": "File exists",
    "overrides-deep": "--overrides is nested too deep",
    "params-deep": "parameter document is nested too deep",
    "fit-tangent-overflow-1e170": "information matrix is singular",
    "fit-tangent-overflow-1e300": "information matrix is singular",
    "fit-collective-overflow": "d * Gamma",
}

_BAD_FILE = [
    ("calibrate", "theta,xi0\n1,nan\n2,2.016\n4,4.064\n"),
    ("calibrate", "theta,xi0\nnan,1.004\n2,2.016\n4,4.064\n"),
    ("calibrate", "theta,xi0,weight\n1,1.004,inf\n2,2.016,1\n4,4.064,1\n"),
    ("fit", _FIT_HEAD + "0,1,-0.01,1,0.005\n10,0.8,0.01,0.9,0.005\n"),
    ("fit", _FIT_HEAD + "0,1,0,1,0.005\n10,0.8,0.01,0.9,0.005\n"),
    ("fit", _FIT_HEAD + "nan,1,0.01,1,0.005\n10,0.8,0.01,0.9,0.005\n"),
    ("calibrate", "theta,xi0\n1e200,1\n2e200,2\n3e200,3\n"),
    ("fit", _FIT_HEAD + "0,1e308,0.01,1,0.005\n10,0.8,0.01,0.9,0.005\n"),
    ("fit", _FIT_HEAD + "0,1,0.01,1e308,0.005\n10,0.8,0.01,0.9,0.005\n"),
    ("orientation", "1e308,1e308,0,0,0,0,0,0,0"),
]
_BAD_FILE_IDS = [
    "calibrate-xi0-nan", "calibrate-theta-nan", "calibrate-weight-inf",
    "fit-err-negative", "fit-err-zero", "fit-time-nan",
    "calibrate-theta-overflow", "fit-xi-overflow", "fit-jx-overflow",
    "orientation-sum-overflow"]

_CAL_HEAD = "theta,xi0\n"

_MALFORMED = [
    ("calibrate", ""),
    ("calibrate", _CAL_HEAD),
    ("calibrate", _CAL_HEAD + "1\n2,2.016\n4,4.064\n"),
    ("calibrate", _CAL_HEAD + "1,1.004,1,9\n2,2.016\n4,4.064\n"),
    ("calibrate", _CAL_HEAD + "1,x\n2,2.016\n4,4.064\n"),
    ("fit", ""),
    ("fit", _FIT_HEAD),
    ("fit", _FIT_HEAD + "0,1,0.01,1\n10,0.8,0.01,0.9\n"),
    ("fit", _FIT_HEAD + "0,1,0.01,1,0.005,7\n10,0.8,0.01,0.9,0.005,7\n"),
    ("fit", _FIT_HEAD + "0,1,0.01,x,0.005\n10,0.8,0.01,0.9,0.005\n"),
    ("fit", _FIT_HEAD + "10,0.8,0.01,0.9,0.005\n0,1,0.01,1,0.005\n"
     "5,0.9,0.01,0.95,0.005\n"),
    ("fit", _FIT_HEAD + "0,1,1e-300,1,0.005\n10,0.8,0.01,0.9,0.005\n"),
    ("fit", _FIT_HEAD + "0,1,1e-320,1,0.005\n10,0.8,0.01,0.9,0.005\n"),
    ("fit", _FIT_HEAD + "0,1,0.01,1,0.005\n10,0.8,0.01,0.9,1e-300\n"),
    ("fit", _FIT_HEAD + "0,1,0.01,1,0.005\n5,0.9,0.01,0.95,0.005\n"
     "5,0.9,0.01,0.95,0.005\n10,0.8,0.01,0.9,0.005\n"),
    ("orientation", ""),
    ("orientation", "0,0,0,0,0,0,0.008,0.992"),
    ("orientation", "0,0,0,0,0,0,0,0,0.008,0.992"),
    ("orientation", "0,0,0,0,0,0,0,x,1"),
]
_MALFORMED_IDS = [
    "calibrate-empty", "calibrate-header-only", "calibrate-short-row",
    "calibrate-long-row", "calibrate-non-numeric", "fit-empty",
    "fit-header-only", "fit-short-row", "fit-long-row", "fit-non-numeric",
    "fit-unsorted-times", "fit-xi-err-1e-300", "fit-xi-err-1e-320",
    "fit-jx-err-1e-300", "fit-repeated-times", "orientation-empty",
    "orientation-short", "orientation-long", "orientation-non-numeric"]

# the cause each of these cases names on its one stderr line: the file's
# times, not a grid inside the forward model
_MALFORMED_CAUSES = {
    "fit-unsorted-times": "observed times t must strictly increase",
    "fit-repeated-times": "observed times t must strictly increase",
}

# Runs each case's argv through cli.main in this one interpreter, as a fresh
# `python -m eprsim.cli` would: each under its own alarm, its own copy of
# the start-up warning filters (catch_warnings also forgets which warnings
# an earlier case showed) and its own stderr; an escaping exception prints
# its traceback and counts as exit code 1, as it would at the top level.
_MATRIX_CHILD = """
import contextlib, io, json, signal, sys, traceback, warnings
from eprsim.cli import main

class Hang(Exception):
    pass

def hang(signum, frame):
    raise Hang

signal.signal(signal.SIGALRM, hang)
rows = {}
for case, argv in json.loads(sys.stdin.read()):
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), \\
            contextlib.redirect_stdout(io.StringIO()):
        signal.alarm(60)
        try:
            code = main(argv)
        except Hang:
            code = "did not finish within 60 s"
        except Exception:
            traceback.print_exc()
            code = 1
        finally:
            signal.alarm(0)
    rows[case] = {"code": code, "stderr": err.getvalue()}
print(json.dumps(rows))
"""


def _input_argv(command, text, where):
    """argv of ``command`` on ``text``: orientation takes it as its one
    argument, calibrate and fit as a file written under ``where``."""
    if command == "orientation":
        return [command, text]
    where.mkdir(parents=True)
    (where / "input.csv").write_text(text)
    return [command, str(where / "input.csv")]


def _matrix_arg(arg, where):
    """An exit-code matrix argv element as passed, resolved under the case's
    folder ``where``: a dict is a --params file of the fig2a defaults with
    those values, unchecked (so an unusable value reaches the CLI), a
    ``_Text`` a file of that text (the two under different names) and
    ``_DIR`` that folder."""
    if not isinstance(arg, (dict, _Text)) and arg is not _DIR:
        return arg
    where.mkdir(parents=True, exist_ok=True)
    if arg is _DIR:
        return str(where)
    path = where / ("params" if isinstance(arg, dict) else "input")
    if isinstance(arg, dict):
        arg = json.dumps({**json.loads(scenario_params("fig2a").to_json()),
                          **arg}, indent=2, sort_keys=True)
    path.write_text(arg)
    return str(path)


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    """Exit code and stderr of every exit-code matrix case, keyed
    "<kind>:<id>", and of the extreme-horizon case, from one child
    interpreter."""
    base = tmp_path_factory.mktemp("matrix")
    cases = []
    for (argv, _), case in zip(_BAD_INPUT, _BAD_INPUT_IDS):
        where = base / "argv" / case
        argv = [_matrix_arg(a, where) for a in argv]
        if "--out" not in argv:
            argv += ["--out", str(where)]
        cases.append((f"argv:{case}", argv))
    for (command, rows), case in zip(_BAD_FILE, _BAD_FILE_IDS):
        argv = _input_argv(command, rows, base / "file" / case)
        extra = ["--free", "d"] if command == "fit" else []
        cases.append((f"file:{case}", [*argv, *extra, "--out",
                                       str(base / "file" / case / "out")]))
    for (command, text), case in zip(_MALFORMED, _MALFORMED_IDS):
        argv = _input_argv(command, text, base / "malformed" / case)
        cases.append((f"malformed:{case}", [
            *argv, "--out", str(base / "malformed" / case / "out")]))
    cases.append(("extreme-horizon", ["populations", "--grid",
                                      "0,1e300,1e299", "--out", str(base)]))
    proc = subprocess.run([sys.executable, "-c", _MATRIX_CHILD],
                          input=json.dumps(cases), env=_fresh_env(),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    rows["extreme-horizon"]["csv"] = str(base / "populations.csv")
    return rows


@pytest.mark.parametrize("argv, code", _BAD_INPUT, ids=_BAD_INPUT_IDS)
def test_bad_input_exit_code(argv, code, matrix, request):
    row = matrix[f"argv:{request.node.callspec.id}"]
    assert row["code"] == code, row["stderr"]
    assert "Traceback" not in row["stderr"]
    assert "Warning" not in row["stderr"]


@pytest.mark.parametrize("case, cause", _BAD_INPUT_CAUSES.items(),
                         ids=list(_BAD_INPUT_CAUSES))
def test_bad_input_names_its_cause(case, cause, matrix):
    # refused where the rates or options enter, before any overflow
    # warning or a message about something else
    stderr = matrix[f"argv:{case}"]["stderr"]
    assert cause in stderr
    assert stderr.count("\n") == 1, stderr


@pytest.mark.parametrize("case, cause", _MALFORMED_CAUSES.items(),
                         ids=list(_MALFORMED_CAUSES))
def test_malformed_input_names_its_cause(case, cause, matrix):
    stderr = matrix[f"malformed:{case}"]["stderr"]
    assert cause in stderr
    assert stderr.count("\n") == 1, stderr


@pytest.mark.parametrize("command, rows", _BAD_FILE, ids=_BAD_FILE_IDS)
def test_bad_input_file_exit_code(command, rows, matrix, request):
    # each used to exit 0 with a meaningless result, or 3 or 4 with a
    # message about something else, or after overflow warnings
    row = matrix[f"file:{request.node.callspec.id}"]
    assert row["code"] == 2, row["stderr"]
    assert "finite" in row["stderr"]  # its own message, not a solver's
    assert row["stderr"].count("\n") == 1, row["stderr"]
    assert "Traceback" not in row["stderr"]
    assert "Warning" not in row["stderr"]


@pytest.mark.parametrize("command, text", _MALFORMED, ids=_MALFORMED_IDS)
def test_malformed_input_exit_code(command, text, matrix, request):
    # calibrate and fit read a file; orientation reads its one argument
    row = matrix[f"malformed:{request.node.callspec.id}"]
    assert row["code"] == 2, row["stderr"]
    assert "Traceback" not in row["stderr"]
    assert "Warning" not in row["stderr"]


_IMPORT_PROBE = """
import json, sys
def loaded(*names):
    return sorted(m for m in sys.modules
                  if m in names or m.split(".")[0] in names)
import eprsim
# the package alone: its exports load on first access
package_alone = loaded("eprsim", "numpy")
import numpy
# NumPy 1 imports numpy.polynomial itself; only NumPy 2 loads it lazily
numpy_loads_polynomial = "numpy.polynomial" in sys.modules
watched = ["scipy", "eprsim.lindblad_oracle"]
if not numpy_loads_polynomial:
    watched.append("numpy.polynomial")
import eprsim.cli
at_import = loaded(*watched)
parsers_at_import = eprsim.cli._build_parser.cache_info().currsize
eprsim_at_import = loaded("eprsim")
codes, eprsim_after = [], []
for argv in json.loads(sys.argv[1]):
    if argv == ["forward_model"]:
        import numpy as np
        from eprsim.estimation import forward_model
        from eprsim.multilevel_rates import PopulationState
        from eprsim.scenarios import scenario_params
        params = scenario_params("fig2a").replace(Gamma_pump=0.1)
        pop0 = PopulationState(n44=0.99, n43=0.01, nh=0.0)
        for pump in (False, True):
            forward_model(params, pop0, [0.0, 10.0, 20.0], pump=pump)
            forward_model(params, pop0, [0.0, 10.0, 20.0], pump=pump,
                          directions=np.eye(5))
        codes.append(0)
    elif argv == ["validate_against_oracle"]:
        from eprsim.gaussian_dynamics import NoiseChannels
        from eprsim.lindblad_oracle import validate_against_oracle
        from eprsim.scenarios import scenario_params
        p = scenario_params("fig2a")
        for deph in (0.0, 0.193):
            validate_against_oracle(p, 0.1 / (p.d * p.Gamma),
                                    NoiseChannels(dephasing=deph))
        codes.append(0)
    else:
        codes.append(eprsim.cli.main(argv))
    eprsim_after.append(loaded("eprsim"))
print(json.dumps({"package_alone": package_alone, "at_import": at_import,
                  "eprsim_at_import": eprsim_at_import,
                  "eprsim_after": eprsim_after,
                  "parsers_at_import": parsers_at_import, "codes": codes,
                  "parser_builds": eprsim.cli._build_parser.cache_info().misses,
                  "after": loaded("scipy"),
                  "numpy_loads_polynomial": numpy_loads_polynomial,
                  "polynomial_after": loaded("numpy.polynomial")}))
"""


def _import_probe(*argvs):
    """Run each argv through ``main`` (``["forward_model"]``: forward model
    calls, with the pump off and on, and their Jacobians over every fittable
    parameter; ``["validate_against_oracle"]``: criterion 2's oracle check
    at fig2a, without and with dephasing) in one fresh interpreter; returns
    the probe's report, with the ``eprsim`` modules loaded after importing
    the CLI and after each argv, after checking that ``import eprsim``
    alone loads no submodule and no numpy, and that importing the CLI loads
    no scipy, adds no numpy.polynomial to what ``import numpy`` loads, and
    builds no parser."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE,
                           json.dumps(argvs)],
                          env=_fresh_env(), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe["package_alone"] == ["eprsim"]
    assert probe["at_import"] == []
    assert probe["parsers_at_import"] == 0
    return probe


def test_cli_import_defers_scipy(tmp_path):
    # structural, not timed: scipy loads on the first call that needs it,
    # and the population propagator is numpy only
    probe = _import_probe(["populations", "--out", str(tmp_path)])
    assert probe["codes"] == [0]
    assert probe["after"] == []


def test_forward_model_loads_no_scipy():
    # the fit's unit of work: populations plus moments and their exact
    # derivatives (the block exponential included), numpy only
    assert _import_probe(["forward_model"])["after"] == []


def test_cli_loads_no_numpy_polynomial(tmp_path):
    # the moment engine's Gauss-Legendre rule is written out, so neither
    # the import (every probe checks it) nor a forward model or scenario
    # run loads numpy.polynomial
    probe = _import_probe(["forward_model"],
                          ["scenario", "fig2c", "--out", str(tmp_path)])
    assert probe["codes"] == [0, 0]
    if probe["numpy_loads_polynomial"]:
        pytest.skip("this NumPy imports numpy.polynomial itself")
    assert probe["polynomial_after"] == []


def _probe_inputs(tmp_path):
    """{"obs", "start", "points"}: paths of a 7-point fig2a series to fit,
    a start moved off its Gamma_tilde, and projection-noise points."""
    truth = scenario_params("fig2a")
    grid = np.linspace(0.0, 30.0, 7)
    xi, jx, _, _ = forward_model(
        truth, PopulationState(n44=0.99, n43=0.01, nh=0.0), grid)
    obs = tmp_path / "observed.csv"
    obs.write_text("t,xi,xi_err,jx_norm,jx_err\n" + "\n".join(
        f"{t},{x},0.01,{j},0.005" for t, x, j in zip(grid, xi, jx)))
    start = tmp_path / "start.json"
    start.write_text(truth.replace(Gamma_tilde=0.12).to_json())
    points = tmp_path / "points.csv"
    points.write_text("theta,xi0\n0.1,1.02\n0.2,1.09\n0.3,1.2\n0.4,1.37\n")
    return {"obs": obs, "start": start, "points": points}


def test_fit_loads_no_scipy(tmp_path):
    # the fit's solver is numpy only, like its forward model
    files = _probe_inputs(tmp_path)
    probe = _import_probe(["fit", str(files["obs"]), "--params",
                           str(files["start"]),
                           "--free", "Gamma_tilde", "--out",
                           str(tmp_path / "out")])
    assert probe["codes"] == [0]
    assert probe["after"] == []


def test_one_parser_per_process(tmp_path):
    # the first main() builds the parser, later calls reuse it, a usage
    # error included
    probe = _import_probe(["populations", "--out", str(tmp_path / "p")],
                          ["scenario", "fig2a", "--out", str(tmp_path / "s")],
                          ["populations", "--bogus"])
    assert probe["codes"] == [0, 0, 2]
    assert probe["parser_builds"] == 1
    assert probe["after"] == []


@pytest.mark.parametrize("argv", [
    ["scenario", "fig2d", "--trials", "600"],
    ["conditional", "--trials", "600"],
    ["reconstruct", "--trials", "600"],
], ids=["fig2d", "conditional", "reconstruct"])
def test_record_commands_load_no_scipy(argv, tmp_path):
    # the record sampler, its seeding included, is numpy only; 600 trials
    # span two of the sampler's trial blocks
    probe = _import_probe([*argv, "--out", str(tmp_path)])
    assert probe["codes"] == [0]
    assert probe["after"] == []


def test_runtime_loads_no_scipy(tmp_path):
    # scipy is a test-only dependency: every subcommand, every scenario and
    # the Lindblad oracle run in one interpreter without loading it
    files = _probe_inputs(tmp_path)
    obs, start, points = files["obs"], files["start"], files["points"]
    argvs = [["simulate"], ["populations", "--pump"],
             ["reconstruct", "--trials", "600"],
             ["conditional", "--trials", "600"],
             ["calibrate", str(points)],
             ["fit", str(obs), "--params", str(start), "--free",
              "Gamma_tilde"],
             ["orientation", "0,0,0,0,0,0,0,0.008,0.992"],
             ["scenario", "fig2a"], ["scenario", "fig2b"],
             ["scenario", "fig2c"], ["scenario", "fig2d", "--trials", "600"]]
    probe = _import_probe(*[[*argv, "--out", str(tmp_path / str(i))]
                            for i, argv in enumerate(argvs)],
                          ["validate_against_oracle"])
    assert probe["codes"] == [0] * (len(argvs) + 1)
    assert probe["after"] == []


# the eprsim modules each command loads: importing the CLI loads what the
# parser needs, and each handler (and each scenario) the engines it runs
_CLI_MODULES = ["eprsim", "eprsim.cli", "eprsim.errors",
                "eprsim.multilevel_rates", "eprsim.scenarios",
                "eprsim.spin_model"]
_MOMENTS = ["eprsim.gaussian_dynamics"]
_FIT = ["eprsim.estimation", *_MOMENTS]
_READOUT = ["eprsim.light_readout", "eprsim.records"]
_COMMAND_ENGINES = {
    "simulate": (["simulate"], _FIT),
    "populations": (["populations"], []),
    "reconstruct": (["reconstruct", "--trials", "2"], _READOUT),
    "conditional": (["conditional", "--trials", "2"], _READOUT),
    "calibrate": (["calibrate", "{points}"], _FIT),
    "fit": (["fit", "{obs}", "--params", "{start}", "--free",
             "Gamma_tilde"], _FIT),
    "orientation": (["orientation", "0,0,0,0,0,0,0,0.008,0.992"], _FIT),
    **{name: (["scenario", name], _FIT) for name in ("fig2a", "fig2b",
                                                      "fig2c")},
    "fig2d": (["scenario", "fig2d", "--trials", "2"], _READOUT),
    "validate_against_oracle": (["validate_against_oracle"],
                                [*_MOMENTS, "eprsim.lindblad_oracle"]),
}


def test_command_table_covers_every_subcommand_and_scenario():
    action, = (a for a in _build_parser()._actions
               if isinstance(a.choices, dict))
    assert {argv[0] for argv, _ in _COMMAND_ENGINES.values()} == {
        *action.choices, "validate_against_oracle"}
    assert {argv[1] for argv, _ in _COMMAND_ENGINES.values()
            if argv[0] == "scenario"} == set(scenarios.SCENARIO_NAMES)


@pytest.mark.parametrize("command", _COMMAND_ENGINES)
def test_command_loads_only_its_engines(command, tmp_path):
    # a subcommand never compiles or runs another's engine; only the
    # Lindblad oracle's check loads the oracle
    argv, engines = _COMMAND_ENGINES[command]
    files = _probe_inputs(tmp_path)
    argv = [a.format(**files) for a in argv]
    if argv != ["validate_against_oracle"]:
        argv += ["--out", str(tmp_path / "out")]
    probe = _import_probe(argv)
    assert probe["codes"] == [0]
    assert probe["eprsim_at_import"] == _CLI_MODULES
    assert probe["eprsim_after"] == [sorted({*_CLI_MODULES, *engines})]


def test_extreme_horizon_reaches_steady_state_without_warnings(matrix):
    # the populations are closed forms, exact at any finite horizon: past
    # t = 0 every point of 0-1e300 ms is the steady state, reached without
    # overflow warnings
    row = matrix["extreme-horizon"]
    assert row["code"] == 0, row["stderr"]
    assert "Warning" not in row["stderr"]
    lines = Path(row["csv"]).read_text().splitlines()
    n2, p2 = np.array([line.split(",")[-2:] for line in lines[5:]],
                      dtype=float).T
    assert len(n2) == 10
    n2_inf, d_inf = steady_state(transition_rates(scenario_params("fig2a")))
    assert np.abs(n2 - n2_inf).max() <= 1e-15
    assert np.abs(p2 * n2 - d_inf).max() <= 1e-15


def _no_draws(*args, **kwargs):
    raise AssertionError("records drawn")


@pytest.mark.parametrize("argv", [
    ["--trials", "2", "--gm-step", "2e-6"],  # 700 001 points > the cap
    # 9334 points x 19 950 feed bins over 100 trials
    ["--trials", "100", "--handover-ms", "1995", "--dt-ms", "0.1",
     "--gm-step", "0.00015"],
    # 9930 points x 19 950 feed bins over two trials
    ["--trials", "2", "--handover-ms", "1995", "--gm-step", "0.000141"],
], ids=["points", "scan-work", "scan-envelopes"])
def test_conditional_scan_checked_before_sampling(argv, monkeypatch, tmp_path):
    # an over-long gamma_m scan is refused before any record is drawn
    monkeypatch.setattr("eprsim.records._normals", _no_draws)
    assert main(["conditional", *argv, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("trials", [1, 0, -3])
def test_fig2d_trial_minimum_checked_first(trials, monkeypatch):
    # a variance needs two records: refused before the scan or any draw
    monkeypatch.setattr(records, "hybrid_readout", _no_draws)
    monkeypatch.setattr(records, "discrete_calibration", _no_draws)
    with pytest.raises(ValueError, match="fig2d needs at least 2 trials"):
        scenarios.run_scenario("fig2d", trials=trials)


@pytest.mark.parametrize("eta", [0.0, 1e-300])
def test_fig2d_information_checked_before_sampling(eta, monkeypatch):
    # a calibration without atomic information is refused before the scan
    # or any draw
    monkeypatch.setattr(records, "hybrid_readout", _no_draws)
    with pytest.raises(NoInformationError, match="no atomic information"):
        scenarios.run_scenario("fig2d", overrides={"eta": eta}, trials=200)


def test_fig2d_honours_eta():
    # the readout's detection efficiency is the parameter set's eta, and
    # the calibration slope eta kappa^2 is linear in it
    default = scenarios.run_scenario("fig2d", trials=2)
    half = scenarios.run_scenario("fig2d", trials=2,
                                  overrides={"eta": 0.5})
    assert default.params.eta == 0.84 and half.params.eta == 0.5
    assert half.report["calibration_slope"] == pytest.approx(
        default.report["calibration_slope"] * 0.5 / 0.84, rel=1e-12)


def test_readout_defaults_stated_once():
    # the CLI's readout options default to fig2d's fixture values
    parser = _build_parser()
    for argv in (["reconstruct"], ["conditional"]):
        args = parser.parse_args(argv)
        for dest, value in scenarios.READOUT_DEFAULTS.items():
            if dest in args:
                assert getattr(args, dest) == value, (argv, dest)


@pytest.mark.parametrize("argv", [
    ["simulate"], ["populations"], ["fit", "observed.csv"]],
    ids=["simulate", "populations", "fit"])
def test_time_defaults_stated_once(argv):
    # --grid and --pops default to the scenarios' time grid and initial
    # populations, bit for bit
    args = _build_parser().parse_args(argv)
    assert cli._initial_pop(args) == scenarios.INITIAL_POP
    if "grid" in args:
        assert _parse_grid(args.grid).tobytes() == inclusive_range(
            *scenarios.TIME_GRID).tobytes()


def test_conditional_fine_scan_over_many_trials(tmp_path):
    # the exact scan does not grow with the trial count: 1401 points over
    # 2 x 10^4 trials, once refused as too many trial-points, is accepted
    argv = ["conditional", "--trials", "20000", "--gm-step", "1e-3",
            "--format", "json", "--out", str(tmp_path)]
    assert main(argv) == 0
    report = json.loads((tmp_path / "conditional.json").read_text())["report"]
    assert report["gamma_m_star"] == pytest.approx(0.58, abs=0.0105)


@pytest.mark.parametrize("argv", [
    ["conditional", "--trials", "2", "--dt-ms", "1e-300"],
    ["reconstruct", "--trials", "2", "--dt-ms", "1e-300"],
], ids=["conditional", "reconstruct"])
def test_oversized_bin_count_message_short(argv, capsys, tmp_path):
    # 2e301 bins: the count is reported in float form, not as 300 digits
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "exceeds" in err
    assert len(err) < 200, err


@pytest.mark.parametrize("argv", [
    ["scenario", "fig2d", "--trials", "50", "--seed", "3145728"],
    ["reconstruct", "--trials", "50", "--seed", "3145728"],
], ids=["fig2d", "reconstruct"])
def test_branches_share_one_batch(argv, monkeypatch, tmp_path):
    # both initial-variance branches come from one draw per seed
    seeds = []

    def counted(block_seeds, *args):
        seeds.extend(block_seeds.tolist())
        return draw(block_seeds, *args)
    draw = records._normals
    monkeypatch.setattr("eprsim.records._normals", counted)
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert sorted(seeds) == sorted(int(argv[-1]) ^ i for i in range(50))


_BLAS_PROBE = """
import sys
from eprsim.cli import main
for argv in (["scenario", "fig2d", "--trials", "2000", "--seed", "7"],
             ["conditional", "--trials", "2000", "--seed", "3145728"]):
    assert main([*argv, "--out", sys.argv[1]]) == 0
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="one CPU: OpenBLAS runs one thread by default "
                           "too, so the comparison would be vacuous")
def test_artifacts_same_for_any_blas_thread_count(tmp_path):
    # fresh interpreters, since OpenBLAS reads its thread count at load
    written = []
    for threads in (None, "1"):
        env = _fresh_env(drop=("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                               "OMP_NUM_THREADS"))
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / str(threads)
        proc = subprocess.run([sys.executable, "-c", _BLAS_PROBE, str(out)],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        written.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert sorted(written[0]) == ["conditional.csv", "fig2d_report.csv",
                                  "hybrid_summary.csv"]
    assert written[0] == written[1]


def test_fig2d_memory_one_block(tmp_path):
    # no record buffer: the traced peak is about one block of mode-space
    # draws (records.MODE_BLOCK trials) and does not grow with the trial
    # count
    main(["scenario", "fig2d", "--trials", "20", "--out", str(tmp_path)])
    peaks = []
    for trials in (10_000, 40_000):
        tracemalloc.start()
        try:
            assert main(["scenario", "fig2d", "--trials", str(trials),
                         "--out", str(tmp_path)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 8e6
    assert peaks[1] - peaks[0] < 1e6


_SPECIAL = st.sampled_from(["nan", "inf", "-inf", "0", "-0.5", "-1e300",
                            "1e300", "1e-300"])


def _value(lo, hi):
    return st.one_of(_SPECIAL, st.floats(lo, hi).map(repr))


_FLAGS = {  # flag: finite range small enough for a fast run
    "--gamma-s": (0.0, 1.0),
    "--gamma-extra": (0.0, 1.0),
    "--probe-ms": (0.0, 10.0),
    "--handover-ms": (0.0, 30.0),
    "--dt-ms": (0.01, 1.0),
    "--gm-min": (0.0, 2.0),
    "--gm-max": (0.0, 2.0),
    "--gm-step": (1e-3, 1.0),
}
_RECONSTRUCT_FLAGS = ("--gamma-s", "--gamma-extra", "--probe-ms", "--dt-ms")


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["reconstruct", "conditional"]),
       values=st.fixed_dictionaries(
           {}, optional={f: _value(*r) for f, r in _FLAGS.items()}),
       trials=st.integers(-1, 20))
def test_record_commands_fuzz(tmp_path_factory, command, values, trials):
    # every numeric input ends in a documented exit code, never a traceback
    argv = [command, "--trials", str(trials), "--seed", "5",
            "--out", str(tmp_path_factory.getbasetemp() / "fuzz")]
    argv += [f"{flag}={v}" for flag, v in values.items()
             if command == "conditional" or flag in _RECONSTRUCT_FLAGS]
    assert main(argv) in (0, 2, 3, 4)
