"""Self-test of the benchmark: traced counts repeat exactly across runs.

    python3 -m pytest -q perfbench/selftest.py      # about two and a half minutes

Each workload is run twice with ``--trace 1`` and the same seed; every
per-layer count (solver nfev/njev, calls, trial-bins, bytes) must be equal,
every per-layer metric of BENCHMARK.json must be reported, and no check
may fail unexpectedly.  The file name keeps it out of the repository's
default test collection.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# metrics that count work rather than time it
COUNTED = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]


def _run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat(workload):
    a, b = _run(workload, 11, 1), _run(workload, 11, 1)
    for res in (a, b):
        assert res["correct"]
        assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in COUNTED:
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"], \
            name


def test_untraced_reports_end_to_end_metrics():
    res = _run("trajectory", 3, 0)
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_self_time_subtracts_children():
    from tracer import Tracer
    tr = Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        traced_inner()

    traced_inner = tr._wrap("inner", inner, None)
    tr._wrap("outer", outer, None)()
    m = tr.layer_metrics()
    assert m["outer.calls"] == m["inner.calls"] == 1
    assert 0.009 < m["outer.self_s"] < 0.018
    assert m["inner.self_s"] >= 0.02
    assert tr.calls_under("inner", "outer") == 1


def test_speed_scaling_uses_samples_near_the_item():
    import speed
    sampler = speed.Sampler()
    nominal = speed.NOMINAL_S
    # host at full speed first, at half speed from t = 10
    sampler.samples = [(0.0, nominal), (10.0, 2 * nominal),
                       (10.5, 2 * nominal), (12.0, 2 * nominal)]
    assert sampler.scale(10.2, 11.5, 1.0) == 0.5
    # an item with no sample inside it reads the last one before it
    assert sampler.scale(0.1, 0.2, 1.0) == 1.0
    assert sampler.scale(10.6, 10.7, 1.0) == 0.5


def test_reconstruct_values_checked_against_fixture(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    ref = workloads.load_reference()["hybrid"]["reconstruct"]
    item = next(i for i in workloads.hybrid(0, tmp_path).items
                if i.name == "reconstruct")
    assert item.check(dict(ref), ref) == []
    assert item.known(dict(ref))  # the bias against the truth stays visible
    for key, value in (("xi_css_mc", float("nan")),
                       ("xi_steady_mc", ref["xi_steady_mc"] + 0.1)):
        msgs = item.check({**ref, key: value}, ref)
        assert len(msgs) == 1 and msgs[0].startswith(key)
