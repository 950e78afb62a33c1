"""Regenerate ``fixtures/reference.json`` from the eprsim in ``src/``.

    python3 perfbench/make_fixtures.py

The committed fixtures were captured once from commit 0581321 (eprsim 0.1.0,
before any optimisation); regenerate them only when a change of the physics
is intended and written down.  They hold the fig2a-fig2c witness series,
the ``simulate``/``populations`` series, the oracle difference, the fig2d,
``conditional`` and ``reconstruct`` reports at workload seed 0, and the
truth series the fit workload builds its observed data on.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from eprsim import __version__  # noqa: E402
from eprsim.estimation import forward_model  # noqa: E402
from eprsim.multilevel_rates import PopulationState  # noqa: E402
from eprsim.scenarios import scenario_params  # noqa: E402

FIXTURE_SEED = 0
FIT_GRID = np.linspace(0.0, 40.0, 41)  # ms; the noisy fit uses every point


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _item_values(factory, work: Path) -> dict:
    wl = factory(FIXTURE_SEED, work)
    values = {}
    for item in wl.items:
        out = work / item.name
        out.mkdir(parents=True, exist_ok=True)
        if item.run(out) != 0:
            raise SystemExit(f"{item.name} failed")
        values[item.name] = item.extract(out)
    return values


def main():
    truth = scenario_params("fig2a")
    xi, jx, _, _ = forward_model(truth, PopulationState(n44=0.99, n43=0.01,
                                                        nh=0.0), FIT_GRID)
    ref = {
        "captured_from": {"eprsim": __version__, "commit": _commit(),
                          "seed": FIXTURE_SEED},
        "fit": {"truth_params": json.loads(truth.to_json()),
                "truth": {"time_ms": FIT_GRID.tolist(), "xi": xi.tolist(),
                          "jx_norm": jx.tolist()}},
    }
    work = ROOT / ".perfbench" / "fixtures"
    try:
        ref["trajectory"] = _item_values(workloads.trajectory, work)
        ref["hybrid"] = _item_values(workloads.hybrid, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.FIXTURES.parent.mkdir(exist_ok=True)
    workloads.FIXTURES.write_text(json.dumps(ref, indent=1, sort_keys=True)
                                  + "\n")
    print(f"wrote {workloads.FIXTURES}")


if __name__ == "__main__":
    main()
