"""Run every workload once and print its end-to-end metrics by name and unit.

    python3 perfbench/report.py --seed 1

Each workload runs as its own ``run.py`` process for the ``run_seconds`` of
BENCHMARK.json, so each reports its own set-up time and peak memory.  The
exit code is 1 if any workload's correctness checks failed unexpectedly.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ok = True
    for wl in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", wl["name"],
             "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"{wl['name']}: exit code {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= res["correct"]
        print(f"{wl['name']}: correct={res['correct']} "
              f"failed={res['failed']}/{res['attempted']}")
        for name, m in res["metrics"].items():
            print(f"  {name:48s} {m['value']:12.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
