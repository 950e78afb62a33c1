"""eprsim benchmark: end-to-end timings and correctness of three workloads,
plus per-layer timings and counters from a separate traced run.

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports ``eprsim`` from ``src/``.  The
workloads (see ``workloads.py``) are

- ``trajectory``: fig2a-fig2c on the default grid, ``simulate``,
  ``populations`` and one Lindblad-oracle comparison (moment engine, rate
  model, CSV writing; the record sampler never runs);
- ``hybrid``: fig2d at 10 k trials, ``conditional`` and ``reconstruct``
  (record sampler, mode integration, gain scan; no ODE runs);
- ``fit``: the ``fit`` CLI on a noise-free and a 5 % noisy series built on
  the reference truth series (many short moment-engine calls).

It is a closed loop with one client: each item starts when the previous one
has returned.  On a shared host the speed can swing by 60-100 % for tens
of seconds at a time, so every end-to-end timing is
scaled to a fixed reference speed by a host-speed kernel timed every
0.05 s during the run (see ``speed.py``); the unscaled wall times are
printed too.  With ``--trace 0`` it runs passes over the workload's item
list until ``--seconds`` are used (at least one pass) and reports the
end-to-end metrics; set-up is timed in five fresh interpreters.  With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics.  Every item's outputs are checked against
``fixtures/reference.json`` and its artifacts must hash the same on every
pass; a run of one pass runs its quickest CLI item a second time, untimed,
to compare them.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP before numpy is imported, here and in child processes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"  # scratch artifacts and span files, git-ignored
SETUP_REPEATS = 5  # set-up probes per run; the median is reported


def _import_eprsim():
    """Import eprsim.cli from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    try:
        from eprsim import cli
    except ImportError as e:
        sys.exit(f"perfbench: cannot import eprsim from {src}: {e}")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: eprsim was imported from {cli.__file__}, "
                 f"not from {src}")


def _digest(out: Path) -> tuple:
    """(sha256 over artifact names and bytes, total bytes) of one item."""
    h, total = hashlib.sha256(), 0
    for f in sorted(out.iterdir()):
        data = f.read_bytes()
        h.update(f.name.encode() + b"\0" + data)
        total += len(data)
    return h.hexdigest(), total


class Runner:
    """Runs passes over a workload's items and keeps every outcome."""

    def __init__(self, workload, reference, work: Path):
        self.sampler = None  # a speed.Sampler while timed passes run
        self.workload = workload
        self.reference = reference.get(workload.name, {})
        self.work = work
        self.hashes = {}  # item -> artifact digest of the first pass
        self.attempted = 0
        self.failed = 0
        self.unexpected = Counter()  # messages that make the run incorrect
        self.known = {}  # item -> known-defect messages seen
        self.values = {}  # item -> extracted values of the last pass
        self.bytes_written = 0

    def run_pass(self, tracer=None) -> list:
        """One pass; returns the (start, end, net) of each item."""
        self.bytes_written = 0
        return [self.run_item(item, tracer) for item in self.workload.items]

    def run_item(self, item, tracer=None) -> tuple:
        """Run and judge one item.  Returns its start and end
        (perf_counter) and its wall time less the sampler's share."""
        out = self.work / item.name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        if tracer is not None:
            tracer.item = item.name
        stolen = self.sampler.stolen if self.sampler else 0.0
        t0 = time.perf_counter()
        try:
            rc = item.run(out)
        except Exception as e:  # a crash is a failed item, not a stop
            rc, crash = -1, f"{type(e).__name__}: {e}"
        else:
            crash = None
        t1 = time.perf_counter()
        if self.sampler:
            stolen = self.sampler.stolen - stolen
        self.attempted += 1
        self._judge(item, out, rc, crash)
        return t0, t1, t1 - t0 - stolen

    def _judge(self, item, out, rc, crash):
        msgs, known = [], []
        if crash or rc != 0:
            msgs.append(crash or f"exit code {rc}")
        else:
            try:
                vals = item.extract(out)
                self.values[item.name] = vals
                msgs += item.check(vals, self.reference.get(item.name, {}))
                known += item.known(vals) if item.known else []
            except (OSError, KeyError, ValueError, IndexError) as e:
                msgs.append(f"unreadable output: {type(e).__name__}: {e}")
            if item.cli:
                digest, size = _digest(out)
                self.bytes_written += size
                first = self.hashes.setdefault(item.name, digest)
                if digest != first:
                    msgs.append("artifacts differ from the first pass")
        if msgs or known:
            self.failed += 1
        self.unexpected.update(f"{item.name}: {m}" for m in msgs)
        if known:
            self.known.setdefault(item.name, set()).update(known)


def _item_quantiles(passes) -> tuple:
    """(p50, p90) of item times: each pass's quantiles, median over passes.

    Quantiles pooled over passes land on the boundary between two items of
    a pass (on trajectory, fig2a and simulate are items 3 and 4 of 6), where
    they are extreme order statistics; the per-pass form is not.
    """
    def q(times):
        if len(times) == 1:
            return times[0], times[0]
        qs = statistics.quantiles(times, n=10, method="inclusive")
        return qs[4], qs[8]
    p50s, p90s = zip(*(q(times) for times in passes))
    return statistics.median(p50s), statistics.median(p90s)


def _setup_probe(workload: str, seed: int) -> dict:
    """Seconds to import eprsim.cli, build the inputs and make the first
    call, in this (fresh) interpreter, and the host-speed probe after it."""
    t0 = time.perf_counter()
    _import_eprsim()
    import workloads
    work = OUT / f"probe-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[workload](seed, work)
        wl.warmup()
        setup_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    import speed
    return {"setup_s": setup_s, "probe_s": speed.probe()}


def _measure_setup(workload: str, seed: int) -> tuple:
    """Median (wall, scaled) set-up time over SETUP_REPEATS interpreters."""
    import speed
    walls, scaled = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        walls.append(probe["setup_s"])
        scaled.append(probe["setup_s"] * speed.NOMINAL_S / probe["probe_s"])
    return statistics.median(walls), statistics.median(scaled)


def _env() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS",
                                               "OPENBLAS_NUM_THREADS",
                                               "MKL_NUM_THREADS")},
    }


def _untraced(runner, seconds, seed, workload):
    import speed
    setup_wall, setup_s = _measure_setup(workload, seed)
    start = time.perf_counter()
    passes, walls = [], []  # per pass: (start, end, net) of each item
    runner.sampler = sampler = speed.Sampler()
    sampler.start()
    try:
        while True:
            t0 = time.perf_counter()
            passes.append(runner.run_pass())
            walls.append(time.perf_counter() - t0)
            # start another pass only if it is expected to end in time
            if (time.perf_counter() - start + statistics.median(walls)
                    > seconds):
                break
    finally:
        sampler.stop()
        runner.sampler = None
    if len(passes) == 1:
        # One pass leaves the determinism check nothing to compare with (fit
        # makes one pass): run the quickest CLI item again, untimed.
        _, item = min(((net, item) for (_, _, net), item in
                       zip(passes[0], runner.workload.items) if item.cli),
                      key=lambda pair: pair[0])
        runner.run_item(item)
        print(f"determinism re-run: {item.name}")
    # The first pass still pays for page faults and allocator growth (on
    # hybrid, conditional's first pass is about 15 % slower than later
    # ones): it is reported only if it is the only one.
    timed = passes[1:] or passes
    scaled = [[sampler.scale(*times) for times in p] for p in timed]
    p50, p90 = _item_quantiles(scaled)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"passes: {len(passes)}, reported: {len(timed)}, item samples: "
          f"{sum(map(len, timed))}")
    nets = [[net for _, _, net in p] for p in timed]
    wall_p50, wall_p90 = _item_quantiles(nets)
    print(f"unscaled wall times: setup_s={setup_wall:.4g} "
          f"run_s={statistics.median(map(sum, nets)):.4g} "
          f"item_p50_s={wall_p50:.4g} "
          f"item_p90_s={wall_p90:.4g}")
    kernel_ms = statistics.median(k for _, k in sampler.samples) * 1e3
    print(f"host-speed kernel: {len(sampler.samples)} samples, median "
          f"{kernel_ms:.3g} ms, nominal {speed.NOMINAL_S * 1e3:.3g} ms")
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.median(map(sum, scaled)), "s"),
        "item_p50_s": (p50, "s"),
        "item_p90_s": (p90, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_ratio": ((runner.attempted - runner.failed) / runner.attempted,
                     "ratio"),
    }


def _traced(runner, seconds, per_layer, out_path):
    from tracer import Tracer
    start = time.perf_counter()
    plain, traced, tracers = [], [], []
    while True:
        plain.append(sum(net for _, _, net in runner.run_pass()))
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(sum(net for _, _, net in runner.run_pass(tracer)))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        pair = plain[-1] + traced[-1]
        if time.perf_counter() - start + pair > seconds:
            break
    print(f"traced passes: {len(traced)}")
    last = tracers[-1]
    last.write(out_path)
    fits = last.layer_metrics().get("estimation.fit_parameters.calls", 0.0)
    inner = last.calls_under("estimation.forward_model",
                             "estimation.fit_parameters")
    computed = {
        # its base is estimation.fit_parameters.calls
        "estimation.forward_calls_per_fit": inner / fits if fits else 0.0,
        "cli.bytes_written": float(runner.bytes_written),
        "bench.trace_overhead_s": (statistics.median(traced)
                                   - statistics.median(plain)),
    }
    per_pass = [t.layer_metrics() for t in tracers]
    return {name: (computed[name] if name in computed else
                   statistics.median(m.get(name, 0.0) for m in per_pass),
                   unit)
            for name, unit in per_layer}


def _per_layer() -> list:
    """(name, unit) of every per-layer metric, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("trajectory", "hybrid", "fit"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        print(json.dumps(_setup_probe(args.workload, args.seed)))
        return 0

    _import_eprsim()
    import workloads
    reference = workloads.load_reference()
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        wl.warmup()
        runner = Runner(wl, reference, work)
        if args.trace:
            metrics = _traced(
                runner, args.seconds, _per_layer(),
                OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics = _untraced(runner, args.seconds, args.seed,
                                args.workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("env: " + json.dumps(_env(), sort_keys=True))
    for line in wl.notes(runner.values):
        print(line)
    for item, msgs in runner.known.items():
        print(f"known defect in {item}: {workloads.KNOWN_DEFECTS[item]}")
        for msg in sorted(msgs):
            print(f"  {msg}")
    for msg, times in runner.unexpected.items():
        print(f"FAILED ({times}x) {msg}")
    print(f"failed_ratio: {runner.failed}/{runner.attempted} = "
          f"{runner.failed / runner.attempted:.4g}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not runner.unexpected,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
