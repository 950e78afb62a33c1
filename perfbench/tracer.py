"""In-memory span tracer that wraps eprsim's layer functions from outside.

Each layer function is replaced, for the duration of a traced pass, at every
module attribute its callers look it up through (for example
``eprsim.scenarios.forward_model`` as well as
``eprsim.estimation.forward_model``).  A span records (name, start, end,
parent span, item id); counters are read off arguments and results at the
same boundary.  Nothing in ``src/`` is edited.

Self time of a span is its duration minus the time its direct child spans
cover; calls are synchronous and single-threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


# Counter functions get (counts, span name, result, args, kwargs) and add to
# ``counts`` under the span name.
def _points(counts, name, res, a, k):
    counts[f"{name}.points"] += len(res.times)


def _solve_ivp(counts, name, res, a, k):
    counts[f"{name}.nfev"] += res.nfev
    counts[f"{name}.failed"] += 0 if res.success else 1


def _least_squares(counts, name, res, a, k):
    counts[f"{name}.nfev"] += res.nfev
    counts[f"{name}.njev"] += res.njev or 0
    counts[f"{name}.failed"] += 0 if res.success else 1


def _simulate_batch(counts, name, res, a, k):
    trials, nbins = res.samples.shape[:2]
    counts[f"{name}.trial_bins"] += trials * nbins
    # computed, not measured: the (trials, nbins, 2, 4) float64 noise tensor
    counts[f"{name}.noise_bytes_computed"] += trials * nbins * 2 * 4 * 8


def _optimize_gain(counts, name, res, a, k):
    grid = k["gamma_m_grid"] if "gamma_m_grid" in k else a[2]
    counts[f"{name}.grid_points"] += len(np.atleast_1d(grid))


# (span name, module, attribute path, counter function or None)
LAYERS = [
    ("cli.main", "eprsim.cli", "main", None),
    ("scenarios.run_scenario", "eprsim.scenarios", "run_scenario", None),
    ("estimation.fit_parameters", "eprsim.estimation", "fit_parameters",
     None),
    ("estimation.forward_model", "eprsim.estimation", "forward_model", None),
    ("estimation.least_squares", "eprsim.estimation", "least_squares",
     _least_squares),
    ("gaussian_dynamics.propagate_moments", "eprsim.gaussian_dynamics",
     "propagate_moments", _points),
    ("gaussian_dynamics.solve_ivp", "eprsim.gaussian_dynamics", "solve_ivp",
     _solve_ivp),
    ("gaussian_dynamics.trajectory_to_csv", "eprsim.gaussian_dynamics",
     "trajectory_to_csv", None),
    ("spin_model.GaussianState.validate", "eprsim.spin_model",
     "GaussianState.validate", None),
    ("multilevel_rates.propagate_populations", "eprsim.multilevel_rates",
     "propagate_populations", _points),
    ("multilevel_rates.multilevel_xi", "eprsim.multilevel_rates",
     "multilevel_xi", None),
    ("records.simulate_batch", "eprsim.records", "simulate_batch",
     _simulate_batch),
    ("records.optimize_gain", "eprsim.records", "optimize_gain",
     _optimize_gain),
    ("records.integrate_mode_batch", "eprsim.records",
     "integrate_mode_batch", None),
    ("records.discrete_calibration", "eprsim.records",
     "discrete_calibration", None),
    ("lindblad_oracle.integrate_exact", "eprsim.lindblad_oracle",
     "integrate_exact", None),
    ("lindblad_oracle.exact_lindblad_step", "eprsim.lindblad_oracle",
     "exact_lindblad_step", None),
    ("light_readout.reconstruct_atomic_variance", "eprsim.light_readout",
     "reconstruct_atomic_variance", None),
]


class Tracer:
    """Spans and counters of one traced pass; install() ... uninstall()."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, item]
        self.counts = defaultdict(float)
        self.item = None
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else -1, self.item])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if counter is not None:
                counter(counts, name, result, args, kwargs)
            return result

        return traced

    def install(self):
        for name, modname, path, counter in LAYERS:
            mod = importlib.import_module(modname)
            owner_path, _, attr = path.rpartition(".")
            if owner_path:  # a method: patch the class
                owner = getattr(mod, owner_path)
                self._patch(owner, attr,
                            self._wrap(name, getattr(owner, attr), counter))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig, counter)
            if not getattr(orig, "__module__", "").startswith("eprsim"):
                # third-party solver: only the binding this layer uses
                self._patch(mod, attr, wrapped)
                continue
            for mname, m in list(sys.modules.items()):
                if mname == "eprsim" or mname.startswith("eprsim."):
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._patch(m, key, wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [t1 - t0 - c for (_, t0, t1, _, _), c in zip(self.spans, child)]

    def calls_under(self, name, ancestor) -> int:
        """Spans called ``name`` that run inside a span called ``ancestor``."""
        n = 0
        for span in self.spans:
            if span[0] != name:
                continue
            p = span[3]
            while p >= 0 and self.spans[p][0] != ancestor:
                p = self.spans[p][3]
            n += p >= 0
        return n

    def layer_metrics(self) -> dict:
        """calls, self_s and counters per layer name."""
        out = defaultdict(float)
        for (name, *_), st in zip(self.spans, self.self_times()):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += st
        out.update(self.counts)
        return out

    def write(self, path: Path):
        """Spans as JSON lines: name, start, end (s), parent index, item."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
