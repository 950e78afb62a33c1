"""The names the package exports and the names the benchmark tracer binds
must resolve, so a deletion or rename fails here rather than in
``perfbench/run.py --trace 1``."""

import importlib
import pkgutil
import sys
import types
from collections import defaultdict
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import eprsim
from eprsim import estimation

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = sorted(f"eprsim.{m.name}" for m in pkgutil.iter_modules(
    eprsim.__path__))


def _tracer_layers():
    # executed from its source text: nothing is written next to the file
    mod = types.ModuleType("perfbench_tracer")
    mod.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), vars(mod))
    return mod.LAYERS


@pytest.mark.parametrize("modname", ["eprsim", *MODULES])
def test_all_names_resolve(modname):
    mod = importlib.import_module(modname)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{modname}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("layer", _tracer_layers(), ids=lambda l: l[0])
def test_tracer_layer_resolves(layer):
    _, modname, path, _ = layer
    if path == "solve_ivp":
        # gaussian_dynamics.solve_ivp is scipy's, loaded on access
        pytest.importorskip("scipy.integrate")
    mod = importlib.import_module(modname)
    assert reduce(getattr, path.split("."), mod) is not None


def test_solve_result_carries_the_tracer_counters():
    # the tracer reads nfev, njev and success off each solve's result
    layer, = (l for l in _tracer_layers()
              if l[0] == "estimation.least_squares")
    sol = estimation.least_squares(
        lambda x: (x - 1.0, np.eye(1)), np.array([0.0]),
        bounds=(np.array([-2.0]), np.array([2.0])))
    counts = defaultdict(float)
    layer[3](counts, layer[0], sol, (), {})
    assert sol.success and sol.njev > 0
    assert dict(counts) == {f"{layer[0]}.nfev": sol.nfev,
                            f"{layer[0]}.njev": sol.njev,
                            f"{layer[0]}.failed": 0}


def test_star_import_binds_the_defining_objects():
    # the exports load lazily: each binds the object its module defines,
    # and is then cached on the package
    namespace = {}
    exec("from eprsim import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(eprsim.__all__)
    for name, obj in namespace.items():
        assert getattr(sys.modules[obj.__module__], name) is obj, name
        assert vars(eprsim)[name] is obj, name


def test_dir_lists_the_exports():
    assert set(eprsim.__all__) <= set(dir(eprsim))
    assert "__version__" in dir(eprsim)


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        eprsim.no_such_name
    assert not hasattr(eprsim, "no_such_name")
