"""The names the package exports and the names the benchmark tracer binds
must resolve, so a deletion or rename fails here rather than in
``perfbench/run.py --trace 1``."""

import importlib
import pkgutil
import types
from functools import reduce
from pathlib import Path

import pytest

import eprsim

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
    mod = importlib.import_module(modname)
    assert reduce(getattr, path.split("."), mod) is not None
