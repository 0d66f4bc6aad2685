"""Guards on names that tooling outside the package binds to.

The span tracer in perfbench/tracing.py replaces each ``(module, name)`` in
its WRAPPED table with a timing wrapper, so every one must stay a global that
its module looks up at call time, and it binds engine calls' arguments by
parameter name. A rename breaks traced benchmark runs and nothing else.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import shockwear
from shockwear import run_replications, simulate_paths, step_count

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def test_all_names_resolve_once():
    assert len(shockwear.__all__) == len(set(shockwear.__all__))
    for name in shockwear.__all__:
        assert getattr(shockwear, name) is not None, name


@pytest.mark.parametrize("module_name, attr", _wrapped())
def test_traced_globals_exist(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


@pytest.mark.parametrize("fn, names", [
    (run_replications, ("params", "horizon", "dt", "master_seed", "n_reps", "batch_size")),
    (simulate_paths, ("params", "horizon", "dt", "master_seed", "k")),
    (step_count, ("horizon", "dt")),
], ids=["run_replications", "simulate_paths", "step_count"])
def test_traced_engine_parameters(fn, names):
    assert tuple(inspect.signature(fn).parameters)[:len(names)] == names
