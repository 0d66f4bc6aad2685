"""Guards on the public surface and on names that tooling outside the
package binds to.

``__all__`` is what the README documents and what the CLI and the benchmark
use. The span tracer in perfbench/tracing.py replaces each ``(module, name)`` in
its WRAPPED table with a timing wrapper, so every one must stay a global that
its module looks up at call time, and it binds engine calls' arguments by
parameter name. A rename breaks traced benchmark runs and nothing else.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

import shockwear
from shockwear import run_replications, simulate_paths, step_count

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"

PUBLIC = {
    "DegradationParams", "ShockParams", "ModelParams", "Numerics", "NormalLaw", "GammaLaw",
    "ReliabilityCurve", "ReplicationOutcome",
    "estimate_reliability", "analytic_reliability", "sweep", "SWEEPABLE",
    "simulate_replication", "run_replications", "simulate_paths", "step_count",
    "ConfigError", "StepSizeError", "UnsupportedConfigError", "IntegrationError",
    "MAX_RATE_DT",
}


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def test_all_names_resolve_once():
    assert len(shockwear.__all__) == len(set(shockwear.__all__))
    for name in shockwear.__all__:
        assert getattr(shockwear, name) is not None, name


def test_all_is_the_public_surface():
    assert set(shockwear.__all__) == PUBLIC


def test_readme_imports_only_public_names():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"from shockwear import \(([^)]*)\)", readme)
    assert blocks, "README has no `from shockwear import (...)` block"
    names = {name.strip() for block in blocks for name in block.split(",") if name.strip()}
    assert names <= set(shockwear.__all__), names - set(shockwear.__all__)


@pytest.mark.parametrize("module_name, attr", _wrapped())
def test_traced_globals_exist(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


@pytest.mark.parametrize("attr", ["load_config", "main"])
def test_benchmark_cli_names_exist(attr):
    # perfbench/invoke.py times shockwear.cli.load_config and calls
    # shockwear.cli.main; perfbench/make_reference.py imports main. Neither is
    # in WRAPPED, so only this test notices a rename.
    assert callable(getattr(importlib.import_module("shockwear.cli"), attr))


@pytest.mark.parametrize("fn, names", [
    (run_replications, ("params", "horizon", "dt", "master_seed", "n_reps", "batch_size")),
    (simulate_paths, ("params", "horizon", "dt", "master_seed", "k")),
    (step_count, ("horizon", "dt")),
], ids=["run_replications", "simulate_paths", "step_count"])
def test_traced_engine_parameters(fn, names):
    assert tuple(inspect.signature(fn).parameters)[:len(names)] == names


@pytest.mark.parametrize("module_name", ["shockwear.simulate", "shockwear.reliability"])
def test_step_grid_comes_only_from_numerics(module_name):
    # dt and horizon have one source, ModelParams.numerics. The two entries
    # above keep the names for the tracer and refuse any other grid.
    module = importlib.import_module(module_name)
    functions = [fn for _, fn in inspect.getmembers(module, inspect.isfunction)]
    for _, cls in inspect.getmembers(module, inspect.isclass):
        if cls.__module__ == module_name and not dataclasses.is_dataclass(cls):
            functions += [fn for _, fn in inspect.getmembers(cls, inspect.isfunction)]
    named = {fn.__qualname__ for fn in functions
             if {"horizon", "dt"} & set(inspect.signature(fn).parameters)}
    assert named <= {"run_replications", "simulate_paths", "step_count"}, named
