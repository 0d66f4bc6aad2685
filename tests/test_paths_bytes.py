"""The streamed `paths` writer against the per-field writer it replaced."""

import pytest

from shockwear import simulate_paths
from shockwear.cli import main
from shockwear.config import load_config
from tests.test_config_cli import aggressive_doc, write_config

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def reference_paths_csv(outcomes, stride) -> bytes:
    """The paths CSV as the verb wrote it before it streamed: every field of
    every row formatted on its own, the lines joined at the end."""
    lines = ["rep,t,pure,jumps,total,n_shocks,rate_changed"]
    for rep, outcome in enumerate(outcomes):
        trace = outcome.trace
        last = len(trace) - 1
        for i, (t, pure, jumps, n_shocks) in enumerate(trace):
            if i % stride and i != last:
                continue
            changed = outcome.rate_change_time is not None and t >= outcome.rate_change_time
            lines.append(",".join([
                str(rep), _fmt(t), _fmt(pure), _fmt(jumps), _fmt(pure + jumps),
                str(n_shocks), "1" if changed else "0",
            ]))
    return ("\n".join(lines) + "\n").encode("utf-8")


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32), k=st.integers(1, 4), stride=st.integers(1, 12))
def test_paths_bytes_match_per_field_writer(tmp_path_factory, seed, k, stride):
    tmp_path = tmp_path_factory.mktemp("paths")
    out = tmp_path / "paths.csv"
    cfg_path = write_config(tmp_path, aggressive_doc())
    assert main(["paths", str(k), "--stride", str(stride), "--seed", str(seed),
                 "--config", cfg_path, "--out", str(out)]) == 0
    model = load_config(cfg_path).model
    outcomes = simulate_paths(model, model.numerics.horizon, model.numerics.dt, seed, k)
    assert out.read_bytes() == reference_paths_csv(outcomes, stride)
