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


def replacement_doc():
    """Shock-heavy with a rate decrease (alpha2 < alpha1), so a rate change
    replaces the rest of the pure path, and a gamma-distributed theta."""
    return aggressive_doc(**{"model.alpha2": 0.3, "model.theta": {"shape": 4.0, "rate": 4.0}})


DOCS = {"aggressive": aggressive_doc, "replacement": replacement_doc}


def _paths(tmp_path, doc, k, stride, seed):
    """The verb's CSV bytes and the outcomes it wrote them from."""
    out = tmp_path / "paths.csv"
    cfg_path = write_config(tmp_path, doc)
    assert main(["paths", str(k), "--stride", str(stride), "--seed", str(seed),
                 "--config", cfg_path, "--out", str(out)]) == 0
    model = load_config(cfg_path).model
    outcomes = simulate_paths(model, model.numerics.horizon, model.numerics.dt, seed, k)
    return out.read_bytes(), outcomes


@pytest.mark.filterwarnings("ignore:alpha2=0.3 < alpha1=0.5:UserWarning")
@settings(max_examples=12, deadline=None)
@given(doc=st.sampled_from(sorted(DOCS)), seed=st.integers(0, 2**32), k=st.integers(1, 4),
       stride=st.integers(1, 12))
def test_paths_bytes_match_per_field_writer(tmp_path_factory, doc, seed, k, stride):
    written, outcomes = _paths(tmp_path_factory.mktemp("paths"), DOCS[doc](), k, stride, seed)
    assert written == reference_paths_csv(outcomes, stride)


@pytest.mark.parametrize("stride", [1, 7])
def test_rows_after_a_shock(tmp_path, stride):
    # after a shock, rows where pure repeats and jumps > 0 reuse the text of
    # pure, jumps and total from the row before
    written, outcomes = _paths(tmp_path, aggressive_doc(), 3, stride, 11)
    reused = 0
    for o in outcomes:
        last = len(o.trace) - 1
        kept = [row for i, row in enumerate(o.trace) if i % stride == 0 or i == last]
        reused += sum(a[1:3] == b[1:3] and b[2] > 0.0 for a, b in zip(kept, kept[1:]))
    assert reused > 10  # 1896 rows at stride 1 and 44 at stride 7
    assert written == reference_paths_csv(outcomes, stride)
