"""Properties of a run that must not depend on how its replications are
grouped in blocks, and of the curve's count of failures by step, checked on
models and sizes drawn by hypothesis.

Kept apart from tests/test_chunk_kernel.py so that without hypothesis only
these tests are skipped, not the bitwise comparison with the step loop."""

import warnings

import numpy as np
import pytest

from shockwear import (
    StepSizeError,
    estimate_reliability,
    run_replications,
    simulate_replication,
)
from tests.conftest import make_params

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

models = st.fixed_dictionaries({
    "lambda0": st.sampled_from([0.0, 2.5e-5, 0.3, 1.0]),
    "gamma": st.sampled_from([0.0, 0.001, 0.05]),
    "eta": st.sampled_from([0.2, 1.0]),
    "D0": st.sampled_from([12.0, 30.0, 40.0]),
    "H": st.sampled_from([2.0, 5.0]),
    "alpha2": st.sampled_from([0.3, 0.5, 0.9]),  # alpha1 = 0.5: rate drop, none, rise
})
PROPERTY = settings(max_examples=12, deadline=None)


def _outcome(params, horizon, seed, n, batch_size):
    try:
        return run_replications(params, horizon, 0.01, seed, n, batch_size=batch_size)
    except StepSizeError as err:
        return err


def _key(outcome):
    if isinstance(outcome, StepSizeError):
        return str(outcome), outcome.time, outcome.suggested_dt, outcome.rep_index
    return outcome[0].tobytes(), outcome[1].tobytes()


@PROPERTY
@given(model=models, steps=st.integers(0, 600), n=st.integers(1, 300),
       seed=st.integers(0, 2**32))
def test_batch_size_invariant(model, steps, n, seed):
    horizon = steps * 0.01
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        p = make_params(horizon=horizon, **model)
    results = [_outcome(p, horizon, seed, n, b) for b in (1, 3, 64, 255, 257, 2049, n)]
    first = results[0]
    if isinstance(first, StepSizeError):
        with pytest.raises(StepSizeError) as alone:
            simulate_replication(p, seed, rep_index=first.rep_index)
        assert (alone.value.time, alone.value.suggested_dt) == (first.time, first.suggested_dt)
    for other in results[1:]:
        assert _key(other) == _key(first)


@PROPERTY
@given(model=models, steps=st.integers(1, 600), n=st.integers(1, 400),
       seed=st.integers(0, 2**32))
def test_curve_accounts_for_every_replication(model, steps, n, seed):
    horizon = steps * 0.01
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        p = make_params(horizon=horizon, **model)
    try:
        curve = estimate_reliability(p, np.linspace(0.0, horizon, 7), n, seed)
    except StepSizeError:
        return
    assert np.all(np.diff(curve.estimate) <= 0.0)
    survived = np.rint(curve.estimate * n).astype(np.int64)
    assert np.all(curve.soft_count + curve.hard_count + survived == n)


@PROPERTY
@given(dt=st.sampled_from([0.01, 0.02, 0.05, 0.1, 0.25]), points=st.integers(2, 41),
       stride=st.integers(1, 4), seed=st.integers(0, 2**32))
def test_curve_counts_failures_by_step(dt, points, stride, seed):
    # grid time i lies on the end of step i * stride, however linspace rounds
    # it; R-hat there is the share of replications that fail at a later step
    horizon = (points - 1) * stride * dt
    p = make_params(H=1.0, beta=0.5 * horizon, dt=dt, horizon=horizon)  # E[wear(horizon)] = H
    ftime, _ = run_replications(p, horizon, dt, seed, 300)
    fstep = np.rint(ftime / dt)
    want = [np.mean(fstep > i * stride) for i in range(points)]
    curve = estimate_reliability(p, np.linspace(0.0, horizon, points), 300, seed)
    assert curve.estimate.tolist() == want
