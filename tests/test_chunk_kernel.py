"""The chunk kernel against the per-step loop it replaced (stream contract
v1's reference, in tests/stream_v1.py), and engine properties that must not
depend on how replications are grouped in blocks or on running several
parameter sets side by side."""

import ast
import functools
import inspect
import itertools
import pickle
import warnings

import numpy as np
import pytest

import shockwear.simulate as simulate
from shockwear import (
    GammaLaw,
    NormalLaw,
    StepSizeError,
    estimate_reliability,
    run_replications,
    simulate_replication,
    sweep,
)
from shockwear.reliability import apply_sweep_value
from shockwear.rng import MARK_STREAM, replication_stream
from tests import stream_v1
from tests.conftest import make_params

FIELDS = ("failure_time", "mode", "rate_change_time", "n_shocks", "final_total")
STEP_GRID = simulate.Numerics(dt=0.01)  # every case's dt, the one a trace's t column reads

# id: (make_params overrides, horizon, master_seed, rep_lo, rep_hi, want_traces).
# Horizons of 2.5 to 7.77 end in a partial chunk of the 256-step refill.
CASES = {
    "valve": (dict(), 20.0, 5, 0, 300, False),
    "d_alpha_pos_frequent_damage": (dict(lambda0=0.5, D0=12.0, D1=25.0, H=50.0), 6.0, 7, 3, 300, True),
    "d_alpha_neg": (dict(lambda0=0.5, D0=12.0, alpha1=0.9, alpha2=0.4, H=50.0), 6.0, 8, 0, 400, False),
    "d_alpha_zero": (dict(lambda0=0.5, D0=12.0, alpha1=0.7, alpha2=0.7), 6.0, 9, 0, 400, False),
    "theta_law": (dict(lambda0=1.0, gamma=0.0, D0=15.0, D1=20.0, theta_law=GammaLaw(4.0, 4.0)),
                  8.0, 7, 10, 300, True),
    "clamped_jumps": (dict(lambda0=1.0, gamma=0.0, Y=NormalLaw(0.0, 0.5)), 5.0, 3, 0, 300, True),
    # two jumps of ~4 always pass H = 5, so a row takes at most one shock
    # before a step, keeping rate*dt <= 0.075 while steps with 2-3 arrivals occur
    "multi_arrival": (dict(lambda0=3.0, eta=1.5, gamma=0.0, Y=NormalLaw(4.0, 0.3), D0=35.0, D1=45.0),
                      2.5, 4, 0, 400, False),
    "coupled": (dict(lambda0=0.3, gamma=0.1, D0=25.0, H=8.0), 7.77, 11, 5, 300, True),
    # tiny jumps and slow facilitation: rows take up to about 60 shocks, several
    # mark-buffer fills, with rate*dt <= 0.085; a shock is fatal with p = 0.023
    "mark_buffer_refills": (dict(lambda0=5.0, eta=0.01, gamma=0.0, Y=NormalLaw(0.01, 0.005),
                                 D0=15.0, D1=20.0, H=50.0), 7.0, 12, 0, 300, True),
    "zero_horizon": (dict(), 0.0, 1, 17, 50, True),
}


def _params(case):
    overrides, horizon = CASES[case][:2]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # alpha2 < alpha1 is legal but unusual
        return make_params(horizon=horizon, **overrides)


@functools.lru_cache(maxsize=None)
def _reference(case):
    _, horizon, seed, lo, hi, traces = CASES[case]
    return stream_v1._simulate_batch(_params(case), horizon, 0.01, seed, lo, hi, traces)


def assert_identical(new, old):
    """``new``, an engine result, field for field against ``old``, whose
    traces, if any, are the step loop's lists of row tuples."""
    for name in FIELDS:
        a, b = getattr(new, name), getattr(old, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert (new.traces is None) == (old.traces is None)
    if new.traces is not None:
        assert len(new.traces) == len(old.traces)
        for j, rows in enumerate(old.traces):
            # every row materialized; pickles hold every float's bits and the
            # Python types the CSV writer formats
            assert pickle.dumps(list(new.trace(j, STEP_GRID))) == pickle.dumps(rows), j


ROWS = pytest.mark.parametrize("rows", [simulate._ROWS, 7], ids=["default_rows", "rows7"])


@ROWS
@pytest.mark.parametrize("case", list(CASES))
def test_matches_step_loop(case, rows):
    _, horizon, seed, lo, hi, traces = CASES[case]
    new = simulate.simulate_sets([_params(case)], seed, lo, hi, traces, rows=rows)[0]
    assert_identical(new, _reference(case))


@pytest.mark.parametrize("marks", [1, 3])
@pytest.mark.parametrize("case", ["multi_arrival", "mark_buffer_refills"])
def test_small_mark_buffers_match_step_loop(case, marks, monkeypatch):
    # one or one and a half shocks per fill: a step's arrivals overrun the
    # buffer, which must widen, and a pair can straddle two fills
    monkeypatch.setattr(simulate, "_MARKS", marks)
    _, horizon, seed, lo, hi, traces = CASES[case]
    new = simulate.simulate_sets([_params(case)], seed, lo, hi, traces, rows=7)[0]
    assert_identical(new, _reference(case))


def test_matrix_reaches_its_cases(monkeypatch):
    counts = []
    real = simulate.poisson_counts

    def spy(mu, u):
        c = real(mu, u)
        counts.append(c.max(initial=0))
        return c

    fatal_not_last = []
    real_shocks = simulate._Batch._shocks

    def spy_shocks(self, ids, arrivals, t_end, nshk, jumps, changed):
        before = nshk.copy()
        hard = real_shocks(self, ids, arrivals, t_end, nshk, jumps, changed)
        fatal_not_last.append(np.any(hard & (nshk - before < arrivals)))
        return hard

    monkeypatch.setattr(simulate, "poisson_counts", spy)
    simulate.simulate_sets([_params("multi_arrival")], 4, 0, 400)
    assert max(counts) >= 2
    monkeypatch.setattr(simulate._Batch, "_shocks", spy_shocks)
    simulate.simulate_sets([_params("mark_buffer_refills")], 12, 0, 300)
    assert any(fatal_not_last)  # a step with 2+ arrivals whose fatal shock is not the last
    ref = {case: _reference(case) for case in CASES}
    assert np.isfinite(ref["valve"].failure_time).any()
    assert (~np.isnan(ref["d_alpha_pos_frequent_damage"].rate_change_time)).sum() > 20
    assert (~np.isnan(ref["d_alpha_neg"].rate_change_time)).sum() > 20
    assert set(ref["theta_law"].mode.tolist()) == {0, 1, 2}
    assert ref["clamped_jumps"].n_shocks.sum() > 100
    # more than twice the shocks one mark-buffer fill holds
    assert ref["mark_buffer_refills"].n_shocks.max() > 2 * (simulate._MARKS // 2)
    # failures strictly inside chunks, not only at their edges
    ft = ref["coupled"].failure_time
    steps = np.rint(ft[np.isfinite(ft)] / 0.01).astype(int)
    assert np.any(steps % 256 != 0)


# Wear feeds the intensity (gamma > 0): the fastest-wearing replication
# crosses rate*dt = 0.1 inside the second chunk.
GUARD = dict(lambda0=0.01, gamma=0.2, H=1e3)


@ROWS
def test_step_size_error_matches_step_loop(rows):
    p = make_params(horizon=10.0, **GUARD)
    with pytest.raises(StepSizeError) as old:
        stream_v1._simulate_batch(p, 10.0, 0.01, 5, 0, 300)
    with pytest.raises(StepSizeError) as new:
        run_replications(p, 10.0, 0.01, 5, 300, batch_size=rows)
    assert str(new.value) == str(old.value)
    assert new.value.suggested_dt == old.value.suggested_dt
    assert 256 * 0.01 < new.value.time <= 512 * 0.01
    assert f"at t={new.value.time:.6g};" in str(new.value)


def test_step_size_error_names_a_replayable_replication():
    p = make_params(horizon=10.0, **GUARD)
    with pytest.raises(StepSizeError) as batch:
        run_replications(p, 10.0, 0.01, 5, 300)
    assert 0 <= batch.value.rep_index < 300
    with pytest.raises(StepSizeError) as alone:
        simulate_replication(p, 5, rep_index=batch.value.rep_index)
    assert alone.value.rep_index == batch.value.rep_index
    assert alone.value.time == batch.value.time
    assert alone.value.suggested_dt == batch.value.suggested_dt


def test_guard_stops_are_results(monkeypatch):
    # a guard stop is recorded as a failure is: mode 3 at its step's end time,
    # with that step's total wear and shock count, from which the run's
    # StepSizeError is read: the earliest stop at the largest intensity there
    p = make_params(horizon=10.0, **GUARD)
    returned = []
    advance = simulate._Batch.advance
    monkeypatch.setattr(simulate._Batch, "advance",
                        lambda self, ids, k0: returned.append(advance(self, ids, k0)))
    (out,) = simulate._run_block([p], 5, False, (0, 300))
    assert returned and all(r is None for r in returned)
    stops = np.flatnonzero(out.mode == 3)
    shk = p.shock
    rates = ((1.0 + shk.eta * out.n_shocks[stops])
             * (shk.lambda0 + shk.gamma_dep * out.final_total[stops]))
    assert np.all(rates * 0.01 > simulate.MAX_RATE_DT)
    earliest = out.failure_time[stops] == out.failure_time[stops].min()
    j = np.flatnonzero(earliest)[np.argmax(rates[earliest])]
    with pytest.raises(StepSizeError) as err:
        simulate.simulate_sets([p], 5, 0, 300)
    assert err.value.suggested_dt == simulate.MAX_RATE_DT / rates[j]
    assert (err.value.time, err.value.rep_index) == (out.failure_time[stops[j]], stops[j])
    names = {node.id for node in ast.walk(ast.parse(inspect.getsource(simulate)))
             if isinstance(node, ast.Name)}
    assert "violations" not in names


def _block_guard_params():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return make_params(lambda0=1.0, eta=1.0, D0=12.0, H=5.0, alpha2=0.3, horizon=2.46)


def _guard_key(err):
    return str(err), err.time, err.suggested_dt, err.rep_index


def test_step_size_error_independent_of_batch_size():
    # Small blocks first trip the guard in a replication whose violation is
    # not the run's earliest (stream_v1.V1 has both).
    p = _block_guard_params()
    with pytest.raises(StepSizeError) as old:
        stream_v1._simulate_batch(p, 2.46, 0.01, 0, 0, 31)
    for batch_size in (1, 3, 7, 31):
        with pytest.raises(StepSizeError) as new:
            run_replications(p, 2.46, 0.01, 0, 31, batch_size=batch_size)
        err = new.value
        assert (str(err), err.suggested_dt) == (str(old.value), old.value.suggested_dt)
        assert (err.time, err.rep_index) == stream_v1.V1["guard_any_batch_size"].value


def test_step_size_error_is_the_runs_earliest_for_any_batch_size():
    # The run's error is its earliest violation at the largest intensity there
    # (the smallest suggested dt), replayed from each replication alone, for any
    # block size. The case is the first seed whose first violating replication
    # trips the guard later than the run's earliest, so blocks of 1 meet a
    # violation that is not the run's before the one that is.
    p = _block_guard_params()
    for seed in range(64):
        found = []
        for rep in range(31):
            try:
                simulate_replication(p, seed, rep_index=rep)
            except StepSizeError as err:
                found.append((err.time, err.suggested_dt, rep, str(err)))
        if found and found[0][0] > min(found)[0]:
            break
    else:
        pytest.fail("no seed below 64 has a first violating replication after the earliest")
    time, suggested_dt, rep_index, message = min(found)
    for batch_size in (1, 3, 7, 31):
        with pytest.raises(StepSizeError) as run:
            run_replications(p, 2.46, 0.01, seed, 31, batch_size=batch_size)
        assert _guard_key(run.value) == (message, time, suggested_dt, rep_index)


def test_batch_size_below_one_refused():
    p = make_params(horizon=1.0)
    for batch_size in (0, -5):
        with pytest.raises(ValueError, match="batch_size"):
            run_replications(p, 1.0, 0.01, 1, 10, batch_size=batch_size)


# Sweeps run their values side by side on one set of path draws. Base: frequent
# shocks and rate changes over three chunks; each key's values lose rows in
# different chunks, so a value's live rows often differ from the union's.
SWEEP_BASE = dict(lambda0=0.5, gamma=0.01, D0=12.0, D1=25.0, H=8.0, horizon=6.0)
SWEEPS = {
    "D0": (dict(), [8.0, 12.0, 20.0]),
    "gamma": (dict(), [0.0, 0.05, 0.1]),
    "eta": (dict(), [0.05, 0.2, 0.6]),
    "lambda0": (dict(), [0.1, 0.5, 1.0]),
    "alpha2": (dict(), [0.3, 0.5, 0.9]),  # below, equal to and above alpha1 = 0.5
    "H": (dict(), [4.0, 8.0, 12.0]),
    "D1": (dict(), [15.0, 25.0, 40.0]),
    "theta_law": (dict(theta_law=GammaLaw(4.0, 4.0)), [10.0, 12.0, 20.0]),  # a D0 sweep
}


def _sweep_sets(case):
    overrides, values = SWEEPS[case]
    key = "D0" if case == "theta_law" else case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # alpha2 < alpha1 is legal but unusual
        base = make_params(**{**SWEEP_BASE, **overrides})
        return base, key, values, [apply_sweep_value(base, key, v) for v in values]


@pytest.mark.parametrize("rows", [simulate._ROWS, 7, 1], ids=["default_rows", "rows7", "rows1"])
@pytest.mark.parametrize("case", list(SWEEPS))
def test_sets_side_by_side_match_each_alone(case, rows):
    sets = _sweep_sets(case)[3]
    together = simulate.simulate_sets(sets, 7, 3, 160, rows=rows)
    for p, res in zip(sets, together):
        assert_identical(res, simulate.simulate_sets([p], 7, 3, 160, rows=rows)[0])
    # the case reaches chunks where a set's live rows differ from the union's:
    # some replication stops in different chunks under two of the sets
    stops = []
    for res in together:
        stop = np.full(res.failure_time.size, 3)  # 3: survived all three chunks
        failed = np.isfinite(res.failure_time)
        stop[failed] = (np.rint(res.failure_time[failed] / 0.01).astype(int) - 1) // 256
        stops.append(stop)
    assert any(np.any(a != b) for a in stops for b in stops)


@pytest.mark.parametrize("marks", [1, 3])
@pytest.mark.parametrize("rows", [simulate._ROWS, 7], ids=["default_rows", "rows7"])
@pytest.mark.parametrize("case", ["eta", "lambda0", "D1"])
def test_sets_side_by_side_small_mark_buffers(case, rows, marks, monkeypatch):
    # the test above with a _MARKS axis, kept apart so that its ids stay: the
    # sets share a block's mark buffer but take different numbers of shocks per
    # row, so one set's read widens the buffer or draws on a row another set reads
    monkeypatch.setattr(simulate, "_MARKS", marks)
    test_sets_side_by_side_match_each_alone(case, rows)


def test_mark_buffer_rows_hold_a_prefix_of_their_stream(monkeypatch):
    # after every read, each row read holds normals 0 .. filled-1 of its
    # replication's mark stream, and the buffer is no wider than its first
    # width or twice the furthest read so far: one set alone, and three
    # lambda0 values reading one buffer side by side, each as it runs alone
    seed, lo, hi, traces = CASES["mark_buffer_refills"][2:]
    refills = _params("mark_buffer_refills")
    sets = [apply_sweep_value(refills, "lambda0", v) for v in (4.5, 5.0, 5.5)]
    alone = [simulate.simulate_sets([p], seed, lo, hi)[0] for p in sets]
    furthest, widths, topped_up = {}, set(), []
    real = simulate._V1Draws.marks

    def spy(self, ids, first, counts):
        stop = 2 * (first + counts)
        topped_up.append(np.any((self.filled[ids] > 0) & (self.filled[ids] < stop)))
        marks = real(self, ids, first, counts)
        furthest[self] = max(furthest.get(self, 0), int(stop.max()))
        width = self.normals.shape[1]
        assert width <= max(simulate._MARKS, 2 * furthest[self])
        widths.add(width)
        for i, n in zip(ids.tolist(), self.filled[ids].tolist()):
            stream = replication_stream(seed, self.rep_lo + i, MARK_STREAM)
            assert np.array_equal(self.normals[i, :n], stream.normal(size=n)), i
        return marks

    monkeypatch.setattr(simulate._V1Draws, "marks", spy)
    one = simulate.simulate_sets([refills], seed, lo, hi, traces)[0]
    assert_identical(one, _reference("mark_buffer_refills"))
    together = simulate.simulate_sets(sets, seed, lo, hi)
    for res, res_alone in zip(together, alone):
        assert_identical(res, res_alone)
    # the runs reach both ways a read extends the buffer: a wider buffer, and
    # a row drawn on from where it stopped
    assert max(widths) > simulate._MARKS and any(topped_up)


def test_one_mark_stream_per_replication(monkeypatch):
    built = []
    real = simulate.replication_stream

    def spy(master_seed, rep_index, stream):
        if stream == simulate.MARK_STREAM:
            built.append(rep_index)
        return real(master_seed, rep_index, stream)

    monkeypatch.setattr(simulate, "replication_stream", spy)
    together = simulate.simulate_sets(_sweep_sets("lambda0")[3], 7, 3, 160)
    shocked = [res.n_shocks > 0 for res in together]
    assert sorted(built) == (3 + np.flatnonzero(np.logical_or.reduce(shocked))).tolist()
    assert sum(s.sum() for s in shocked) > len(built)  # replications shocked under several sets


def test_only_v1_draws_consumes_a_stream():
    # _V1Draws is the engine's one source of randomness: no other code in
    # simulate.py names a stream, the inverse gamma CDF or a generator's draw
    # methods, so a second stream contract is a second draws class and no rule
    # changes. (The imports that bind the stream names, which perfbench's
    # tracer wraps, and kernel's _scipy_ufunc as module globals are not uses.)
    names = {"replication_stream", "_scipy_ufunc", "PATH_STREAM", "MARK_STREAM"}
    methods = {"standard_gamma", "random", "normal"}

    def named(nodes):
        found = set()
        for node in nodes:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id in names:
                    found.add(sub.id)
                elif isinstance(sub, ast.Attribute) and sub.attr in names | methods:
                    found.add("." + sub.attr)
        return found

    module = ast.parse(inspect.getsource(simulate))
    draws = [node for node in module.body
             if isinstance(node, ast.ClassDef) and node.name == "_V1Draws"]
    rest = [node for node in module.body if node not in draws]
    assert len(draws) == 1
    assert named(draws) == names | {"." + m for m in methods}  # the check sees them
    assert named(rest) == set()


def test_rules_read_wear_only_through_the_path():
    # _Batch asks its path object for events and pure wear: no method of it
    # sums a chunk or names a chunk's increments or uniforms, so a second
    # path layout is a second path class and no rule changes
    arrays = {"cumsum", "g1", "upois", "u2"}

    def named(node):
        return ({sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
                | {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}) & arrays

    classes = {node.name: node for node in ast.parse(inspect.getsource(simulate)).body
               if isinstance(node, ast.ClassDef)}
    assert named(classes["_DensePath"]) == {"cumsum", "g1", "upois"}  # the check sees them
    assert named(classes["_Batch"]) == set()


class _PairDraws(simulate._V1Draws):
    """v1's numbers in another layout: each row's marks are drawn into a list
    of its own from its first shock, one (magnitude, jump) pair of normals at
    a time, with no shared buffer or width. The same numbers give the same
    bytes (numpy's normal sampler concatenates), so the rules must not depend
    on the layout."""

    def __init__(self, *args):
        super().__init__(*args)
        self.pairs = {}  # block row -> (its mark stream, its pairs drawn so far)

    def marks(self, ids, first, counts):
        zw = np.full((ids.size, counts.max()), np.nan)
        zy = zw.copy()
        for q, (i, lo, n) in enumerate(zip(ids.tolist(), first.tolist(), counts.tolist())):
            if i not in self.pairs:
                self.pairs[i] = (replication_stream(self.master_seed, self.rep_lo + i,
                                                    MARK_STREAM), [])
            gen, pairs = self.pairs[i]
            while len(pairs) < lo + n:
                pairs.append(gen.normal(size=2))
            zw[q, :n], zy[q, :n] = np.transpose(pairs[lo:lo + n])
        return zw, zy


class _ScanPath:
    """The path object's questions answered from per-row Python lists: each
    row's increments and arrival uniforms are copied out of the chunk, its
    pure wear is summed one step at a time, and a first step is found by
    testing each step in turn from ``pos``, with no prefix count and no
    assumption that a test stays true. It is not a _DensePath, so a rule that
    reaches past the questions fails here."""

    def __init__(self, draws, deg, ids, start):
        self.draws, self.deg, self.ids, self.start = draws, deg, ids, start.tolist()
        self.span = draws.g1.shape[1]
        self.g1 = [draws.g1[i].tolist() for i in draws.at[ids].tolist()]
        self.upois = [draws.upois[i].tolist() for i in draws.at[ids].tolist()]
        self.pure = [list(itertools.accumulate(g1, initial=s))[1:]
                     for s, g1 in zip(self.start, self.g1)]

    def first(self, act, pos, holds):
        e = []
        for row, p in zip(act.tolist(), pos.tolist()):
            steps = holds(np.array([row]), np.array([self.pure[row][p:]]))[0].tolist()
            e.append(p + steps.index(True) if True in steps else self.span)
        return np.array(e, dtype=np.intp)

    def first_arrival(self, act, pos, mu_last):
        e = []
        for row, p, mu in zip(act.tolist(), pos.tolist(), mu_last.tolist()):
            bound = (1.0 - simulate._ARRIVAL_SLACK) - mu
            e.append(next((k for k in range(p, self.span) if self.upois[row][k] >= bound),
                          self.span))
        return np.array(e, dtype=np.intp)

    def arrivals(self, rows, steps, mu):
        u = [self.upois[row][k] for row, k in zip(rows.tolist(), steps.tolist())]
        return simulate.poisson_counts(mu, np.array(u))

    def at(self, rows, steps):
        steps = np.broadcast_to(steps, rows.shape)
        return np.array([self.pure[row][k] for row, k in zip(rows.tolist(), steps.tolist())])

    def prefixes(self, stops):
        return [np.array(pure[:stop], dtype=float) for pure, stop in zip(self.pure, stops.tolist())]

    def switch(self, rows, j0):
        added = self.deg.alpha2 > self.deg.alpha1  # the post-change term adds to the pre-change one
        for row, post in zip(rows.tolist(), self.draws.post(self.deg, self.ids[rows], j0).tolist()):
            total = self.start[row] if j0 == 0 else self.pure[row][j0 - 1]
            for k, inc in enumerate(post, j0):
                total = (total + self.g1[row][k]) + inc if added else total + inc
                self.pure[row][k] = total


def _second_layout(monkeypatch):
    monkeypatch.setattr(simulate, "_V1Draws", _PairDraws)
    monkeypatch.setattr(simulate, "_DensePath", _ScanPath)


@pytest.mark.parametrize("case", list(CASES))
def test_rules_on_a_second_layout_match_step_loop(case, monkeypatch):
    _second_layout(monkeypatch)
    _, horizon, seed, lo, hi, traces = CASES[case]
    new = simulate.simulate_sets([_params(case)], seed, lo, hi, traces, rows=7)[0]
    assert_identical(new, _reference(case))


@pytest.mark.parametrize("case", list(SWEEPS))
def test_sets_on_a_second_layout_match_each_alone(case, monkeypatch):
    sets = _sweep_sets(case)[3]
    alone = [simulate.simulate_sets([p], 7, 3, 160)[0] for p in sets]
    _second_layout(monkeypatch)
    for res, res_alone in zip(simulate.simulate_sets(sets, 7, 3, 160), alone):
        assert_identical(res, res_alone)


@pytest.mark.parametrize("case", list(SWEEPS))
def test_sweep_equals_its_values_run_alone(case):
    base, key, values, sets = _sweep_sets(case)
    grid = np.linspace(0.0, 6.0, 13)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        curves = sweep(base, key, values, grid, 300, 7)
    assert [v for v, _ in curves] == values
    for p, (_, curve) in zip(sets, curves):
        alone = estimate_reliability(p, grid, 300, 7)
        for name in ("grid", "estimate", "ci_low", "ci_high", "soft_count", "hard_count",
                     "survived_count"):
            a, b = getattr(curve, name), getattr(alone, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert curve.n_reps == alone.n_reps


@pytest.mark.parametrize("change", [dict(alpha1=0.6), dict(beta=1.5), dict(dt=0.02),
                                    dict(theta_law=GammaLaw(4.0, 4.0))],
                         ids=["alpha1", "beta", "dt", "theta_law"])
def test_sets_with_different_path_draws_refused(change):
    sets = [make_params(horizon=2.0), make_params(horizon=2.0, **change)]
    with pytest.raises(ValueError, match="must share theta_law, alpha1, beta and numerics"):
        simulate.simulate_sets(sets, 1, 0, 10)


def _sweep_guard_errors():
    """The guard errors of gamma 0.2 and 0.3, each run alone on GUARD, and of
    the sweep over 0, 0.2 and 0.3."""
    p = make_params(horizon=10.0, **GUARD)
    grid = np.linspace(0.0, 10.0, 11)
    errors = {}
    for gamma in (0.2, 0.3):
        with pytest.raises(StepSizeError) as alone:
            estimate_reliability(apply_sweep_value(p, "gamma", gamma), grid, 300, 5)
        errors[gamma] = alone.value
    with pytest.raises(StepSizeError) as swept:
        sweep(p, "gamma", [0.0, 0.2, 0.3], grid, 300, 5)
    return errors[0.2], errors[0.3], swept.value


def test_sweep_step_size_error_is_its_first_failing_value_alone():
    # gamma = 0 never trips the guard; 0.2 trips it and 0.3 earlier, but the
    # sweep reports the first value in order that trips it.
    a, _, s = _sweep_guard_errors()
    assert _guard_key(s) == _guard_key(a)
    assert s.time == stream_v1.V1["guard_gamma_0.2"].value


def test_sweep_step_size_error_follows_value_order():
    # the premises: gamma = 0 runs, and of the two values that trip the guard
    # when each runs alone, the later one trips it first
    p = make_params(horizon=10.0, **GUARD)
    estimate_reliability(apply_sweep_value(p, "gamma", 0.0), np.linspace(0.0, 10.0, 11), 300, 5)
    first, later, swept = _sweep_guard_errors()
    assert later.time < first.time
    assert _guard_key(swept) == _guard_key(first)
