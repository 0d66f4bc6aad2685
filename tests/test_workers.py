"""A run of several blocks hands them to forked workers (simulate._pool): its
bytes and its guard error are those of one block in one process, and no
worker outlives the call. Worker counts above three are checked on the rule
(simulate._workers) alone, never by starting them."""

import functools
import json
import multiprocessing
import os
import threading
from pathlib import Path

import pytest

import shockwear.reliability
import shockwear.simulate as simulate
from shockwear import GammaLaw, StepSizeError
from shockwear.cli import main
from tests.conftest import make_params

CONFIGS = Path(__file__).resolve().parent.parent / "perfbench" / "configs"
FIELDS = ("failure_time", "mode", "rate_change_time", "n_shocks", "final_total")
ONE_BLOCK = 10**9  # rows >= n: one block, run in this process
# frequent shocks and rate changes over three chunks, theta drawn per replication
RATE_CHANGE = dict(lambda0=0.5, gamma=0.01, D0=12.0, D1=25.0, H=8.0, horizon=6.0,
                   theta_law=GammaLaw(4.0, 4.0))
# wear feeds the intensity: the fastest-wearing replication crosses rate*dt = 0.1
GUARD = dict(lambda0=0.01, gamma=0.2, H=1e3, horizon=10.0)


@pytest.fixture
def pools(monkeypatch):
    """Three usable CPUs, and the worker count of each pool simulate_sets
    starts (None where its blocks ran in this process), in call order."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    started = []
    real = simulate._pool

    def spy(n_blocks):
        pool = real(n_blocks)
        started.append(None if pool is None else pool._processes)
        return pool

    monkeypatch.setattr(simulate, "_pool", spy)
    return started


def _bytes(results):
    return [[getattr(res, name).tobytes() for name in FIELDS] for res in results]


def _curve_bytes(tmp_path, argv, name):
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


def _config(tmp_path, doc_path, model=None, **run):
    doc = json.loads(doc_path.read_text())
    doc["model"].update(model or {})
    doc["run"].update(run)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _rate_change_config(tmp_path):
    return _config(tmp_path, CONFIGS / "valve.json",
                   model={"lambda0": 0.5, "gamma": 0.01, "D0": 12.0, "D1": 25.0, "H": 8.0,
                          "theta": {"shape": 4.0, "rate": 4.0}},
                   horizon=6.0, grid={"start": 0.0, "stop": 6.0, "points": 13})


@pytest.mark.parametrize("seed", [1, 3])
@pytest.mark.parametrize("config", ["valve", "rate_change_theta"])
def test_curve_csv_pooled_equals_one_block(tmp_path, pools, monkeypatch, config, seed):
    # 5000 replications: blocks of 2048, 2048 and 904, so the last block is
    # partial, on min(3 CPUs, 3 blocks) workers
    if config == "valve":
        path = _config(tmp_path, CONFIGS / "valve.json")
    else:
        path = _rate_change_config(tmp_path)
    argv = ["curve", "--config", path, "--seed", str(seed), "--reps", "5000"]
    pooled = _curve_bytes(tmp_path, argv, "pooled.csv")
    monkeypatch.setattr(shockwear.reliability, "run_replications",
                        functools.partial(simulate.run_replications, batch_size=ONE_BLOCK))
    alone = _curve_bytes(tmp_path, argv, "alone.csv")
    assert pools == [3]  # the one-block run starts no pool
    assert pooled == alone


def test_sweep_csv_pooled_equals_one_block(tmp_path, pools, monkeypatch):
    path = _config(tmp_path, CONFIGS / "valve_coarse.json")
    argv = ["sweep", "gamma", "0,0.001,0.01", "--config", path, "--reps", "6000"]
    pooled = _curve_bytes(tmp_path, argv, "pooled.csv")
    monkeypatch.setattr(shockwear.reliability, "simulate_sets",
                        functools.partial(simulate.simulate_sets, rows=ONE_BLOCK))
    alone = _curve_bytes(tmp_path, argv, "alone.csv")
    assert pools == [3]  # the one-block run starts no pool
    assert pooled == alone


def test_uneven_blocks_equal_one_block(pools):
    # 157 replications in blocks of 7: 22 whole blocks and one of 3, dealt to
    # three workers in turn, under three parameter sets side by side
    base = make_params(**RATE_CHANGE)
    sets = [shockwear.reliability.apply_sweep_value(base, "D0", v) for v in (10.0, 12.0, 20.0)]
    pooled = simulate.simulate_sets(sets, 7, 3, 160, rows=7)
    alone = simulate.simulate_sets(sets, 7, 3, 160, rows=ONE_BLOCK)
    assert pools == [3]  # the one-block run starts no pool
    assert _bytes(pooled) == _bytes(alone)
    assert len({res.failure_time.tobytes() for res in pooled}) == 3  # the sets differ


def test_step_size_error_pooled_equals_one_block(pools):
    p = make_params(**GUARD)
    errors = []
    for rows in (7, ONE_BLOCK):
        with pytest.raises(StepSizeError) as err:
            simulate.simulate_sets([p], 5, 0, 300, rows=rows)
        errors.append((str(err.value), err.value.time, err.value.rep_index,
                       err.value.suggested_dt))
    assert pools == [3]  # the one-block run starts no pool
    assert errors[0] == errors[1]
    assert not multiprocessing.active_children()


def test_no_worker_outlives_a_run(pools):
    simulate.simulate_sets([make_params(horizon=1.0)], 1, 0, 50, rows=7)
    assert pools == [3]
    assert not multiprocessing.active_children()


def test_a_workers_error_reaches_the_caller(pools, monkeypatch):
    real = simulate._V1Draws.chunk

    def chunk(self, union, span):
        if self.rep_lo == 14:  # the third block of 7
            raise RuntimeError("refill failed in block 14")
        return real(self, union, span)

    monkeypatch.setattr(simulate._V1Draws, "chunk", chunk)
    with pytest.raises(RuntimeError, match="refill failed in block 14") as err:
        simulate.simulate_sets([make_params(horizon=1.0)], 1, 0, 50, rows=7)
    assert type(err.value) is RuntimeError
    assert pools == [3]
    assert not multiprocessing.active_children()


def _run_and_send(conn):
    res = simulate.simulate_sets([make_params(**RATE_CHANGE)], 7, 3, 160, rows=7)
    conn.send(_bytes(res))
    conn.close()


def test_daemonic_caller_runs_in_process():
    # a pool's workers are daemonic and may not start children of their own
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_run_and_send, args=(send,), daemon=True)
    child.start()
    assert receive.poll(60)
    got = receive.recv()
    child.join(timeout=60)
    assert child.exitcode == 0
    alone = simulate.simulate_sets([make_params(**RATE_CHANGE)], 7, 3, 160, rows=ONE_BLOCK)
    assert got == _bytes(alone)


def test_no_fork_runs_in_process(pools, monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    res = simulate.simulate_sets([make_params(**RATE_CHANGE)], 7, 3, 160, rows=7)
    alone = simulate.simulate_sets([make_params(**RATE_CHANGE)], 7, 3, 160, rows=ONE_BLOCK)
    assert pools == [None]
    assert _bytes(res) == _bytes(alone)


def test_caller_with_threads_runs_in_process(pools):
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        simulate.simulate_sets([make_params(horizon=1.0)], 1, 0, 50, rows=7)
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()
    assert pools == [None]


def test_one_usable_cpu_runs_in_process(pools, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    simulate.simulate_sets([make_params(horizon=1.0)], 1, 0, 50, rows=7)
    assert pools == [None]


def test_traced_and_one_block_runs_start_no_pool(pools):
    simulate.simulate_sets([make_params(horizon=1.0)], 1, 0, 50, want_traces=True, rows=7)
    simulate.simulate_sets([make_params(horizon=1.0)], 1, 0, 50)
    assert pools == []


@pytest.mark.parametrize("cpus, n_blocks, workers",
                         [(64, 10, 10), (64, 100, 64), (2, 10, 2), (1, 10, 1), (3, 1, 1)])
def test_worker_count_is_usable_cpus_capped_by_blocks(monkeypatch, cpus, n_blocks, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert simulate._workers(n_blocks) == workers
