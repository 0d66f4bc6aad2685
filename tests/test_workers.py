"""A run of several blocks hands them to forked workers (simulate._pool): its
bytes and its guard error are those of one block in one process, a worker
that dies fails the run at once, and no worker outlives the call or a killed
caller. Worker counts above three are checked on the rule (simulate._workers)
alone, never by starting them."""

import functools
import io
import json
import multiprocessing
import os
import signal
import sys
import threading
import time
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
        started.append(None if pool is None else pool._max_workers)
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


def _kill_block_14(monkeypatch):
    """Make the worker that runs the block starting at replication 14 die by SIGKILL."""
    real = simulate._V1Draws.chunk

    def chunk(self, union, span):
        if self.rep_lo == 14:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(self, union, span)

    monkeypatch.setattr(simulate._V1Draws, "chunk", chunk)


def _in_child(run):
    """What ``run()`` returns, run in a forked child that is not daemonic (so it
    may start a pool), and fails the test if that takes 10 s or more."""
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=lambda: send.send(run()))
    child.start()
    send.close()
    try:
        assert receive.poll(10), "the run neither returned nor raised within 10 s"
        got = receive.recv()
    finally:
        if child.is_alive():
            child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    return got


def test_a_killed_worker_fails_the_run(pools, monkeypatch):
    _kill_block_14(monkeypatch)

    def run():
        try:
            simulate.simulate_sets([make_params(horizon=1.0)], 1, 0, 50, rows=7)
        except Exception as err:
            return type(err).__name__, str(err), pools, multiprocessing.active_children()
        return "returned", "", pools, multiprocessing.active_children()

    name, message, started, children = _in_child(run)
    assert (name, started, children) == ("BrokenProcessPool", [3], [])
    assert "terminated abruptly" in message


def test_cli_reports_a_killed_worker(tmp_path, pools, monkeypatch):
    # 200 replications in blocks of 7 (batch_size), the third block's worker dies
    path = _config(tmp_path, CONFIGS / "valve.json", horizon=1.0,
                   grid={"start": 0.0, "stop": 1.0, "points": 3})
    out = tmp_path / "curve.csv"
    monkeypatch.setattr(shockwear.reliability, "run_replications",
                        functools.partial(simulate.run_replications, batch_size=7))
    _kill_block_14(monkeypatch)

    def run():
        sys.stderr = io.StringIO()
        code = main(["curve", "--config", path, "--reps", "200", "--out", str(out)])
        return code, sys.stderr.getvalue(), pools, multiprocessing.active_children()

    code, stderr, started, children = _in_child(run)
    assert (code, started, children) == (1, [3], [])
    assert stderr.startswith("worker error: ") and "terminated abruptly" in stderr
    assert stderr.count("\n") == 1
    assert not out.exists()


def _running(pid):
    """Whether process ``pid`` exists and has not ended (a zombie has ended)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states in /proc")
def test_workers_end_with_a_killed_caller(tmp_path, pools, monkeypatch):
    # the caller of a pooled run is killed while each of its three workers is
    # inside a block; every worker ends within seconds instead of waiting on
    # the pool's queues forever
    real = simulate._V1Draws.chunk

    def chunk(self, union, span):
        (tmp_path / str(os.getpid())).touch()
        time.sleep(30)
        return real(self, union, span)

    monkeypatch.setattr(simulate._V1Draws, "chunk", chunk)
    caller = multiprocessing.get_context("fork").Process(
        target=simulate.simulate_sets, args=([make_params(horizon=1.0)], 1, 0, 50),
        kwargs={"rows": 7})
    caller.start()
    deadline = time.monotonic() + 10
    while len(list(tmp_path.iterdir())) < 3 and time.monotonic() < deadline:
        time.sleep(0.02)
    caller.kill()
    caller.join()
    workers = [int(path.name) for path in tmp_path.iterdir()]
    deadline = time.monotonic() + 10
    while any(map(_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.02)
    left = [pid for pid in workers if _running(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert len(workers) == 3 and left == []


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
