import hashlib
import importlib.util
import math
import tracemalloc

import numpy as np
import pytest

from shockwear import (
    GammaLaw,
    Numerics,
    StepSizeError,
    run_replications,
    simulate_paths,
    simulate_replication,
    step_count,
)
from shockwear import kernel, simulate
from shockwear.kernel import facilitation_pmf, gamma_cdf, normal_cdf
from tests.conftest import make_params
from tests.stream_v1 import V1


class TestBasics:
    def test_zero_horizon_survives(self):
        p = make_params(horizon=0.0)
        out = simulate_replication(p, 1)
        assert out.status == "survived"
        assert out.failure_time is None
        assert out.n_shocks == 0
        assert out.final_total_degradation == 0.0

    def test_deterministic_outcome(self):
        p = make_params(horizon=10.0)
        a = simulate_replication(p, 42, rep_index=3)
        b = simulate_replication(p, 42, rep_index=3)
        assert a == b

    def test_single_rep_bit_matches_batch(self):
        p = make_params(horizon=10.0)
        ftime, mode = run_replications(p, 10.0, 0.01, 42, 64)
        for idx in (0, 17, 63):
            out = simulate_replication(p, 42, rep_index=idx)
            if out.status == "survived":
                assert math.isinf(ftime[idx])
            else:
                assert out.failure_time == ftime[idx]

    def test_batch_size_and_threads_invariant(self):
        p = make_params(horizon=10.0)
        f1, m1 = run_replications(p, 10.0, 0.01, 9, 5000, batch_size=5000)
        f2, m2 = run_replications(p, 10.0, 0.01, 9, 5000, batch_size=700)
        assert np.array_equal(f1, f2)
        assert np.array_equal(m1, m2)

    def test_failure_time_within_horizon(self):
        p = make_params(H=0.5, horizon=5.0)  # low threshold: most reps fail
        ftime, mode = run_replications(p, 5.0, 0.01, 11, 2000)
        failed = np.isfinite(ftime)
        assert failed.any()
        assert np.all(ftime[failed] <= 5.0 + 1e-12)
        assert np.all(ftime[failed] > 0.0)

    def test_mode_accounting(self):
        p = make_params(horizon=20.0)
        ftime, mode = run_replications(p, 20.0, 0.01, 77, 4000)
        n_soft = int((mode == 1).sum())
        n_hard = int((mode == 2).sum())
        n_surv = int((mode == 0).sum())
        assert n_soft + n_hard + n_surv == 4000
        assert np.all(np.isinf(ftime[mode == 0]))
        assert np.all(np.isfinite(ftime[mode != 0]))

    @pytest.mark.parametrize("horizon, dt", [(5.0, 0.01), (10.0, 0.02)], ids=["horizon", "dt"])
    def test_grid_other_than_numerics_refused(self, horizon, dt):
        # params.numerics is the one step grid; horizon and dt may only restate it
        p = make_params(horizon=10.0)
        named = rf"horizon={horizon}, dt={dt} .*\(horizon=10.0, dt=0.01\)"
        with pytest.raises(ValueError, match=named):
            run_replications(p, horizon, dt, 1, 10)
        with pytest.raises(ValueError, match=named):
            simulate_paths(p, horizon, dt, 1, 2)

    def test_step_guard_propagates(self):
        p = make_params(lambda0=20.0, horizon=1.0)
        with pytest.raises(StepSizeError):
            run_replications(p, 1.0, 0.01, 3, 10)


class TestStepGrid:
    @pytest.mark.parametrize("t, steps", [
        (0.8999999999999999, 90),  # an ulp short of step 90's end counts as that end
        (0.355, 35),               # halfway through step 36
        (0.0, 0),
        (3.0 + 1e-13, 300),        # within the whole-step tolerance of the horizon
    ])
    def test_steps_ended(self, t, steps):
        assert Numerics(dt=0.01, horizon=3.0).steps_ended([t]).tolist() == [steps]

    @pytest.mark.parametrize("times, message", [
        ([], "non-empty"),
        ([0.5, math.nan], "finite"),
        ([1.0, 0.5], "ascending"),
        ([-0.01, 0.5], "within"),
        ([0.5, 3.01], "within"),
    ])
    def test_steps_ended_refuses(self, times, message):
        with pytest.raises(ValueError, match=message):
            Numerics(dt=0.01, horizon=3.0).steps_ended(times)

    def test_negative_horizon_refused(self):
        with pytest.raises(ValueError, match="horizon must be finite and >= 0"):
            step_count(-1.0, 0.01)

    def test_infinite_step_count_refused(self):
        # horizon / dt overflows to inf, which round() cannot take
        with pytest.raises(ValueError, match="not a finite number of steps"):
            step_count(20.0, 1e-320)
        with pytest.raises(ValueError, match="not a finite number of steps"):
            Numerics(dt=1e-320, horizon=20.0)

    def test_step_count_capped_at_2_to_53(self):
        # above 2**53 steps float64 cannot hold every step index and end time
        # k*dt, and steps_ended's int64 cast of such counts is undefined
        assert step_count(20.0, 20.0 / 2**53) == 2**53
        with pytest.raises(ValueError, match=r"horizon 20\.0 / dt=1e-300 .* more than 2\*\*53"):
            step_count(20.0, 1e-300)
        with pytest.raises(ValueError, match=r"more than 2\*\*53"):
            Numerics(dt=1e-300, horizon=20.0)


class TestReductions:
    def test_shock_free_matches_gamma_law(self):
        # lambda0 = 0: survival to t is the gamma first passage, which for a
        # monotone path is just P(wear(t) < H) = G(5; 2, 1.2) at t=4
        p = make_params(lambda0=0.0, gamma=0.0, horizon=4.0)
        n = 20_000
        ftime, _ = run_replications(p, 4.0, 0.01, 2025, n)
        expect = gamma_cdf(5.0, GammaLaw(2.0, 1.2))
        got = float(np.mean(ftime > 4.0))
        se = math.sqrt(expect * (1 - expect) / n)
        assert abs(got - expect) < 3 * se

    def test_every_shock_fatal_leaves_pure_arrival_law(self):
        # thresholds far below any magnitude: first arrival kills; survival is
        # the zero-count probability exp(-lambda0 * t) in the decoupled case
        p = make_params(lambda0=0.5, gamma=0.0, D0=-50.0, D1=-50.0, H=1e12,
                        eta=0.2, horizon=4.0)
        n = 20_000
        ftime, mode = run_replications(p, 4.0, 0.01, 31337, n)
        expect = facilitation_pmf(0, 0.2, 0.5 * 4.0)
        assert expect == pytest.approx(math.exp(-2.0), abs=1e-15)
        got = float(np.mean(ftime > 4.0))
        se = math.sqrt(expect * (1 - expect) / n)
        assert abs(got - expect) < 3 * se
        assert np.all(mode[np.isfinite(ftime)] == 2)

    def test_partially_fatal_shocks_against_count_law(self):
        # magnitudes N(10, 5^2) against a hard threshold of 5: each shock
        # survives with probability F_W(5); wear is irrelevant (huge H)
        p = make_params(lambda0=0.5, gamma=0.0, D0=5.0, D1=5.0, H=1e12,
                        eta=0.2, horizon=4.0)
        n = 20_000
        ftime, _ = run_replications(p, 4.0, 0.01, 60601, n)
        f_w = normal_cdf(5.0, p.shock.magnitude_law)
        expect = sum(facilitation_pmf(m, 0.2, 2.0) * f_w**m for m in range(200))
        got = float(np.mean(ftime > 4.0))
        se = math.sqrt(expect * (1 - expect) / n)
        assert abs(got - expect) < 3 * se

    def test_classic_independent_model_reduction(self):
        # no feedback, vanishing facilitation, jumps pinned at ~0: survival
        # factors into P(pure wear < H) * sum_m F_W(D1)^m * Poisson_m
        from shockwear import NormalLaw

        p = make_params(lambda0=0.5, gamma=0.0, eta=1e-9, D0=15.0, D1=15.0,
                        Y=NormalLaw(0.0, 1e-12), horizon=4.0)
        n = 20_000
        ftime, _ = run_replications(p, 4.0, 0.01, 70707, n)
        f_w = normal_cdf(15.0, p.shock.magnitude_law)
        lam = 0.5 * 4.0
        count_factor = sum(math.exp(-lam) * lam**m / math.factorial(m) * f_w**m
                           for m in range(80))
        expect = gamma_cdf(5.0, GammaLaw(2.0, 1.2)) * count_factor
        got = float(np.mean(ftime > 4.0))
        se = math.sqrt(expect * (1 - expect) / n)
        assert abs(got - expect) < 3 * se


class TestTraces:
    def test_reproducible_trace(self):
        p = make_params(horizon=5.0)
        a = simulate_paths(p, 5.0, 0.01, 404, 1)[0]
        b = simulate_paths(p, 5.0, 0.01, 404, 1)[0]
        assert a.trace == b.trace

    def test_trace_monotone_and_additive(self):
        p = make_params(lambda0=0.05, horizon=10.0)
        outs = simulate_paths(p, 10.0, 0.01, 505, 5)
        for out in outs:
            trace = out.trace
            assert trace[0] == (0.0, 0.0, 0.0, 0)
            pures = [row[1] for row in trace]
            jumps = [row[2] for row in trace]
            counts = [row[3] for row in trace]
            assert all(b >= a for a, b in zip(pures, pures[1:]))
            assert all(b >= a for a, b in zip(jumps, jumps[1:]))
            assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_trace_stops_at_failure(self):
        p = make_params(H=0.5, horizon=10.0)
        out = simulate_paths(p, 10.0, 0.01, 32, 1)[0]
        assert out.status == "soft_failed"
        assert out.trace[-1][0] == pytest.approx(out.failure_time)

    def test_shock_count_when_rate_changed(self):
        # aggressive config so damaging shocks actually occur
        p = make_params(lambda0=0.4, D0=12.0, horizon=10.0, H=50.0)
        outs = simulate_paths(p, 10.0, 0.01, 97, 50)
        changed = [o for o in outs if o.rate_change_time is not None]
        assert changed, "expected some damaging shocks in this configuration"
        for o in changed:
            assert o.n_shocks >= 1

    def test_slope_rises_after_rate_change(self):
        # mean wear slope alpha2/beta after the switch vs alpha1/beta before;
        # aggregate over many traces with a clear alpha contrast
        p = make_params(lambda0=0.4, D0=12.0, alpha1=0.5, alpha2=2.0,
                        H=1e12, horizon=10.0)
        outs = simulate_paths(p, 10.0, 0.01, 1234, 1000)
        before_num = before_den = after_num = after_den = 0.0
        for o in outs:
            if o.rate_change_time is None:
                continue
            tc = o.rate_change_time
            t0, p0 = o.trace[0][0], o.trace[0][1]
            tl, pl = o.trace[-1][0], o.trace[-1][1]
            # pure-path slope from 0 to the change, and change to the horizon
            pc = next(row[1] for row in o.trace if row[0] >= tc)
            if tc > 1.0:
                before_num += pc - p0
                before_den += tc - t0
            if tl - tc > 1.0:
                after_num += pl - pc
                after_den += tl - tc
        assert before_den > 0 and after_den > 0
        slope_before = before_num / before_den
        slope_after = after_num / after_den
        assert slope_after > 1.5 * slope_before

    def test_trace_reads_as_its_rows(self):
        # shocks, rate changes and failures, so every column varies and traces
        # end early
        p = make_params(lambda0=0.4, D0=12.0, horizon=10.0)
        outs = simulate_paths(p, 10.0, 0.01, 97, 20)
        assert any(o.status != "survived" for o in outs)
        assert any(o.trace[-1][3] > 0 and o.trace[-1][2] > 0.0 for o in outs)
        for o in outs:
            trace = o.trace
            n = len(trace)
            assert n == trace.t.size == trace.pure.size == trace.jumps.size == trace.n_shocks.size
            rows = [(trace.t[i].item(), trace.pure[i].item(), trace.jumps[i].item(),
                     trace.n_shocks[i].item()) for i in range(n)]
            assert all(list(map(type, row)) == [float, float, float, int] for row in rows)
            for i in (0, 1, n // 2, n - 1, -1, -n):
                assert trace[i] == rows[i]
                assert list(map(type, trace[i])) == [float, float, float, int]
            with pytest.raises(IndexError):
                trace[n]
            assert list(trace) == rows
            assert all(list(map(type, row)) == [float, float, float, int] for row in trace)
            for s in (slice(None), slice(1, None), slice(None, None, 7), slice(-3, None),
                      slice(5, 2)):
                assert trace[s] == tuple(rows)[s]
            assert trace == tuple(rows) and trace != tuple(rows[:-1])
            assert trace.t.tolist() == [i * 0.01 for i in range(n)]  # the end-of-step clock
            assert trace[-1][0] == (o.failure_time if o.failure_time is not None else 10.0)
            assert trace[-1][1] + trace[-1][2] == o.final_total_degradation

    def test_trace_equality_columns_and_hash(self):
        p = make_params(lambda0=0.4, D0=12.0, H=50.0, horizon=10.0)
        a, b, c = (simulate_paths(p, 10.0, 0.01, seed, 3) for seed in (97, 97, 98))
        assert a == b
        assert [x.trace == y.trace for x, y in zip(a, b)] == [True] * 3
        assert all(x.trace != y.trace for x, y in zip(a, c))
        assert {hash(o) for o in a} == {hash(o) for o in b}  # outcomes stay hashable
        assert hash(a[0].trace) == hash(tuple(a[0].trace))
        for name in ("t", "pure", "jumps", "n_shocks"):
            column = getattr(a[0].trace, name)
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 1

    def test_trace_memory(self):
        # the outcomes hold their traces as four 8-byte columns, with a small
        # per-trajectory overhead; at the peak, each replication's trace is
        # held in one form, its engine parts going once its columns exist
        p = make_params()
        simulate_paths(p, 20.0, 0.01, 1, 2)  # one-time imports and caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            outs = simulate_paths(p, 20.0, 0.01, 1, 200)
            held, peak = (size - before for size in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        rows = sum(len(o.trace) for o in outs)
        assert rows > 100_000
        assert held / rows <= 48
        assert peak / rows <= 36


class TestStreamContract:
    # Digests of stream contract v1 (tests/stream_v1.py), first computed with
    # the SeedSequence-per-stream seeding and the three-call refill (gamma,
    # random, random) that preceded the block-hashed seeding and the merged
    # uniform refill; both changes are meant to be byte-identical, so these
    # digests must not move unless the stream contract in simulate.py is
    # deliberately changed.
    @pytest.mark.parametrize("params, horizon, dt, seed, pin", [
        (make_params(dt=0.05), 20.0, 0.05, 20260808, "run_replications[valve_dt0.05]"),
        # decoupled, shock-heavy, with a random shape multiplier: all three modes occur
        (make_params(gamma=0.0, lambda0=1.0, eta=0.2, D0=15.0, D1=20.0,
                     theta_law=GammaLaw(4.0, 4.0), dt=0.01, horizon=8.0), 8.0, 0.01, 7,
         "run_replications[decoupled_shock_heavy]"),
    ], ids=["valve_dt0.05", "decoupled_shock_heavy"])
    def test_pinned_digest(self, params, horizon, dt, seed, pin):
        ftime, mode = run_replications(params, horizon, dt, seed, 500)
        assert hashlib.sha256(ftime.tobytes() + mode.tobytes()).hexdigest() == V1[pin].value

    def test_inverse_cdf_is_scipys(self):
        # the ufunc loaded from scipy's module file gives scipy.special's bits
        from scipy.special import gammaincinv

        rng = np.random.default_rng(3)
        shape = np.concatenate([rng.uniform(1e-4, 1.0, 5000), rng.uniform(1.0, 50.0, 5000)])
        u = rng.random(shape.size)
        u[:3] = 0.0, 0.5, 0.95  # zero, and both sides of the p > 0.9 branch
        got = kernel._scipy_ufunc("gammaincinv")(shape, u)
        assert got.tobytes() == gammaincinv(shape, u).tobytes()

    def test_inverse_cdf_falls_back_to_the_package(self, monkeypatch):
        # without scipy's module file, each name comes from the package
        from scipy import special

        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
        monkeypatch.setattr(kernel, "_special_ufuncs", kernel._special_ufuncs.__wrapped__)
        for name in ("gammainc", "gammaincinv"):
            assert kernel._scipy_ufunc(name) is getattr(special, name)
