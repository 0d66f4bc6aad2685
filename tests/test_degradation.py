"""Wear-path properties, checked on the engine's end points and step traces."""

import math

import pytest
from scipy import stats

from shockwear import (
    DegradationParams,
    GammaLaw,
    NormalLaw,
    Numerics,
    run_replications,
    simulate_paths,
)
from shockwear.simulate import simulate_sets
from tests.conftest import make_params


def valve_degradation(**kw):
    base = dict(alpha1=0.5, alpha2=0.9, beta=1.2,
                jump_law=NormalLaw(0.5, 0.1), soft_threshold=5.0)
    base.update(kw)
    return DegradationParams(**base)


def wear_only(**kw):
    # no shocks and an unreachable threshold: the end point is the pure gamma path
    base = dict(lambda0=0.0, gamma=0.0, D0=40.0, H=1e12)
    base.update(kw)
    return make_params(**base)


def shocked(**kw):
    # decoupled arrivals about every two time units, wear never fails
    base = dict(lambda0=0.5, gamma=0.0, H=1e12, horizon=10.0)
    base.update(kw)
    return make_params(**base)


class TestAdvance:
    def test_pre_change_increment_mean(self):
        # one step of dt=0.01: Gamma(alpha1*dt, beta) with mean 0.5*0.01/1.2
        n = 50_000
        res = simulate_sets([wear_only(horizon=0.01)], 31, 0, n)[0]
        law = GammaLaw(0.5 * 0.01, 1.2)
        se = math.sqrt(law.variance / n)
        assert abs(res.final_total.mean() - 0.0041667) < 4 * se

    def test_theta_scales_mean(self):
        # theta ~ Gamma(4, 2) has mean 2, so the end point at t=4 has mean
        # 2*alpha1*t/beta; its variance adds Var(theta)*(alpha1*t/beta)^2
        t, n = 4.0, 20_000
        res = simulate_sets([wear_only(horizon=t, dt=0.1, theta_law=GammaLaw(4.0, 2.0))], 32, 0, n)[0]
        base = GammaLaw(0.5 * t, 1.2)
        var = 2.0 * base.variance + 1.0 * base.mean**2
        assert abs(res.final_total.mean() - 2.0 * 0.5 * t / 1.2) < 4 * math.sqrt(var / n)

    def test_vanishing_step(self):
        res = simulate_sets([wear_only(horizon=1e-6, dt=1e-6)], 33, 0, 20_000)[0]
        assert res.final_total.mean() < 1e-5

    def test_post_change_rate(self):
        # every shock is damaging, none fatal: after the first one the pure
        # path grows at alpha2/beta = 0.75 per unit time (0.42 before)
        outs = simulate_paths(shocked(D0=-50.0, D1=1e6), 10.0, 0.01, 34, 200)
        grown = elapsed = 0.0
        for o in outs:
            if o.rate_change_time is None:
                continue
            pc = next(row[1] for row in o.trace if row[0] >= o.rate_change_time)
            grown += o.trace[-1][1] - pc
            elapsed += o.trace[-1][0] - o.rate_change_time
        assert elapsed > 0.0
        se = math.sqrt(0.9 / 1.2**2 / elapsed)
        assert abs(grown / elapsed - 0.75) < 4 * se

    def test_clock_and_jumps_untouched(self):
        # rows sit on the step grid, and jumps move only on rows with arrivals
        for o in simulate_paths(shocked(horizon=5.0), 5.0, 0.01, 35, 20):
            for i, (prev, row) in enumerate(zip(o.trace, o.trace[1:]), start=1):
                assert row[0] == i * 0.01
                if row[3] == prev[3]:
                    assert row[2] == prev[2]

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError, match="dt"):
            run_replications(make_params(horizon=1.0), 1.0, 0.0, 1, 10)
        with pytest.raises(ValueError):
            Numerics(dt=0.0)


class TestJumpAndTrigger:
    def test_jump_additivity(self):
        # benign shocks with jumps pinned at 0.5: the jump sum is 0.5 per shock
        p = shocked(D0=1e6, D1=1e6, Y=NormalLaw(0.5, 1e-12))
        outs = simulate_paths(p, 10.0, 0.01, 36, 20)
        assert any(o.n_shocks > 1 for o in outs)
        for o in outs:
            for _, _, jumps, n_shocks in o.trace:
                assert jumps == pytest.approx(0.5 * n_shocks, abs=1e-9)

    def test_negative_jump_clamped(self):
        # Y = N(-1, 0.1) is negative for all practical purposes; every draw is
        # clamped to 0, so wear never picks up a jump
        outs = simulate_paths(shocked(D0=1e6, D1=1e6, Y=NormalLaw(-1.0, 0.1)), 10.0, 0.01, 37, 20)
        assert any(o.n_shocks > 0 for o in outs)
        for o in outs:
            assert all(row[2] == 0.0 for row in o.trace)

    def test_trigger_sets_once(self):
        # every shock is damaging: the change time is the first shock's step,
        # and later damaging shocks do not move it
        outs = simulate_paths(shocked(D0=-50.0, D1=1e6), 10.0, 0.01, 38, 20)
        assert any(o.n_shocks > 1 for o in outs)
        for o in outs:
            first = next((row[0] for row in o.trace if row[3] > 0), None)
            assert o.rate_change_time == first

    def test_total(self):
        outs = simulate_paths(make_params(lambda0=0.4, D0=12.0, horizon=10.0), 10.0, 0.01, 39, 20)
        assert any(o.status != "survived" for o in outs)
        for o in outs:
            _, pure, jumps, _ = o.trace[-1]
            assert o.final_total_degradation == pure + jumps
            assert o.final_total_degradation >= pure

    def test_monotone_over_random_op_sequence(self):
        # jumps that are sometimes negative, rate changes and wear steps in any
        # order: total wear along every trace never decreases
        p = shocked(lambda0=0.4, D0=12.0, Y=NormalLaw(0.2, 0.3))
        outs = simulate_paths(p, 10.0, 0.01, 77, 30)
        assert any(o.rate_change_time is not None for o in outs)
        for o in outs:
            totals = [row[1] + row[2] for row in o.trace]
            assert all(b >= a for a, b in zip(totals, totals[1:]))

    def test_alpha_order_warning(self):
        with pytest.warns(UserWarning):
            valve_degradation(alpha1=0.9, alpha2=0.5)


class TestPathDistribution:
    def test_endpoint_matches_gamma_law(self):
        # no shocks: the wear endpoint at t=4 is Gamma(alpha1*4, beta) exactly
        res = simulate_sets([make_params(lambda0=0.0, gamma=0.0, D0=40.0, H=1e12, horizon=4.0)],
                            4242, 0, 30_000)[0]
        law = GammaLaw(2.0, 1.2)
        ks = stats.kstest(res.final_total, lambda x: stats.gamma.cdf(x, a=law.shape, scale=1 / law.rate))
        assert ks.pvalue > 0.01

    def test_step_size_invariance(self):
        # gamma increments are infinitely divisible: endpoint law must not
        # depend on dt beyond sampling noise
        def endpoints(dt, seed):
            p = make_params(lambda0=0.0, gamma=0.0, D0=40.0, H=1e12, horizon=4.0, dt=dt)
            return simulate_sets([p], seed, 0, 30_000)[0].final_total

        ks = stats.ks_2samp(endpoints(0.01, 555), endpoints(0.0025, 556))
        assert ks.pvalue > 0.01
