"""Shock parameters, the arrival-count sampler, and the engine's arrival
guard and magnitude classification."""

import math

import numpy as np
import pytest

from shockwear import (
    MAX_RATE_DT,
    NormalLaw,
    ShockParams,
    StepSizeError,
    run_replications,
)
from shockwear.kernel import normal_cdf
from shockwear.shocks import poisson_counts
from shockwear.simulate import simulate_sets
from tests.conftest import make_params


def valve_shock(**kw):
    base = dict(lambda0=2.5e-5, gamma_dep=0.001, eta=0.2,
                magnitude_law=NormalLaw(10.0, 5.0),
                damage_threshold=30.0, hard_threshold=40.0)
    base.update(kw)
    return ShockParams(**base)


class TestIntensity:
    def test_invariants_validated(self):
        with pytest.raises(ValueError):
            ShockParams(lambda0=0.1, gamma_dep=0.0, eta=0.2,
                        magnitude_law=NormalLaw(10.0, 5.0),
                        damage_threshold=45.0, hard_threshold=40.0)
        with pytest.raises(ValueError):
            valve_shock(eta=0.0)
        with pytest.raises(ValueError):
            valve_shock(lambda0=-1.0)
        with pytest.raises(ValueError, match="thresholds must be finite"):
            valve_shock(hard_threshold=math.inf)


class TestArrivals:
    def test_zero_rate(self):
        res = simulate_sets([make_params(lambda0=0.0, gamma=0.0, horizon=5.0)], 1, 0, 1000)[0]
        assert not res.n_shocks.any()

    def test_step_guard(self):
        # a fresh system runs at intensity lambda0 = 20, so 20*0.01 trips the
        # guard on the first step, which names dt <= MAX_RATE_DT/20
        p = make_params(lambda0=20.0, gamma=0.0, horizon=1.0)
        with pytest.raises(StepSizeError) as err:
            run_replications(p, 1.0, 0.01, 3, 10)
        assert err.value.suggested_dt == pytest.approx(MAX_RATE_DT / 20.0)
        assert "dt" in str(err.value)

    def test_mean_matches_rate(self):
        rng = np.random.default_rng(88)
        n = 10**6
        mu = 0.01
        counts = poisson_counts(np.full(n, mu), rng.random(n))
        se = math.sqrt(mu / n)
        assert abs(counts.mean() - mu) < 3 * se

    def test_inversion_monotone_in_rate(self):
        # common-random-number coupling: same uniform, higher mean, never fewer arrivals
        u = np.random.default_rng(9).random(50_000)
        lo = poisson_counts(np.full(u.shape, 0.02), u)
        hi = poisson_counts(np.full(u.shape, 0.09), u)
        assert np.all(hi >= lo)


def classified(w_mean, w_sd=1e-300, n=400):
    """Engine outcome with shock magnitudes drawn from N(w_mean, w_sd^2); the
    default stdev is below the float spacing at these thresholds, so every
    magnitude then equals w_mean exactly."""
    p = make_params(lambda0=0.5, gamma=0.0, H=1e12, D0=30.0, D1=40.0,
                    W=NormalLaw(w_mean, w_sd), horizon=4.0)
    res = simulate_sets([p], 12, 0, n)[0]
    assert res.n_shocks.any()
    return res


class TestClassification:
    def test_fatal_above_hard_threshold(self):
        # the first shock kills, before it can switch the wear rate
        res = classified(60.0, 1.0)
        hard = res.mode == 2
        assert np.array_equal(hard, res.n_shocks > 0)
        assert np.all(res.n_shocks[hard] == 1)
        assert np.all(np.isnan(res.rate_change_time))

    def test_damaging_between_thresholds(self):
        # never fatal; the first shock switches the wear rate
        res = classified(35.0, 0.5)
        assert not np.any(res.mode == 2)
        assert np.array_equal(~np.isnan(res.rate_change_time), res.n_shocks > 0)

    def test_boundaries(self):
        at_d0 = classified(30.0)      # at D0 exactly: no damage
        assert np.all(np.isnan(at_d0.rate_change_time)) and not np.any(at_d0.mode == 2)
        at_d1 = classified(40.0)      # at D1 exactly: damaging, not fatal
        assert not np.any(at_d1.mode == 2)
        assert np.array_equal(~np.isnan(at_d1.rate_change_time), at_d1.n_shocks > 0)
        negative = classified(-3.0)   # negative magnitudes are legal and benign
        assert np.all(np.isnan(negative.rate_change_time)) and not np.any(negative.mode == 2)

    def test_damaging_fraction(self):
        # P(30 < W <= 40) for W ~ N(10, 5^2) spans the 4-to-6 sigma band
        p = valve_shock()
        expect = normal_cdf(40.0, p.magnitude_law) - normal_cdf(30.0, p.magnitude_law)
        assert expect == pytest.approx(3.167e-5, abs=2e-8)
        rng = np.random.default_rng(12)
        mags = rng.normal(10.0, 5.0, size=10**7)
        frac = np.mean((mags > 30.0) & (mags <= 40.0))
        se = math.sqrt(expect * (1 - expect) / mags.size)
        assert abs(frac - expect) < 3 * se
