import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special

from shockwear import (
    GammaLaw,
    NormalLaw,
    UnsupportedConfigError,
    analytic_reliability,
    estimate_reliability,
    run_replications,
    sweep,
)
from shockwear.config import load_config
from shockwear.kernel import facilitation_pmf, gamma_cdf
from shockwear.reliability import _wear_below, apply_sweep_value, wilson_interval
from tests.conftest import make_params

DECOUPLED_JSON = Path(__file__).resolve().parent.parent / "perfbench" / "configs" / "decoupled.json"


def decoupled(**kw):
    # gamma feedback off, rate change off (D0 = D1), fixed theta
    base = dict(lambda0=0.5, gamma=0.0, D0=40.0, D1=40.0, horizon=8.0)
    base.update(kw)
    return make_params(**base)


class TestEstimate:
    def test_time_zero_is_certain(self):
        p = make_params(horizon=5.0)
        curve = estimate_reliability(p, [0.0], 500, 1)
        assert curve.estimate[0] == 1.0
        assert curve.ci_high[0] == 1.0

    def test_curve_shape(self):
        p = make_params(horizon=20.0)
        grid = np.linspace(0.0, 20.0, 21)
        curve = estimate_reliability(p, grid, 4000, 12)
        assert np.all(np.diff(curve.estimate) <= 0.0)
        assert np.all(curve.ci_low <= curve.estimate + 1e-15)
        assert np.all(curve.estimate <= curve.ci_high + 1e-15)
        assert np.all((curve.ci_low >= 0.0) & (curve.ci_high <= 1.0))
        assert np.all(curve.soft_count + curve.hard_count <= curve.n_reps)
        # mode tallies are cumulative and consistent with the estimate
        surv = curve.n_reps - curve.soft_count - curve.hard_count
        assert np.array_equal(curve.survived_count, surv)
        assert np.allclose(curve.estimate, surv / curve.n_reps)

    def test_grid_validation(self):
        p = make_params(horizon=5.0)
        with pytest.raises(ValueError):
            estimate_reliability(p, [2.0, 1.0], 100, 1)
        with pytest.raises(ValueError):
            estimate_reliability(p, [0.0, 6.0], 100, 1)
        with pytest.raises(ValueError):
            estimate_reliability(p, [1.0], 0, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_grid_refused(self, bad):
        # NaN passes every ordering test, so it is refused by name
        p = make_params(horizon=5.0)
        with pytest.raises(ValueError, match="grid times must be finite"):
            estimate_reliability(p, [0.5, bad], 200, 1)
        with pytest.raises(ValueError, match="grid times must be finite"):
            sweep(p, "gamma", [0.0, 0.001], [0.5, bad], 200, 1)

    def test_deterministic_in_master_seed(self):
        p = make_params(horizon=10.0)
        grid = np.linspace(0.0, 10.0, 11)
        a = estimate_reliability(p, grid, 3000, 314)
        b = estimate_reliability(p, grid, 3000, 314)
        assert np.array_equal(a.estimate, b.estimate)
        assert np.array_equal(a.soft_count, b.soft_count)


class TestWilson:
    def test_bounds_at_extremes(self):
        lo, hi = wilson_interval(np.array([0]), 100)
        assert lo[0] == 0.0 and hi[0] > 0.0
        lo, hi = wilson_interval(np.array([100]), 100)
        assert hi[0] == 1.0 and lo[0] < 1.0

    def test_half(self):
        lo, hi = wilson_interval(np.array([50]), 100)
        assert lo[0] == pytest.approx(0.404, abs=2e-3)
        assert hi[0] == pytest.approx(0.596, abs=2e-3)


class TestAnalytic:
    def test_time_zero(self):
        assert analytic_reliability(decoupled(), 0.0) == 1.0

    @pytest.mark.parametrize("t", [-1.0, math.nan])
    def test_bad_time_refused(self, t):
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            analytic_reliability(decoupled(), t)

    def test_no_shock_limit_is_pure_gamma(self):
        p = decoupled(lambda0=0.0)
        want = gamma_cdf(5.0, GammaLaw(2.0, 1.2))
        assert analytic_reliability(p, 4.0) == pytest.approx(want, abs=1e-12)

    def test_all_fatal_shocks_leave_the_no_shock_term(self):
        # W ~ N(1000, 1) never stays below D1 = 40, so every summand with a
        # shock is 0 and the survival is P(pure wear < H) * P(no shock by t),
        # with lambda0 * t = 1 at t = 4
        p = decoupled(lambda0=0.25, W=NormalLaw(1000.0, 1.0))
        want = gamma_cdf(5.0, GammaLaw(2.0, 1.2)) * facilitation_pmf(0, 0.2, 1.0)
        assert analytic_reliability(p, 4.0) == want

    # analytic_reliability on perfbench/configs/decoupled.json at t = 1, 2, 4, 8
    # with the gamma CDF integrated against the jump-sum density, as
    # _wear_below does; an earlier form, the wear density integrated against
    # the jump-sum CDF, agreed with these to 1.7e-12
    PINNED = {1.0: 0.9982678348046121, 2.0: 0.971908645347567,
              4.0: 0.59896576473022, 8.0: 0.024713504884259656}

    def test_pinned_decoupled_values(self):
        p = load_config(str(DECOUPLED_JSON)).model
        for t, want in self.PINNED.items():
            assert analytic_reliability(p, t) == pytest.approx(want, abs=1e-9), t

    @staticmethod
    def _quad_wear_term(h, a, beta, m, jumps):
        """P(X + S_m < h, S_m >= 0) as _wear_below writes it, scipy's gamma CDF
        of h - y against the density of the jump sum y, but integrated by
        QUADPACK over 12 standard deviations, with a break point at the mean."""
        mean, sd = m * jumps.mean, math.sqrt(m) * jumps.stdev
        lo, hi = max(0.0, mean - 12.0 * sd), min(h, mean + 12.0 * sd)
        if hi <= lo:
            return 0.0

        def f(y):
            z = (y - mean) / sd
            return special.gammainc(a, beta * (h - y)) * math.exp(-0.5 * z * z) / (
                sd * math.sqrt(2.0 * math.pi))

        points = [mean] if lo < mean < hi else None
        return integrate.quad(f, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=1000,
                              points=points)[0]

    @pytest.mark.parametrize("a", [0.005, 0.05, 0.3, 0.7, 1.0, 1.2, 1.5, 1.9, 3.0, 8.0,
                                   20.0, 60.0])
    def test_wear_terms_against_quadpack(self, a):
        # wear shape a = alpha1 * t; the rate keeps the mean wear a/beta at
        # most 3, below H = 5, so the terms of few shocks carry mass at every a
        beta = max(1.2, a / 3.0)
        jumps = NormalLaw(0.5, 0.1)
        for m in range(1, 13):
            want = self._quad_wear_term(5.0, a, beta, m, jumps)
            assert _wear_below(5.0, GammaLaw(a, beta), m, jumps) == pytest.approx(want, abs=1e-8), m

    def test_wear_term_at_a_power_endpoint_within_quad_tol(self):
        # shape 1.2 puts an x**0.2 factor at the wear density's endpoint
        jumps = NormalLaw(0.5, 0.1)
        want = self._quad_wear_term(5.0, 1.2, 1.2, 12, jumps)
        assert _wear_below(5.0, GammaLaw(1.2, 1.2), 12, jumps) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("a", [1e4, 1e5, 1e10, 1e17])
    def test_narrow_wear_peak_is_found(self, a):
        # at h = a the wear mass (sd sqrt(a)) is a narrow peak in [0, h]; at
        # a = 1e5 every first sample of a wear-density integrand once missed
        # it and the term read 1e-21 for about 0.5, and from about 2e5 up
        # that integrand lost its digits and raised IntegrationError
        jumps = NormalLaw(0.5, 0.1)
        want = self._quad_wear_term(a, a, 1.0, 1, jumps)
        assert _wear_below(a, GammaLaw(a, 1.0), 1, jumps) == pytest.approx(want, abs=1e-9)

    def test_monotone_in_time(self):
        p = decoupled()
        vals = [analytic_reliability(p, t) for t in (0.0, 1.0, 2.0, 4.0, 8.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_refuses_coupled_feedback(self):
        p = make_params(gamma=0.001, D0=40.0, D1=40.0)
        with pytest.raises(UnsupportedConfigError, match="gamma_dep"):
            analytic_reliability(p, 4.0)

    def test_refuses_active_rate_change(self):
        p = make_params(gamma=0.0, D0=30.0, D1=40.0)
        with pytest.raises(UnsupportedConfigError, match="rate change"):
            analytic_reliability(p, 4.0)

    def test_refuses_random_theta(self):
        p = decoupled(theta_law=GammaLaw(10.0, 10.0))
        with pytest.raises(UnsupportedConfigError, match="theta"):
            analytic_reliability(p, 4.0)

    def test_refuses_jump_law_with_negative_mass(self):
        # Y = N(0, 0.5): the engine clamps half the jumps to 0, the oracle
        # convolves them unclamped (R(2) 0.564 against Monte Carlo 0.992)
        p = decoupled(lambda0=1.0, Y=NormalLaw(0.0, 0.5))
        with pytest.raises(UnsupportedConfigError, match=r"P\(Y < 0\)"):
            analytic_reliability(p, 2.0)
        # the paper's N(0.5, 0.1) has P(Y < 0) = 2.9e-7 and stays accepted
        assert 0.0 < analytic_reliability(decoupled(lambda0=1.0), 2.0) <= 1.0

    def test_rate_change_disabled_via_equal_alphas_is_accepted(self):
        p = make_params(gamma=0.0, D0=30.0, D1=40.0, alpha2=0.5)
        assert 0.0 < analytic_reliability(p, 4.0) <= 1.0

    def test_matches_monte_carlo(self):
        p = decoupled()
        n = 20_000
        grid = np.array([1.0, 2.0, 4.0, 8.0])
        curve = estimate_reliability(p, grid, n, 8088)
        for i, t in enumerate(grid):
            want = analytic_reliability(p, t)
            half = 0.5 * (curve.ci_high[i] - curve.ci_low[i])
            assert abs(curve.estimate[i] - want) <= max(3 * half, 0.01)


class TestSweep:
    def test_single_value_reproduces_estimate(self):
        p = make_params(horizon=10.0)
        grid = np.linspace(0.0, 10.0, 11)
        lone = sweep(p, "gamma", [0.001], grid, 2000, 55)
        direct = estimate_reliability(p, grid, 2000, 55)
        assert lone[0][0] == 0.001
        assert np.array_equal(lone[0][1].estimate, direct.estimate)
        assert np.array_equal(lone[0][1].ci_low, direct.ci_low)

    def test_unknown_parameter(self):
        p = make_params()
        with pytest.raises(ValueError, match="alpha2"):
            sweep(p, "beta", [1.0], [0.0], 10, 1)

    def test_no_values_refused(self):
        with pytest.raises(ValueError, match="at least one value"):
            sweep(make_params(), "gamma", [], [0.0], 10, 1)

    def test_apply_sweep_value_touches_right_field(self):
        p = make_params()
        assert apply_sweep_value(p, "D0", 20.0).shock.damage_threshold == 20.0
        assert apply_sweep_value(p, "gamma", 0.01).shock.gamma_dep == 0.01
        assert apply_sweep_value(p, "eta", 0.4).shock.eta == 0.4
        assert apply_sweep_value(p, "lambda0", 0.1).shock.lambda0 == 0.1
        assert apply_sweep_value(p, "alpha2", 0.7).degradation.alpha2 == 0.7
        assert apply_sweep_value(p, "H", 6.0).degradation.soft_threshold == 6.0
        assert apply_sweep_value(p, "D1", 50.0).shock.hard_threshold == 50.0

    def test_invalid_sweep_value_rejected(self):
        p = make_params()
        with pytest.raises(ValueError):
            apply_sweep_value(p, "D0", 50.0)  # would exceed D1


def _share_past(params, steps, n_reps, seed):
    """R-hat at each grid step from the engine's failure steps: the share of
    replications whose failure step rint(time / dt) is past it (survivors
    carry an infinite time)."""
    num = params.numerics
    ftime, _ = run_replications(params, num.horizon, num.dt, seed, n_reps)
    fstep = np.rint(ftime / num.dt)
    return np.array([np.mean(fstep > k) for k in steps])


class TestCountByStep:
    # linspace(0, 3, 11) at dt = 0.1: 7 of the 11 times fall an ulp short of
    # their step's end (0.8999999999999999 against 9 * 0.1 = 0.9), and the
    # failures of that step still count
    GRID = np.linspace(0.0, 3.0, 11)
    STEPS = np.arange(11) * 3

    def test_estimate_counts_failures_by_step(self):
        p = make_params(H=1.0, dt=0.1, horizon=3.0)
        curve = estimate_reliability(p, self.GRID, 20_000, 1)
        assert np.array_equal(curve.estimate, _share_past(p, self.STEPS, 20_000, 1))
        assert np.array_equal(curve.grid, self.GRID)  # the caller's times, unchanged

    def test_sweep_counts_failures_by_step(self):
        p = make_params(H=1.0, dt=0.1, horizon=3.0)
        for value, curve in sweep(p, "H", [1.0, 1.5], self.GRID, 20_000, 1):
            want = _share_past(apply_sweep_value(p, "H", value), self.STEPS, 20_000, 1)
            assert np.array_equal(curve.estimate, want)


class TestCoverage:
    def test_wilson_covers_analytic(self):
        # 100 independent master seeds at 1e4 replications; the 95% interval
        # should contain the analytic value in at least 90 of them
        p = decoupled(horizon=4.0)
        want = analytic_reliability(p, 4.0)
        grid = np.array([4.0])
        hits = 0
        for seed in range(100):
            curve = estimate_reliability(p, grid, 10_000, 900_000 + seed)
            if curve.ci_low[0] <= want <= curve.ci_high[0]:
                hits += 1
        assert hits >= 90
