"""Reliability curves: Monte Carlo estimation, a semi-analytic oracle for the
decoupled special case, and paired-seed parameter sweeps."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .config import MODEL_KEYS
from .errors import IntegrationError, UnsupportedConfigError
from .kernel import (
    GammaLaw,
    NormalLaw,
    facilitation_pmf,
    gamma_cdf,
    iid_sum_normal,
    normal_cdf,
)
from .quadrature import integrate
from .simulate import ModelParams, Numerics, run_replications, simulate_sets

_Z95 = 1.959963984540054
_PMF_TAIL_TOL = 1e-10  # truncation of the count-law sum in the analytic path
_QUAD_TOL = 1e-9       # absolute tolerance per damage-convolution integral
_MAX_TERMS = 200_000   # count terms the analytic sum may take before it gives up
# The engine clamps negative jumps to 0 and the oracle convolves unclamped
# normal sums; their curves differ by at most E[N(t)] * P(Y < 0), so the oracle
# accepts a jump law only while P(Y < 0) is far below any Monte Carlo error.
_MAX_NEGATIVE_JUMP_P = 1e-6

SWEEPABLE = ("D0", "gamma", "eta", "lambda0", "alpha2", "H", "D1")


@dataclass(frozen=True)
class ReliabilityCurve:
    grid: np.ndarray       # ascending times
    estimate: np.ndarray   # survival fraction at each grid time
    ci_low: np.ndarray
    ci_high: np.ndarray
    n_reps: int
    soft_count: np.ndarray  # soft failures observed by each grid time
    hard_count: np.ndarray
    survived_count: np.ndarray  # replications alive at each grid time


def wilson_interval(successes: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """95% score interval for a binomial proportion; stays sane near 0 and 1."""
    z = _Z95
    s = np.asarray(successes, dtype=float)
    p = s / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = (z / denom) * np.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    # center - half is 0 (resp. 1) analytically at s = 0 (resp. n); pin the
    # endpoints so float residue never leaks into the bounds
    lo = np.where(s == 0, 0.0, np.maximum(center - half, 0.0))
    hi = np.where(s == n, 1.0, np.minimum(center + half, 1.0))
    return lo, hi


def _curve(grid, steps, num: Numerics, ftime: np.ndarray, mode: np.ndarray) -> ReliabilityCurve:
    """The curve of one replication set's failures, counted by step up to ``steps``."""
    n_reps = ftime.size
    soft, hard = (np.searchsorted(np.sort(np.rint(ftime[mode == m] / num.dt)), steps, side="right")
                  for m in (1, 2))
    surv = n_reps - soft - hard  # every failure is soft or hard; survivors carry inf
    lo, hi = wilson_interval(surv, n_reps)
    return ReliabilityCurve(
        grid=np.asarray(grid, dtype=float),
        estimate=surv / n_reps,
        ci_low=lo,
        ci_high=hi,
        n_reps=n_reps,
        soft_count=soft,
        hard_count=hard,
        survived_count=surv,
    )


def estimate_reliability(params: ModelParams, grid, n_reps: int,
                         master_seed: int) -> ReliabilityCurve:
    """Monte Carlo survival curve from one replication set evaluated at every
    grid time, which keeps the curve exactly nonincreasing. Step size and
    horizon come from ``params.numerics``."""
    num = params.numerics
    return _curve(grid, num.steps_ended(grid), num,  # the grid is checked before the run
                  *run_replications(params, num.horizon, num.dt, master_seed, n_reps))


def _require_decoupled(params: ModelParams) -> None:
    shk = params.shock
    deg = params.degradation
    if shk.gamma_dep != 0.0:
        raise UnsupportedConfigError(
            f"analytic reliability requires gamma_dep = 0 (wear does not feed the "
            f"shock intensity); got gamma_dep = {shk.gamma_dep}"
        )
    rate_change_possible = deg.alpha2 != deg.alpha1 and shk.damage_threshold < shk.hard_threshold
    if rate_change_possible:
        raise UnsupportedConfigError(
            "analytic reliability requires the rate change disabled: set alpha2 == alpha1 "
            f"or damage_threshold >= hard_threshold (got alpha2={deg.alpha2}, "
            f"alpha1={deg.alpha1}, D0={shk.damage_threshold}, D1={shk.hard_threshold})"
        )
    if deg.theta_law is not None:
        raise UnsupportedConfigError("analytic reliability requires a fixed shape-rate "
                                     "multiplier (theta_law must be None)")
    p_negative = normal_cdf(0.0, deg.jump_law)
    if p_negative > _MAX_NEGATIVE_JUMP_P:
        raise UnsupportedConfigError(
            "analytic reliability requires jumps Y that are almost surely positive: "
            f"P(Y < 0) = {p_negative:.3g} exceeds {_MAX_NEGATIVE_JUMP_P:g} (got Y = "
            f"N({deg.jump_law.mean}, {deg.jump_law.stdev}^2)); the engine clamps "
            "negative jumps to 0 and the oracle does not"
        )


def _wear_below(h: float, wear: GammaLaw, m: int, jump_law: NormalLaw) -> float:
    """P(X + S < h, S >= 0) for pure wear X ~ ``wear`` and S the sum of m >= 1
    jumps drawn from ``jump_law``.

    The density of X is integrated against P(0 <= S < h - x), which the
    normal CDF gives in closed form, so no special function is evaluated
    inside the quadrature. For a shape a < 1 the substitution v = x**a turns
    the x**(a-1) endpoint into the bounded integrand
    beta**a exp(-beta v**(1/a)) / Gamma(a+1). Wear x above h - (E[S] - 10 sd(S))
    is skipped: there S < h - x needs a jump sum 10 standard deviations below
    its mean. For a >= 1 only wear within 40 standard deviations of the mode
    is integrated, and the density is exp of a sum of log terms; where their
    rounding alone could exceed the quadrature's tolerance (shapes from about
    2e5 up), IntegrationError is raised rather than a value.
    """
    jumps = iid_sum_normal(m, jump_law)
    x_hi = h - max(0.0, jumps.mean - 10.0 * jumps.stdev)
    if x_hi <= 0.0:
        return 0.0
    p_negative = normal_cdf(0.0, jumps)
    a, beta = wear.shape, wear.rate
    if a < 1.0:
        log_c = a * math.log(beta) - math.lgamma(a + 1.0)
        inv_a = 1.0 / a

        def integrand(v):
            x = v ** inv_a
            return math.exp(log_c - beta * x) * (normal_cdf(h - x, jumps) - p_negative)

        return integrate(integrand, 0.0, x_hi ** a, tol=_QUAD_TOL)

    # The mass lies within 40 standard deviations of the mode, and a peak
    # narrower than the quadrature's first panels could fall between their samples.
    spread = 40.0 * math.sqrt(a)
    lo, hi = max(0.0, (a - 1.0 - spread) / beta), min(x_hi, (a - 1.0 + spread) / beta)
    log_c = a * math.log(beta) - math.lgamma(a)
    # The log-density adds terms of this size whose sum is small where the
    # density lives; their rounding is that much relative error in the density.
    # (Where the spread is below one ulp of the mode, lo == hi and they are huge.)
    terms = abs(log_c) + (a - 1.0) * abs(math.log(hi)) + beta * hi
    if terms * sys.float_info.epsilon > _QUAD_TOL:
        raise IntegrationError(f"the wear density of {wear} loses its digits: its log terms "
                               f"reach {terms:.3g}, whose rounding exceeds tol={_QUAD_TOL:g}")
    if lo >= hi:
        return 0.0
    density_at_0 = beta if a == 1.0 else 0.0

    def integrand(x):
        density = math.exp(log_c + (a - 1.0) * math.log(x) - beta * x) if x > 0.0 else density_at_0
        return density * (normal_cdf(h - x, jumps) - p_negative)

    return integrate(integrand, lo, hi, tol=_QUAD_TOL)


def analytic_reliability(params: ModelParams, t: float) -> float:
    """Survival probability at t for the decoupled case, summed over shock counts.

    Term m is: (no hard failure)^m * P(m shocks) * P(wear + m jumps < H), the
    last factor the gamma CDF at m = 0 and a quadrature of the wear density
    against the jump-sum CDF otherwise (``_wear_below``). Truncation stops
    when the count law's tail is negligible or the wear factor has decayed to
    nothing. Coupled configurations are refused rather than approximated.
    """
    _require_decoupled(params)
    t = float(t)  # a numpy time would carry numpy's overflow warnings into the sum
    if t < 0.0 or not math.isfinite(t):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    if t == 0.0:
        return 1.0
    deg = params.degradation
    shk = params.shock
    big_lambda = shk.lambda0 * t
    f_w = normal_cdf(shk.hard_threshold, shk.magnitude_law)
    glaw = GammaLaw(deg.alpha1 * t, deg.beta)
    h = deg.soft_threshold

    total = 0.0
    cum_pmf = 0.0
    tiny_run = 0
    m = 0
    while True:
        p_m = facilitation_pmf(m, shk.eta, big_lambda)
        if m == 0:
            wear_ok = gamma_cdf(h, glaw)
        else:
            try:
                wear_ok = _wear_below(h, glaw, m, deg.jump_law)
            except OverflowError as exc:
                raise IntegrationError(f"the wear density of {glaw} overflows: {exc}") from exc
            tiny_run = tiny_run + 1 if wear_ok < 1e-13 else 0
        total += (f_w**m) * p_m * wear_ok
        cum_pmf += p_m
        m += 1
        if 1.0 - cum_pmf < _PMF_TAIL_TOL:
            break
        if tiny_run >= 2:
            break  # extra jumps only push wear further past the threshold
        if m > _MAX_TERMS:
            raise UnsupportedConfigError(
                f"analytic reliability did not truncate within {_MAX_TERMS} count terms; "
                "this jump law keeps the wear factor from decaying"
            )
    return min(total, 1.0)


def apply_sweep_value(params: ModelParams, parameter: str, value: float) -> ModelParams:
    if parameter not in SWEEPABLE:
        raise ValueError(f"unknown sweep parameter {parameter!r}; accepted: {', '.join(SWEEPABLE)}")
    section, name, _ = MODEL_KEYS[parameter]
    return replace(params, **{section: replace(getattr(params, section), **{name: value})})


def sweep(base: ModelParams, parameter: str, values, grid, n_reps: int,
          master_seed: int) -> list[tuple[float, ReliabilityCurve]]:
    """One curve per value, all run from the same master seed so every
    replication sees identical randomness across values (common random
    numbers); orderings along the sweep then reflect the parameter alone.

    Every value is applied before anything runs, and the values advance side
    by side on one set of path draws; each curve is bit-identical to
    ``estimate_reliability`` on its value alone.
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("sweep needs at least one value")
    param_sets = [apply_sweep_value(base, parameter, v) for v in values]
    steps = base.numerics.steps_ended(grid)
    runs = zip(values, simulate_sets(param_sets, master_seed, 0, n_reps))
    return [(v, _curve(grid, steps, base.numerics, r.failure_time, r.mode)) for v, r in runs]
