"""Reliability curves: Monte Carlo estimation, a semi-analytic oracle for the
decoupled special case, and paired-seed parameter sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import MODEL_KEYS
from .errors import UnsupportedConfigError
from .kernel import GammaLaw, NormalLaw, _scipy_ufunc, facilitation_pmf, gamma_cdf, normal_cdf
from .quadrature import integrate
from .simulate import ModelParams, Numerics, run_replications, simulate_sets

_Z95 = 1.959963984540054
_SQRT_2PI = math.sqrt(2.0 * math.pi)
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
    jumps drawn from ``jump_law``, so S ~ N(m mu, m sigma^2).

    The integral runs over the standard score z of S = m mu + sqrt(m) sigma z:
    the standard normal density times the gamma CDF of h - S, scipy's
    ``gammainc``, over the z within 10 of 0 at which S lies in [0, h]; the
    term is 0 where none do. In z the window keeps its width however small
    sigma is. In s its nodes would lie on the float grid at m mu: too coarse
    for the quadrature to converge at sigma = 1e-12 (m mu = 0.5), and wider
    than the whole window at 1e-20.
    """
    mean, sd = m * jump_law.mean, math.sqrt(m) * jump_law.stdev
    lo, hi = max(-10.0, -mean / sd), min(10.0, (h - mean) / sd)
    if lo >= hi:
        return 0.0
    gammainc = _scipy_ufunc("gammainc")
    a, beta, room = wear.shape, wear.rate, h - mean

    def integrand(z):
        with np.errstate(over="ignore"):  # beta * (room - sd z) may be inf, where gammainc is 1
            x = beta * np.maximum(room - sd * z, 0.0)
        return np.exp(-0.5 * z * z) * gammainc(a, x) / _SQRT_2PI

    return integrate(integrand, lo, hi, tol=_QUAD_TOL)


def analytic_reliability(params: ModelParams, t: float) -> float:
    """Survival probability at t for the decoupled case, summed over shock counts.

    Term m is: (no hard failure)^m * P(m shocks) * P(wear + m jumps < H), the
    last factor the gamma CDF at m = 0 and a quadrature of the jump-sum
    density against the gamma CDF otherwise (``_wear_below``). Truncation
    stops when the count law's tail is negligible or the wear factor has
    decayed to nothing. Coupled configurations, and an integrated shock
    intensity lambda0 * t or a wear shape alpha1 * t past the float range,
    raise UnsupportedConfigError rather than an approximation; a quadrature
    that does not converge raises IntegrationError.
    """
    _require_decoupled(params)
    t = float(t)  # a numpy time would carry numpy's overflow warnings into the sum
    if t < 0.0 or not math.isfinite(t):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    if t == 0.0:
        return 1.0
    deg = params.degradation
    shk = params.shock
    for what, name, rate in (("integrated shock intensity", "lambda0", shk.lambda0),
                             ("wear shape", "alpha1", deg.alpha1)):
        if not math.isfinite(rate * t):
            raise UnsupportedConfigError(f"analytic reliability needs a finite {what} "
                                         f"{name} * t; got {name} = {rate:g} at t = {t:g}")
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
            wear_ok = _wear_below(h, glaw, m, deg.jump_law)
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
