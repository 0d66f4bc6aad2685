"""Distribution laws and special-function evaluations; everything here is
pure given its inputs. Only the math module is used, so importing the package
does not load scipy."""

from __future__ import annotations

import math
from dataclasses import dataclass

_SQRT1_2 = math.sqrt(0.5)
_LOG_2PI = math.log(2.0 * math.pi)
_TINY = 1e-300  # stands in for a zero denominator in the continued fraction


@dataclass(frozen=True)
class GammaLaw:
    """Gamma distribution parameterized by shape and *rate* (not scale).

    mean = shape / rate, variance = shape / rate**2.
    """

    shape: float
    rate: float

    def __post_init__(self):
        if not (math.isfinite(self.shape) and self.shape > 0.0):
            raise ValueError(f"GammaLaw shape must be finite and > 0, got {self.shape}")
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise ValueError(f"GammaLaw rate must be finite and > 0, got {self.rate}")

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    @property
    def variance(self) -> float:
        return self.shape / self.rate**2


@dataclass(frozen=True)
class NormalLaw:
    mean: float
    stdev: float

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"NormalLaw mean must be finite, got {self.mean}")
        if not (math.isfinite(self.stdev) and self.stdev > 0.0):
            raise ValueError(f"NormalLaw stdev must be finite and > 0, got {self.stdev}")


def gamma_cdf(x: float, law: GammaLaw) -> float:
    """P(Z <= x) for Z ~ law: the regularized lower incomplete gamma P(a, z)
    at a = shape, z = rate * x.

    Below z = a + 1 the power series of P converges fast; above it the
    continued fraction of Q = 1 - P does (modified Lentz). Absolute error is
    about 1e-14 for shapes 1e-3 to 1e3.
    """
    if not math.isfinite(x):
        raise ValueError(f"gamma_cdf requires finite x, got {x}")
    if x < 0.0:
        raise ValueError(f"gamma_cdf requires x >= 0, got {x}")
    a, z = law.shape, law.rate * x
    if z == 0.0:
        return 0.0
    if z < a + 1.0:
        # P = z^a e^-z / Gamma(a+1) * (1 + z/(a+1) + z^2/((a+1)(a+2)) + ...)
        term = total = 1.0
        n = a
        while term > total * 1e-17:
            n += 1.0
            term *= z / n
            total += term
        return min(1.0, math.exp(_log_gamma_prefactor(a, z)) * total)
    # Q = z^a e^-z / Gamma(a) * 1/(z+1-a- 1(1-a)/(z+3-a- 2(2-a)/(z+5-a- ...)))
    b = z + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    frac = d
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= _TINY else _TINY)
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        delta = d * c
        frac *= delta
        if abs(delta - 1.0) < 3e-16:  # within an ulp of 1 on either side
            break
    return 1.0 - a * math.exp(_log_gamma_prefactor(a, z)) * frac


def _log_gamma_prefactor(a: float, z: float) -> float:
    """log(z^a e^-z / Gamma(a+1)), the factor the series and the fraction share.

    It is taken in the Stirling form -a*(r - 1 - log r) - log(2 pi a)/2 -
    _stirling_error(a), r = z/a, for every shape: at large a this avoids the
    cancellation between a*log(z) and lgamma(a+1), which are each in the
    thousands at a = 1e3 (DiDonato & Morris 1986), and below a = 10, where
    _stirling_error is lgamma-based, it is a*log(z) - z - lgamma(a+1).
    """
    d = (z - a) / a
    phi = d - math.log1p(d) if abs(d) < 0.5 else d - math.log(z / a)
    return -a * phi - 0.5 * (_LOG_2PI + math.log(a)) - _stirling_error(a)


def _stirling_error(a: float) -> float:
    """log(Gamma(a+1)) minus Stirling's (a + 1/2) log a - a + log(2 pi)/2, a > 0.

    From a = 10 up it is the asymptotic series, to 1e-15.
    """
    if a < 10.0:
        return math.lgamma(a + 1.0) - (a + 0.5) * math.log(a) + a - 0.5 * _LOG_2PI
    w = 1.0 / (a * a)
    return (1.0 / 12.0 - w * (1.0 / 360.0 - w * (1.0 / 1260.0 - w * (
        1.0 / 1680.0 - w * (1.0 / 1188.0 - w * 691.0 / 360360.0))))) / a


def normal_cdf(x: float, law: NormalLaw) -> float:
    if not math.isfinite(x):
        raise ValueError(f"normal_cdf requires finite x, got {x}")
    # erfc keeps full relative precision in the lower tail
    return 0.5 * math.erfc(-(x - law.mean) / law.stdev * _SQRT1_2)


def facilitation_pmf(i: int, eta: float, big_lambda: float) -> float:
    """Probability of i events for a count law whose intensity gains a factor
    (1 + eta*i) after the i-th event, integrated hazard ``big_lambda``.

    Closed form is negative-binomial with r = 1/eta and success probability
    exp(-eta*big_lambda): C(r + i - 1, i) * q**i * exp(-big_lambda) with
    q = 1 - exp(-eta*big_lambda). The log-gammas of C are written with
    Stirling's formula, so their large terms cancel in closed form, not in a
    difference of log-gammas that loses digits at small eta or large i
    (as in Loader 2000). The i = 0 case reduces exactly to exp(-big_lambda).
    """
    if i < 0 or int(i) != i:
        raise ValueError(f"event count must be a nonnegative integer, got {i}")
    if not (eta > 0.0 and math.isfinite(eta) and math.isfinite(1.0 / eta)):
        raise ValueError(f"eta must be finite and > 0 with a finite 1/eta, got {eta}")
    if not (math.isfinite(big_lambda) and big_lambda >= 0.0):
        raise ValueError(f"big_lambda must be finite and >= 0, got {big_lambda}")
    i = int(i)
    if big_lambda == 0.0:
        return 1.0 if i == 0 else 0.0
    if i == 0:
        # (exp(-eta*L))**(1/eta) == exp(-L), kept exact by construction
        return math.exp(-big_lambda)
    r = 1.0 / eta
    n = r + i
    q = -math.expm1(-eta * big_lambda)  # to full relative precision at small eta*big_lambda
    log_n_r = math.log1p(i / r)
    # C(n - 1, i) = (r/n) Gamma(n+1) / (Gamma(r+1) Gamma(i+1)), each Gamma by
    # Stirling; the terms are summed with one rounding
    return math.exp(math.fsum([
        _stirling_error(n), -_stirling_error(r), -_stirling_error(i),
        r * log_n_r, -0.5 * log_n_r, -0.5 * math.log(2.0 * math.pi * i),
        i * math.log(n * q / i), -big_lambda,
    ]))


def iid_sum_normal(m: int, law: NormalLaw) -> NormalLaw:
    """Law of the sum of m i.i.d. draws from ``law``.

    m = 0 would be the point mass at zero, which NormalLaw cannot represent;
    callers must branch on that case themselves.
    """
    if int(m) != m or m < 1:
        raise ValueError(f"m must be an integer >= 1 (m=0 is the point mass at zero), got {m}")
    m = int(m)
    return NormalLaw(m * law.mean, math.sqrt(m) * law.stdev)
