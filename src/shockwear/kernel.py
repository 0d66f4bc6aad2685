"""Distribution laws and special-function evaluations; everything here is
pure given its inputs."""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import special


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
    """P(Z <= x) for Z ~ law, via the regularized lower incomplete gamma."""
    if not math.isfinite(x):
        raise ValueError(f"gamma_cdf requires finite x, got {x}")
    if x < 0.0:
        raise ValueError(f"gamma_cdf requires x >= 0, got {x}")
    return float(special.gammainc(law.shape, law.rate * x))


def normal_cdf(x: float, law: NormalLaw) -> float:
    if not math.isfinite(x):
        raise ValueError(f"normal_cdf requires finite x, got {x}")
    return float(special.ndtr((x - law.mean) / law.stdev))


def normal_pdf(x: float, law: NormalLaw) -> float:
    z = (x - law.mean) / law.stdev
    return math.exp(-0.5 * z * z) / (law.stdev * math.sqrt(2.0 * math.pi))


def facilitation_pmf(i: int, eta: float, big_lambda: float) -> float:
    """Probability of i events for a count law whose intensity gains a factor
    (1 + eta*i) after the i-th event, integrated hazard ``big_lambda``.

    Closed form is negative-binomial with r = 1/eta and success probability
    exp(-eta*big_lambda); evaluated in log space so non-integer 1/eta and
    large i stay finite. The i = 0 case reduces exactly to exp(-big_lambda).
    """
    if i < 0 or int(i) != i:
        raise ValueError(f"event count must be a nonnegative integer, got {i}")
    if not (math.isfinite(eta) and eta > 0.0):
        raise ValueError(f"eta must be finite and > 0, got {eta}")
    if not (math.isfinite(big_lambda) and big_lambda >= 0.0):
        raise ValueError(f"big_lambda must be finite and >= 0, got {big_lambda}")
    i = int(i)
    if big_lambda == 0.0:
        return 1.0 if i == 0 else 0.0
    if i == 0:
        # (exp(-eta*L))**(1/eta) == exp(-L), kept exact by construction
        return math.exp(-big_lambda)
    inv_eta = 1.0 / eta
    log_comb = special.gammaln(inv_eta + i) - special.gammaln(i + 1.0) - special.gammaln(inv_eta)
    log_p = log_comb + i * math.log1p(-math.exp(-eta * big_lambda)) - big_lambda
    return float(math.exp(log_p))


def iid_sum_normal(m: int, law: NormalLaw) -> NormalLaw:
    """Law of the sum of m i.i.d. draws from ``law``.

    m = 0 would be the point mass at zero, which NormalLaw cannot represent;
    callers must branch on that case themselves.
    """
    if int(m) != m or m < 1:
        raise ValueError(f"m must be an integer >= 1 (m=0 is the point mass at zero), got {m}")
    m = int(m)
    return NormalLaw(m * law.mean, math.sqrt(m) * law.stdev)
