"""Distribution laws and special-function evaluations; everything here is
pure given its inputs. Both gamma functions are scipy's ufuncs, loaded from
its compiled module file alone (_scipy_ufunc): no run imports scipy.special."""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass

_SQRT1_2 = math.sqrt(0.5)
_LOG_2PI = math.log(2.0 * math.pi)


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
    at a = shape, z = rate * x, which is scipy's ``gammainc``."""
    if not math.isfinite(x):
        raise ValueError(f"gamma_cdf requires finite x, got {x}")
    if x < 0.0:
        raise ValueError(f"gamma_cdf requires x >= 0, got {x}")
    return float(_scipy_ufunc("gammainc")(law.shape, law.rate * x))


def _scipy_ufunc(name: str):
    """scipy's ufunc ``name``, from its compiled ``_special_ufuncs`` file, loaded
    once per process, or from the ``scipy.special`` package where the file or
    the name is missing (another scipy layout). The package import costs about
    0.3 s and 19 MB (mostly its array-API layer), the file about 2 ms and 1 MB;
    the values are scipy's either way."""
    module = _special_ufuncs()
    if not hasattr(module, name):
        module = importlib.import_module("scipy.special")
    return getattr(module, name)


@functools.cache
def _special_ufuncs():
    """scipy's ``_special_ufuncs`` module, loaded from its file alone, or None."""
    spec = importlib.util.find_spec("scipy")  # finds the package, does not import it
    folders = spec.submodule_search_locations if spec is not None else []
    found = importlib.machinery.PathFinder.find_spec(
        "_special_ufuncs", [os.path.join(folder, "special") for folder in folders])
    if found is not None:
        try:
            module = importlib.util.module_from_spec(found)
            found.loader.exec_module(module)
            return module
        except ImportError:
            pass


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
