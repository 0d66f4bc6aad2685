import math

import pytest

from shockwear import GammaLaw, IntegrationError, NormalLaw
from shockwear.kernel import gamma_cdf
from shockwear.quadrature import integrate
from tests.conftest import gamma_density, normal_density


def test_linear():
    assert integrate(lambda x: x, 0.0, 1.0, tol=1e-12) == pytest.approx(0.5, abs=1e-12)


def test_half_gaussian():
    std = NormalLaw(0.0, 1.0)
    assert integrate(lambda x: normal_density(x, std), 0.0, 40.0, tol=1e-11) == pytest.approx(0.5, abs=1e-10)


def test_gamma_density_matches_cdf():
    # shape alpha1 * t at t=4 with the valve's rate
    law = GammaLaw(2.0, 1.2)
    est = integrate(lambda x: gamma_density(x, law), 0.0, 5.0, tol=1e-10)
    assert est == pytest.approx(gamma_cdf(5.0, law), abs=1e-8)


def test_empty_interval():
    assert integrate(lambda x: x * x, 3.0, 3.0) == 0.0


def test_bad_bounds():
    with pytest.raises(ValueError):
        integrate(lambda x: x, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(lambda x: x, 0.0, math.inf)
    with pytest.raises(ValueError):
        integrate(lambda x: x, 0.0, 1.0, tol=0.0)


def test_nonconvergence_carries_best_estimate():
    # highly oscillatory target with a depth budget too small to resolve it
    f = lambda x: math.sin(1.0 / (x + 1e-4))
    with pytest.raises(IntegrationError) as exc_info:
        integrate(f, 0.0, 1.0, tol=1e-13, max_depth=3)
    best = exc_info.value.best_estimate
    assert best is not None and math.isfinite(best)


def test_nan_integrand_raises():
    with pytest.raises(IntegrationError):
        integrate(lambda x: math.nan if x > 0.5 else x, 0.0, 1.0)
