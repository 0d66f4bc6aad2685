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


@pytest.mark.parametrize("tol", [1e-6, 1e-9])
@pytest.mark.parametrize("p", [-0.7, -0.5, -0.3, 0.2, 0.5, 1.5])
def test_endpoint_power_honours_tol(p, tol):
    # Simpson's |S2 - S1|/15 error assumes a smooth panel and under-reports at
    # an x**p endpoint; a returned value must still lie within tol
    exact = 1.0 / (p + 1.0)
    try:
        value = integrate(lambda x: x**p if x else 0.0, 0.0, 1.0, tol=tol)
    except IntegrationError:
        return
    assert abs(value - exact) <= tol


def test_nonconvergence_carries_best_estimate():
    # the x**-0.5 endpoint cannot be certified to 1e-9 within the depth limit
    with pytest.raises(IntegrationError) as exc_info:
        integrate(lambda x: x**-0.5 if x else 0.0, 0.0, 1.0, tol=1e-9)
    best = exc_info.value.best_estimate
    assert best is not None and math.isfinite(best)
    assert best == pytest.approx(2.0, abs=1e-6)


def test_nan_integrand_raises():
    with pytest.raises(IntegrationError):
        integrate(lambda x: math.nan if x > 0.5 else x, 0.0, 1.0)
