import math

import numpy as np
import pytest

from shockwear import GammaLaw, IntegrationError, NormalLaw, quadrature
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


@pytest.mark.parametrize("a, b, f, error", [
    (0.0, 1.0, np.sqrt, None),                      # refined near 0 over several rounds
    (-2.0, 3.0, np.abs, None),                      # a kink inside a panel
    (-1.0, 0.0, lambda x: (-x) ** -0.5, None),      # infinite at b
    # infinite at a = 4, whose float spacing the panels there reach before
    # tol: halving them further would put nodes on 4, so the run fails instead
    (4.0, 5.0, lambda x: (x - 4.0) ** -0.9, IntegrationError),
], ids=["sqrt", "kink", "infinite_end", "end_at_float_spacing"])
def test_integrand_sees_only_1d_float_arrays_inside_the_interval(a, b, f, error):
    seen = []

    def record(x):
        seen.append(x)
        return f(x)

    if error is None:
        integrate(record, a, b, tol=1e-6)
    else:
        with pytest.raises(error) as exc_info:
            integrate(record, a, b, tol=1e-6)
        assert math.isfinite(exc_info.value.best_estimate)
    assert len(seen) > 1
    for x in seen:
        assert type(x) is np.ndarray and x.ndim == 1 and x.dtype == np.float64 and x.size > 0
        assert np.all((a < x) & (x < b))


@pytest.mark.parametrize("tol", [1e-6, 1e-9])
@pytest.mark.parametrize("p", [-0.7, -0.5, -0.3, 0.2, 0.5, 1.5])
def test_endpoint_power_honours_tol(p, tol):
    # at an x**p endpoint with p near -1 the K15 error approaches the G7
    # error, so |K15 - G7| alone under-reports it; a returned value must
    # still lie within tol. No node lies on an end, so x**p needs no guard at 0.
    exact = 1.0 / (p + 1.0)
    try:
        value = integrate(lambda x: x**p, 0.0, 1.0, tol=tol)
    except IntegrationError:
        return
    assert abs(value - exact) <= tol


def test_nonconvergence_carries_best_estimate():
    # the x**-0.9 endpoint needs a panel of width about 1e-100 at 0 to meet
    # 1e-9, past the round cap's 64 halvings
    with pytest.raises(IntegrationError) as exc_info:
        integrate(lambda x: x**-0.9, 0.0, 1.0, tol=1e-9)
    best = exc_info.value.best_estimate
    assert best is not None and math.isfinite(best)
    assert best == pytest.approx(10.0, abs=0.1)


def test_work_per_round_is_bounded():
    # sin(1e5 x) needs about 10**4 panels, more than the cap allows: the
    # rounds stop at the cap and none evaluates more than the panels it split
    sizes = []

    def f(x):
        sizes.append(x.size)
        return np.sin(1e5 * x)

    with pytest.raises(IntegrationError) as exc_info:
        integrate(f, 0.0, 1.0, tol=1e-9)
    assert len(sizes) == quadrature._MAX_ROUNDS
    assert max(sizes) <= 2 * quadrature._MAX_SPLITS * 15
    assert math.isfinite(exc_info.value.best_estimate)


def test_nan_integrand_raises():
    with pytest.raises(IntegrationError):
        integrate(lambda x: np.where(x > 0.5, math.nan, x), 0.0, 1.0)
