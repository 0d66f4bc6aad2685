"""Bounds of the oracle's shocked terms, checked on wear laws drawn by
hypothesis over shapes 1e-3 to 1e17 and rates 1e-3 to 1e200, and on jump
laws whose coefficient of variation runs down to 1e-300.

Kept apart from tests/test_reliability.py so that without hypothesis only
these tests are skipped."""

import math

import pytest

from shockwear import GammaLaw, NormalLaw
from shockwear.kernel import normal_cdf
from shockwear.reliability import _QUAD_TOL, _wear_below

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@settings(max_examples=100, deadline=None)
@given(shape=_log_uniform(1e-3, 1e17), rate=_log_uniform(1e-3, 1e200),
       wear_to_mean=_log_uniform(1e-3, 1e3), shocks_to_h=st.integers(0, 8),
       jump_mean=st.sampled_from([0.1, 0.5, 2.0]),
       jump_cv=st.sampled_from([0.01, 0.1, 0.2]) | _log_uniform(1e-300, 1e-3))
def test_wear_term_is_bounded_and_nonincreasing_in_shocks(shape, rate, wear_to_mean, shocks_to_h,
                                                           jump_mean, jump_cv):
    # P(X + S_m < h, S_m >= 0) lies in [0, P(0 <= S_m < h)], each up to the
    # quadrature's tolerance. One more jump Y can only raise S_m + Y, except
    # where Y < 0 or S_m < 0, which the oracle accepts only with P(Y < 0) below
    # 1e-6 (here at most 2.9e-7). h is a multiple of the mean wear plus a
    # number of mean jumps, so the wear and the jumps both sit near it.
    wear, jumps = GammaLaw(shape, rate), NormalLaw(jump_mean, jump_cv * jump_mean)
    h = wear.mean * wear_to_mean + shocks_to_h * jump_mean
    p_negative = normal_cdf(0.0, jumps)
    previous = None
    for m in range(1, 9):
        sums = NormalLaw(m * jumps.mean, math.sqrt(m) * jumps.stdev)
        value = _wear_below(h, wear, m, jumps)
        assert -_QUAD_TOL <= value <= normal_cdf(h, sums) - normal_cdf(0.0, sums) + _QUAD_TOL
        if previous is not None:
            slack = 2.0 * _QUAD_TOL + p_negative + normal_cdf(0.0, last_sums)
            assert value <= previous + slack, m
        previous, last_sums = value, sums
