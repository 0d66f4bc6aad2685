"""Adaptive 1-D quadrature used by the semi-analytic reliability path."""

from __future__ import annotations

import heapq
import math
from typing import Callable

from .errors import IntegrationError

_INITIAL_PANELS = 8
_MAX_DEPTH = 48  # halvings after which a panel is not split again


def _simpson(fa, fm, fb, a, b):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def integrate(f: Callable[[float], float], a: float, b: float, tol: float = 1e-9) -> float:
    """Globally adaptive Simpson estimate of the integral of f over [a, b].

    Each panel's error is estimated as |S2 - S1|, Simpson's rule on its two
    halves against the rule on the whole panel. The panel with the largest
    estimate is split until the estimates sum to at most tol (the global
    strategy of QUADPACK's QAG, Piessens et al. 1983), so the tolerance goes
    where the integrand needs it, e.g. to an x**(a-1) endpoint. The value is
    extrapolated as S2 + (S2 - S1)/15, but the error is not divided by 15:
    that factor holds only where f is smooth on the panel, and at an x**p
    endpoint it under-reports the error. A panel made by _MAX_DEPTH
    halvings is not split again; once such panels alone exceed tol, raises
    IntegrationError with best_estimate attached.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integration bounds must be finite, got [{a}, {b}]")
    if a > b:
        raise ValueError(f"integrate requires a <= b, got a={a}, b={b}")
    if tol <= 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if a == b:
        return 0.0

    def panel(x0, x1, f0, fm, f1, whole, depth):
        """(-error, x0, x1, depth, f0, fl, fm, fr, f1, left, right, value): the
        panel [x0, x1] with its quarter-point values and Simpson halves."""
        xm = 0.5 * (x0 + x1)
        fl, fr = f(0.5 * (x0 + xm)), f(0.5 * (xm + x1))
        left = _simpson(f0, fl, fm, x0, xm)
        right = _simpson(fm, fr, f1, xm, x1)
        diff = left + right - whole
        return (-abs(diff), x0, x1, depth, f0, fl, fm, fr, f1, left, right,
                left + right + diff / 15.0)

    heap = []    # panels that may still be split, largest error first
    done = []    # panels made by _MAX_DEPTH halvings
    width = (b - a) / _INITIAL_PANELS
    for p in range(_INITIAL_PANELS):
        lo = a + p * width
        hi = b if p == _INITIAL_PANELS - 1 else lo + width
        flo, fmid, fhi = f(lo), f(0.5 * (lo + hi)), f(hi)
        heap.append(panel(lo, hi, flo, fmid, fhi, _simpson(flo, fmid, fhi, lo, hi), 0))
    heapq.heapify(heap)
    err = -sum(item[0] for item in heap)
    done_err = 0.0
    while not err <= tol:  # a NaN error enters and raises
        if done_err > tol or not heap or not math.isfinite(err):
            raise IntegrationError(
                f"quadrature did not converge to tol={tol:g} within {_MAX_DEPTH} subdivisions",
                best_estimate=sum(item[-1] for item in heap + done),
            )
        neg_err, x0, x1, depth, f0, fl, fm, fr, f1, left, right, _ = heapq.heappop(heap)
        err += neg_err
        xm = 0.5 * (x0 + x1)
        for child in (panel(x0, xm, f0, fl, fm, left, depth + 1),
                      panel(xm, x1, fm, fr, f1, right, depth + 1)):
            err -= child[0]
            if depth + 1 >= _MAX_DEPTH:
                done.append(child)
                done_err -= child[0]
            else:
                heapq.heappush(heap, child)
    return math.fsum(item[-1] for item in heap + done)
