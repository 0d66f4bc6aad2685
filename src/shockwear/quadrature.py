"""Globally adaptive Gauss–Kronrod quadrature used by the semi-analytic
reliability path; the integrand is evaluated on arrays of nodes."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import IntegrationError

# G7 and its K15 extension on [-1, 1], QUADPACK's qk15 values to double precision
# (Laurie 1997, Math. Comp. 66, computes such rules): nodes from -1 to the centre,
# their Kronrod weights, and the Gauss weights of the odd-numbered nodes.
_HALF_NODES = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
               0.5860872354676911, 0.4058451513773972, 0.20778495500789848, 0.0)
_HALF_KRONROD = (0.022935322010529224, 0.06309209262997856, 0.10479001032225019,
                 0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
                 0.20443294007529889, 0.20948214108472782)
_HALF_GAUSS = (0.1294849661688697, 0.27970539148927664, 0.3818300505051189, 0.4179591836734694)
_NODES = np.concatenate((-np.array(_HALF_NODES), _HALF_NODES[-2::-1]))
_KRONROD = np.array(_HALF_KRONROD + _HALF_KRONROD[-2::-1])
_GAUSS = np.zeros(15)
_GAUSS[1::2] = _HALF_GAUSS + _HALF_GAUSS[-2::-1]

_INITIAL_PANELS = 8
_MAX_ROUNDS = 64  # a panel is halved at most once per round
_MAX_SPLITS = 64  # panels halved per round, so that a round's work stays bounded


def _nodes(lo, hi, x=_NODES):
    """The points x of [-1, 1] mapped onto each panel [lo, hi], a row per panel."""
    return (0.5 * (lo + hi))[:, None] + (0.5 * (hi - lo))[:, None] * x


def _inside(lo, hi):
    """Whether each panel's K15 nodes all round to points strictly inside it:
    its outermost two do (rounding keeps their order)."""
    ends = _nodes(lo, hi, _NODES[::14])
    return (lo < ends[:, 0]) & (ends[:, 1] < hi)


def integrate(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
              tol: float = 1e-9) -> float:
    """Globally adaptive G7/K15 Gauss-Kronrod estimate of the integral of f over [a, b].

    f maps a 1-D float array of nodes to their values. Every node lies
    strictly inside its panel, and so inside (a, b), whenever the first
    panels' nodes do: a panel whose halves' nodes would round onto their
    ends (one narrower than about 120 float spacings there) is never halved.
    One call per round evaluates every panel the round made. A panel's value
    is its K15 sum and its error 2|K15 - G7|: at an x**p endpoint the K15
    error nears the G7 error as p falls to -1, so |K15 - G7| alone
    under-reports it below p = -0.62, and the doubled estimate below
    p = -0.78 (the oracle's endpoint powers are positive). Each round halves the fewest largest-error panels
    (at most _MAX_SPLITS) that leave an error sum of at most tol, QUADPACK's
    global QAG strategy (Piessens et al. 1983). Past _MAX_ROUNDS rounds, at a
    sum that is not finite, or with none of those panels left to halve,
    raises IntegrationError with best_estimate attached.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integration bounds must be finite, got [{a}, {b}]")
    if a > b:
        raise ValueError(f"integrate requires a <= b, got a={a}, b={b}")
    if tol <= 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if a == b:
        return 0.0
    edges = np.linspace(a, b, _INITIAL_PANELS + 1)
    lo, hi = edges[:-1], edges[1:]  # the panels a round evaluates
    live = np.empty((4, 0))  # rows: lower end, upper end, K15 value, error
    for rounds in range(1, _MAX_ROUNDS + 1):
        nodes, half = _nodes(lo, hi), 0.5 * (hi - lo)
        fx = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
        # sums, not a matmul, whose BLAS buffers raise validate's peak RSS by 0.2 MB
        kronrod, gauss = (half * (fx * w).sum(axis=1) for w in (_KRONROD, _GAUSS))
        live = np.concatenate((live, [lo, hi, kronrod, 2.0 * np.abs(kronrod - gauss)]), axis=1)
        total = math.fsum(live[3])
        if total <= tol:
            return math.fsum(live[2])
        split = []
        if rounds < _MAX_ROUNDS and math.isfinite(total):
            # a list sort, not argsort, whose sort kernels raise validate's peak RSS by 0.15 MB
            err = live[3].tolist()
            order = sorted(range(len(err)), key=err.__getitem__, reverse=True)
            needed = np.count_nonzero(total - np.cumsum(live[3, order]) > tol) + 1
            split = np.array(order[:min(needed, _MAX_SPLITS)])
            mid = 0.5 * (live[0, split] + live[1, split])
            halvable = _inside(live[0, split], mid) & _inside(mid, live[1, split])
            split, mid = split[halvable], mid[halvable]
        if not len(split):
            raise IntegrationError(f"quadrature error estimate {total:g} exceeds tol={tol:g} "
                                   f"after {rounds} rounds", best_estimate=math.fsum(live[2]))
        lo, hi = np.concatenate((live[0, split], mid)), np.concatenate((mid, live[1, split]))
        live = np.delete(live, split, axis=1)
