"""Cumulative wear: a monotone gamma path plus shock-induced jumps.

The gamma path runs at shape rate alpha1 per unit time until the first
damaging shock, alpha2 afterwards. Total wear is pure path + jump sum; the
engine in ``simulate`` advances it.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .kernel import GammaLaw, NormalLaw


@dataclass(frozen=True)
class DegradationParams:
    alpha1: float                      # shape rate per unit time before the change
    alpha2: float                      # shape rate after the first damaging shock
    beta: float                        # gamma rate parameter (1/mm)
    jump_law: NormalLaw                # per-shock wear jump (mm)
    soft_threshold: float              # H (mm)
    theta_law: GammaLaw | None = None  # random multiplier on the shape rate; None = fixed at 1

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "beta", "soft_threshold"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0.0):
                raise ValueError(f"DegradationParams.{name} must be finite and > 0, got {v}")
        if self.alpha2 < self.alpha1:
            warnings.warn(
                f"alpha2={self.alpha2} < alpha1={self.alpha1}: the shape rate drops after "
                "a damaging shock, which is unusual for wear-out",
                stacklevel=_caller_level(),
            )


def _caller_level() -> int:
    """The stacklevel, counted from ``__post_init__``, of the first frame past
    the dataclass's generated ``__init__`` that is outside this package and
    ``dataclasses``, so that params built by ``dataclasses.replace``, a sweep
    or the config reader name the code that asked for them."""
    level, frame = 3, sys._getframe(3)  # 0 here, 1 __post_init__, 2 the generated __init__
    while frame.f_back is not None and (
            frame.f_globals.get("__name__", "").partition(".")[0] in ("shockwear", "dataclasses")):
        level, frame = level + 1, frame.f_back
    return level
