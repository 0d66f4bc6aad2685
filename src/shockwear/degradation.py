"""Cumulative wear: a monotone gamma path plus shock-induced jumps.

The gamma path runs at shape rate alpha1 per unit time until the first
damaging shock, alpha2 afterwards. Total wear is pure path + jump sum; the
engine in ``simulate`` advances it.
"""

from __future__ import annotations

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
                stacklevel=3,  # past the dataclass's generated __init__, to its caller
            )
