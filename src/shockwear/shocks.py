"""Shock arrivals with state-dependent intensity and two-threshold classification.

The arrival intensity after n shocks at total wear x is
(1 + eta*n) * (lambda0 + gamma_dep*x): past shocks facilitate new ones and
accumulated wear raises the base rate. A shock is fatal above the hard
threshold, damaging between the damage and hard thresholds (it then switches
the wear rate), benign otherwise. The engine in ``simulate`` applies these
rules; this module holds their parameters and the arrival-count sampler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import NormalLaw

# Frozen-intensity steps stay accurate only while an arrival per step is rare.
MAX_RATE_DT = 0.1
_MAX_COUNT = 200  # inversion stops here if the float cdf saturates below u; never reached


@dataclass(frozen=True)
class ShockParams:
    lambda0: float            # base intensity (1/time)
    gamma_dep: float          # wear feedback on intensity (1/(mm*time))
    eta: float                # facilitation factor per past shock
    magnitude_law: NormalLaw  # shock magnitude (N)
    damage_threshold: float   # D0: above this the wear rate switches
    hard_threshold: float     # D1: above this the system fails outright

    def __post_init__(self):
        if not (np.isfinite(self.lambda0) and self.lambda0 >= 0.0):
            raise ValueError(f"ShockParams.lambda0 must be finite and >= 0, got {self.lambda0}")
        if not (np.isfinite(self.gamma_dep) and self.gamma_dep >= 0.0):
            raise ValueError(f"ShockParams.gamma_dep must be finite and >= 0, got {self.gamma_dep}")
        if not (np.isfinite(self.eta) and self.eta > 0.0):
            raise ValueError(f"ShockParams.eta must be finite and > 0, got {self.eta}")
        if not (np.isfinite(self.damage_threshold) and np.isfinite(self.hard_threshold)):
            raise ValueError("ShockParams thresholds must be finite")
        if self.damage_threshold > self.hard_threshold:
            raise ValueError(
                f"ShockParams.damage_threshold ({self.damage_threshold}) must not exceed "
                f"ShockParams.hard_threshold ({self.hard_threshold})"
            )


def poisson_counts(mu: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Poisson draws by CDF inversion of pre-drawn uniforms.

    Inversion (rather than a library sampler) makes the count nondecreasing in
    mu for a fixed uniform, the property paired-seed comparisons rely on.
    """
    mu = np.asarray(mu, dtype=float)
    u = np.asarray(u, dtype=float)
    counts = np.zeros(mu.shape, dtype=np.int64)
    term = np.exp(-mu)
    cdf = term.copy()
    pending = u >= cdf
    k = 0
    while pending.any():
        counts[pending] += 1
        k += 1
        if k > _MAX_COUNT:
            break
        term *= mu / k
        cdf += term
        pending = u >= cdf
    return counts
