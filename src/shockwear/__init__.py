"""Reliability of a single unit under mutually dependent wear and shock failure.

Wear follows a monotone gamma process whose rate can switch after a damaging
shock; shocks arrive with an intensity that grows with both the shock count
and the accumulated wear, add jumps to the wear path, and can kill the unit
outright. The package provides a Monte Carlo engine for the coupled model, a
semi-analytic evaluator for the decoupled special case used as an oracle, and
a CLI for curves, parameter sweeps, validation runs and trajectory export.

``__all__`` is the public API. Helpers defined at module level (the special
functions in ``kernel``, ``quadrature.integrate``, the stream constructors in
``rng``) can be imported from their modules but are not part of it.
"""

from .degradation import DegradationParams
from .errors import (
    ConfigError,
    IntegrationError,
    StepSizeError,
    UnsupportedConfigError,
)
from .kernel import GammaLaw, NormalLaw
from .reliability import (
    SWEEPABLE,
    ReliabilityCurve,
    analytic_reliability,
    estimate_reliability,
    sweep,
)
from .shocks import MAX_RATE_DT, ShockParams
from .simulate import (
    ModelParams,
    Numerics,
    ReplicationOutcome,
    run_replications,
    simulate_paths,
    simulate_replication,
    step_count,
)

__version__ = "0.1.0"

__all__ = [
    # the model
    "DegradationParams",
    "ShockParams",
    "ModelParams",
    "Numerics",
    "NormalLaw",
    "GammaLaw",
    # results
    "ReliabilityCurve",
    "ReplicationOutcome",
    # entry points
    "estimate_reliability",
    "analytic_reliability",
    "sweep",
    "SWEEPABLE",
    "simulate_replication",
    "run_replications",
    "simulate_paths",
    "step_count",
    # errors
    "ConfigError",
    "StepSizeError",
    "UnsupportedConfigError",
    "IntegrationError",
    # the numeric guard: rate * dt must not exceed it
    "MAX_RATE_DT",
]
