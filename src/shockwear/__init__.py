"""Reliability of a single unit under mutually dependent wear and shock failure.

Wear follows a monotone gamma process whose rate can switch after a damaging
shock; shocks arrive with an intensity that grows with both the shock count
and the accumulated wear, add jumps to the wear path, and can kill the unit
outright. The package provides a Monte Carlo engine for the coupled model, a
semi-analytic evaluator for the decoupled special case used as an oracle, and
a CLI for curves, parameter sweeps, validation runs and trajectory export.
"""

from .degradation import DegradationParams
from .errors import (
    ConfigError,
    IntegrationError,
    StepSizeError,
    UnsupportedConfigError,
)
from .kernel import (
    GammaLaw,
    NormalLaw,
    facilitation_pmf,
    facilitation_total_mass,
    gamma_cdf,
    gamma_pdf,
    iid_sum_normal,
    normal_cdf,
    normal_pdf,
)
from .quadrature import integrate
from .reliability import (
    SWEEPABLE,
    ReliabilityCurve,
    analytic_no_shock_term,
    analytic_reliability,
    apply_sweep_value,
    estimate_reliability,
    sweep,
    wilson_interval,
)
from .rng import MARK_STREAM, PATH_STREAM, replication_stream
from .shocks import MAX_RATE_DT, ShockParams, poisson_counts
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
    "ConfigError",
    "DegradationParams",
    "GammaLaw",
    "IntegrationError",
    "MAX_RATE_DT",
    "MARK_STREAM",
    "ModelParams",
    "NormalLaw",
    "Numerics",
    "PATH_STREAM",
    "ReliabilityCurve",
    "ReplicationOutcome",
    "SWEEPABLE",
    "ShockParams",
    "StepSizeError",
    "UnsupportedConfigError",
    "analytic_no_shock_term",
    "analytic_reliability",
    "apply_sweep_value",
    "estimate_reliability",
    "facilitation_pmf",
    "facilitation_total_mass",
    "gamma_cdf",
    "gamma_pdf",
    "iid_sum_normal",
    "integrate",
    "normal_cdf",
    "normal_pdf",
    "poisson_counts",
    "replication_stream",
    "run_replications",
    "simulate_paths",
    "simulate_replication",
    "step_count",
    "sweep",
    "wilson_interval",
]
