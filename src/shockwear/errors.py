"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Raised when a run configuration is missing fields or violates an invariant."""


class StepSizeError(RuntimeError):
    """Raised when the shock intensity is too high for the chosen time step.

    ``suggested_dt`` is the largest dt that meets the guard at the intensity seen.
    ``time`` and ``rep_index`` are constructor arguments, None unless the engine
    raises it; then ``time`` is the end-of-step clock of the run's earliest step
    that broke the guard, for any batch size, and ``rep_index`` the replication
    with the largest intensity there, so ``simulate_replication(params,
    master_seed, rep_index=err.rep_index)`` raises again at the same ``time``
    with the same ``suggested_dt``, on the run's step grid ``params.numerics``.
    """

    def __init__(self, message, suggested_dt=None, time=None, rep_index=None):
        super().__init__(message)
        self.suggested_dt = suggested_dt
        self.time = time
        self.rep_index = rep_index


class IntegrationError(RuntimeError):
    """Raised by the adaptive quadrature of the semi-analytic reliability when
    its summed error estimate does not reach its tolerance within its round
    cap, or is not finite; ``best_estimate`` holds the sum of its panels'
    Kronrod values at that point."""

    def __init__(self, message, best_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate


class UnsupportedConfigError(ValueError):
    """Raised when the semi-analytic reliability is asked for a configuration
    it deliberately refuses rather than approximates: wear feeding the shock
    intensity (gamma_dep != 0), a rate change that can happen, a theta law,
    jumps with P(Y < 0) above 1e-6, an integrated shock intensity lambda0 * t
    or a wear shape alpha1 * t that is not finite, or a jump law whose count
    terms do not truncate within reliability._MAX_TERMS."""
