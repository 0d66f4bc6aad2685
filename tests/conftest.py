import math
import multiprocessing

import numpy as np
import pytest

from shockwear import (
    DegradationParams,
    GammaLaw,
    ModelParams,
    NormalLaw,
    Numerics,
    ShockParams,
)
from shockwear.kernel import facilitation_pmf

# Benchmark valve-wear parameterization used throughout: wear threshold 5 mm,
# hard/damage shock thresholds 40/30 N, gamma shape rates 0.5 -> 0.9 at
# rate 1.2, base shock intensity 2.5e-5 with wear feedback 0.001 and
# facilitation 0.2, magnitudes N(10, 5^2), jumps N(0.5, 0.1^2).

VALVE = dict(
    H=5.0, D1=40.0, D0=30.0,
    alpha1=0.5, alpha2=0.9, beta=1.2,
    lambda0=2.5e-5, eta=0.2, gamma=0.001,
    W=NormalLaw(10.0, 5.0), Y=NormalLaw(0.5, 0.1),
)


def make_params(*, H=VALVE["H"], D1=VALVE["D1"], D0=VALVE["D0"],
                alpha1=VALVE["alpha1"], alpha2=VALVE["alpha2"], beta=VALVE["beta"],
                lambda0=VALVE["lambda0"], eta=VALVE["eta"], gamma=VALVE["gamma"],
                W=VALVE["W"], Y=VALVE["Y"], theta_law=None,
                dt=0.01, horizon=20.0) -> ModelParams:
    return ModelParams(
        degradation=DegradationParams(alpha1=alpha1, alpha2=alpha2, beta=beta,
                                      jump_law=Y, soft_threshold=H, theta_law=theta_law),
        shock=ShockParams(lambda0=lambda0, gamma_dep=gamma, eta=eta,
                          magnitude_law=W, damage_threshold=D0, hard_threshold=D1),
        numerics=Numerics(dt=dt, horizon=horizon),
    )


def gamma_density(x: np.ndarray, law: GammaLaw) -> np.ndarray:
    """Density of ``law`` at each x > 0, an integrand for quadrature checks of
    gamma_cdf."""
    return np.exp(law.shape * math.log(law.rate) + (law.shape - 1.0) * np.log(x)
                  - law.rate * x - math.lgamma(law.shape))


def normal_density(x: np.ndarray, law: NormalLaw) -> np.ndarray:
    """Density of ``law`` at each x, an integrand for quadrature checks."""
    z = (x - law.mean) / law.stdev
    return np.exp(-0.5 * z * z) / (law.stdev * math.sqrt(2.0 * math.pi))


def facilitation_mass(eta: float, big_lambda: float, tail_tol: float = 1e-12) -> float:
    """The facilitation pmf summed from 0 until the mass is within tail_tol
    of 1 and the current term is below 1e-14 (at most two million terms)."""
    total = 0.0
    for m in range(2_000_000):
        p = facilitation_pmf(m, eta, big_lambda)
        total += p
        if total >= 1.0 - tail_tol and p < 1e-14:
            break
    return total


@pytest.fixture(scope="session")
def valve_params() -> ModelParams:
    return make_params()


@pytest.fixture(scope="session")
def grid_41() -> np.ndarray:
    return np.linspace(0.0, 20.0, 41)


@pytest.fixture(autouse=True)
def no_child_outlives_a_test():
    """Every test leaves no child process running: the engine's workers end
    with the call that started them, and a test's own children with it."""
    yield
    assert multiprocessing.active_children() == []
