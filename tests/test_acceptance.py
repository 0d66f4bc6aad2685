"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical checks run at fixed master seeds so the suite is deterministic.
Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from shockwear import (
    GammaLaw,
    analytic_reliability,
    estimate_reliability,
    run_replications,
    sweep,
)
from shockwear.cli import main
from shockwear.kernel import facilitation_pmf, gamma_cdf
from shockwear.simulate import simulate_sets
from tests.conftest import facilitation_mass, make_params
from tests.test_config_cli import valve_doc, write_config


def _report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# Guard-safe step sizes for the facilitated cells: intensity can reach
# (1 + eta*n)*lambda0 with n around 20-30 before wear kills a replication.
_DT_BY_CELL = {(1.0, 1.0): 0.0025, (0.5, 1.0): 0.005}


def test_criterion_1_oracle_equivalence_decoupled():
    t_start = time.perf_counter()
    times = np.array([1.0, 2.0, 4.0, 8.0])
    worst = 0.0
    ok = True
    for lam0 in (0.1, 0.5, 1.0):
        for eta in (0.05, 0.2, 1.0):
            dt = _DT_BY_CELL.get((lam0, eta), 0.01)
            p = make_params(lambda0=lam0, eta=eta, gamma=0.0, D0=40.0, D1=40.0,
                            dt=dt, horizon=8.0)
            seed = 100_000 + int(lam0 * 1000) + int(eta * 100)
            curve = estimate_reliability(p, times, 100_000, seed)
            for i, t in enumerate(times):
                want = analytic_reliability(p, t)
                half = 0.5 * (curve.ci_high[i] - curve.ci_low[i])
                tol = max(3.0 * half, 0.01)
                dev = abs(curve.estimate[i] - want)
                worst = max(worst, dev)
                if dev > tol:
                    ok = False
    elapsed = time.perf_counter() - t_start
    assert _report(1, ok, f"9 decoupled cells x 4 times, max |MC - analytic| = {worst:.5f} "
                          f"(floor tol 0.01), {elapsed:.0f}s")
    assert elapsed < 300.0, "runtime target is five minutes"


def test_criterion_2_facilitation_pmf():
    norm_ok = True
    for eta in (0.05, 0.2, 1.0):
        for lam in (0.1, 1.0, 10.0):
            mass = facilitation_mass(eta, lam, tail_tol=1e-12)
            norm_ok = norm_ok and mass >= 1.0 - 1e-9
    sup = 0.0
    for lam in (0.5, 2.0, 5.0):
        for i in range(51):
            poisson = math.exp(-lam) * lam**i / math.factorial(i)
            sup = max(sup, abs(facilitation_pmf(i, 1e-6, lam) - poisson))
    zero_ok = True
    for eta in (0.05, 0.2, 1.0):
        for lam in (0.1, 1.0, 2.0, 10.0):
            zero_ok = zero_ok and abs(facilitation_pmf(0, eta, lam) - math.exp(-lam)) <= 1e-12
    ok = norm_ok and sup < 1e-4 and zero_ok
    assert _report(2, ok, f"normalization >= 1-1e-9: {norm_ok}; Poisson sup-dev {sup:.2e} < 1e-4; "
                          f"P0 = exp(-L) to 1e-12: {zero_ok}")


def test_criterion_3_shock_free_reduction():
    p = make_params(lambda0=0.0, gamma=0.0, horizon=4.0)
    n = 100_000
    ftime, _ = run_replications(p, 4.0, 0.01, 424242, n)
    got = float(np.mean(ftime > 4.0))
    want = gamma_cdf(5.0, GammaLaw(2.0, 1.2))
    se = math.sqrt(want * (1.0 - want) / n)
    ok = abs(got - want) < 3 * se
    assert _report(3, ok, f"lambda0=0: MC {got:.5f} vs G(5;2,1.2) = {want:.5f}, "
                          f"|dev| {abs(got - want):.2e} < 3SE {3 * se:.2e}")


@pytest.fixture(scope="module")
def valve_curves(grid_41):
    """Paired-seed curves shared by the ordering criteria."""
    seed, n = 777_000, 40_000
    base = estimate_reliability(make_params(), grid_41, n, seed)
    fixed = estimate_reliability(make_params(D0=40.0), grid_41, n, seed)
    return dict(seed=seed, n=n, base=base, fixed=fixed)


def test_criterion_4_rate_change_lowers_reliability(valve_curves, grid_41):
    base, fixed = valve_curves["base"], valve_curves["fixed"]
    diffs = fixed.estimate - base.estimate
    ok = bool(np.all(diffs >= 0.0))
    assert _report(4, ok, f"rate-change curve <= fixed-rate curve at all {grid_41.size} grid "
                          f"points (max gap {diffs.max():.5f})")


def test_criterion_5_damage_threshold_ordering(valve_curves, grid_41):
    res = sweep(make_params(), "D0", [20.0, 30.0, 40.0], grid_41,
                valve_curves["n"], valve_curves["seed"])
    e20, e30, e40 = (curve.estimate for _, curve in res)
    ok = bool(np.all(e20 <= e30) and np.all(e30 <= e40))
    # the D0=30 member of the sweep is the base configuration itself
    ok = ok and np.array_equal(e30, valve_curves["base"].estimate)
    assert _report(5, ok, f"reliability nondecreasing in D0 over {{20,30,40}} pointwise "
                          f"(max 20-vs-40 gap {np.max(e40 - e20):.5f})")


def test_criterion_6_wear_feedback_ordering(valve_curves, grid_41):
    res = sweep(make_params(), "gamma", [0.0, 0.001, 0.01], grid_41,
                valve_curves["n"], valve_curves["seed"])
    e0, e1, e2 = (curve.estimate for _, curve in res)
    ok = bool(np.all(e1 <= e0) and np.all(e2 <= e1))
    assert _report(6, ok, f"reliability nonincreasing in gamma over {{0,0.001,0.01}} pointwise "
                          f"(max 0-vs-0.01 gap {np.max(e0 - e2):.5f})")


def test_criterion_7_degenerate_equivalences(grid_41):
    seed, n = 321_321, 10_000
    reference = make_params(alpha2=0.5, D0=40.0)   # both disabling mechanisms
    equal_alphas = make_params(alpha2=0.5, D0=30.0)
    equal_thresholds = make_params(alpha2=0.9, D0=40.0)

    f_ref, m_ref = run_replications(reference, 20.0, 0.01, seed, n)
    f_a, m_a = run_replications(equal_alphas, 20.0, 0.01, seed, n)
    f_b, m_b = run_replications(equal_thresholds, 20.0, 0.01, seed, n)
    ok = (np.array_equal(f_a, f_ref) and np.array_equal(m_a, m_ref)
          and np.array_equal(f_b, f_ref) and np.array_equal(m_b, m_ref))
    c_ref = estimate_reliability(reference, grid_41, n, seed)
    c_a = estimate_reliability(equal_alphas, grid_41, n, seed)
    c_b = estimate_reliability(equal_thresholds, grid_41, n, seed)
    ok = (ok and np.array_equal(c_a.estimate, c_ref.estimate)
          and np.array_equal(c_b.estimate, c_ref.estimate))
    assert _report(7, ok, "alpha2=alpha1 and D0=D1 configurations match the fixed-rate "
                          "model bit for bit (failure times, modes and curves)")


def test_criterion_8_step_refinement(grid_41):
    n = 30_000
    coarse = estimate_reliability(make_params(dt=0.01), grid_41, n, 51_001)
    fine = estimate_reliability(make_params(dt=0.0025), grid_41, n, 51_002)
    p1, p2 = coarse.estimate, fine.estimate
    band = 3.0 * np.sqrt(p1 * (1 - p1) / n + p2 * (1 - p2) / n)
    dev = np.abs(p1 - p2)
    ok = bool(np.all(dev <= band + 1e-12))
    assert _report(8, ok, f"dt=0.01 vs dt=0.0025 within joint 3-SE bands at all "
                          f"{grid_41.size} grid points (max dev {dev.max():.5f})")


def test_criterion_9_cli_determinism(tmp_path):
    doc = valve_doc(**{"run.n_reps": 2000})
    cfg = write_config(tmp_path, doc)
    outs = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    for out in outs:
        assert main(["curve", "--config", cfg, "--out", str(out)]) == 0
    data = [o.read_bytes() for o in outs]
    ok = data[0] == data[1] == data[2]
    assert _report(9, ok, "curve output byte-identical across three reruns")


def test_criterion_10_sampler_distributions():
    # gamma path endpoints vs the increment law at t=4
    p = make_params(lambda0=0.0, gamma=0.0, H=1e12, horizon=4.0)
    res = simulate_sets([p], 99_100, 0, 100_000)[0]
    ks = stats.kstest(res.final_total, lambda x: stats.gamma.cdf(x, a=2.0, scale=1 / 1.2))
    ks_ok = ks.pvalue > 0.01

    # facilitated shock counts vs the closed-form count law (decoupled)
    p = make_params(lambda0=0.5, eta=0.2, gamma=0.0, H=1e12, D0=1e12, D1=1e12, horizon=4.0)
    res = simulate_sets([p], 99_200, 0, 100_000)[0]
    counts = res.n_shocks
    n = counts.size
    edges = list(range(11))
    observed = np.array([(counts == k).sum() for k in edges] + [(counts > 10).sum()])
    pmf = np.array([facilitation_pmf(k, 0.2, 2.0) for k in edges])
    expected = np.append(pmf, 1.0 - pmf.sum()) * n
    chi = stats.chisquare(observed, expected)
    chi_ok = chi.pvalue > 0.01
    ok = ks_ok and chi_ok
    assert _report(10, ok, f"gamma endpoint KS p={ks.pvalue:.3f} > 0.01; facilitated-count "
                           f"chi-squared p={chi.pvalue:.3f} > 0.01 (1e5 replications each)")
