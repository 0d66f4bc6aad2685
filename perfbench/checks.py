"""Output checks, one per workload. Each returns a list of problems; empty means correct.

The checks are statistical and structural, never a byte comparison, so a
deliberate change of the random-stream layout passes while a wrong
estimator fails. Curves are compared with a reference made by
``make_reference.py`` at another seed and more replications: every grid
point must lie within ``Z_BAND`` pooled standard errors of it. With 41
points per curve and at most three curves, a correct program fails the band
about once in ten thousand runs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
Z_BAND = 5.0
CURVE_HEADER = "t,R_hat,ci_low,ci_high,n_reps,n_soft,n_hard,n_survived"
SWEEP_HEADER = "param_value,t,R_hat,ci_low,ci_high"
PATHS_HEADER = "rep,t,pure,jumps,total,n_shocks,rate_changed"


def load_reference(name: str) -> dict:
    return json.loads((HERE / "reference" / name).read_text())


def _rows(data: bytes, header: str) -> list[list[str]]:
    lines = data.decode("utf-8").split("\n")
    if lines[0] != header:
        raise ValueError(f"header {lines[0]!r}, expected {header!r}")
    if lines[-1] != "":
        raise ValueError("output does not end with a newline")
    return [line.split(",") for line in lines[1:-1]]


def _band(survived: list[int], n: int, ref: list[int], n_ref: int, label: str) -> list[str]:
    """Two-proportion z band against the reference at every grid point."""
    problems = []
    for i, (k, k_ref) in enumerate(zip(survived, ref)):
        p, p_ref = k / n, k_ref / n_ref
        pooled = (k + k_ref) / (n + n_ref)
        se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n + 1.0 / n_ref))
        if abs(p - p_ref) > Z_BAND * se:
            problems.append(f"{label} point {i}: R={p:.6f} vs reference {p_ref:.6f} "
                            f"(> {Z_BAND:g} SE = {Z_BAND * se:.6f})")
    return problems


def _curve_shape(grid: list[float], survived: list[int], r_hat: list[float],
                 lo: list[float], hi: list[float], n: int, ref_grid: list[float],
                 label: str) -> list[str]:
    problems = []
    if len(grid) != len(ref_grid) or any(abs(a - b) > 1e-9 for a, b in zip(grid, ref_grid)):
        problems.append(f"{label}: grid differs from the reference grid")
    for i in range(len(grid)):
        if not 0 <= survived[i] <= n:
            problems.append(f"{label} point {i}: survivor count {survived[i]} outside [0, {n}]")
        if not 0.0 <= lo[i] <= r_hat[i] <= hi[i] <= 1.0:
            problems.append(f"{label} point {i}: interval [{lo[i]}, {hi[i]}] misses R={r_hat[i]}")
        if i and survived[i] > survived[i - 1]:
            problems.append(f"{label} point {i}: curve increases")
    return problems


def check_curve(data: bytes, stdout: str, exit_code: int, cfg: dict) -> list[str]:
    """valve_curve: counts add up, the curve is nonincreasing, and it agrees with the reference."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    ref = load_reference("valve_curve.json")
    n = cfg["run"]["n_reps"]
    rows = _rows(data, CURVE_HEADER)
    problems = []
    survived = []
    for i, r in enumerate(rows):
        soft, hard, surv = int(r[5]), int(r[6]), int(r[7])
        if int(r[4]) != n:
            problems.append(f"row {i}: n_reps {r[4]}, expected {n}")
        if soft + hard + surv != n:
            problems.append(f"row {i}: soft {soft} + hard {hard} + survived {surv} != {n}")
        if float(r[1]) != surv / n:
            problems.append(f"row {i}: R_hat {r[1]} != survived/n_reps")
        if i and (soft < int(rows[i - 1][5]) or hard < int(rows[i - 1][6])):
            problems.append(f"row {i}: cumulative failure counts decrease")
        survived.append(surv)
    cols = list(zip(*rows)) if rows else [()] * 8
    problems += _curve_shape([float(x) for x in cols[0]], survived, [float(x) for x in cols[1]],
                             [float(x) for x in cols[2]], [float(x) for x in cols[3]], n,
                             ref["grid"], "curve")
    if not problems:
        problems += _band(survived, n, ref["survived"], ref["n_reps"], "curve")
    return problems


def check_sweep(data: bytes, stdout: str, exit_code: int, cfg: dict) -> list[str]:
    """coarse_sweep: each curve is a nonincreasing count curve that agrees with the
    reference, and the curves are ordered pointwise in gamma (common random numbers)."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    ref = load_reference("coarse_sweep.json")
    n = cfg["run"]["n_reps"]
    rows = _rows(data, SWEEP_HEADER)
    problems = []
    curves = []
    for j, value in enumerate(ref["values"]):
        block = rows[j * len(ref["grid"]):(j + 1) * len(ref["grid"])]
        label = f"gamma={value:g}"
        if len(block) != len(ref["grid"]) or any(float(r[0]) != value for r in block):
            problems.append(f"{label}: expected {len(ref['grid'])} rows for this value")
            continue
        r_hat = [float(r[2]) for r in block]
        survived = [round(x * n) for x in r_hat]
        if any(abs(x * n - k) > 1e-6 for x, k in zip(r_hat, survived)):
            problems.append(f"{label}: an R_hat is not a count over {n} replications")
        problems += _curve_shape([float(r[1]) for r in block], survived, r_hat,
                                 [float(r[3]) for r in block], [float(r[4]) for r in block],
                                 n, ref["grid"], label)
        problems += _band(survived, n, ref["survived"][j], ref["n_reps"], label)
        curves.append(survived)
    if len(rows) != len(ref["values"]) * len(ref["grid"]):
        problems.append(f"{len(rows)} rows, expected {len(ref['values']) * len(ref['grid'])}")
    for j in range(1, len(curves)):
        for i, (a, b) in enumerate(zip(curves[j - 1], curves[j])):
            if b > a:
                problems.append(f"point {i}: gamma={ref['values'][j]:g} survives more "
                                f"than gamma={ref['values'][j - 1]:g}")
    return problems


def check_validate(data: bytes, stdout: str, exit_code: int, cfg: dict) -> list[str]:
    """shock_validate: the verb's own oracle comparison passes at every check time."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    lines = stdout.strip().split("\n")
    times = [line.split()[0] for line in lines if line.startswith("t=")]
    if times != ["t=1", "t=2", "t=4", "t=8"]:
        problems.append(f"check times {times}, expected t=1,2,4,8")
    if any(not line.endswith(" ok") for line in lines if line.startswith("t=")):
        problems.append("a check time is not ok")
    if not lines[-1].startswith("PASS:"):
        problems.append(f"last line {lines[-1]!r} is not a PASS")
    return problems


def check_paths(data: bytes, stdout: str, exit_code: int, cfg: dict, k: int) -> list[str]:
    """paths_export: every rep starts at t=0 with nothing accumulated, has one row per
    step while alive, never decreases in wear or shock count, and stops early only on
    a failure."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    dt, soft_h = cfg["run"]["dt"], cfg["model"]["H"]
    n_steps = round(cfg["run"]["horizon"] / dt)
    reps: dict[int, list[list[str]]] = {}
    for r in _rows(data, PATHS_HEADER):
        reps.setdefault(int(r[0]), []).append(r)
    if list(reps) != list(range(k)):
        return [f"reps are not 0..{k - 1} in order"]
    problems = []
    for rep, rows in reps.items():
        if len(problems) > 20:
            break
        if rows[0][1:] != ["0", "0", "0", "0", "0", "0"]:
            problems.append(f"rep {rep}: first row {rows[0]} is not the t=0 origin")
        if len(rows) - 1 > n_steps:
            problems.append(f"rep {rep}: {len(rows) - 1} steps > {n_steps}")
        prev = None
        for i, r in enumerate(rows):
            t, pure, jumps, total = float(r[1]), float(r[2]), float(r[3]), float(r[4])
            cur = (pure, jumps, total, int(r[5]), int(r[6]))
            if abs(t - i * dt) > 1e-9:
                problems.append(f"rep {rep} row {i}: t={t}, expected {i * dt:g}")
                break
            if not math.isclose(total, pure + jumps, rel_tol=1e-12, abs_tol=1e-12):
                problems.append(f"rep {rep} row {i}: total != pure + jumps")
            if prev is not None and any(c < p for c, p in zip(cur, prev)):
                problems.append(f"rep {rep} row {i}: wear, shocks or rate flag decreased")
            if i < len(rows) - 1 and total >= soft_h:
                problems.append(f"rep {rep} row {i}: alive with total {total} >= H")
            prev = cur
        last, before = rows[-1], rows[-2] if len(rows) > 1 else rows[-1]
        if len(rows) - 1 < n_steps and not (float(last[4]) >= soft_h or last[5] != before[5]):
            problems.append(f"rep {rep}: stops at t={last[1]} without a failure")
    return problems
