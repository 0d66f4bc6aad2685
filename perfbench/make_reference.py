"""Write the reference curves that checks.py compares the curve workloads with.

    python3 perfbench/make_reference.py

Runs the CLI of the checkout at a seed the benchmark does not use and with
five times the benchmark's replications, and stores survivor counts per
grid point in ``perfbench/reference/``. Regenerate only when the model or
the workload configs change, never to make a failing check pass.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from shockwear.cli import main  # noqa: E402

REFERENCE_SEED = 987_654_321
REFERENCE_REPS = 100_000


def _run(argv: list[str]) -> list[list[str]]:
    work = HERE / "_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        out = work / "out.csv"
        code = main(argv + ["--seed", str(REFERENCE_SEED), "--reps", str(REFERENCE_REPS),
                            "--out", str(out)])
        if code != 0:
            raise SystemExit(f"reference run {argv} exited {code}")
        return [line.split(",") for line in out.read_text().splitlines()[1:]]
    finally:
        shutil.rmtree(work)


def main_reference() -> None:
    configs = HERE / "configs"
    (HERE / "reference").mkdir(exist_ok=True)

    rows = _run(["curve", "--config", str(configs / "valve.json")])
    doc = {
        "seed": REFERENCE_SEED,
        "n_reps": REFERENCE_REPS,
        "grid": [float(r[0]) for r in rows],
        "survived": [int(r[7]) for r in rows],
    }
    (HERE / "reference" / "valve_curve.json").write_text(json.dumps(doc) + "\n")

    values = [0.0, 0.001, 0.01]
    rows = _run(["sweep", "gamma", ",".join(f"{v:g}" for v in values),
                 "--config", str(configs / "valve_coarse.json")])
    grid = sorted({float(r[1]) for r in rows})
    doc = {
        "seed": REFERENCE_SEED,
        "n_reps": REFERENCE_REPS,
        "values": values,
        "grid": grid,
        "survived": [[round(float(r[2]) * REFERENCE_REPS) for r in rows if float(r[0]) == v]
                     for v in values],
    }
    (HERE / "reference" / "coarse_sweep.json").write_text(json.dumps(doc) + "\n")


if __name__ == "__main__":
    main_reference()
