"""Run the benchmark over several seeds per workload and summarize the spread.

    python3 perfbench/baseline.py [--seeds 1-10] [--trace-seeds 1] [--out perfbench/baseline.json]

Runs the command in ``BENCHMARK.json`` once per workload and seed with
``--trace 0`` (and with ``--trace 1`` for ``--trace-seeds``), one run at a
time, and writes for every metric its values, median, quartiles and spread
(interquartile distance over median, from ``statistics.quantiles(n=4)``),
together with the machine facts and the output SHA-256 of every run. The
file committed as ``perfbench/baseline.json`` is the reference that later
changes are compared with.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORK, machine_facts  # noqa: E402


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",") if s]


def _run(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    record = json.loads((WORK / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    result["sha256"] = sorted({r["sha256"] for r in record["invocations"] if "sha256" in r})
    result["samples"] = record["samples"]
    return result


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"values": values, "median": med}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seeds", default="1")
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    doc = {"machine": machine_facts(), "run_seconds": bench["run_seconds"], "workloads": {}}
    try:
        doc["program_commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    for name in names:
        runs = {seed: _run(bench, name, seed, 0) for seed in _seeds(args.seeds)}
        traced = {seed: _run(bench, name, seed, 1) for seed in _seeds(args.trace_seeds)}
        entry = {"end_to_end": {}, "per_layer": {}, "runs": runs, "traced_runs": traced}
        for metric in bounds:
            s = summarize([r["metrics"][metric]["value"] for r in runs.values()])
            s["bound"] = bounds[metric]
            entry["end_to_end"][metric] = s
            print(f"{name:15s} {metric:12s} median {s['median']:.4f} "
                  f"spread {s.get('spread', 0.0):.4f} (bound {bounds[metric]})", flush=True)
        for metric in next(iter(traced.values()))["metrics"] if traced else ():
            entry["per_layer"][metric] = summarize(
                [r["metrics"][metric]["value"] for r in traced.values()])
        entry["failed"] = sum(r["failed"] for r in [*runs.values(), *traced.values()])
        entry["attempted"] = sum(r["attempted"] for r in [*runs.values(), *traced.values()])
        doc["workloads"][name] = entry
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
