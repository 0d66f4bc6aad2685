"""Benchmark of the shockwear CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from ``src/`` of the checkout that
holds this file. Each workload is a closed loop with one client: one CLI
invocation at a time, each in a fresh single-threaded interpreter
(``invoke.py``) called with only ``--config``, ``--seed`` and ``--out``. The
loop runs for S seconds (and at least ``MIN_INVOCATIONS`` times) and every
output is checked (``checks.py``).

``--trace 0`` reports the end-to-end metrics as medians over the run's
invocations: ``wall_s`` (the verb call after set-up), ``setup_s`` (``import
shockwear.cli`` plus ``load_config``) and ``peak_rss_mb``. ``--trace 1``
alternates untraced and traced invocations, requires their outputs to be
byte-identical and reports the per-layer split from ``tracing.py``.

Times are reported at a reference CPU speed. On a shared 2-vCPU KVM guest
the speed changes by up to 1.7x for tens of seconds at a time (other tenants
of the host), which no number of samples within one run averages out (see
README.md). So every invocation
also times a fixed numpy job (``invoke.calibrate``) just before and after
the verb, and each of its times is scaled by ``CALIB_REF_S`` over the mean
of those two. The raw seconds and the scale are kept in the record.

Every metric is printed as ``metric NAME = VALUE UNIT``; the last line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``, where
failed/attempted is the error rate. The full record, with machine facts,
per-invocation samples and output SHA-256s, goes to
``perfbench/_work/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
MIN_INVOCATIONS = 3
CALIB_REF_S = 0.25  # the reference speed: the calibration job takes this long
CHILD_TIMEOUT_S = 120
CHILD_ENV = {
    "PYTHONPATH": str(ROOT / "src"),
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]   # verb and its positional arguments
    config: str             # file in perfbench/configs
    check: Callable[[bytes, str, int, dict], list[str]]
    product: str            # "file": the --out file; "stdout": what the verb prints


# Why each workload: see perfbench/README.md.
PATHS_K = 200
WORKLOADS = {
    "valve_curve": Workload(("curve",), "valve.json", checks.check_curve, "file"),
    "shock_validate": Workload(("validate",), "decoupled.json", checks.check_validate, "stdout"),
    "coarse_sweep": Workload(("sweep", "gamma", "0,0.001,0.01"), "valve_coarse.json",
                             checks.check_sweep, "file"),
    "paths_export": Workload(("paths", str(PATHS_K)), "valve.json",
                             functools.partial(checks.check_paths, k=PATHS_K), "file"),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"cli.output_bytes": "bytes", "config.load_s": "s", "trace.overhead_s": "s"}


def layer_unit(name: str) -> str:
    return PER_LAYER_UNITS.get(name, "s" if name.endswith("_s") else "count")


def machine_facts() -> dict:
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            facts[f"L{level}"] = size
    return facts


class Runner:
    """One benchmark run: invokes the CLI, checks each output, keeps every sample."""

    def __init__(self, name: str, seed: int, run_dir: Path):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.run_dir = run_dir
        self.config = HERE / "configs" / self.workload.config
        self.cfg = json.loads(self.config.read_text())
        # Bytecode is cached as it would be for an installed package; the
        # warm-up probe writes it, so set-up samples measure imports, not compiles.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env.update(CHILD_ENV)
        self.verdicts: dict[tuple[str, int], list[str]] = {}
        self.invocations: list[dict] = []

    def _child(self, index: int, cli_argv: list[str], traced: bool) -> dict:
        result = self.run_dir / f"result-{index}.json"
        cmd = [sys.executable, str(HERE / "invoke.py"), str(result), str(self.config)]
        if traced:
            cmd += ["--spans", str(self.run_dir / f"spans-{index}.json"), "--run-id", str(index)]
        try:
            proc = subprocess.run(cmd + ["--", *cli_argv], cwd=self.run_dir, env=self.env,
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
        if proc.returncode != 0 or not result.exists():
            return {"error": f"harness exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
        record = json.loads(result.read_text())
        record["stdout"] = proc.stdout
        if "calib_s" in record:
            record["scale"] = CALIB_REF_S / statistics.mean(record["calib_s"])
        return record

    def warm_up(self) -> None:
        """Set-up only, not counted: the first process in a fresh checkout
        writes the bytecode cache, which users do not pay on every run."""
        self._child(len(self.invocations), ["--config", str(self.config)], traced=False)

    def invoke(self, traced: bool = False) -> dict:
        index = len(self.invocations)
        out = self.run_dir / f"out-{index}.csv"
        cli_argv = [*self.workload.args, "--config", str(self.config),
                    "--seed", str(self.seed), "--out", str(out)]
        rec = self._child(index, cli_argv, traced)
        rec["traced"] = traced
        if "error" in rec:
            rec["problems"] = [rec["error"]]
        else:
            if self.workload.product == "file":
                product = out.read_bytes() if out.exists() else b""
            else:
                product = rec["stdout"].encode("utf-8")
            out.unlink(missing_ok=True)
            rec["output_bytes"] = len(product)
            rec["sha256"] = hashlib.sha256(product).hexdigest()
            key = (rec["sha256"], rec["exit_code"])
            if key not in self.verdicts:
                try:
                    self.verdicts[key] = self.workload.check(product, rec["stdout"],
                                                             rec["exit_code"], self.cfg)
                except (ValueError, IndexError, KeyError) as exc:
                    self.verdicts[key] = [f"unreadable output: {exc!r}"]
            rec["problems"] = list(self.verdicts[key])
            if traced:
                spans = self.run_dir / f"spans-{index}.json"
                layers = tracing.layer_metrics(json.loads(spans.read_text()))
                rec["layers"] = {k: v * rec["scale"] if k.endswith("_s") else v
                                 for k, v in layers.items()}
                spans.unlink()
        del rec["stdout"]
        self.invocations.append(rec)
        return rec


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _wall(r: dict) -> float:
    return r["wall_s"] * r["scale"]


def _setup(r: dict) -> float:
    return (r["import_s"] + r["load_s"]) * r["scale"]


def run_untraced(runner: Runner, seconds: float) -> tuple[dict, list[dict]]:
    runner.warm_up()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(runner.invocations) < MIN_INVOCATIONS:
        runner.invoke()
    timed = [r for r in runner.invocations if "error" not in r]
    metrics = {
        "wall_s": _median([_wall(r) for r in timed]),
        "setup_s": _median([_setup(r) for r in timed]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in timed]),
    }
    return {k: (v, END_TO_END[k], len(timed)) for k, v in metrics.items()}, runner.invocations


def run_traced(runner: Runner, seconds: float) -> tuple[dict, list[dict]]:
    runner.warm_up()
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(runner.invocations) < 2 * (MIN_INVOCATIONS - 1)):
        plain = runner.invoke(traced=False)
        traced = runner.invoke(traced=True)
        if "sha256" in plain and "sha256" in traced and plain["sha256"] != traced["sha256"]:
            traced["problems"].append("traced output differs from the untraced output")
    plain = [r for r in runner.invocations if not r["traced"] and "error" not in r]
    traced = [r for r in runner.invocations if r["traced"] and "error" not in r]
    metrics = {}
    if traced:
        for name in traced[0]["layers"]:
            metrics[name] = _median([r["layers"][name] for r in traced])
        metrics["cli.output_bytes"] = _median([r["output_bytes"] for r in traced])
        metrics["config.load_s"] = _median([r["load_s"] * r["scale"] for r in traced])
        metrics["trace.overhead_s"] = (_median([_wall(r) for r in traced])
                                       - _median([_wall(r) for r in plain]))
    return ({k: (v, layer_unit(k), len(traced)) for k, v in metrics.items()},
            runner.invocations)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "shockwear" / "cli.py").is_file():
        print(f"no shockwear sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK / f"{tag}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        runner = Runner(args.workload, args.seed, run_dir)
        run = run_traced if args.trace else run_untraced
        metrics, invocations = run(runner, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = len(invocations)
    failed = sum(1 for r in invocations if r["problems"])
    if not metrics or any(v != v for v, _, _ in metrics.values()):
        print(f"no invocation of {args.workload} could be timed:", file=sys.stderr)
        for r in invocations:
            print(f"  {r['problems']}", file=sys.stderr)
        return 1

    facts = machine_facts()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}; closed loop, 1 client, fresh single-threaded process per call")
    print("machine " + json.dumps(facts))
    for i, r in enumerate(invocations):
        state = "ok" if not r["problems"] else "FAILED: " + "; ".join(r["problems"][:3])
        if "error" in r:
            print(f"call {i}: {state}")
            continue
        print(f"call {i}{' traced' if r['traced'] else ''}: wall_s {_wall(r):.4f} "
              f"(raw {r['wall_s']:.4f}, scale {r['scale']:.3f}) setup_s {_setup(r):.4f} "
              f"peak_rss_mb {r['peak_rss_mb']:.1f} exit {r['exit_code']} "
              f"sha256 {r['sha256'][:16]} {state}")
    for name, (value, unit, n) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (median of {n})")
    print(f"metric error_rate = {failed / attempted:.6g} 1 ({failed} failed of {attempted})")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=facts, samples={k: n for k, (_, _, n) in metrics.items()},
                  invocations=invocations)
    (WORK / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
