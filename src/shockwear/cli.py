"""Command-line frontend.

Verbs: curve (survival curve CSV), sweep (one curve per parameter value,
long-format CSV), validate (Monte Carlo vs the decoupled-case analytic
oracle), paths (step-grid trajectory export). All output is deterministic
given the config and seed. Exit codes: 0 success, 2 config error, 3 numeric
guard violation or oracle quadrature failure, 4 validation failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from collections.abc import Iterable
from dataclasses import replace

import numpy as np

from .config import RunConfig, _config_names, dump_config, load_config
from .errors import ConfigError, IntegrationError, StepSizeError
from .reliability import (
    SWEEPABLE,
    analytic_reliability,
    estimate_reliability,
    sweep,
)
from .simulate import simulate_paths


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _output_path(cfg: RunConfig) -> str:
    """output.path, refused before any simulation runs if it cannot be written."""
    path = cfg.output.path
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ConfigError(f"output.path: directory {folder!r} does not exist")
    if os.path.isdir(path):
        raise ConfigError(f"output.path: {path!r} is a directory")
    if not os.access(folder, os.W_OK | os.X_OK):
        raise ConfigError(f"output.path: directory {folder!r} is not writable")
    return path


def _write_csv(path: str, header: str, chunks: Iterable[str]) -> None:
    """Write ``header`` and then each chunk of newline-terminated rows as it
    is produced, so the whole CSV text is never held in memory. The file is
    opened only here, after the simulation, so a run that fails creates or
    truncates nothing."""
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"output.path: cannot write {path!r}: {exc.strerror}") from exc
    with fh:
        fh.write(header + "\n")
        fh.writelines(chunks)


def _numbers(text: str, name: str) -> list[float]:
    """The comma-separated numbers of ``text``; an empty or non-numeric entry
    is refused, naming ``name``, rather than dropped."""
    values = []
    for entry in text.split(","):
        try:
            values.append(float(entry))
        except ValueError:
            raise ConfigError(f"{name}: {entry!r} in {text!r} is not a number") from None
    return values


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    run = cfg.run
    model = cfg.model
    if args.seed is not None:
        run = replace(run, master_seed=args.seed)
    if args.reps is not None:
        run = replace(run, n_reps=args.reps)
    if args.dt is not None:
        try:
            model = replace(model, numerics=replace(model.numerics, dt=args.dt))
        except ValueError as exc:
            raise ConfigError(f"--dt: {exc}") from exc
    out = cfg.output
    if args.out is not None:
        out = replace(out, path=args.out)
    return replace(cfg, model=model, run=run, output=out)


def _curve_rows(curve) -> Iterable[str]:
    for i, t in enumerate(curve.grid):
        yield ",".join([
            _fmt(t), _fmt(curve.estimate[i]), _fmt(curve.ci_low[i]), _fmt(curve.ci_high[i]),
            str(curve.n_reps), str(int(curve.soft_count[i])), str(int(curve.hard_count[i])),
            str(int(curve.survived_count[i])),
        ]) + "\n"


def cmd_curve(cfg: RunConfig, args) -> int:
    path = _output_path(cfg)
    curve = estimate_reliability(
        cfg.model, cfg.run.grid.times(), cfg.run.n_reps, cfg.run.master_seed,
    )
    _write_csv(path, "t,R_hat,ci_low,ci_high,n_reps,n_soft,n_hard,n_survived", _curve_rows(curve))
    print(f"wrote {path}: {curve.grid.size} grid points, {curve.n_reps} replications")
    return 0


def cmd_sweep(cfg: RunConfig, args) -> int:
    values = _numbers(args.values, "sweep values")
    path = _output_path(cfg)
    try:
        curves = sweep(cfg.model, args.parameter, values, cfg.run.grid.times(),
                       cfg.run.n_reps, cfg.run.master_seed)
    except ValueError as exc:
        raise ConfigError(_config_names(str(exc))) from exc
    rows = (",".join([
        _fmt(value), _fmt(t), _fmt(curve.estimate[i]), _fmt(curve.ci_low[i]), _fmt(curve.ci_high[i]),
    ]) + "\n" for value, curve in curves for i, t in enumerate(curve.grid))
    _write_csv(path, "param_value,t,R_hat,ci_low,ci_high", rows)
    print(f"wrote {path}: {args.parameter} sweep over {len(values)} values")
    return 0


def cmd_validate(cfg: RunConfig, args) -> int:
    for flag, value in (("--tol", args.tol), ("--abs-tol", args.abs_tol)):
        if value is not None and not (math.isfinite(value) and value >= 0.0):
            raise ConfigError(f"{flag} must be finite and >= 0, got {value}")
    horizon = cfg.model.numerics.horizon
    times = [t for t in (1.0, 2.0, 4.0, 8.0) if t <= horizon]
    if args.times is not None:
        times = _numbers(args.times, "--times")
    elif not times:
        raise ConfigError(f"--times: none of the default check times 1,2,4,8 lies within "
                          f"run.horizon={horizon}; give --times")
    grid = np.array(sorted(times))
    try:
        cfg.model.numerics.steps_ended(grid)
    except ValueError as exc:
        raise ConfigError(f"--times: {exc}") from exc
    analytic = [analytic_reliability(cfg.model, t) for t in grid]
    curve = estimate_reliability(cfg.model, grid, cfg.run.n_reps, cfg.run.master_seed)
    ok = True
    max_dev = 0.0
    for i, t in enumerate(grid):
        half = 0.5 * (curve.ci_high[i] - curve.ci_low[i])
        tol = args.tol if args.tol is not None else max(3.0 * half, args.abs_tol)
        dev = abs(curve.estimate[i] - analytic[i])
        max_dev = max(max_dev, dev)
        line_ok = dev <= tol
        ok = ok and line_ok
        print(f"t={t:g} mc={curve.estimate[i]:.6f} analytic={analytic[i]:.6f} "
              f"|dev|={dev:.6f} tol={tol:.6f} {'ok' if line_ok else 'FAIL'}")
    print(f"{'PASS' if ok else 'FAIL'}: max deviation {max_dev:.6f} over {grid.size} times "
          f"at {cfg.run.n_reps} replications")
    return 0 if ok else 4


def _path_chunks(outcomes, stride: int) -> Iterable[str]:
    """The rows of each trajectory as one string: every stride-th step and the last.

    Each field keeps its text from the row before and is formatted again only
    when its value changes, which gives the bytes of formatting every field
    of every row: equal floats have equal text except 0.0 and -0.0, and no
    field is -0.0 (pure and jumps are sums of nonnegative terms from 0.0),
    while a NaN never equals the row before, so it is formatted on every row.
    jumps changes only at shocks, and pure repeats whenever a step's wear
    increment is below half an ulp of the path (most steps at a wear shape
    of 0.005 per step). total is formatted again when either changed, and
    is pure's text while jumps == 0.0, since pure + 0.0 == pure for
    pure >= 0. A run's traces share their times, so each t is formatted
    once per run.
    """
    t_text: dict[float, str] = {}
    for rep, outcome in enumerate(outcomes):
        trace = outcome.trace
        kept = trace[::stride]
        if (len(trace) - 1) % stride:
            kept += trace[-1:]
        changed_at = outcome.rate_change_time
        if changed_at is None:
            changed_at = float("inf")
        last_pure = last_jumps = total_s = None
        lines = []
        for t, pure, jumps, n_shocks in kept:
            t_s = t_text.get(t)
            if t_s is None:
                t_s = t_text[t] = f"{t:.17g}"
            if pure != last_pure:
                last_pure, pure_s, total_s = pure, f"{pure:.17g}", None
            if jumps != last_jumps:
                last_jumps, jumps_s, total_s = jumps, f"{jumps:.17g}", None
            if total_s is None:
                total_s = pure_s if jumps == 0.0 else f"{pure + jumps:.17g}"
            lines.append(f"{rep},{t_s},{pure_s},{jumps_s},{total_s},{n_shocks},"
                         f"{'1' if t >= changed_at else '0'}\n")
        yield "".join(lines)


def cmd_paths(cfg: RunConfig, args) -> int:
    if args.stride < 1:
        raise ConfigError("--stride must be >= 1")
    path = _output_path(cfg)
    num = cfg.model.numerics
    outcomes = simulate_paths(cfg.model, num.horizon, num.dt, cfg.run.master_seed, args.k)
    _write_csv(path, "rep,t,pure,jumps,total,n_shocks,rate_changed",
               _path_chunks(outcomes, args.stride))
    print(f"wrote {path}: {args.k} trajectories")
    return 0


def _common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="path to a JSON run configuration")
    sub.add_argument("--seed", type=int, default=None, help="override run.master_seed")
    sub.add_argument("--reps", type=int, default=None, help="override run.n_reps")
    sub.add_argument("--dt", type=float, default=None, help="override run.dt")
    sub.add_argument("--out", default=None, help="override output.path")
    sub.add_argument("--print-config", action="store_true",
                     help="echo the normalized config as JSON and exit")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shockwear",
        description="Reliability of a system under coupled wear and shock failure processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curve", help="estimate a survival curve and write it as CSV")
    _common(p)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("sweep", help="curves across values of one parameter (paired seeds)")
    p.add_argument("parameter", help=f"one of: {', '.join(SWEEPABLE)}")
    p.add_argument("values", help="comma-separated values, e.g. 0,0.001,0.01")
    _common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="compare Monte Carlo against the decoupled analytic oracle")
    p.add_argument("--abs-tol", type=float, default=0.01,
                   help="absolute floor of the pass tolerance (default 0.01)")
    p.add_argument("--tol", type=float, default=None,
                   help="replace the tolerance entirely (overrides the 3-half-width rule)")
    p.add_argument("--times", default=None, help="comma-separated check times")
    _common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("paths", help="export step-grid trajectories as CSV")
    p.add_argument("k", type=int, help="number of trajectories")
    p.add_argument("--stride", type=int, default=1, help="keep every n-th step row")
    _common(p)
    p.set_defaults(func=cmd_paths)
    return parser


def _advise(message, category, filename, lineno, file=None, line=None) -> None:
    """Show a warning as one ``warning:`` line, without the file and source
    line, which would name the library rather than the config."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    """Load the config and apply the overrides for every verb; echo it on
    --print-config before any verb-specific check, else run the verb on it."""
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _advise
        try:
            cfg = _apply_overrides(load_config(args.config), args)
            if args.print_config:
                sys.stdout.write(dump_config(cfg))
                return 0
            return args.func(cfg, args)
        except ValueError as exc:  # ConfigError, UnsupportedConfigError and model range errors
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except StepSizeError as exc:
            print(f"numeric guard: {exc}", file=sys.stderr)
            return 3
        except IntegrationError as exc:
            print(f"numeric error: {exc}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
