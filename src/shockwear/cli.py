"""Command-line frontend.

Verbs: curve (survival curve CSV), sweep (one curve per parameter value,
long-format CSV), validate (Monte Carlo vs the decoupled-case analytic
oracle), paths (step-grid trajectory export). All output is deterministic
given the config and seed. Exit codes: 0 success, 2 config error, 3 numeric
guard violation, 4 validation failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .config import RunConfig, dump_config, load_config
from .errors import ConfigError, StepSizeError, UnsupportedConfigError
from .reliability import (
    SWEEPABLE,
    analytic_reliability,
    estimate_reliability,
    sweep,
)
from .simulate import simulate_paths


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    run = cfg.run
    model = cfg.model
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed must be >= 0")
        run = replace(run, master_seed=args.seed)
    if args.reps is not None:
        if args.reps < 1:
            raise ConfigError("--reps must be >= 1")
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


def _load(args) -> RunConfig:
    cfg = _apply_overrides(load_config(args.config), args)
    if args.print_config:
        sys.stdout.write(dump_config(cfg))
    return cfg


def _curve_lines(curve) -> list[str]:
    lines = ["t,R_hat,ci_low,ci_high,n_reps,n_soft,n_hard,n_survived"]
    for i, t in enumerate(curve.grid):
        surviving = curve.n_reps - int(curve.soft_count[i]) - int(curve.hard_count[i])
        lines.append(",".join([
            _fmt(t), _fmt(curve.estimate[i]), _fmt(curve.ci_low[i]), _fmt(curve.ci_high[i]),
            str(curve.n_reps), str(int(curve.soft_count[i])), str(int(curve.hard_count[i])),
            str(surviving),
        ]))
    return lines


def cmd_curve(args) -> int:
    cfg = _load(args)
    if args.print_config:
        return 0
    curve = estimate_reliability(
        cfg.model, cfg.run.grid.times(), cfg.run.n_reps, cfg.run.master_seed,
    )
    _write_lines(cfg.output.path, _curve_lines(curve))
    print(f"wrote {cfg.output.path}: {curve.grid.size} grid points, {curve.n_reps} replications")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load(args)
    if args.print_config:
        return 0
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"could not parse sweep values {args.values!r}: {exc}") from exc
    if not values:
        raise ConfigError("sweep needs at least one value")
    try:
        curves = sweep(cfg.model, args.parameter, values, cfg.run.grid.times(),
                       cfg.run.n_reps, cfg.run.master_seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    lines = ["param_value,t,R_hat,ci_low,ci_high"]
    for value, curve in curves:
        for i, t in enumerate(curve.grid):
            lines.append(",".join([
                _fmt(value), _fmt(t), _fmt(curve.estimate[i]),
                _fmt(curve.ci_low[i]), _fmt(curve.ci_high[i]),
            ]))
    _write_lines(cfg.output.path, lines)
    print(f"wrote {cfg.output.path}: {args.parameter} sweep over {len(values)} values")
    return 0


def cmd_validate(args) -> int:
    cfg = _load(args)
    if args.print_config:
        return 0
    times = [t for t in (1.0, 2.0, 4.0, 8.0) if t <= cfg.model.numerics.horizon]
    if args.times:
        try:
            times = [float(v) for v in args.times.split(",")]
        except ValueError as exc:
            raise ConfigError(f"could not parse --times: {exc}") from exc
    grid = np.array(sorted(times))
    try:
        analytic = [analytic_reliability(cfg.model, t) for t in grid]
    except UnsupportedConfigError as exc:
        raise ConfigError(str(exc)) from exc
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


def cmd_paths(args) -> int:
    cfg = _load(args)
    if args.print_config:
        return 0
    if args.k < 1:
        raise ConfigError("k must be >= 1")
    if args.stride < 1:
        raise ConfigError("--stride must be >= 1")
    num = cfg.model.numerics
    outcomes = simulate_paths(cfg.model, num.horizon, num.dt, cfg.run.master_seed, args.k)
    lines = ["rep,t,pure,jumps,total,n_shocks,rate_changed"]
    for rep, outcome in enumerate(outcomes):
        trace = outcome.trace
        last = len(trace) - 1
        for i, (t, pure, jumps, n_shocks) in enumerate(trace):
            if i % args.stride and i != last:
                continue
            changed = outcome.rate_change_time is not None and t >= outcome.rate_change_time
            lines.append(",".join([
                str(rep), _fmt(t), _fmt(pure), _fmt(jumps), _fmt(pure + jumps),
                str(n_shocks), "1" if changed else "0",
            ]))
    _write_lines(cfg.output.path, lines)
    print(f"wrote {cfg.output.path}: {args.k} trajectories")
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StepSizeError as exc:
        print(f"numeric guard: {exc}", file=sys.stderr)
        return 3
    except (ValueError, UnsupportedConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
