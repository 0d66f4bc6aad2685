"""Span tracer for one benchmark invocation, and the per-layer split of its spans.

The tracer replaces names that callers look up at call time with timing
wrappers, so nothing inside ``src/shockwear`` changes. ``simulate`` and
``reliability`` import their helpers by name, so the wrappers go on the
caller's module (``shockwear.simulate.poisson_counts``, not
``shockwear.shocks.poisson_counts``).

Each wrapped call is one span ``[name, start, end, parent, run_id, draw_s]``:
``parent`` is the index of the enclosing span (-1 at the top) and ``draw_s``
the time spent inside it in generator draws. Draws are far too many for a
span each (about half a million on the valve curve), so the timing
``Generator`` subclasses handed out by the wrapped ``replication_stream``
only add to per-kind counters and to the enclosing span's ``draw_s``. They
share the bit generator of the original, so every draw, and so every output
byte, is the same as in an untraced run.
"""

from __future__ import annotations

import inspect
import json
import math
import time

perf = time.perf_counter

# (module whose global is replaced, name); the span is named after the
# module that defines the function, which is the layer it belongs to.
WRAPPED = (
    ("shockwear.simulate", "replication_stream"),
    ("shockwear.simulate", "poisson_counts"),
    ("shockwear.reliability", "run_replications"),
    ("shockwear.reliability", "integrate"),
    ("shockwear.reliability", "gamma_cdf"),
    ("shockwear.cli", "estimate_reliability"),
    ("shockwear.cli", "analytic_reliability"),
    ("shockwear.cli", "sweep"),
    ("shockwear.cli", "simulate_paths"),
)

# Generator methods the engine calls, by stream kind.
DRAWS = {"path": ("gamma", "random"), "mark": ("normal",)}


class Tracer:
    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.draws = {kind: [0, 0.0] for kind in DRAWS}
        self.engine_calls: list[tuple] = []  # (span name, bound args, result)

    def _wrap(self, fn, name: str, keep: bool = False):
        spans, stack, run_id, engine_calls = self.spans, self.stack, self.run_id, self.engine_calls
        signature = inspect.signature(fn) if keep else None

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, run_id, 0.0]
            spans.append(span)
            stack.append(idx)
            span[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()
            if keep:
                engine_calls.append((name, signature.bind(*args, **kwargs), result))
            return result

        return traced

    def _timing_generator(self, kind: str):
        from numpy.random import Generator

        acc, spans, stack = self.draws[kind], self.spans, self.stack

        def timed(method):
            base = getattr(Generator, method)

            def call(gen, *args, **kwargs):
                t = perf()
                out = base(gen, *args, **kwargs)
                d = perf() - t
                acc[0] += 1
                acc[1] += d
                if stack:
                    spans[stack[-1]][5] += d
                return out

            return call

        return type(f"Timed{kind.title()}Generator", (Generator,),
                    {m: timed(m) for m in DRAWS[kind]})

    def install(self) -> None:
        import importlib

        from shockwear.rng import PATH_STREAM

        path_gen = self._timing_generator("path")
        mark_gen = self._timing_generator("mark")

        def timed_streams(make_stream):
            def replication_stream(master_seed, rep_index, stream):
                gen = make_stream(master_seed, rep_index, stream)
                cls = path_gen if stream == PATH_STREAM else mark_gen
                return cls(gen.bit_generator)
            return replication_stream

        for module_name, attr in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            if attr == "replication_stream":
                fn = timed_streams(fn)
            keep = attr in ("run_replications", "simulate_paths")
            setattr(module, attr, self._wrap(fn, name, keep))

    def call_main(self, argv: list[str]) -> int:
        import shockwear.cli

        return self._wrap(shockwear.cli.main, "cli.main")(argv)

    def _engine_counts(self) -> dict:
        """Exact work counts from the engine calls' arguments and results."""
        import numpy as np

        from shockwear.simulate import step_count

        rep_steps = batches = 0
        for name, bound, result in self.engine_calls:
            bound.apply_defaults()
            a = bound.arguments
            n_steps = step_count(a["horizon"], a["dt"])
            if name == "simulate.run_replications":
                ftime = result[0]
                failed = np.isfinite(ftime)
                steps = np.full(ftime.shape, n_steps, dtype=np.int64)
                steps[failed] = np.rint(ftime[failed] / a["dt"]).astype(np.int64)
                rep_steps += int(np.minimum(steps, n_steps).sum())
                batches += math.ceil(a["n_reps"] / a["batch_size"])
            else:  # simulate_paths: one batch, one trace row per step taken
                rep_steps += sum(len(o.trace) - 1 for o in result)
                batches += 1
        return {"simulate.rep_steps": rep_steps, "simulate.batches": batches}

    def write(self, path: str) -> None:
        doc = {
            "run_id": self.run_id,
            "spans": self.spans,
            "draws": self.draws,
            "counts": self._engine_counts(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer counts and seconds from one invocation's span file.

    A span's self time is its duration minus its child spans and the draws
    made directly inside it.
    """
    spans = doc["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent, _run, _draw in spans:
        if parent >= 0:
            child[parent] += end - start
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (name, start, end, _parent, _run, draw_s) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start) - child[i] - draw_s
        calls[name] = calls.get(name, 0) + 1

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    def s(*names):
        return sum(own.get(n, 0.0) for n in names)

    engine = ("simulate.run_replications", "simulate.simulate_paths")
    path_n, path_s = doc["draws"]["path"]
    mark_n, mark_s = doc["draws"]["mark"]
    return {
        "rng.streams": calls.get("rng.replication_stream", 0),
        "rng.stream_s": t("rng.replication_stream"),
        "simulate.path_draws": path_n,
        "simulate.path_draw_s": path_s,
        "simulate.run_s": t(*engine),
        "simulate.self_s": s(*engine),
        "simulate.rep_steps": doc["counts"]["simulate.rep_steps"],
        "simulate.batches": doc["counts"]["simulate.batches"],
        "shocks.poisson_calls": calls.get("shocks.poisson_counts", 0),
        "shocks.poisson_s": t("shocks.poisson_counts"),
        "shocks.mark_draws": mark_n,
        "shocks.mark_draw_s": mark_s,
        "reliability.reduce_s": s("reliability.estimate_reliability", "reliability.sweep"),
        "reliability.oracle_s": t("reliability.analytic_reliability"),
        "quadrature.integrate_calls": calls.get("quadrature.integrate", 0),
        "kernel.gamma_cdf_calls": calls.get("kernel.gamma_cdf", 0),
        "cli.self_s": s("cli.main"),
    }
