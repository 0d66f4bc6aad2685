"""Coupled wear/shock replications.

One replication advances wear on a fixed step grid, freezing the shock
intensity at each step start. Per step: grow the pure gamma path, check soft
failure (total wear >= threshold), then draw the arrival count from the
intensity at the current count/wear and process each arrival in order
(fatal -> hard failure and stop; damaging -> switch the wear rate; every
non-fatal shock adds a clamped jump), and re-check soft failure after the
jumps. Failure times are reported at the end-of-step clock.

Stream layout (a compatibility contract: changing it changes every result
for a given seed):

  path stream  : [theta uniform if a theta law is set] then, per chunk of
                 _CHUNK steps, a block of gamma increments at the pre-change
                 shape, then one block of 2*_CHUNK uniforms: the first half
                 for the post-change extra increment, the second half for
                 arrival counts.
  marks stream : per shock, one normal magnitude then (if non-fatal) one
                 normal jump.

The post-change extra increment is materialized from its uniform by the
inverse gamma CDF with shape theta*(alpha2-alpha1)*dt, so a changed-rate
increment is the pre-change increment plus an independent nonnegative term.
Uniform blocks are drawn whether or not they are used; consumption therefore
never depends on the trajectory, and two runs with the same master seed see
identical randomness even when their parameters differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np
from scipy.special import gammaincinv

from .degradation import DegradationParams
from .errors import StepSizeError
from .rng import MARK_STREAM, PATH_STREAM, replication_stream
from .shocks import MAX_RATE_DT, ShockParams, poisson_counts

_CHUNK = 256  # steps of pre-drawn path randomness per refill; part of the stream contract

Status = Literal["soft_failed", "hard_failed", "survived"]
_STATUS = {0: "survived", 1: "soft_failed", 2: "hard_failed"}


@dataclass(frozen=True)
class Numerics:
    """Step size and horizon of a run: the one place both are set."""

    dt: float = 0.01
    horizon: float = 20.0

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"Numerics.dt must be finite and > 0, got {self.dt}")
        if not (np.isfinite(self.horizon) and self.horizon >= 0.0):
            raise ValueError(f"Numerics.horizon must be finite and >= 0, got {self.horizon}")


@dataclass(frozen=True)
class ModelParams:
    degradation: DegradationParams
    shock: ShockParams
    numerics: Numerics = field(default_factory=Numerics)


@dataclass(frozen=True)
class ReplicationOutcome:
    status: Status
    failure_time: float | None
    rate_change_time: float | None
    n_shocks: int
    final_total_degradation: float
    trace: tuple[tuple[float, float, float, int], ...] | None = None


def step_count(horizon: float, dt: float) -> int:
    if dt <= 0.0 or not math.isfinite(dt):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if horizon < 0.0 or not math.isfinite(horizon):
        raise ValueError(f"horizon must be finite and >= 0, got {horizon}")
    n = int(round(horizon / dt))
    if abs(n * dt - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError(f"horizon {horizon} is not a whole number of dt={dt} steps")
    return n


class BatchResult:
    """Plain arrays for a contiguous block of replications."""

    __slots__ = ("failure_time", "mode", "rate_change_time", "n_shocks", "final_total", "traces")

    def __init__(self, n, want_traces):
        self.failure_time = np.full(n, np.inf)
        self.mode = np.zeros(n, dtype=np.int8)  # 0 survived, 1 soft, 2 hard
        self.rate_change_time = np.full(n, np.nan)
        self.n_shocks = np.zeros(n, dtype=np.int64)
        self.final_total = np.zeros(n)
        self.traces = [[(0.0, 0.0, 0.0, 0)] for _ in range(n)] if want_traces else None


def _simulate_batch(params: ModelParams, horizon: float, dt: float, master_seed: int,
                    rep_lo: int, rep_hi: int, want_traces: bool = False) -> BatchResult:
    deg = params.degradation
    shk = params.shock
    n_steps = step_count(horizon, dt)
    n = rep_hi - rep_lo
    out = BatchResult(n, want_traces)
    if n == 0:
        return out

    path_gens = np.empty(n, dtype=object)
    mark_gens = np.empty(n, dtype=object)
    for j in range(n):
        path_gens[j] = replication_stream(master_seed, rep_lo + j, PATH_STREAM)
        mark_gens[j] = replication_stream(master_seed, rep_lo + j, MARK_STREAM)

    theta = np.ones(n)
    if deg.theta_law is not None:
        tl = deg.theta_law
        for j in range(n):
            theta[j] = float(gammaincinv(tl.shape, path_gens[j].random())) / tl.rate

    scale = 1.0 / deg.beta
    shape_pre = theta * (deg.alpha1 * dt)
    d_alpha = deg.alpha2 - deg.alpha1
    if d_alpha > 0.0:
        shape_post = theta * (d_alpha * dt)      # additive extra increment
    elif d_alpha < 0.0:
        shape_post = theta * (deg.alpha2 * dt)   # replacement increment (rate decrease)
    else:
        shape_post = None

    mu_w, sd_w = shk.magnitude_law.mean, shk.magnitude_law.stdev
    mu_y, sd_y = deg.jump_law.mean, deg.jump_law.stdev
    lam0, gdep, eta = shk.lambda0, shk.gamma_dep, shk.eta
    d0, d1 = shk.damage_threshold, shk.hard_threshold
    soft_h = deg.soft_threshold

    # `live` maps compacted rows to batch-local ids; `alive` masks rows that
    # failed mid-chunk. Compaction happens only at chunk boundaries where the
    # buffers are reallocated anyway, so failures never force buffer copies.
    live = np.arange(n)
    alive = np.ones(n, dtype=bool)
    pure = np.zeros(n)
    jumps = np.zeros(n)
    nshk = np.zeros(n, dtype=np.int64)
    changed = np.zeros(n, dtype=bool)
    g1 = u2 = upois = None

    for k in range(n_steps):
        col = k % _CHUNK
        if col == 0:
            if not alive.all():
                live = live[alive]
                pure = pure[alive]
                jumps = jumps[alive]
                nshk = nshk[alive]
                changed = changed[alive]
                alive = np.ones(live.size, dtype=bool)
            if live.size == 0:
                break
            span = min(_CHUNK, n_steps - k)
            g1 = u = u2 = upois = None  # free the last chunk's buffers before allocating
            g1 = np.empty((live.size, span))
            u = np.empty((live.size, 2 * span))
            for r in range(live.size):
                g = path_gens[live[r]]
                g1[r] = g.gamma(shape_pre[live[r]], scale, size=span)
                g.random(out=u[r])
            u2 = u[:, :span]
            upois = u[:, span:]

        t_end = (k + 1) * dt

        if changed.any() and shape_post is not None:
            rows = np.nonzero(changed)[0]
            post = gammaincinv(shape_post[live[rows]], u2[rows, col]) * scale
            if d_alpha > 0.0:
                pure += g1[:, col]
                pure[rows] += post
            else:
                inc = g1[:, col].copy()
                inc[rows] = post
                pure += inc
        else:
            pure += g1[:, col]

        total = pure + jumps
        soft_first = alive & (total >= soft_h)

        running = alive & ~soft_first
        rate = (1.0 + eta * nshk) * (lam0 + gdep * total)
        if running.any():
            rate_max = rate[running].max()
            if rate_max * dt > MAX_RATE_DT:
                raise StepSizeError(
                    f"intensity*dt = {rate_max * dt:.4g} exceeds {MAX_RATE_DT} at t={t_end:.6g}; "
                    f"use dt <= {MAX_RATE_DT / rate_max:.4g}",
                    suggested_dt=MAX_RATE_DT / rate_max,
                )

        mu = rate * dt
        mu[~running] = 0.0  # failed rows take no arrivals and must not stall the inversion
        counts = poisson_counts(mu, upois[:, col])
        hard_now = np.zeros(live.size, dtype=bool)
        if counts.any():
            for r in np.nonzero(counts)[0]:
                g = mark_gens[live[r]]
                for _ in range(counts[r]):
                    mag = g.normal(mu_w, sd_w)
                    nshk[r] += 1
                    if mag > d1:
                        hard_now[r] = True
                        break
                    if mag > d0 and not changed[r]:
                        changed[r] = True
                        out.rate_change_time[live[r]] = t_end
                    y = g.normal(mu_y, sd_y)
                    if y > 0.0:
                        jumps[r] += y
            total = pure + jumps

        if want_traces:
            for r in np.nonzero(alive)[0]:
                out.traces[live[r]].append((t_end, float(pure[r]), float(jumps[r]), int(nshk[r])))

        newly_failed = soft_first | hard_now | (running & (total >= soft_h))
        if newly_failed.any():
            rows = np.nonzero(newly_failed)[0]
            gone = live[rows]
            out.failure_time[gone] = t_end
            out.mode[gone] = np.where(hard_now[rows], 2, 1).astype(np.int8)
            out.n_shocks[gone] = nshk[rows]
            out.final_total[gone] = total[rows]
            alive[rows] = False
            if not alive.any():
                break

    if alive.any():
        rows = np.nonzero(alive)[0]
        out.n_shocks[live[rows]] = nshk[rows]
        out.final_total[live[rows]] = (pure + jumps)[rows]
    return out


def _outcome(res: BatchResult, j: int) -> ReplicationOutcome:
    mode = int(res.mode[j])
    rct = res.rate_change_time[j]
    return ReplicationOutcome(
        status=_STATUS[mode],
        failure_time=None if mode == 0 else float(res.failure_time[j]),
        rate_change_time=None if math.isnan(rct) else float(rct),
        n_shocks=int(res.n_shocks[j]),
        final_total_degradation=float(res.final_total[j]),
        trace=tuple(res.traces[j]) if res.traces is not None else None,
    )


def simulate_replication(params: ModelParams, horizon: float, dt: float,
                         master_seed: int, rep_index: int = 0) -> ReplicationOutcome:
    """Run one replication; bit-identical to the same index inside a batch."""
    res = _simulate_batch(params, horizon, dt, master_seed, rep_index, rep_index + 1)
    return _outcome(res, 0)


def simulate_paths(params: ModelParams, horizon: float, dt: float,
                   master_seed: int, k: int) -> list[ReplicationOutcome]:
    """k replications with full step-grid traces attached."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    res = _simulate_batch(params, horizon, dt, master_seed, 0, k, want_traces=True)
    return [_outcome(res, j) for j in range(k)]


def run_replications(params: ModelParams, horizon: float, dt: float, master_seed: int,
                     n_reps: int, batch_size: int = 16384) -> tuple[np.ndarray, np.ndarray]:
    """Failure times and modes for n_reps replications.

    Batches are fixed-size slices of the index range and each replication has
    its own streams, so the result is independent of batch size.
    Returns (failure_time, mode); survivors carry failure_time = inf, mode 0.
    """
    if n_reps < 1:
        raise ValueError(f"n_reps must be >= 1, got {n_reps}")
    ftime = np.empty(n_reps)
    mode = np.empty(n_reps, dtype=np.int8)
    for lo in range(0, n_reps, batch_size):
        hi = min(lo + batch_size, n_reps)
        res = _simulate_batch(params, horizon, dt, master_seed, lo, hi)
        ftime[lo:hi] = res.failure_time
        mode[lo:hi] = res.mode
    return ftime, mode
