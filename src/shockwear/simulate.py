"""Coupled wear/shock replications.

A replication follows a fixed step grid with the shock intensity frozen at
each step. Per step: grow the pure gamma path, check soft failure (total wear
>= threshold), then draw the arrival count from the intensity at the current
count/wear and process each arrival in order (fatal -> hard failure and stop;
damaging -> switch the wear rate; every non-fatal shock adds a clamped jump),
and re-check soft failure after the jumps. Failure times are reported at the
end-of-step clock k*dt; Numerics.steps_ended says which steps a time has seen.

The step grid is the model's: dt and the step count come from
ModelParams.numerics alone. simulate_sets, the engine's one entry, runs blocks
of consecutive replications; a block builds its streams and buffers, runs
through every step and is released. A block is also the unit of work handed
to a worker: a run of more than one block without traces runs its blocks in
min(usable CPUs, blocks) forked processes and gathers them in block order,
and every other run loops over them in this process. Memory grows with the
block size, per worker, and with the mark buffer: per row, 16 to 32 bytes per
shock of the block's most-shocked replication, and at least 8*_MARKS bytes;
results depend on neither, nor on the worker count. It runs one or several
parameter sets (a sweep's values) side by side: a block owns every draw
(_V1Draws, which states stream contract v1), each chunk's refill is drawn
once for the replications still alive under any set, and each set applies
its own rules to its own rows of it. The path draws depend only on
theta_law, alpha1, beta and numerics (_V1Draws.key), so sets that share
these read exactly the draws each would read alone, and sets that do not
are refused.
run_replications, simulate_paths and simulate_replication run one set; the
first two take horizon and dt only to refuse a grid that is not the model's.
Each replication advances a chunk of _CHUNK steps at a time, its set's wear
over the chunk a path object over the block's draws (_DensePath). Between two
shocks total wear and intensity only grow, so the rules ask the path for each
replication's next event (the first step at which soft failure or a guard
violation holds, or the first arrival candidate) and run the per-step rules
only there. Results are bit-identical to visiting every step, and to running
each set alone. A guard violation stops its replication as a failure does
(mode 3), and its set at the chunk's end; simulate_sets raises the
StepSizeError of the first set with such a stop, read from that set's
results: its earliest violating step, at the largest intensity there.

Traces (simulate_paths) stay columnar from the chunk to the caller: a chunk
keeps each row's slice of its pure path and, per step that took shocks, the
row's new jumps and shock count; a Trace assembles the columns t, pure, jumps
and n_shocks from these, with no per-step Python objects.
"""

from __future__ import annotations

import functools
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .degradation import DegradationParams
from .errors import StepSizeError
from .kernel import _scipy_ufunc
from .rng import MARK_STREAM, PATH_STREAM, replication_stream
from .shocks import MAX_RATE_DT, ShockParams, poisson_counts

_CHUNK = 256  # steps of pre-drawn path randomness per refill; part of the stream contract
_ROWS = 2048  # default replications per block (sizes the refill buffers); not in the stream contract
_MARKS = 32  # first width of a block's mark buffer (16 shocks); not in the stream contract
# Rounding room of the arrival-candidate test: exp(-mu) near 1 errs by a few
# ulps of 1 (1.1e-16 each), well inside this.
_ARRIVAL_SLACK = 2e-15
_WHOLE_STEP_TOL = 1e-9  # near = within this times max(1, horizon), and at most half a step
_MAX_STEPS = 2**53  # the most steps whose indices and end times float64 holds exactly

Status = Literal["soft_failed", "hard_failed", "survived"]
_STATUS = {0: "survived", 1: "soft_failed", 2: "hard_failed"}


@dataclass(frozen=True)
class Numerics:
    """Step size and horizon of a run, set only here; steps_ended places a time on their grid."""

    dt: float = 0.01
    horizon: float = 20.0

    def __post_init__(self):
        step_count(self.horizon, self.dt)

    def steps_ended(self, times) -> np.ndarray:
        """Steps ended by each of ``times``, a time near a step's end counting as that end."""
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or times.size < 1:
            raise ValueError("grid must be a non-empty 1-D array of times")
        if not np.all(np.isfinite(times)):
            raise ValueError(f"grid times must be finite, got {times.tolist()}")
        if np.any(np.diff(times) < 0.0):
            raise ValueError("grid must be ascending")
        tol = min(_WHOLE_STEP_TOL * max(1.0, self.horizon), 0.5 * self.dt)
        if times[0] < 0.0 or times[-1] > self.horizon + tol:
            raise ValueError(f"grid must lie within [0, horizon={self.horizon}]")
        return np.floor((times + tol) / self.dt).astype(np.int64)


@dataclass(frozen=True)
class ModelParams:
    degradation: DegradationParams
    shock: ShockParams
    numerics: Numerics = field(default_factory=Numerics)


class Trace(Sequence):
    """A replication's step-grid trace: row i is ``(t, pure, jumps, n_shocks)``
    after step i (row 0 is the start, all zero), as Python float, float, float
    and int. It reads as the tuple of those rows does (len, indexing, slices,
    iteration, ``==`` and hash) and is backed by read-only column arrays:
    ``t`` (``arange(len) * dt``, the end-of-step clock), ``pure``, ``jumps``
    and ``n_shocks`` (int64)."""

    __slots__ = ("t", "pure", "jumps", "n_shocks")

    def __init__(self, t: np.ndarray, pure: np.ndarray, jumps: np.ndarray, n_shocks: np.ndarray):
        for column in (t, pure, jumps, n_shocks):
            column.flags.writeable = False
        self.t, self.pure, self.jumps, self.n_shocks = t, pure, jumps, n_shocks

    def __len__(self) -> int:
        return self.t.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(zip(self.t[i].tolist(), self.pure[i].tolist(), self.jumps[i].tolist(),
                             self.n_shocks[i].tolist()))
        return (float(self.t[i]), float(self.pure[i]), float(self.jumps[i]),
                int(self.n_shocks[i]))

    def __iter__(self):
        return zip(self.t.tolist(), self.pure.tolist(), self.jumps.tolist(),
                   self.n_shocks.tolist())

    def __eq__(self, other):
        if isinstance(other, Trace):
            return all(np.array_equal(getattr(self, name), getattr(other, name))
                       for name in self.__slots__)
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))


@dataclass(frozen=True)
class ReplicationOutcome:
    status: Status
    failure_time: float | None
    rate_change_time: float | None
    n_shocks: int
    final_total_degradation: float
    trace: Trace | None = None


def step_count(horizon: float, dt: float) -> int:
    """The number of steps of size ``dt`` in ``horizon``: a whole number, to
    within ``1e-9 * max(1, horizon)``, and at most 2**53, above which float64
    cannot hold every step index and end time ``k*dt`` exactly."""
    if dt <= 0.0 or not math.isfinite(dt):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if horizon < 0.0 or not math.isfinite(horizon):
        raise ValueError(f"horizon must be finite and >= 0, got {horizon}")
    steps = horizon / dt
    if not math.isfinite(steps):
        raise ValueError(f"horizon {horizon} / dt={dt} is not a finite number of steps")
    if steps > _MAX_STEPS:
        raise ValueError(f"horizon {horizon} / dt={dt} is {steps:.4g} steps, more than 2**53")
    n = int(round(steps))
    if abs(n * dt - horizon) > _WHOLE_STEP_TOL * max(1.0, horizon):
        raise ValueError(f"horizon {horizon} is not a whole number of dt={dt} steps")
    return n


class BatchResult:
    """Plain arrays for a contiguous range of replications, and their traces
    if asked for. ``mode`` is 0 survived, 1 soft, 2 hard or 3 guard stop:
    rate*dt > MAX_RATE_DT at the step ending at failure_time, with that step's
    total wear and shock count in final_total and n_shocks (simulate_sets
    raises on a 3, so none leaves it). A replication's trace is kept as its
    pure path, one array per chunk it ran (a row per step taken), and its
    change points, one ``(row, jumps, n_shocks)`` per step that took a shock,
    in step order; ``trace`` assembles the columns."""

    __slots__ = ("failure_time", "mode", "rate_change_time", "n_shocks", "final_total", "traces")

    def __init__(self, n, want_traces):
        self.failure_time = np.full(n, np.inf)
        self.mode = np.zeros(n, dtype=np.int8)  # 0 survived, 1 soft, 2 hard, 3 guard stop
        self.rate_change_time = np.full(n, np.nan)
        self.n_shocks = np.zeros(n, dtype=np.int64)
        self.final_total = np.zeros(n)
        self.traces = [([], []) for _ in range(n)] if want_traces else None

    def put(self, lo: int, part: BatchResult) -> None:
        """Write ``part``'s entries, and its traces, at lo .. lo+len(part)-1."""
        hi = lo + part.failure_time.size
        for name in self.__slots__:
            if getattr(self, name) is not None:
                getattr(self, name)[lo:hi] = getattr(part, name)

    def trace(self, j: int, numerics: Numerics) -> Trace:
        """Replication j's trace on the step grid of ``numerics``."""
        pure_parts, changes = self.traces[j]
        pure = np.concatenate([np.zeros(1), *pure_parts])
        rows = [0, *(row for row, _, _ in changes), pure.size]
        runs = np.diff(rows)
        jumps = np.repeat([0.0, *(jm for _, jm, _ in changes)], runs)
        n_shocks = np.repeat(np.array([0, *(ns for _, _, ns in changes)], dtype=np.int64), runs)
        return Trace(np.arange(pure.size) * numerics.dt, pure, jumps, n_shocks)


class _V1Draws:
    """Stream contract v1's draws for one block, shared by its sets: the path
    streams and theta, the refill buffers and a _DensePath's scratch, the
    post-change inversion and the mark buffer. Nothing else in the engine
    consumes a stream, and changing any of this changes every result for a
    given seed. The rules ask for marks by block row and shock, never by buffer
    position (marks), and for wear only through a _DensePath over chunk's
    arrays and post; a second draws class brings chunk, marks and a path. Layout:

      path stream  : [theta uniform if a theta law is set] then, per chunk of
                     _CHUNK steps, a block of gamma increments at the pre-change
                     shape, then one block of 2*_CHUNK uniforms: the first half
                     for the post-change extra increment, the second half for
                     arrival counts.
      marks stream : per shock s, the (magnitude, jump) pair of normals 2s and 2s+1.

    The post-change extra increment is materialized from its uniform by
    scipy's inverse gamma CDF (gammaincinv, from kernel._scipy_ufunc) with shape
    theta*(alpha2-alpha1)*dt, so a changed-rate increment is the pre-change
    increment plus an independent nonnegative term; when the rate falls, the
    increment at shape theta*alpha2*dt replaces it.
    Uniform blocks are drawn whether or not they are used; consumption therefore
    never depends on the trajectory, and two runs with the same master seed see
    identical randomness even when their parameters differ.

    The mark buffer only grows: row i of ``normals`` holds normals 0 ..
    filled[i]-1 of block row i's mark stream until the block ends, so shock s
    of the row is at columns 2s and 2s+1 whichever set reads it. A read past
    ``filled[i]`` draws the rest of the buffer's width from the row's stream;
    a read past the width first widens the buffer to max(2*width, the read's
    end). The width, at least twice the most shocks any replication of the
    block takes, is not in the contract: numpy's normal sampler keeps no state
    between values, so normal(size=a) then normal(size=b) draws
    normal(size=a+b).
    """

    @staticmethod
    def key(params: ModelParams) -> tuple:
        """What fixes the path draws: the fields of ``params`` that __init__ reads."""
        deg = params.degradation
        return deg.theta_law, deg.alpha1, deg.beta, params.numerics

    def __init__(self, params: ModelParams, master_seed: int, rep_lo: int, n: int):
        tl, alpha1, beta, num = self.key(params)
        self.master_seed, self.rep_lo, self.dt = master_seed, rep_lo, num.dt
        self.path_gens = [replication_stream(master_seed, rep_lo + j, PATH_STREAM)
                          for j in range(n)]
        self.theta = np.ones(n) if tl is None else (
            _scipy_ufunc("gammaincinv")(tl.shape, [g.random() for g in self.path_gens]) / tl.rate)
        self.shape_pre, self.scale = self.theta * (alpha1 * num.dt), 1.0 / beta
        cols = min(step_count(num.horizon, num.dt), _CHUNK)
        self.g1_buf, self.u_buf = np.empty((n, cols)), np.empty((n, 2 * cols))
        self.path_buf = np.empty((n, cols))  # one set's path at a time: sets advance in turn
        self.normals = np.empty((n, _MARKS))
        self.filled = np.zeros(n, dtype=np.intp)
        self.mark_gens = {}  # block row -> its mark stream
        self.at = np.zeros(n, dtype=np.intp)  # block row -> its row of the chunk

    def chunk(self, union: np.ndarray, span: int) -> None:
        """Draw and keep the next ``span`` steps of block rows ``union`` (ascending):
        pre-change increments ``g1``, post-change ``u2`` and arrival ``upois``."""
        g1 = self.g1_buf[:len(union), :span]
        u = self.u_buf[:len(union), :2 * span]
        for i, shape, g1_row, u_row in zip(union.tolist(), self.shape_pre[union].tolist(), g1, u):
            g = self.path_gens[i]
            g.standard_gamma(shape, out=g1_row)
            g.random(out=u_row)
        g1 *= self.scale  # the draws of g.gamma(shape, scale): numpy scales standard gammas
        self.at[union] = np.arange(union.size)
        self.g1, self.u2, self.upois = g1, u[:, :span], u[:, span:]

    def post(self, deg: DegradationParams, ids: np.ndarray, j0: int) -> np.ndarray:
        """Post-change increments of block rows ``ids`` under ``deg``, from chunk column j0 on."""
        d_alpha = deg.alpha2 - deg.alpha1
        shape = self.theta[ids] * ((d_alpha if d_alpha > 0.0 else deg.alpha2) * self.dt)
        return _scipy_ufunc("gammaincinv")(shape[:, None], self.u2[self.at[ids], j0:]) * self.scale

    def marks(self, ids, first, counts) -> tuple[np.ndarray, np.ndarray]:
        """The magnitude and jump standard normals ``(zw, zy)`` of shocks
        first .. first+counts-1 of block rows ``ids``: shock first[q]+k of row
        ids[q] at [q, k]. Entries past a row's count are not specified."""
        stop = 2 * (first + counts)
        rows = ids[self.filled[ids] < stop]
        if rows.size:
            width = self.normals.shape[1]
            if stop.max() > width:
                more = max(width, int(stop.max()) - width)
                self.normals = np.hstack([self.normals, np.empty((len(self.filled), more))])
                width += more
            for i, lo in zip(rows.tolist(), self.filled[rows].tolist()):
                if i not in self.mark_gens:
                    self.mark_gens[i] = replication_stream(self.master_seed, self.rep_lo + i,
                                                           MARK_STREAM)
                self.normals[i, lo:] = self.mark_gens[i].normal(size=width - lo)
            self.filled[rows] = width
        col = (2 * first)[:, None] + 2 * np.arange(counts.max())
        col = np.minimum(col, self.normals.shape[1] - 2)  # past a row's count: any pair of the row
        return self.normals[ids[:, None], col], self.normals[ids[:, None], col + 1]


class _DensePath:
    """Pure wear of block rows ``ids`` (ascending; asked by position in ids) at
    every step of the chunk ``draws`` holds, from ``start``, one sequential
    cumulative sum (the step loop's rounding), and their arrival uniforms. It
    answers the rules' four questions: the first step a test of total wear holds
    (first), the first arrival candidate (first_arrival, then arrivals), pure
    wear at steps (at, prefixes) and the post-change law from a step (switch)."""

    def __init__(self, draws: _V1Draws, deg: DegradationParams, ids, start):
        at = slice(None) if ids.size == draws.g1.shape[0] else draws.at[ids]
        self.g1, self.upois = draws.g1[at], draws.upois[at]  # views when ids is all of them
        self.draws, self.deg, self.ids, self.start = draws, deg, ids, start
        self.span = self.g1.shape[1]
        self.path = draws.path_buf[:ids.size, :self.span]
        np.copyto(self.path, self.g1)
        self.path[:, 0] += start
        np.cumsum(self.path, axis=1, out=self.path)

    def first(self, act, pos, holds) -> np.ndarray:
        """First step >= pos of each row in ``act`` at which ``holds(act, pure)`` is
        true, else span; pure is their pure wear, a column per step, in a copy holds
        may overwrite. holds never turns false between events."""
        return np.maximum((~holds(act, self.path[act])).sum(axis=1), pos)

    def first_arrival(self, act, pos, mu_last) -> np.ndarray:
        """First step >= pos of each row in ``act`` that may take an arrival at
        intensity*dt <= ``mu_last``, else span: u >= exp(-mu) >= 1 - mu, so
        u + mu_last >= 1 - _ARRIVAL_SLACK keeps every arrival."""
        sel = slice(None) if act.size == self.path.shape[0] else act
        cand = self.upois[sel] >= ((1.0 - _ARRIVAL_SLACK) - mu_last)[:, None]
        if pos.any():
            cand &= np.arange(self.span) >= pos[:, None]
        e = np.full(act.size, self.span)
        rows = np.flatnonzero(cand.any(axis=1))
        e[rows] = cand[rows].argmax(axis=1)
        return e

    def arrivals(self, rows, steps, mu) -> np.ndarray:
        """Arrival counts of ``rows`` at ``steps``, at intensity*dt ``mu``."""
        return poisson_counts(mu, self.upois[rows, steps])

    def at(self, rows, steps) -> np.ndarray:
        """Pure wear of ``rows`` at ``steps``."""
        return self.path[rows, steps]

    def prefixes(self, stops) -> list[np.ndarray]:
        """Each row's pure wear at steps 0 .. stops[q]-1, as arrays of its own."""
        return [pure[:stop].copy() for pure, stop in zip(self.path, stops.tolist())]

    def switch(self, rows, j0: int) -> None:
        """Rebuild the paths of ``rows`` from step j0 on under the post-change law."""
        deg = self.deg
        post = self.draws.post(deg, self.ids[rows], j0)
        if deg.alpha2 > deg.alpha1:
            # rounding as (pure + pre-change increment) + post-change increment
            inc = np.empty((rows.size, 2 * post.shape[1]))
            inc[:, 0::2] = self.g1[rows, j0:]
            inc[:, 1::2] = post
        else:
            inc = post
        inc[:, 0] += self.start[rows] if j0 == 0 else self.path[rows, j0 - 1]
        np.cumsum(inc, axis=1, out=inc)
        self.path[rows, j0:] = inc[:, 1::2] if deg.alpha2 > deg.alpha1 else inc


class _Batch:
    """One parameter set's rows of one block, advanced a chunk at a time on its
    block's draws under the rules of ``deg`` and ``shk``. A set owns only its
    row state, by block-local id: pure and jumps, and ``out``, which holds
    phase, liveness and the shock counts; its wear is a _DensePath per chunk."""

    def __init__(self, params: ModelParams, draws: _V1Draws, out: BatchResult):
        self.deg, self.shk, self.dt = params.degradation, params.shock, params.numerics.dt
        self.draws, self.out = draws, out
        self.pure, self.jumps = np.zeros(out.failure_time.size), np.zeros(out.failure_time.size)

    def advance(self, ids: np.ndarray, k0: int) -> None:
        """Advance rows ``ids`` (alive, ascending) through the chunk the draws
        hold, whose first step is k0. A row stops at its first soft failure,
        fatal shock or step with ``rate*dt > MAX_RATE_DT`` (mode 1, 2 or 3),
        and a row still alive at the chunk's end gets its total wear there as
        ``final_total``."""
        wear = _DensePath(self.draws, self.deg, ids, self.pure[ids])
        span = wear.span
        jumps, nshk = self.jumps[ids], self.out.n_shocks[ids]
        changed = ~np.isnan(self.out.rate_change_time[ids])
        if self.deg.alpha2 != self.deg.alpha1 and changed.any():
            wear.switch(np.flatnonzero(changed), 0)

        traces = self.out.traces
        every = act = np.arange(ids.size)
        pos = np.zeros(ids.size, dtype=np.intp)  # first step not yet processed

        def ends(rows, wear):  # soft failure or a guard violation, on total wear
            wear += jumps[rows, None]
            return ((wear >= self.deg.soft_threshold)
                    | (_rate(self.shk, nshk[rows, None], wear) * self.dt > MAX_RATE_DT))

        while act.size:
            last = wear.at(act, span - 1) + jumps[act]
            mu_last = _rate(self.shk, nshk[act], last) * self.dt
            e = wear.first_arrival(act, pos[act], mu_last)
            rows = np.flatnonzero((last >= self.deg.soft_threshold) | (mu_last > MAX_RATE_DT))
            if rows.size:  # only rows that stop by the chunk's end need a count
                e[rows] = np.minimum(e[rows], wear.first(act[rows], pos[act[rows]], ends))
            hit = e < span
            act, e = act[hit], e[hit]
            if not act.size:
                break

            # The per-step rules at each row's event step, in step-loop order:
            # soft failure, then the guard, then arrivals.
            total = wear.at(act, e) + jumps[act]
            mu = _rate(self.shk, nshk[act], total) * self.dt
            soft = total >= self.deg.soft_threshold
            over = ~soft & (mu > MAX_RATE_DT)
            running = ~(soft | over)
            counts = np.zeros(act.size, dtype=np.int64)
            if running.any():
                counts[running] = wear.arrivals(act[running], e[running], mu[running])

            failed = soft.copy()
            hard = np.zeros(act.size, dtype=bool)
            arrived = np.flatnonzero(counts)
            if arrived.size:
                rows, cols = act[arrived], e[arrived]
                was_changed = changed[rows]
                ns, jm, ch = nshk[rows], jumps[rows], was_changed.copy()
                hard[arrived] = self._shocks(ids[rows], counts[arrived],
                                             (k0 + 1 + cols) * self.dt, ns, jm, ch)
                nshk[rows], jumps[rows], changed[rows] = ns, jm, ch
                total[arrived] = wear.at(rows, cols) + jumps[rows]
                failed[arrived] = hard[arrived] | (total[arrived] >= self.deg.soft_threshold)
                if traces is not None:  # trace row k+1 holds step k's state
                    for i, row, jm_r, ns_r in zip(ids[rows].tolist(), (k0 + 1 + cols).tolist(),
                                                  jm.tolist(), ns.tolist()):
                        traces[i][1].append((row, jm_r, ns_r))
                if self.deg.alpha2 != self.deg.alpha1:
                    switched = changed[rows] & ~was_changed & ~failed[arrived] & (cols + 1 < span)
                    for j in np.flatnonzero(switched):
                        wear.switch(rows[j:j + 1], cols[j] + 1)

            stop = failed | over  # a guard stop takes no arrivals: its total is its step's
            if stop.any():
                gone = ids[act[stop]]
                self.out.failure_time[gone] = (k0 + 1 + e[stop]) * self.dt
                self.out.mode[gone] = np.where(over, 3, np.where(hard, 2, 1))[stop]
                self.out.final_total[gone] = total[stop]
            pos[act] = e + 1
            keep = ~stop & (e + 1 < span)
            act = act[keep]

        if traces is not None:  # a failed row's pure path ends at its failure step
            stops = np.where(self.out.mode[ids] != 0, pos, span)
            for i, pure in zip(ids.tolist(), wear.prefixes(stops)):
                traces[i][0].append(pure)
        self.pure[ids] = wear.at(every, span - 1)
        self.jumps[ids] = jumps
        self.out.n_shocks[ids] = nshk
        alive = self.out.mode[ids] == 0
        self.out.final_total[ids[alive]] = self.pure[ids[alive]] + jumps[alive]

    def _shocks(self, ids, counts, t_end, nshk, jumps, changed) -> np.ndarray:
        """Apply each row's ``counts`` arrivals in order, as the step loop does.

        One pass per shock index k takes every row with more than k arrivals
        and no fatal shock yet. Updates ``nshk``, ``jumps`` and ``changed`` in
        place and returns which rows took a fatal shock.
        """
        zw, zy = self.draws.marks(ids, nshk, counts)
        # A shock's standard normals map as numpy's normal(loc, scale) maps
        # one: loc + scale * z. Shocks after a fatal one are never read.
        shk = self.shk
        w_law, y_law = shk.magnitude_law, self.deg.jump_law
        hard = np.zeros(ids.size, dtype=bool)
        for k in range(counts.max()):
            q = np.flatnonzero((counts > k) & ~hard)
            mag = w_law.mean + w_law.stdev * zw[q, k]
            nshk[q] += 1
            fatal = mag > shk.hard_threshold
            hard[q[fatal]] = True
            q, mag = q[~fatal], mag[~fatal]
            damaged = q[(mag > shk.damage_threshold) & ~changed[q]]
            changed[damaged] = True
            self.out.rate_change_time[ids[damaged]] = t_end[damaged]
            y = y_law.mean + y_law.stdev * zy[q, k]
            up = y > 0.0
            jumps[q[up]] += y[up]
        return hard


def _rate(shk: ShockParams, nshk, total):
    """Shock intensity after ``nshk`` shocks at total wear ``total``."""
    return (1.0 + shk.eta * nshk) * (shk.lambda0 + shk.gamma_dep * total)


def _run_block(param_sets: list[ModelParams], master_seed: int, want_traces: bool,
               reps: tuple[int, int]) -> list[BatchResult]:
    """Replications reps[0] .. reps[1]-1 under every parameter set, on one set
    of path draws, in results of their own. A set stops at the end of the
    chunk in which one of its rows made a guard stop (mode 3), as the run will
    raise. Nothing else made here outlives the call."""
    lo, hi = reps
    outs = [BatchResult(hi - lo, want_traces) for _ in param_sets]
    num = param_sets[0].numerics
    n_steps = step_count(num.horizon, num.dt)
    draws = _V1Draws(param_sets[0], master_seed, lo, hi - lo)
    batches = [_Batch(p, draws, out) for p, out in zip(param_sets, outs)]
    for k0 in range(0, n_steps, _CHUNK):
        # each set's running rows; none once one of its rows has made a guard stop
        live = [(out.mode == 0) & ~(out.mode == 3).any() for out in outs]
        union = np.flatnonzero(np.logical_or.reduce(live))
        if union.size == 0:
            break
        span = min(_CHUNK, n_steps - k0)
        draws.chunk(union, span)
        for b, rows_alive in zip(batches, live):
            ids = np.flatnonzero(rows_alive)
            if ids.size:
                b.advance(ids, k0)
    return outs


def _workers(n_blocks: int) -> int:
    """Worker processes for a run of n_blocks: min(usable CPUs, n_blocks). The
    CPUs are this process's affinity set, so taskset limits them."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, n_blocks)


def _end_with_parent() -> None:
    """Each worker's initializer: a thread that ends the worker when the process
    that started it ends. The pool's queues tell an orphaned worker nothing: it
    would wait forever for its next block, or to hand in its last."""
    import multiprocessing
    import threading

    def watch():
        multiprocessing.parent_process().join()
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _pool(n_blocks: int):
    """A fork-context process pool of _workers(n_blocks) workers, or None where
    the blocks run in this process: one worker, a daemonic caller (a pool
    cannot start its children), no fork start method, or a caller running
    other threads (a child gets only the forking thread, and a lock another
    thread held stays held in it). Forked workers start with every module
    loaded; a spawned one would import numpy and the package again. With fork
    the pool starts every worker before its own manager thread, a worker that
    dies breaks the pool (BrokenProcessPool) rather than losing its block, and
    each worker ends with this process (_end_with_parent)."""
    import multiprocessing  # here, so that no run of one block pays its import
    import threading
    from concurrent.futures import ProcessPoolExecutor

    workers = _workers(n_blocks)
    if (workers < 2 or multiprocessing.current_process().daemon
            or "fork" not in multiprocessing.get_all_start_methods()
            or threading.active_count() > 1):
        return None
    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_end_with_parent)


def simulate_sets(param_sets: list[ModelParams], master_seed: int, rep_lo: int, rep_hi: int,
                  want_traces: bool = False, rows: int = _ROWS) -> list[BatchResult]:
    """Replications rep_lo .. rep_hi-1 under each parameter set, in blocks of
    ``rows``, on the step grid of the sets' numerics; see the module docstring.

    The sets must share theta_law, alpha1, beta and numerics (ValueError
    otherwise). Each result, and the StepSizeError of the first set that has
    one, is bit-identical to running that set alone. A run of more than one
    block without traces hands its blocks to forked workers (_pool) and
    gathers them in block order; the bytes are those of one process, and no
    worker outlives the call. A worker that ends abruptly (killed, or out of
    memory) raises BrokenProcessPool at once.
    """
    n = rep_hi - rep_lo
    if n < 1:
        raise ValueError(f"n_reps must be >= 1, got {n}")
    if rows < 1:
        raise ValueError(f"batch_size must be >= 1, got {rows}")
    if any(_V1Draws.key(p) != _V1Draws.key(param_sets[0]) for p in param_sets):
        raise ValueError("parameter sets run together must share theta_law, alpha1, beta "
                         "and numerics, which fix the path draws")
    try:
        outs = [BatchResult(n, want_traces) for _ in param_sets]
    except MemoryError:  # 33 bytes per replication per set, allocated before any work
        raise ValueError(f"n_reps={n} needs {33 * n * len(param_sets)} bytes of results, "
                         "more than can be allocated") from None
    spans = [(lo, min(lo + rows, rep_hi)) for lo in range(rep_lo, rep_hi, rows)]
    job = functools.partial(_run_block, param_sets, master_seed, want_traces)
    pool = None if want_traces or len(spans) == 1 else _pool(len(spans))
    try:
        blocks = map(job, spans) if pool is None else pool.map(job, spans)
        for (lo, _), parts in zip(spans, blocks):
            for out, part in zip(outs, parts):
                out.put(lo - rep_lo, part)
    finally:
        if pool is not None:  # waits for the blocks still running, then for every worker
            pool.shutdown(cancel_futures=True)
    for p, out in zip(param_sets, outs):
        stops = np.flatnonzero(out.mode == 3)
        if stops.size:  # the step loop's error: its earliest guard stop, at the largest intensity
            t_end, dt = float(out.failure_time[stops].min()), p.numerics.dt
            first = stops[out.failure_time[stops] == t_end]  # ascending, so ties go to the first
            rates = _rate(p.shock, out.n_shocks[first], out.final_total[first])
            rate, rep_index = float(rates.max()), rep_lo + int(first[rates.argmax()])
            raise StepSizeError(
                f"intensity*dt = {rate * dt:.4g} exceeds {MAX_RATE_DT} at t={t_end:.6g}; "
                f"use dt <= {MAX_RATE_DT / rate:.4g}",
                suggested_dt=MAX_RATE_DT / rate, time=t_end, rep_index=rep_index)
    return outs


def _same_grid(params: ModelParams, grid: Numerics) -> None:
    """Refuse a step grid that is not ``params.numerics``."""
    if grid != params.numerics:
        num = params.numerics
        raise ValueError(f"horizon={grid.horizon}, dt={grid.dt} is not the model's step grid "
                         f"params.numerics (horizon={num.horizon}, dt={num.dt})")


def _outcome(res: BatchResult, j: int, numerics: Numerics) -> ReplicationOutcome:
    mode = int(res.mode[j])
    rct = res.rate_change_time[j]
    return ReplicationOutcome(
        status=_STATUS[mode],
        failure_time=None if mode == 0 else float(res.failure_time[j]),
        rate_change_time=None if math.isnan(rct) else float(rct),
        n_shocks=int(res.n_shocks[j]),
        final_total_degradation=float(res.final_total[j]),
        trace=res.trace(j, numerics) if res.traces is not None else None,
    )


def simulate_replication(params: ModelParams, master_seed: int,
                         rep_index: int = 0) -> ReplicationOutcome:
    """Run one replication; bit-identical to the same index inside any run."""
    res = simulate_sets([params], master_seed, rep_index, rep_index + 1)[0]
    return _outcome(res, 0, params.numerics)


def simulate_paths(params: ModelParams, horizon: float, dt: float,
                   master_seed: int, k: int) -> list[ReplicationOutcome]:
    """k replications with full step-grid traces attached. ``horizon`` and
    ``dt`` must be those of ``params.numerics`` (ValueError otherwise)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _same_grid(params, Numerics(dt=dt, horizon=horizon))
    res = simulate_sets([params], master_seed, 0, k, want_traces=True)[0]
    for j in range(k):  # each replication's trace parts give way to its outcome
        res.traces[j] = _outcome(res, j, params.numerics)
    return res.traces


def run_replications(params: ModelParams, horizon: float, dt: float, master_seed: int,
                     n_reps: int, batch_size: int = _ROWS) -> tuple[np.ndarray, np.ndarray]:
    """Failure times and modes for n_reps replications.

    ``horizon`` and ``dt`` must be those of ``params.numerics`` (ValueError
    otherwise). ``batch_size`` replications advance at a time, and each block
    of them is the unit of work handed to a worker process: it bounds the
    rows of each worker's refill and mark buffers, not the results' 33 bytes
    per replication, and results and guard errors do not depend on it. Returns
    (failure_time, mode); survivors carry failure_time = inf, mode 0.
    """
    _same_grid(params, Numerics(dt=dt, horizon=horizon))
    res = simulate_sets([params], master_seed, 0, n_reps, rows=batch_size)[0]
    return res.failure_time, res.mode
