"""Coupled wear/shock replications.

A replication follows a fixed step grid with the shock intensity frozen at
each step. Per step: grow the pure gamma path, check soft failure (total wear
>= threshold), then draw the arrival count from the intensity at the current
count/wear and process each arrival in order (fatal -> hard failure and stop;
damaging -> switch the wear rate; every non-fatal shock adds a clamped jump),
and re-check soft failure after the jumps. Failure times are reported at the
end-of-step clock k*dt; Numerics.steps_ended says which steps a time has seen.

The step grid is the model's: dt and the step count come from
ModelParams.numerics alone. simulate_sets, the engine's one entry, is one loop
over blocks of consecutive replications in index order; a block builds its
streams and buffers, runs through every step and is released before the next.
Memory grows with the block size and with the mark buffer's width (_Marks);
results depend on neither. It runs one or several parameter sets (a sweep's
values) side by side: a block owns every draw (the path streams, theta, the
refill buffers and the mark buffer), each chunk's refill is drawn once for the
replications still alive under any set, and each set applies its own rules to
its own rows of it. The path draws depend only on theta_law, alpha1, beta and
numerics, so sets that share these read exactly the draws each would read
alone, and sets that do not are refused.
run_replications, simulate_paths and simulate_replication run one set; the
first two take horizon and dt only to refuse a grid that is not the model's.
Each replication advances a chunk of _CHUNK steps at a time: one sequential
cumulative sum gives the pure path at every step of the chunk, with the
rounding of adding one increment per step. Between two shocks the total wear
and the intensity only grow, so whole-block scans find each replication's next
event: soft failure, a guard violation, or an arrival candidate (u >= exp(-mu)
requires u + mu >= 1). The per-step rules run only at those steps, and a
replication is scanned again from the step after each of its events. Results
are bit-identical to visiting every step, and to running each set alone; a
StepSizeError is that of the first set with a violation and names its earliest
violating step.

Stream layout (a compatibility contract: changing it changes every result
for a given seed):

  path stream  : [theta uniform if a theta law is set] then, per chunk of
                 _CHUNK steps, a block of gamma increments at the pre-change
                 shape, then one block of 2*_CHUNK uniforms: the first half
                 for the post-change extra increment, the second half for
                 arrival counts.
  marks stream : per shock, one normal magnitude then (if non-fatal) one
                 normal jump.

Marks are read from the block's mark buffer, shared by its sets (_Marks):
shock s of a replication reads normals 2s and 2s+1 of its mark stream, at
twice its shock count, which each set writes at every arrival. A row keeps its
normals from the lowest next read of any set still running it. A step's
arrivals are applied across all arriving rows at once, one numpy pass per
shock index. The buffer's width is not in the contract: numpy's normal
sampler keeps no state between values, so normal(size=a) then normal(size=b)
draws normal(size=a+b).

The post-change extra increment is materialized from its uniform by the
inverse gamma CDF with shape theta*(alpha2-alpha1)*dt, so a changed-rate
increment is the pre-change increment plus an independent nonnegative term.
Uniform blocks are drawn whether or not they are used; consumption therefore
never depends on the trajectory, and two runs with the same master seed see
identical randomness even when their parameters differ.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, field
from itertools import repeat
from typing import Literal

import numpy as np

from .degradation import DegradationParams
from .errors import StepSizeError
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


@dataclass(frozen=True)
class ReplicationOutcome:
    status: Status
    failure_time: float | None
    rate_change_time: float | None
    n_shocks: int
    final_total_degradation: float
    trace: tuple[tuple[float, float, float, int], ...] | None = None


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


@functools.cache
def _gammaincinv():
    """scipy's ``gammaincinv`` ufunc, the inverse gamma CDF of the stream
    contract, loaded on first use (a theta law or a rate change).

    It is loaded from scipy's compiled module file alone: importing the
    ``scipy.special`` package costs about 0.3 s and 19 MB (mostly its
    array-API layer), the module about 2 ms and 1 MB, so a run that meets a
    rate change takes about as long as one that does not. The ufunc is
    scipy's own, so its values are too. Where that file is missing (another
    scipy layout), the package is imported instead.
    """
    spec = importlib.util.find_spec("scipy")  # finds the package, does not import it
    folders = spec.submodule_search_locations if spec is not None else None
    for folder in folders or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "special", "_special_ufuncs" + suffix)
            if os.path.isfile(path):
                try:
                    module_spec = importlib.util.spec_from_file_location("_special_ufuncs", path)
                    module = importlib.util.module_from_spec(module_spec)
                    module_spec.loader.exec_module(module)
                    return module.gammaincinv
                except (ImportError, AttributeError):
                    pass
    from scipy.special import gammaincinv
    return gammaincinv


class BatchResult:
    """Plain arrays for a contiguous range of replications."""

    __slots__ = ("failure_time", "mode", "rate_change_time", "n_shocks", "final_total", "traces")

    def __init__(self, n, want_traces):
        self.failure_time = np.full(n, np.inf)
        self.mode = np.zeros(n, dtype=np.int8)  # 0 survived, 1 soft, 2 hard
        self.rate_change_time = np.full(n, np.nan)
        self.n_shocks = np.zeros(n, dtype=np.int64)
        self.final_total = np.zeros(n)
        self.traces = [[(0.0, 0.0, 0.0, 0)] for _ in range(n)] if want_traces else None

    def view(self, lo: int, hi: int) -> BatchResult:
        """Entries lo .. hi-1; writes to the view, and to its traces, land here."""
        part = BatchResult.__new__(BatchResult)
        for name in self.__slots__:
            setattr(part, name, None if getattr(self, name) is None else getattr(self, name)[lo:hi])
        return part


class _Marks:
    """A block's mark buffer, shared by its sets: row i of ``normals`` holds
    normals base[i] .. filled[i]-1 of block row i's mark stream. A row keeps
    its normals from the lowest next read (2 * n_shocks) of any set still
    running it; a read past ``filled`` drops those below and tops the row up.
    The width, at least doubled when a read does not fit, follows a step's
    arrivals and the gap between sets' next reads, as a chunk runs set by set."""

    def __init__(self, master_seed: int, rep_lo: int, outs: list[BatchResult]):
        n = outs[0].failure_time.size
        self.master_seed, self.rep_lo, self.outs = master_seed, rep_lo, outs
        self.normals = np.empty((n, _MARKS))
        self.base, self.filled = np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.intp)
        self.gens = {}  # block row -> its mark stream

    def read(self, ids, stop) -> tuple[np.ndarray, np.ndarray]:
        """``normals`` and ``base[ids]``, rows ``ids`` holding normals up to ``stop``-1."""
        short = self.filled[ids] < stop
        if short.any():
            rows, stop = ids[short], stop[short]
            floor = np.min([np.where(out.mode[rows] == 0, 2 * out.n_shocks[rows], stop)
                            for out in self.outs], axis=0)
            width = self.normals.shape[1]
            if (stop - floor).max() > width:
                more = max(width, int((stop - floor).max()) - width)
                self.normals = np.hstack([self.normals, np.empty((len(self.filled), more))])
                width += more
            new = self.filled[rows] == 0
            if new.any():
                gens = [replication_stream(self.master_seed, self.rep_lo + i, MARK_STREAM)
                        for i in rows[new].tolist()]
                self.normals[rows[new]] = [g.normal(size=width) for g in gens]
                self.filled[rows[new]] = width
                self.gens.update(zip(rows[new].tolist(), gens))
            for i, lo in zip(rows[~new].tolist(), floor[~new].tolist()):  # rare: top-ups
                row, kept = self.normals[i], self.filled[i] - lo
                row[:kept] = row[lo - self.base[i]:self.filled[i] - self.base[i]]
                row[kept:] = self.gens[i].normal(size=width - kept)
                self.base[i], self.filled[i] = lo, lo + width
        return self.normals, self.base[ids]


class _Batch:
    """One parameter set's rows of one block, advanced a chunk at a time on its
    block's path draws and mark buffer under the rules of ``deg`` and ``shk``.
    A set owns only its row state, by block-local id: pure and jumps, and
    ``out``, which holds phase, liveness and the shock counts, each count
    written at its arrival. Its shock s of a row reads the marks at 2s and 2s+1."""

    def __init__(self, params: ModelParams, theta: np.ndarray, marks: _Marks, rep_lo: int,
                 out: BatchResult):
        deg = self.deg = params.degradation
        self.shk = params.shock
        n = out.failure_time.size
        self.dt = dt = params.numerics.dt
        self.block_marks = marks
        self.rep_lo = rep_lo
        self.out = out

        d_alpha = deg.alpha2 - deg.alpha1
        if d_alpha > 0.0:
            self.shape_post = theta * (d_alpha * dt)  # additive extra increment
        elif d_alpha < 0.0:
            self.shape_post = theta * (deg.alpha2 * dt)  # replacement increment (rate decrease)
        else:
            self.shape_post = None

        self.pure = np.zeros(n)
        self.jumps = np.zeros(n)

    def advance(self, ids: np.ndarray, k0: int, g1: np.ndarray, u: np.ndarray,
                path: np.ndarray) -> list[tuple]:
        """Advance rows ``ids`` (alive, ascending) through steps k0 .. k0+span-1.

        ``g1`` and ``u`` hold the rows' pre-change increments and uniforms of
        the chunk, which are only read; ``path`` is scratch of the same shape
        as ``g1``. Returns the guard violations met, one ``(step, -rate,
        rep_index)`` per row that stopped at its first step with ``rate*dt >
        MAX_RATE_DT``: the earliest step, at the largest intensity, sorts first.
        """
        m, span = g1.shape
        u2, upois = u[:, :span], u[:, span:]

        # Pure-wear path of every row at every column of the chunk. Accumulation
        # is sequential, so each entry is the running sum the step loop forms.
        np.copyto(path, g1)
        path[:, 0] += self.pure[ids]
        np.cumsum(path, axis=1, out=path)

        jumps = self.jumps[ids]
        nshk = self.out.n_shocks[ids]
        changed = ~np.isnan(self.out.rate_change_time[ids])
        if self.shape_post is not None and changed.any():
            rows = np.flatnonzero(changed)
            self._repath(path, g1, u2, ids, rows, 0, self.pure[ids[rows]])

        want_traces = self.out.traces is not None
        nshk0 = nshk.copy() if want_traces else None  # the traces' counts at the chunk start
        events: dict[int, list] = {}

        violations = []
        act = np.arange(m)
        pos = np.zeros(m, dtype=np.intp)  # first column not yet processed
        while act.size:
            e = self._next_event(path, upois, jumps, nshk, act, pos)
            hit = e < span
            act, e = act[hit], e[hit]
            if not act.size:
                break

            # The per-step rules at each row's event column, in step-loop order:
            # soft failure, then the guard, then arrivals.
            total = path[act, e] + jumps[act]
            rate = self._rate(nshk[act], total)
            mu = rate * self.dt
            soft = total >= self.deg.soft_threshold
            over = ~soft & (mu > MAX_RATE_DT)
            running = ~(soft | over)
            counts = np.zeros(act.size, dtype=np.int64)
            if running.any():
                counts[running] = poisson_counts(mu[running], upois[act[running], e[running]])
            for j in np.flatnonzero(over):
                violations.append((k0 + int(e[j]), -rate[j], self.rep_lo + int(ids[act[j]])))

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
                self.out.n_shocks[ids[rows]] = ns  # kept current: the mark buffer reads it
                total[arrived] = path[rows, cols] + jumps[rows]
                failed[arrived] = hard[arrived] | (total[arrived] >= self.deg.soft_threshold)
                if want_traces:
                    for r, col, jm_r, ns_r in zip(rows.tolist(), cols.tolist(), jm.tolist(),
                                                  ns.tolist()):
                        events.setdefault(r, []).append((col, jm_r, ns_r))
                if self.shape_post is not None:
                    switched = changed[rows] & ~was_changed & ~failed[arrived] & (cols + 1 < span)
                    for j in np.flatnonzero(switched):
                        self._repath(path, g1, u2, ids, rows[j:j + 1], cols[j] + 1,
                                     path[rows[j], cols[j]])

            if failed.any():
                rows, cols = act[failed], e[failed]
                gone = ids[rows]
                self.out.failure_time[gone] = (k0 + 1 + cols) * self.dt
                self.out.mode[gone] = np.where(hard[failed], 2, 1).astype(np.int8)
                self.out.final_total[gone] = total[failed]
            pos[act] = e + 1
            keep = ~(failed | over) & (e + 1 < span)
            act = act[keep]

        if want_traces:
            self._extend_traces(ids, k0, span, path, pos, events, nshk0)
        self.pure[ids] = path[:, -1]
        self.jumps[ids] = jumps
        return violations

    def _rate(self, nshk, total):
        """Shock intensity after ``nshk`` shocks at total wear ``total``."""
        return (1.0 + self.shk.eta * nshk) * (self.shk.lambda0 + self.shk.gamma_dep * total)

    def _shocks(self, ids, counts, t_end, nshk, jumps, changed) -> np.ndarray:
        """Apply each row's ``counts`` arrivals in order, as the step loop does.

        One pass per shock index k takes every row with more than k arrivals
        and no fatal shock yet; a row's shock reads normals 2*nshk and
        2*nshk+1 of its mark stream, nshk counting its shocks before it.
        Updates ``nshk``, ``jumps`` and ``changed`` in place and returns which
        rows took a fatal shock.
        """
        normals, base = self.block_marks.read(ids, 2 * (nshk + counts))
        # A pair maps as numpy's normal(loc, scale) maps a standard normal:
        # loc + scale * z. Pairs after a fatal shock are never read.
        shk = self.shk
        w_law, y_law = shk.magnitude_law, self.deg.jump_law
        hard = np.zeros(ids.size, dtype=bool)
        for k in range(counts.max()):
            q = np.flatnonzero((counts > k) & ~hard)
            col = 2 * nshk[q] - base[q]
            mag = w_law.mean + w_law.stdev * normals[ids[q], col]
            nshk[q] += 1
            fatal = mag > shk.hard_threshold
            hard[q[fatal]] = True
            q, col, mag = q[~fatal], col[~fatal], mag[~fatal]
            damaged = q[(mag > shk.damage_threshold) & ~changed[q]]
            changed[damaged] = True
            self.out.rate_change_time[ids[damaged]] = t_end[damaged]
            y = y_law.mean + y_law.stdev * normals[ids[q], col + 1]
            up = y > 0.0
            jumps[q[up]] += y[up]
        return hard

    def _next_event(self, path, upois, jumps, nshk, act, pos) -> np.ndarray:
        """First column >= pos of each row in ``act`` that may hold an event.

        Within a chunk a row's pure path, total and intensity are
        nondecreasing until its next event, so soft failure and the guard are
        first met where a prefix count says, and only rows whose last column
        reaches the threshold need the count. Arrival candidates are the
        uniforms with u >= exp(-mu) possible at the row's largest mu: exp(-mu)
        >= 1 - mu, so u + mu_last >= 1 - _ARRIVAL_SLACK keeps every arrival,
        and poisson_counts decides which candidates are arrivals.
        """
        span = path.shape[1]
        whole = act.size == path.shape[0]
        sel = slice(None) if whole else act
        jm = jumps[act]
        last = path[sel, -1] + jm
        mu_last = self._rate(nshk[act], last) * self.dt

        cand = upois[sel] >= ((1.0 - _ARRIVAL_SLACK) - mu_last)[:, None]
        p = pos[act]
        if p.any():
            cand &= np.arange(span) >= p[:, None]
        e = np.full(act.size, span)
        rows = np.flatnonzero(cand.any(axis=1))
        e[rows] = cand[rows].argmax(axis=1)

        rows = np.flatnonzero((last >= self.deg.soft_threshold) | (mu_last > MAX_RATE_DT))
        if rows.size:
            total = path[act[rows]] + jm[rows, None]
            first_soft = (total < self.deg.soft_threshold).sum(axis=1)
            mu = self._rate(nshk[act[rows], None], total) * self.dt
            first_over = (mu <= MAX_RATE_DT).sum(axis=1)
            first = np.maximum(np.minimum(first_soft, first_over), p[rows])
            e[rows] = np.minimum(e[rows], first)
        return e

    def _repath(self, path, g1, u2, ids, rows, j0, start) -> None:
        """Rebuild the pure paths of rate-changed ``rows`` from column j0 on,
        starting from ``start`` (their pure wear before column j0)."""
        deg = self.deg
        post = _gammaincinv()(self.shape_post[ids[rows], None], u2[rows, j0:]) * (1.0 / deg.beta)
        if deg.alpha2 > deg.alpha1:
            # rounding as (pure + pre-change increment) + post-change increment
            inc = np.empty((rows.size, 2 * post.shape[1]))
            inc[:, 0::2] = g1[rows, j0:]
            inc[:, 1::2] = post
        else:
            inc = post
        inc[:, 0] += start
        np.cumsum(inc, axis=1, out=inc)
        path[rows, j0:] = inc[:, 1::2] if deg.alpha2 > deg.alpha1 else inc

    def _extend_traces(self, ids, k0, span, path, pos, events, nshk0) -> None:
        """Append a (t, pure, jumps, n_shocks) row per step each row was alive, from
        the chunk start's counts ``nshk0`` and jumps, which are not yet written back."""
        times = [(k0 + j + 1) * self.dt for j in range(span)]
        jumps0, nshk0 = self.jumps[ids].tolist(), nshk0.tolist()
        stops = np.where(self.out.mode[ids] != 0, pos, span).tolist()
        for r, (i, stop) in enumerate(zip(ids.tolist(), stops)):
            pure = path[r, :stop].tolist()
            trace = self.out.traces[i]
            col, jm, ns = 0, jumps0[r], nshk0[r]
            for nxt, jm_next, ns_next in events.get(r, []) + [(stop, None, None)]:
                trace.extend(zip(times[col:nxt], pure[col:nxt], repeat(jm), repeat(ns)))
                col, jm, ns = nxt, jm_next, ns_next


def _run_block(param_sets: list[ModelParams], master_seed: int, rep_lo: int,
               outs: list[BatchResult]) -> list[list[tuple]]:
    """One block of replications under every parameter set, on one set of path
    draws; returns each set's guard violations. A set stops at its first
    violating chunk, as the run will raise. Nothing made here outlives the call."""
    deg, num = param_sets[0].degradation, param_sets[0].numerics
    n_steps = step_count(num.horizon, num.dt)
    n = outs[0].failure_time.size
    path_gens = [replication_stream(master_seed, rep_lo + j, PATH_STREAM) for j in range(n)]
    tl = deg.theta_law
    theta = np.ones(n) if tl is None else (
        _gammaincinv()(tl.shape, [g.random() for g in path_gens]) / tl.rate)
    shape_pre = theta * (deg.alpha1 * num.dt)
    scale = 1.0 / deg.beta
    marks = _Marks(master_seed, rep_lo, outs)
    batches = [_Batch(p, theta, marks, rep_lo, out) for p, out in zip(param_sets, outs)]
    violations = [[] for _ in batches]

    cols = min(n_steps, _CHUNK)
    g1_buf = np.empty((n, cols))
    u_buf = np.empty((n, 2 * cols))
    path_buf = np.empty((n, cols))
    for k0 in range(0, n_steps, _CHUNK):
        # each set's running rows; none once the set has met a violation
        live = [(b.out.mode == 0) & (not found) for b, found in zip(batches, violations)]
        union = np.flatnonzero(np.logical_or.reduce(live))
        if union.size == 0:
            break
        m, span = union.size, min(_CHUNK, n_steps - k0)
        g1 = g1_buf[:m, :span]
        u = u_buf[:m, :2 * span]
        for i, shape, g1_row, u_row in zip(union.tolist(), shape_pre[union].tolist(), g1, u):
            g = path_gens[i]
            g.standard_gamma(shape, out=g1_row)
            g.random(out=u_row)
        g1 *= scale  # the draws of g.gamma(shape, scale): numpy scales standard gammas
        for b, found, rows_alive in zip(batches, violations, live):
            ids = np.flatnonzero(rows_alive)
            if ids.size == m:
                found += b.advance(ids, k0, g1, u, path_buf[:m, :span])
            elif ids.size:
                rows = np.searchsorted(union, ids)
                found += b.advance(ids, k0, g1[rows], u[rows], path_buf[:ids.size, :span])
    for b in batches:  # a set with a violation raises, so its totals are never read
        rows = np.flatnonzero(b.out.mode == 0)
        b.out.final_total[rows] = b.pure[rows] + b.jumps[rows]
    return violations


def simulate_sets(param_sets: list[ModelParams], master_seed: int, rep_lo: int, rep_hi: int,
                  want_traces: bool = False, rows: int = _ROWS) -> list[BatchResult]:
    """Replications rep_lo .. rep_hi-1 under each parameter set, in blocks of
    ``rows``, on the step grid of the sets' numerics; see the module docstring.

    The sets must share theta_law, alpha1, beta and numerics (ValueError
    otherwise). Each result, and the StepSizeError of the first set that has
    one, is bit-identical to running that set alone.
    """
    n = rep_hi - rep_lo
    if n < 1:
        raise ValueError(f"n_reps must be >= 1, got {n}")
    if rows < 1:
        raise ValueError(f"batch_size must be >= 1, got {rows}")
    shared = [(p.degradation.theta_law, p.degradation.alpha1, p.degradation.beta, p.numerics)
              for p in param_sets]
    if any(key != shared[0] for key in shared):
        raise ValueError("parameter sets run together must share theta_law, alpha1, beta "
                         "and numerics, which fix the path draws")
    try:
        outs = [BatchResult(n, want_traces) for _ in param_sets]
    except MemoryError:  # 33 bytes per replication per set, allocated before any work
        raise ValueError(f"n_reps={n} needs {33 * n * len(param_sets)} bytes of results, "
                         "more than can be allocated") from None
    violations = [[] for _ in param_sets]
    for lo in range(rep_lo, rep_hi, rows):
        views = [out.view(lo - rep_lo, min(lo + rows, rep_hi) - rep_lo) for out in outs]
        for found, block in zip(violations, _run_block(param_sets, master_seed, lo, views)):
            found += block
    dt = param_sets[0].numerics.dt
    for found in violations:
        if found:  # the step loop's error: its earliest violating step, at the largest intensity
            step, neg_rate, rep_index = min(found)
            rate, t_end = -neg_rate, (step + 1) * dt
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


def simulate_replication(params: ModelParams, master_seed: int,
                         rep_index: int = 0) -> ReplicationOutcome:
    """Run one replication; bit-identical to the same index inside any run."""
    return _outcome(simulate_sets([params], master_seed, rep_index, rep_index + 1)[0], 0)


def simulate_paths(params: ModelParams, horizon: float, dt: float,
                   master_seed: int, k: int) -> list[ReplicationOutcome]:
    """k replications with full step-grid traces attached. ``horizon`` and
    ``dt`` must be those of ``params.numerics`` (ValueError otherwise)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _same_grid(params, Numerics(dt=dt, horizon=horizon))
    res = simulate_sets([params], master_seed, 0, k, want_traces=True)[0]
    return [_outcome(res, j) for j in range(k)]


def run_replications(params: ModelParams, horizon: float, dt: float, master_seed: int,
                     n_reps: int, batch_size: int = _ROWS) -> tuple[np.ndarray, np.ndarray]:
    """Failure times and modes for n_reps replications.

    ``horizon`` and ``dt`` must be those of ``params.numerics`` (ValueError
    otherwise). ``batch_size`` replications advance at a time: it bounds the
    rows of the per-block refill and mark buffers, not the results' 33 bytes
    per replication, and results and guard errors do not depend on it. Returns
    (failure_time, mode); survivors carry failure_time = inf, mode 0.
    """
    _same_grid(params, Numerics(dt=dt, horizon=horizon))
    res = simulate_sets([params], master_seed, 0, n_reps, rows=batch_size)[0]
    return res.failure_time, res.mode
