"""The per-step engine that preceded the chunk kernel, kept as a test oracle.

``_simulate_batch`` below is a verbatim copy of the loop that advanced every
live replication one step at a time with full-batch vector operations. The
chunk kernel in ``shockwear.simulate`` draws the same random numbers in the
same order and must reproduce every ``BatchResult`` field of this loop bit for
bit, including the ``StepSizeError`` it raises.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaincinv

from shockwear.errors import StepSizeError
from shockwear.rng import MARK_STREAM, PATH_STREAM, replication_stream
from shockwear.shocks import MAX_RATE_DT, poisson_counts
from shockwear.simulate import _CHUNK, BatchResult, ModelParams, step_count


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
