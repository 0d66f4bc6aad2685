"""Stream contract v1: the one test module that knows its bytes.

Stream contract v1 is the draw layout stated in ``shockwear.simulate``'s
module docstring: per-replication PCG64 streams seeded by SeedSequence, path
stream 0 and mark stream 1, refilled a chunk of ``_CHUNK`` steps at a time.
Every test that depends on v1 is indexed here; the rest guard laws and
properties that hold under any contract. pytest does not collect this module
(its name has no ``test_`` prefix); the tests import from it:

- ``V1``: every v1 value a test compares against, each with the command or
  config it was computed on (numpy 2.4.6, scipy 1.17.1);
- ``DRAW_DEPENDENT`` and ``IMPLEMENTATION``: the index of v1-dependent tests,
  each with the behaviour it guards and the contract-free tests that guard
  the same behaviour;
- ``_simulate_batch``: the per-step engine that preceded the chunk kernel,
  kept as a test oracle. It is a verbatim copy of the loop that advanced
  every live replication one step at a time with full-batch vector
  operations. The chunk kernel in ``shockwear.simulate`` draws the same
  random numbers in the same order and must reproduce every ``BatchResult``
  field of this loop bit for bit, including the ``StepSizeError`` it raises.

A change of contract edits this module: its pins and the loop go, the index
says which tests lose their v1 assertions and which keep guarding each
behaviour. ``DRAW_DEPENDENT`` is exactly the set of Tier-1 tests that fail
when every draw changes and no law does (the stream ids moved from 0 and 1
to 2 and 3), which CI checks.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.special import gammaincinv

from shockwear.errors import StepSizeError
from shockwear.rng import MARK_STREAM, PATH_STREAM, replication_stream
from shockwear.shocks import MAX_RATE_DT, poisson_counts
from shockwear.simulate import _CHUNK, BatchResult, ModelParams, step_count


class Pin(NamedTuple):
    value: object
    on: str  # what it was computed on


# Tests that read a pin name it as V1["<key>"].value.
V1 = {
    "run_replications[valve_dt0.05]": Pin(
        "c3a96ad2ebab9e1e1f169e8bd53146b7ecfcf357b1b382cf515e5b1c76fceb48",
        "SHA-256 of failure_time.tobytes() + mode.tobytes() of run_replications("
        "make_params(dt=0.05), 20.0, 0.05, 20260808, 500)"),
    "run_replications[decoupled_shock_heavy]": Pin(
        "7da31fc0fc5b1b42bea1fd310429a030d602e5652d8950ce3c4c3cc9c911c4d2",
        "the same digest of run_replications(make_params(gamma=0.0, lambda0=1.0, eta=0.2, "
        "D0=15.0, D1=20.0, theta_law=GammaLaw(4.0, 4.0), dt=0.01, horizon=8.0), 8.0, 0.01, "
        "7, 500)"),
    "curve_csv": Pin(
        "c2a257b0be0bd0019f15f5cedef9cb12714a71da926fea292bd0aaf5b5c8eb17",
        "SHA-256 of the CSV of `curve` on test_config_cli.valve_doc() (2000 reps, seed "
        "20260808, dt 0.01, grid 0..10 in 11 points)"),
    "sweep_csv": Pin(
        "fa4dad00b81d3358d02880ba485714e66f59ea2f7b4c3e4f86f93a892c7cefc7",
        "SHA-256 of the CSV of `sweep gamma 0,0.001,0.01` on valve_doc(run.dt=0.5) "
        "(20 steps, 2000 reps)"),
    "validate_stdout": Pin(
        "64203459d135200120dd8e7e4716c0462ae5b438d74320d0b669e661c7b68b4d",
        "SHA-256 of the stdout of `validate` on TestValidateCommand.decoupled_doc() "
        "(5000 reps, check times 1, 2, 4)"),
    "paths_csv[1]": Pin(
        "4e97394aac3ec744dae587c28272237b8ca03e2f97a528f1a20c8c64c18a92cd",
        "SHA-256 of the CSV of `paths 40 --stride 1` on test_config_cli.aggressive_doc() "
        "(1001 rows per path), first computed when every field of every row was "
        "formatted on its own"),
    "paths_csv[7]": Pin(
        "bb803a4c6b9a81e4d31ecc98e6f2c9c4e89a7c83e8a4d3feb49a419ff01b4057",
        "the same at --stride 7, which ends on an off-stride row"),
    "guard_any_batch_size": Pin(
        (1.04, 23),
        "(err.time, err.rep_index) of run_replications(make_params(lambda0=1.0, eta=1.0, "
        "D0=12.0, H=5.0, alpha2=0.3, horizon=2.46), 2.46, 0.01, 0, 31) at any batch_size; "
        "blocks of 1 to 7 first trip the guard in replication 0, at t = 2.4"),
    "guard_gamma_0.2": Pin(
        3.7,
        "err.time of estimate_reliability on test_chunk_kernel.GUARD at gamma 0.2 "
        "(horizon 10, 300 reps, seed 5): step 370, in the second chunk; gamma 0.3 trips "
        "the guard at t = 2.2"),
}


class Entry(NamedTuple):
    test: str                # a pytest node id; without [...], every parameter of it
    guards: str              # the behaviour the test guards
    twins: tuple[str, ...]   # contract-free tests that guard the same behaviour
    note: str = ""           # what happens to the test at a contract bump


CONFIG_CLI = "tests/test_config_cli.py::"
KERNEL = "tests/test_chunk_kernel.py::"
NO_TWIN = "defines v1: replaced at a contract bump, no twin"

# Tests that compare v1 draws: they fail when the draws change and the laws do
# not. Ids are exact, one per parameter.
DRAW_DEPENDENT = (
    Entry(CONFIG_CLI + "TestCurveCommand::test_pinned_digest",
          "the curve CSV: the engine's failures, their counts by grid time and the writer",
          (CONFIG_CLI + "TestCurveCommand::test_rows_are_the_estimate",
           CONFIG_CLI + "TestCurveCommand::test_reruns_are_byte_identical",
           "tests/test_acceptance.py::test_criterion_9_cli_determinism")),
    Entry(CONFIG_CLI + "TestSweepCommand::test_pinned_digest",
          "the sweep CSV of values run side by side",
          (CONFIG_CLI + "TestSweepCommand::test_rows_are_the_sweep",
           CONFIG_CLI + "TestSweepCommand::test_single_value_matches_curve",
           KERNEL + "test_sweep_equals_its_values_run_alone")),
    Entry(CONFIG_CLI + "TestValidateCommand::test_pinned_stdout_digest",
          "validate's report: estimate, oracle value, tolerance and verdict per time",
          (CONFIG_CLI + "TestValidateCommand::test_report_follows_the_rule",
           CONFIG_CLI + "TestValidateCommand::test_pass",
           CONFIG_CLI + "TestValidateCommand::test_zero_tolerance_fails")),
    *(Entry(CONFIG_CLI + f"TestPathsCommand::test_pinned_digest[{stride}]",
            "the paths CSV: every kept trace row of every path, formatted",
            ("tests/test_paths_bytes.py::test_paths_bytes_match_per_field_writer",
             "tests/test_paths_bytes.py::test_rows_after_a_shock",
             CONFIG_CLI + "TestPathsCommand::test_trace_csv",
             CONFIG_CLI + "TestPathsCommand::test_stride"))
      for stride in (1, 7)),
    *(Entry(f"tests/test_simulator.py::TestStreamContract::test_pinned_digest[{case}]",
            "stream contract v1's failure times and modes", (), NO_TWIN)
      for case in ("valve_dt0.05", "decoupled_shock_heavy")),
    Entry(KERNEL + "test_step_size_error_independent_of_batch_size",
          "the guard error is the run's earliest violation at the largest intensity, for "
          "any batch size",
          (KERNEL + "test_step_size_error_is_the_runs_earliest_for_any_batch_size",
           "tests/test_batch_properties.py::test_batch_size_invariant"),
          "keeps the reference-loop comparison until the loop goes"),
    Entry(KERNEL + "test_sweep_step_size_error_is_its_first_failing_value_alone",
          "a sweep's guard error is that of its first failing value in order, run alone",
          (KERNEL + "test_sweep_step_size_error_follows_value_order",)),
)

# Tests of v1's implementation: they pass when only the draws change, but
# compare with the v1 step loop or test v1's seeding, buffers or samplers,
# which a new contract replaces.
IMPLEMENTATION = (
    Entry(KERNEL + "test_matches_step_loop",
          "event-skipping chunks apply the per-step rules exactly",
          ("tests/test_acceptance.py::test_criterion_1_oracle_equivalence_decoupled",
           "tests/test_acceptance.py::test_criterion_10_sampler_distributions",
           "tests/test_shocks.py::TestClassification::test_boundaries",
           KERNEL + "test_sets_side_by_side_match_each_alone"),
          "goes with the v1 loop; a v2 loop on the same addressed numbers would replace it"),
    Entry(KERNEL + "test_small_mark_buffers_match_step_loop",
          "mark reads do not depend on the mark buffer's width (_MARKS)", (),
          "goes with _Marks"),
    Entry(KERNEL + "test_matrix_reaches_its_cases",
          "the step-loop cases reach multi-arrival steps, refills and in-chunk failures",
          (), "goes with the v1 loop"),
    Entry(KERNEL + "test_step_size_error_matches_step_loop",
          "the guard error's message and suggested dt, raised in a later chunk",
          (KERNEL + "test_step_size_error_names_a_replayable_replication",
           KERNEL + "test_step_size_error_is_the_runs_earliest_for_any_batch_size"),
          "goes with the v1 loop"),
    Entry(KERNEL + "test_sets_side_by_side_small_mark_buffers",
          "sets that share a mark buffer read the marks each reads alone",
          (KERNEL + "test_sets_side_by_side_match_each_alone",), "goes with _Marks"),
    Entry(KERNEL + "test_mark_buffer_width_follows_a_steps_arrivals",
          "the mark buffer stays at its first width", (), "goes with _Marks"),
    Entry(KERNEL + "test_mark_buffer_floor_is_the_lowest_next_read_of_any_set",
          "a top-up keeps a row's normals from the lowest next read of any running set",
          (), "goes with _Marks"),
    Entry(KERNEL + "test_one_mark_stream_per_replication",
          "a replication's mark stream is built once, whatever the number of sets", (),
          "goes with per-replication generators"),
    *(Entry(f"tests/test_simulator.py::TestStreamContract::{name}",
            "_gammaincinv loads scipy's inverse gamma CDF without scipy.special",
            (CONFIG_CLI + "TestEntryPoint::test_scipy_stays_out",),
            "goes with _gammaincinv")
      for name in ("test_inverse_cdf_is_scipys", "test_inverse_cdf_falls_back_to_the_package")),
    *(Entry(f"tests/test_rng.py::{name}",
            "replication_stream equals SeedSequence-seeded PCG64",
            ("tests/test_simulator.py::TestBasics::test_single_rep_bit_matches_batch",
             "tests/test_simulator.py::TestBasics::test_deterministic_outcome"),
            "goes with rng.py's hash")
      for name in ("test_streams_equal_seedsequence",
                   "test_every_row_of_a_block_equals_seedsequence",
                   "test_numpy_integer_arguments")),
    Entry("tests/test_rng.py::test_negative_arguments_raise",
          "replication_stream refuses a negative seed, index or stream id",
          (CONFIG_CLI + "TestCurveCommand::test_bad_run_override_named",),
          "goes with rng.py's hash"),
    Entry("tests/test_rng.py::test_generator_pickles",
          "a replication's generator pickles with its state", (),
          "goes with per-replication generators"),
    Entry("tests/test_rng.py::test_normal_draws_concatenate",
          "numpy's normal sampler keeps no state between values, which _Marks relies on",
          (), "goes with _Marks"),
    *(Entry(f"tests/test_kernel.py::TestGammaSampler::{name}",
            "numpy's gamma sampler, which the path refill calls",
            ("tests/test_degradation.py::TestPathDistribution::test_endpoint_matches_gamma_law",
             "tests/test_acceptance.py::test_criterion_10_sampler_distributions"),
            "replaced by tests of the contract's own sampler")
      for name in ("test_small_shape_mean", "test_moments_within_four_se")),
    Entry("tests/test_shocks.py::TestClassification::test_damaging_fraction",
          "numpy's normal sampler against the damaging band's probability",
          ("tests/test_shocks.py::TestClassification::test_damaging_between_thresholds",),
          "replaced by tests of the contract's own sampler"),
    *(Entry(f"tests/test_shocks.py::TestArrivals::{name}",
            "poisson_counts inverts one uniform per step",
            ("tests/test_simulator.py::TestReductions::"
             "test_every_shock_fatal_leaves_pure_arrival_law",
             "tests/test_acceptance.py::test_criterion_10_sampler_distributions"),
            "goes with poisson_counts")
      for name in ("test_mean_matches_rate", "test_inversion_monotone_in_rate")),
    *(Entry(f"tests/test_public_api.py::test_traced_globals_exist[shockwear.simulate-{name}]",
            "perfbench's tracer wraps the v1 draw entries", (),
            "moves with the tracer's binding")
      for name in ("replication_stream", "poisson_counts")),
    *(Entry(CONFIG_CLI + f"TestSweepCommand::{name}",
            "no value runs before every value is checked",
            (), "its sentinel patches simulate.replication_stream; it moves to the new draw entry")
      for name in ("test_bad_value_refused_before_any_value_runs",
                   "test_empty_value_refused_before_any_value_runs")),
)


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
