import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shockwear.cli
import shockwear.reliability
import shockwear.simulate
from shockwear import (
    ConfigError,
    IntegrationError,
    NormalLaw,
    analytic_reliability,
    estimate_reliability,
    sweep,
)
from shockwear.cli import main
from shockwear.config import config_to_dict, dump_config, load_config, parse_config
from shockwear.kernel import normal_cdf
from tests.stream_v1 import V1


CONFIGS = Path(__file__).resolve().parent.parent / "perfbench" / "configs"


def valve_doc(**overrides):
    doc = {
        "model": {
            "H": 5.0, "D1": 40.0, "D0": 30.0,
            "alpha1": 0.5, "alpha2": 0.9, "beta": 1.2,
            "lambda0": 2.5e-5, "eta": 0.2, "gamma": 0.001,
            "W": {"mean": 10.0, "stdev": 5.0},
            "Y": {"mean": 0.5, "stdev": 0.1},
        },
        "run": {
            "n_reps": 2000, "master_seed": 20260808,
            "grid": {"start": 0.0, "stop": 10.0, "points": 11},
            "dt": 0.01, "horizon": 10.0,
        },
        "output": {"path": "out.csv", "format": "csv"},
    }
    for dotted, value in overrides.items():
        cur = doc
        *head, last = dotted.split(".")
        for key in head:
            cur = cur[key]
        if value is None:
            del cur[last]
        else:
            cur[last] = value
    return doc


def readme_config_example() -> str:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return readme.split("### Config example", 1)[1].split("```json", 1)[1].split("```", 1)[0]


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def fmt_row(*fields) -> str:
    return ",".join(f"{x:.17g}" for x in fields)


class TestConfigParsing:
    def test_valid_roundtrip(self, tmp_path):
        cfg = parse_config(valve_doc())
        assert cfg.model.shock.damage_threshold == 30.0
        assert cfg.model.degradation.soft_threshold == 5.0
        assert cfg.run.n_reps == 2000
        again = parse_config(config_to_dict(cfg))
        assert again == cfg
        # normalized dump re-parses identically too
        final = parse_config(json.loads(dump_config(cfg)))
        assert final == cfg

    def test_grid_times(self):
        cfg = parse_config(valve_doc())
        assert np.allclose(cfg.run.grid.times(), np.linspace(0.0, 10.0, 11))

    def test_threshold_order_enforced(self):
        with pytest.raises(ConfigError, match=r"D0.*must not exceed.*D1"):
            parse_config(valve_doc(**{"model.D0": 45.0}))

    @pytest.mark.parametrize("field", ["model.H", "model.W", "run.n_reps", "run.grid", "output.path"])
    def test_missing_fields_named(self, field):
        with pytest.raises(ConfigError, match=field.split(".")[-1]):
            parse_config(valve_doc(**{field: None}))

    def test_type_errors_named(self):
        with pytest.raises(ConfigError, match="model.alpha1"):
            parse_config(valve_doc(**{"model.alpha1": "fast"}))
        with pytest.raises(ConfigError, match="run.n_reps"):
            parse_config(valve_doc(**{"run.n_reps": 2.5}))

    def test_value_errors_named(self):
        with pytest.raises(ConfigError, match="n_reps"):
            parse_config(valve_doc(**{"run.n_reps": 0}))
        with pytest.raises(ConfigError, match="grid.stop"):
            parse_config(valve_doc(**{"run.grid.stop": 99.0}))
        with pytest.raises(ConfigError, match="eta"):
            parse_config(valve_doc(**{"model.eta": 0.0}))
        with pytest.raises(ConfigError, match="format"):
            parse_config(valve_doc(**{"output.format": "parquet"}))

    @pytest.mark.parametrize("field, value", [
        ("model.H", 0.0), ("model.gamma", -0.1), ("model.lambda0", -1.0),
        ("model.W", {"mean": 10.0, "stdev": 0.0}), ("model.theta", {"shape": 0.0, "rate": 1.0}),
    ])
    def test_dataclass_errors_named_by_config_key(self, field, value):
        # range rules live in the model dataclasses; the error names the key
        with pytest.raises(ConfigError, match=rf"^{field}\b") as err:
            parse_config(valve_doc(**{field: value}))
        assert "Params." not in str(err.value)

    def test_output_format_key_is_optional(self, tmp_path, capsys):
        # CSV is the only format; the key may be left out and is echoed as csv
        cfg = parse_config(valve_doc(**{"output.format": None}))
        assert cfg == parse_config(valve_doc())
        path = write_config(tmp_path, valve_doc(**{"output.format": None}))
        assert main(["curve", "--config", path, "--print-config"]) == 0
        assert json.loads(capsys.readouterr().out)["output"] == {"path": "out.csv", "format": "csv"}

    def test_theta_block(self):
        cfg = parse_config(valve_doc(**{"model.theta": {"shape": 20.0, "rate": 20.0}}))
        assert cfg.model.degradation.theta_law is not None
        assert cfg.model.degradation.theta_law.mean == pytest.approx(1.0)

    UNKNOWN_KEYS = {  # a key no section accepts -> the keys its section lists
        "model.Theta": "H, D1, D0, alpha1, alpha2, beta, lambda0, eta, gamma, W, Y, theta",
        "run.nreps": "n_reps, master_seed, grid, dt, horizon",
        "run.grid.step": "start, stop, points",
        "model.W.sd": "mean, stdev",
        "model.theta.scale": "shape, rate",
        "output.compress": "path, format",
        "extra": "model, run, output",
    }

    @pytest.mark.parametrize("dotted", list(UNKNOWN_KEYS))
    def test_unknown_keys_refused(self, tmp_path, capsys, dotted):
        # a misspelt key used to be dropped, and the run went on without it
        accepted = self.UNKNOWN_KEYS[dotted]
        doc = valve_doc(**{"model.theta": {"shape": 20.0, "rate": 20.0}, dotted: 1.0})
        with pytest.raises(ConfigError, match=rf"^{dotted}: unknown key; accepted: {accepted}$"):
            parse_config(doc)
        assert main(["curve", "--config", write_config(tmp_path, doc), "--print-config"]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {dotted}: unknown key")

    def test_null_theta_is_no_theta(self):
        doc = valve_doc()
        doc["model"]["theta"] = None
        assert parse_config(doc) == parse_config(valve_doc())

    def test_readme_example_parses(self):
        cfg = parse_config(json.loads(readme_config_example()))
        assert cfg.run.n_reps == 100_000 and cfg.model.numerics.horizon == 20.0

    def test_zero_horizon(self):
        cfg = parse_config(valve_doc(**{"run.horizon": 0.0, "run.grid": {
            "start": 0.0, "stop": 0.0, "points": 1}}))
        assert cfg.model.numerics.horizon == 0.0

    @pytest.mark.parametrize("text, message", [
        (json.dumps(valve_doc(output=None)), "missing section 'output'"),
        (json.dumps(valve_doc(run=5)), "run: expected an object"),
        (json.dumps(valve_doc()).replace('"H": 5.0', '"H": NaN'), "model.H: must be finite"),
        (json.dumps(valve_doc(**{"model.W": 10})), "model.W: expected an object"),
        ("[]", "top level must be an object"),
        (json.dumps(valve_doc(**{"run.grid.points": 0})), "run.grid.points must be >= 1"),
        (json.dumps(valve_doc(**{"run.grid.start": 5.0, "run.grid.stop": 2.0})),
         "run.grid must satisfy 0 <= start <= stop"),
        (json.dumps(valve_doc(**{"run.grid.start": -1.0})),
         "run.grid must satisfy 0 <= start <= stop"),
        # linspace(0, 10, 1) is [0.]: the curve used to stop at t=0 and exit 0
        (json.dumps(valve_doc(**{"run.grid.points": 1})), "run.grid: 1 point holds start=0.0"),
        # a JSON integer beyond float64's range is not finite, like 1e400
        (json.dumps(valve_doc(**{"model.H": 10 ** 400})), "model.H: must be finite"),
        (json.dumps(valve_doc(**{"run.dt": 10 ** 400})), "run.dt: must be finite"),
        # a repeated key used to keep its last value and run
        (json.dumps(valve_doc()).replace('"H": 5.0', '"H": 5.0, "H": 50.0'),
         "model: duplicate key 'H' in config {path}"),
        (json.dumps(valve_doc())[:-1] + ', "run": {}}', "duplicate key 'run' in config {path}"),
        # the refusal names the object that repeats the key, as W's and Y's laws share keys
        (json.dumps(valve_doc()).replace('"W": {"mean": ', '"W": {"mean": 1.0, "mean": '),
         "model.W: duplicate key 'mean' in config {path}"),
        # an object in an array is named by its array
        (json.dumps(valve_doc()).replace('"H": 5.0', '"H": [1, [{"a": 1, "a": 2}]]'),
         "model.H: duplicate key 'a' in config {path}"),
        (b'{"model": "\xff"}', "config {path} is not valid JSON: "),
        # json's decoder recurses per level and used to exit 1 with a traceback
        ("[" * 100000 + "]" * 100000, "config {path} is nested too deeply to read"),
    ], ids=["no_output", "run_not_object", "nan_H", "W_not_object", "top_level_list",
            "zero_points", "start_after_stop", "negative_start", "one_point_grid",
            "huge_integer_H", "huge_integer_dt", "duplicate_H", "duplicate_section",
            "duplicate_W_mean", "duplicate_in_array", "not_utf8", "deep_nesting"])
    def test_refusal_reaches_cli(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert main(["curve", "--config", str(path), "--print-config"]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message.format(path=path)}")

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "nope.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            load_config(str(bad))


class TestCurveCommand:
    def test_writes_expected_csv(self, tmp_path):
        out = tmp_path / "curve.csv"
        cfg = write_config(tmp_path, valve_doc(**{"output.path": str(out)}))
        assert main(["curve", "--config", cfg]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,R_hat,ci_low,ci_high,n_reps,n_soft,n_hard,n_survived"
        assert len(lines) == 12
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "1"
        assert first[7] == "2000"

    def test_reruns_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = write_config(tmp_path, valve_doc())
        assert main(["curve", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["curve", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, valve_doc(**{"model.D0": 45.0}))
        assert main(["curve", "--config", cfg]) == 2

    @pytest.mark.filterwarnings("default::UserWarning")
    def test_advisory_is_one_line(self, tmp_path, capsys):
        # the alpha2 < alpha1 advisory, raised in the config reader and in a
        # sweep's dataclasses.replace, names neither: one line, no file or source
        cfg = write_config(tmp_path, valve_doc(**{"model.alpha2": 0.3, "run.n_reps": 10,
                                                  "output.path": str(tmp_path / "c.csv")}))
        advisory = ("warning: alpha2={} < alpha1=0.5: the shape rate drops after a damaging "
                    "shock, which is unusual for wear-out")
        assert main(["curve", "--config", cfg]) == 0
        assert capsys.readouterr().err.splitlines() == [advisory.format(0.3)]
        assert main(["sweep", "alpha2", "0.2", "--config", cfg]) == 0
        assert capsys.readouterr().err.splitlines() == [advisory.format(0.3),
                                                        advisory.format(0.2)]

    def test_unallocatable_results_are_a_config_error(self, tmp_path, capsys, monkeypatch):
        # the results are allocated before any work; a real allocation of this
        # size is never tried, since with overcommit np.full would touch the pages
        def refuse(self, n, want_traces):
            raise MemoryError

        monkeypatch.setattr(shockwear.simulate.BatchResult, "__init__", refuse)
        out = tmp_path / "c.csv"
        cfg = write_config(tmp_path, valve_doc(**{"output.path": str(out)}))
        assert main(["curve", "--config", cfg, "--reps", "100000000000"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: n_reps=100000000000 needs 3300000000000 bytes of results, "
            "more than can be allocated"]
        assert not out.exists()

    @pytest.mark.parametrize("verb", [["curve"], ["sweep", "gamma", "0,0.01"]],
                             ids=["curve", "sweep"])
    def test_unallocatable_grid_is_a_config_error(self, tmp_path, capsys, verb):
        # 8e18 bytes is more than any address space maps, so the allocation is
        # refused at once, whatever the overcommit setting, and touches no page
        out = tmp_path / "c.csv"
        cfg = write_config(tmp_path, valve_doc(**{"output.path": str(out),
                                                  "run.grid.points": 10**18}))
        assert main([*verb, "--config", cfg]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: run.grid.points=1000000000000000000 needs 8000000000000000000 bytes "
            "of grid times, more than can be allocated"]
        assert not out.exists()

    def test_guard_error_exit_code(self, tmp_path):
        doc = valve_doc(**{"model.lambda0": 50.0})
        cfg = write_config(tmp_path, doc)
        assert main(["curve", "--config", cfg]) == 3

    def test_overrides(self, tmp_path):
        out = tmp_path / "c.csv"
        cfg = write_config(tmp_path, valve_doc())
        assert main(["curve", "--config", cfg, "--reps", "100", "--seed", "7",
                     "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].split(",")[4] == "100"

    @pytest.mark.parametrize("flag, value, field", [("--reps", "0", "run.n_reps"),
                                                    ("--seed", "-1", "run.master_seed")])
    def test_bad_run_override_named(self, tmp_path, capsys, flag, value, field):
        cfg = write_config(tmp_path, valve_doc(**{"output.path": str(tmp_path / "c.csv")}))
        assert main(["curve", "--config", cfg, flag, value]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field} must be ")

    def test_dt_override_reaches_engine(self, tmp_path, capsys):
        outs = [tmp_path / name for name in ("override.csv", "written.csv", "fine.csv")]
        fine = write_config(tmp_path, valve_doc(**{"run.n_reps": 500}), "fine.json")
        coarse = write_config(tmp_path, valve_doc(**{"run.n_reps": 500, "run.dt": 0.05}),
                              "coarse.json")
        assert main(["curve", "--config", fine, "--dt", "0.05", "--out", str(outs[0])]) == 0
        assert main(["curve", "--config", coarse, "--out", str(outs[1])]) == 0
        assert main(["curve", "--config", fine, "--out", str(outs[2])]) == 0
        override, written, unchanged = (o.read_bytes() for o in outs)
        assert override == written
        assert override != unchanged
        capsys.readouterr()
        assert main(["curve", "--config", fine, "--dt", "0.05", "--print-config"]) == 0
        assert json.loads(capsys.readouterr().out)["run"]["dt"] == 0.05

    def test_horizon_not_whole_steps_is_config_error(self, tmp_path, capsys):
        bad = write_config(tmp_path, valve_doc(**{"run.dt": 0.3}), "bad.json")  # horizon 10
        assert main(["curve", "--config", bad, "--print-config"]) == 2
        assert "config error: run.horizon/run.dt:" in capsys.readouterr().err
        fine = write_config(tmp_path, valve_doc(), "fine.json")
        assert main(["curve", "--config", fine, "--dt", "0.3"]) == 2
        assert "config error: --dt:" in capsys.readouterr().err

    def test_dt_without_finite_step_count_is_config_error(self, tmp_path, capsys):
        # horizon / dt overflows to inf; it used to escape as an OverflowError
        bad = write_config(tmp_path, valve_doc(**{"run.dt": 1e-320}), "bad.json")
        assert main(["curve", "--config", bad]) == 2
        assert capsys.readouterr().err.startswith("config error: run.horizon/run.dt: ")
        fine = write_config(tmp_path, valve_doc(), "fine.json")
        assert main(["curve", "--config", fine, "--dt", "1e-320"]) == 2
        assert capsys.readouterr().err.startswith("config error: --dt: ")

    def test_dt_past_step_count_cap_is_config_error(self, tmp_path, capsys):
        # 10 / 1e-300 = 1e301 steps is finite but past 2**53; --print-config shows
        # the refusal comes with the config, before any run
        bad = write_config(tmp_path, valve_doc(**{"run.dt": 1e-300}), "bad.json")
        assert main(["curve", "--config", bad, "--print-config"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: run.horizon/run.dt: ") and "2**53" in err
        fine = write_config(tmp_path, valve_doc(), "fine.json")
        assert main(["curve", "--config", fine, "--dt", "1e-300", "--print-config"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --dt: ") and "2**53" in err

    def test_print_config_roundtrip(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, valve_doc())
        assert main(["curve", "--config", cfg_path, "--print-config"]) == 0
        echoed = json.loads(capsys.readouterr().out)
        assert parse_config(echoed) == load_config(cfg_path)

    def test_pinned_digest(self, tmp_path):
        # the curve CSV on valve_doc (2000 reps), pinned so a byte change in
        # the engine, the reduction or the writer fails here
        out = tmp_path / "curve.csv"
        assert main(["curve", "--config", write_config(tmp_path, valve_doc()),
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == V1["curve_csv"].value

    @pytest.mark.parametrize("model", [{}, {"model.lambda0": 0.5, "model.D0": 15.0,
                                            "model.D1": 20.0}], ids=["valve", "hard_failures"])
    def test_rows_are_the_estimate(self, tmp_path, model):
        out = tmp_path / "curve.csv"
        path = write_config(tmp_path, valve_doc(**model))
        assert main(["curve", "--config", path, "--out", str(out)]) == 0
        cfg = load_config(path)
        c = estimate_reliability(cfg.model, cfg.run.grid.times(), cfg.run.n_reps,
                                 cfg.run.master_seed)
        rows = out.read_text().splitlines()[1:]
        assert rows == [fmt_row(t, c.estimate[i], c.ci_low[i], c.ci_high[i], c.n_reps,
                                c.soft_count[i], c.hard_count[i], c.survived_count[i])
                        for i, t in enumerate(c.grid)]
        for row in rows:
            fields = row.split(",")
            n_reps, soft, hard, survived = map(int, fields[4:])
            assert soft + hard + survived == n_reps
            assert float(fields[1]) == survived / n_reps
        if model:  # every mode occurs by the last grid time
            assert c.soft_count[-1] and c.hard_count[-1] and c.survived_count[-1]


class TestSweepCommand:
    def test_long_format(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = write_config(tmp_path, valve_doc(**{"run.n_reps": 500, "output.path": str(out)}))
        assert main(["sweep", "gamma", "0,0.001", "--config", cfg]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "param_value,t,R_hat,ci_low,ci_high"
        assert len(lines) == 1 + 2 * 11
        assert lines[1].startswith("0,")
        assert lines[12].startswith("0.001,")

    def test_single_value_matches_curve(self, tmp_path):
        sweep_out = tmp_path / "s.csv"
        curve_out = tmp_path / "c.csv"
        cfg = write_config(tmp_path, valve_doc(**{"run.n_reps": 500}))
        assert main(["sweep", "D0", "30", "--config", cfg, "--out", str(sweep_out)]) == 0
        assert main(["curve", "--config", cfg, "--out", str(curve_out)]) == 0
        sweep_rows = [r.split(",") for r in sweep_out.read_text().splitlines()[1:]]
        curve_rows = [r.split(",") for r in curve_out.read_text().splitlines()[1:]]
        for s, c in zip(sweep_rows, curve_rows):
            assert s[1] == c[0]   # t
            assert s[2] == c[1]   # R_hat
            assert s[3] == c[2] and s[4] == c[3]

    def test_unknown_parameter_lists_names(self, tmp_path, capsys):
        cfg = write_config(tmp_path, valve_doc())
        assert main(["sweep", "beta", "1.0", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "lambda0" in err and "D0" in err

    def test_bad_value_refused_before_any_value_runs(self, tmp_path, capsys, monkeypatch):
        def stream(*args, **kwargs):
            raise AssertionError("a value ran before every value was checked")
        monkeypatch.setattr(shockwear.simulate, "replication_stream", stream)
        cfg = write_config(tmp_path, valve_doc(**{"output.path": str(tmp_path / "s.csv")}))
        assert main(["sweep", "D0", "20,50", "--config", cfg]) == 2
        assert "model.D0" in capsys.readouterr().err

    @pytest.mark.parametrize("values", ["0,,0.01", "0.01,"])
    def test_empty_value_refused_before_any_value_runs(self, tmp_path, capsys, monkeypatch,
                                                        values):
        # empty entries were once dropped and the sweep ran on what was left
        def stream(*args, **kwargs):
            raise AssertionError("a value ran before every value was checked")
        monkeypatch.setattr(shockwear.simulate, "replication_stream", stream)
        cfg = write_config(tmp_path, valve_doc(**{"output.path": str(tmp_path / "s.csv")}))
        assert main(["sweep", "gamma", values, "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: sweep values: '' in ")

    @pytest.mark.parametrize("parameter, value, names", [
        ("gamma", "nan", ["model.gamma"]),
        ("D0", "50", ["model.D0", "model.D1"]),
    ])
    def test_invalid_value_named_by_config_key(self, tmp_path, capsys, parameter, value, names):
        cfg = write_config(tmp_path, valve_doc(**{"output.path": str(tmp_path / "s.csv")}))
        assert main(["sweep", parameter, value, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert all(name in err for name in names) and "Params." not in err


    def test_pinned_digest(self, tmp_path):
        # a side-by-side gamma sweep at dt=0.5 (20 steps, 2000 reps)
        out = tmp_path / "sweep.csv"
        cfg = write_config(tmp_path, valve_doc(**{"run.dt": 0.5}))
        assert main(["sweep", "gamma", "0,0.001,0.01", "--config", cfg, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == V1["sweep_csv"].value

    def test_rows_are_the_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        path = write_config(tmp_path, valve_doc(**{"run.dt": 0.5}))
        assert main(["sweep", "H", "3,5,8", "--config", path, "--out", str(out)]) == 0
        cfg = load_config(path)
        curves = sweep(cfg.model, "H", [3.0, 5.0, 8.0], cfg.run.grid.times(), cfg.run.n_reps,
                       cfg.run.master_seed)
        assert len({c.estimate.tobytes() for _, c in curves}) == 3  # each value's curve differs
        assert out.read_text().splitlines()[1:] == [
            fmt_row(value, t, c.estimate[i], c.ci_low[i], c.ci_high[i])
            for value, c in curves for i, t in enumerate(c.grid)]


class TestValidateCommand:
    def decoupled_doc(self, **kw):
        return valve_doc(**{"model.gamma": 0.0, "model.D0": 40.0,
                            "model.lambda0": 0.5, "run.n_reps": 5000,
                            "run.horizon": 4.0, "run.grid.stop": 4.0, **kw})

    def test_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.decoupled_doc())
        assert main(["validate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "max deviation" in out

    def test_zero_tolerance_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.decoupled_doc())
        assert main(["validate", "--config", cfg, "--tol", "0"]) == 4
        out = capsys.readouterr().out
        assert "FAIL" in out

    @pytest.mark.parametrize("flag, value", [
        ("--tol", "inf"), ("--tol", "nan"), ("--tol", "-1"),
        ("--abs-tol", "inf"), ("--abs-tol", "nan"), ("--abs-tol", "-5"),
        ("--times", "1,9"), ("--times", "-1"), ("--times", "nan"), ("--times", "1,x"),
        ("--times", ""),
    ])
    def test_bad_flag_refused_before_oracle(self, tmp_path, capsys, monkeypatch, flag, value):
        def oracle(*args, **kwargs):
            raise AssertionError("the oracle ran before the flags were checked")
        monkeypatch.setattr(shockwear.cli, "analytic_reliability", oracle)
        monkeypatch.setattr(shockwear.reliability, "run_replications", oracle)
        cfg = write_config(tmp_path, self.decoupled_doc())
        assert main(["validate", "--config", cfg, flag, value]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {flag}")

    def test_small_times_converge(self, capsys):
        # the wear shape alpha1*t is 0.125 to 0.375 here, where the oracle's
        # quadrature once failed to converge
        cfg = str(CONFIGS / "decoupled.json")
        assert main(["validate", "--config", cfg, "--times", "0.25,0.5,0.75",
                     "--reps", "2000"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_quadrature_failure_is_numeric_error(self, tmp_path, capsys, monkeypatch):
        def integrate(*args, **kwargs):
            raise IntegrationError("quadrature did not converge", best_estimate=0.5)
        monkeypatch.setattr(shockwear.reliability, "integrate", integrate)
        cfg = write_config(tmp_path, self.decoupled_doc())
        assert main(["validate", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err == "numeric error: quadrature did not converge\n"

    @pytest.mark.parametrize("model, times", [
        ({"H": 1e200, "beta": 1e200}, (1.0, 2.0, 4.0, 8.0)),
        ({"alpha1": 1.25e299, "alpha2": 1.25e299, "H": 1e300, "beta": 1.0}, (4.0,)),
    ], ids=["rate_times_H_overflows", "wear_density_overflows"])
    def test_overflow_is_numeric_error(self, tmp_path, model, times):
        # beta*H is inf in the m = 0 term, where a hand-rolled gamma CDF once
        # never returned, and a wear density once overflowed in the quadrature.
        # Neither soft failure can happen here, so the oracle is the count
        # law's generating function (p / (1 - q F_W(D1)))**(1/eta), with
        # p = exp(-eta lambda0 t) and q = 1 - p, less the mass of negative jump
        # sums it drops: at most E[N(t)] P(Y < 0), plus the quadrature's
        # tolerance. The oracle runs in a
        # subprocess, so that a hang fails this test instead of stalling the
        # suite. (validate exits 3 on these configs, through the engine's
        # step-size guard.)
        doc = json.loads((CONFIGS / "decoupled.json").read_text())
        doc["model"].update(model)
        script = ("import sys\n"
                  "from shockwear import analytic_reliability\n"
                  "from shockwear.config import load_config\n"
                  "model = load_config(sys.argv[1]).model\n"
                  "print([analytic_reliability(model, float(t)) for t in sys.argv[2:]])")
        proc = subprocess.run(
            [sys.executable, "-c", script, write_config(tmp_path, doc), *map(str, times)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        got = json.loads(proc.stdout)
        m = doc["model"]
        eta, f_w = m["eta"], normal_cdf(m["D1"], NormalLaw(m["W"]["mean"], m["W"]["stdev"]))
        p_negative = normal_cdf(0.0, NormalLaw(m["Y"]["mean"], m["Y"]["stdev"]))
        for t, value in zip(times, got):
            p = math.exp(-eta * m["lambda0"] * t)
            closed = (p / (1.0 - (1.0 - p) * f_w)) ** (1.0 / eta)
            mean_count = math.expm1(eta * m["lambda0"] * t) / eta
            assert abs(value - closed) <= mean_count * p_negative + 1e-9, t

    def test_huge_wear_shape_is_numeric_error(self, tmp_path, capsys):
        # alpha1*t = H = 1e17: the wear density's log terms once reached 8e18,
        # whose rounding left it no digit, and validate exited 3. The gamma
        # CDF of H - s is 1/2 to within the shape's sd of 3e8, so at t=1 the
        # oracle is 1/2 times P(no fatal shock), which is 1 to 6 digits.
        doc = json.loads((CONFIGS / "decoupled.json").read_text())
        doc["model"].update(alpha1=1e17, alpha2=1e17, H=1e17, beta=1.0)
        assert main(["validate", "--config", write_config(tmp_path, doc), "--reps", "2000"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split()[2] == "analytic=0.500000"
        assert out.splitlines()[-1].startswith("PASS")

    def test_low_noise_wear_law_validates(self, tmp_path, capsys):
        # Gamma(3e5 t, 1e5): the wear's sd is 1/200 of its mean. The oracle
        # once refused the shape 2.4e6 at t=8 as losing its digits.
        doc = json.loads((CONFIGS / "decoupled.json").read_text())
        doc["model"].update(alpha1=3e5, alpha2=3e5, beta=1e5)
        assert main(["validate", "--config", write_config(tmp_path, doc), "--reps", "2000"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("PASS")

    def test_infinite_integrated_hazard_names_lambda0(self, tmp_path, capsys):
        # lambda0 * t is inf at t=2; the refusal once named the count law's
        # internal big_lambda
        doc = json.loads((CONFIGS / "decoupled.json").read_text())
        doc["model"].update(lambda0=1e308)
        assert main(["validate", "--config", write_config(tmp_path, doc), "--reps", "100"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "lambda0 = 1e+308 at t = 2" in err and "big_lambda" not in err

    def test_short_horizon_needs_times(self, tmp_path, capsys):
        # no default check time (1, 2, 4, 8) lies within a horizon of 0.5
        doc = json.loads((CONFIGS / "decoupled.json").read_text())
        doc["run"].update(horizon=0.5, grid={"start": 0.0, "stop": 0.5, "points": 3})
        cfg = write_config(tmp_path, doc)
        assert main(["validate", "--config", cfg, "--reps", "100"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --times") and "run.horizon" in err
        assert main(["validate", "--config", cfg, "--reps", "100", "--times", "0.5"]) == 0

    def test_coupled_config_refused(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.decoupled_doc(**{"model.gamma": 0.001}))
        assert main(["validate", "--config", cfg]) == 2
        assert "gamma_dep" in capsys.readouterr().err

    def test_jump_law_with_negative_mass_refused(self, tmp_path, capsys):
        # the engine clamps negative jumps to 0 and the oracle does not: at
        # Y = N(0, 0.5) they differ by 0.43 at t=2, so validate must not compare
        doc = self.decoupled_doc(**{"model.lambda0": 1.0,
                                    "model.Y": {"mean": 0.0, "stdev": 0.5}})
        assert main(["validate", "--config", write_config(tmp_path, doc)]) == 2
        assert "P(Y < 0)" in capsys.readouterr().err

    def test_pinned_stdout_digest(self, tmp_path, capsys):
        # validate's report on decoupled_doc: the Monte Carlo estimates and the
        # oracle's values as printed
        assert main(["validate", "--config", write_config(tmp_path, self.decoupled_doc())]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == V1["validate_stdout"].value

    def test_report_follows_the_rule(self, tmp_path, capsys):
        # each line: the estimate at the run's seed, the oracle, their distance,
        # the tolerance max(3 CI half-widths, --abs-tol 0.01) and the verdict
        path = write_config(tmp_path, self.decoupled_doc())
        assert main(["validate", "--config", path]) == 0
        *lines, summary = capsys.readouterr().out.splitlines()
        cfg = load_config(path)
        times = [1.0, 2.0, 4.0]  # the default check times within the horizon of 4
        c = estimate_reliability(cfg.model, times, cfg.run.n_reps, cfg.run.master_seed)
        assert len(lines) == len(times)
        devs = []
        for i, (t, line) in enumerate(zip(times, lines)):
            *fields, verdict = line.split()
            fields = dict(field.split("=") for field in fields)
            analytic = analytic_reliability(cfg.model, t)
            dev = abs(c.estimate[i] - analytic)
            half = 0.5 * (c.ci_high[i] - c.ci_low[i])
            tol = max(3.0 * half, 0.01)
            assert fields == {"t": f"{t:g}", "mc": f"{c.estimate[i]:.6f}",
                              "analytic": f"{analytic:.6f}", "|dev|": f"{dev:.6f}",
                              "tol": f"{tol:.6f}"}
            assert verdict == ("ok" if dev <= tol else "FAIL")
            devs.append(dev)
        assert summary == f"PASS: max deviation {max(devs):.6f} over 3 times at 5000 replications"


def aggressive_doc(**overrides):
    """Shock-heavy, rate-changing config: about 4 shocks and often a rate change per path."""
    return valve_doc(**{"model.lambda0": 0.4, "model.D0": 12.0, "model.H": 50.0,
                        "run.horizon": 10.0, "run.grid.stop": 10.0, **overrides})


class TestPathsCommand:
    def test_trace_csv(self, tmp_path):
        out = tmp_path / "paths.csv"
        cfg = write_config(tmp_path, valve_doc(**{"run.horizon": 2.0, "run.grid.stop": 2.0,
                                                  "output.path": str(out)}))
        assert main(["paths", "3", "--config", cfg]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rep,t,pure,jumps,total,n_shocks,rate_changed"
        rows = [line.split(",") for line in lines[1:]]
        assert {r[0] for r in rows} == {"0", "1", "2"}
        for r in rows:
            assert float(r[4]) == pytest.approx(float(r[2]) + float(r[3]), abs=1e-15)
        flips = [int(r[6]) for r in rows if r[0] == "0"]
        assert all(b >= a for a, b in zip(flips, flips[1:]))  # flag never reverts

    def test_stride(self, tmp_path):
        out = tmp_path / "paths.csv"
        cfg = write_config(tmp_path, valve_doc(**{"run.horizon": 2.0, "run.grid.stop": 2.0,
                                                  "output.path": str(out)}))
        assert main(["paths", "1", "--stride", "50", "--config", cfg]) == 0
        lines = out.read_text().splitlines()
        # 201 grid rows (including t=0) strided by 50, last row always kept
        assert len(lines) == 1 + 5

    def test_zero_stride_refused(self, tmp_path, capsys):
        cfg = write_config(tmp_path, valve_doc(**{"output.path": str(tmp_path / "p.csv")}))
        assert main(["paths", "2", "--stride", "0", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: --stride must be >= 1")

    def test_reps_refused_before_engine(self, tmp_path, capsys, monkeypatch):
        # paths writes k trajectories; --reps used to be accepted and ignored
        def engine(*args, **kwargs):
            raise AssertionError("the engine ran on a refused --reps")

        monkeypatch.setattr(shockwear.cli, "simulate_paths", engine)
        out = tmp_path / "paths.csv"
        cfg = write_config(tmp_path, valve_doc())
        argv = ["paths", "2", "--reps", "1", "--config", cfg, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: --reps: paths writes k trajectories; --reps does not apply"]
        assert not out.exists()
        assert main([*argv, "--print-config"]) == 0  # the echo still comes first
        assert json.loads(capsys.readouterr().out)["run"]["n_reps"] == 1

    def test_rate_change_flips_once_in_aggressive_config(self, tmp_path):
        out = tmp_path / "paths.csv"
        cfg = write_config(tmp_path, aggressive_doc(**{"output.path": str(out)}))
        assert main(["paths", "40", "--config", cfg]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        by_rep = {}
        for r in rows:
            by_rep.setdefault(r[0], []).append(int(r[6]))
        transitions = 0
        for flags in by_rep.values():
            assert all(b >= a for a, b in zip(flags, flags[1:]))
            if flags[-1] == 1:
                transitions += 1
        assert transitions > 0

    # `paths 40` on aggressive_doc, pinned when every field of every row was
    # formatted on its own (tests/test_paths_bytes.py keeps that writer); 1001
    # rows per path, so stride 7 ends on an off-stride row.
    @pytest.mark.parametrize("stride", [1, 7])
    def test_pinned_digest(self, tmp_path, stride):
        out = tmp_path / "paths.csv"
        cfg = write_config(tmp_path, aggressive_doc())
        assert main(["paths", "40", "--stride", str(stride), "--config", cfg,
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == V1[f"paths_csv[{stride}]"].value


class TestOutputPath:
    VERBS = {"curve": [], "sweep": ["gamma", "0,0.001"], "paths": ["2"]}

    @pytest.fixture
    def no_engine(self, monkeypatch):
        def engine(*args, **kwargs):
            raise AssertionError("the engine ran before the output path was checked")
        monkeypatch.setattr(shockwear.reliability, "run_replications", engine)
        monkeypatch.setattr(shockwear.reliability, "simulate_sets", engine)
        monkeypatch.setattr(shockwear.cli, "simulate_paths", engine)

    @pytest.mark.parametrize("verb", sorted(VERBS))
    def test_missing_directory_refused_before_engine(self, tmp_path, capsys, no_engine, verb):
        cfg = write_config(tmp_path, valve_doc())
        out = tmp_path / "missing" / "out.csv"
        assert main([verb, *self.VERBS[verb], "--config", cfg, "--out", str(out)]) == 2
        assert "config error: output.path:" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", sorted(VERBS))
    def test_empty_path_refused_before_engine(self, tmp_path, capsys, no_engine, verb):
        cfg = write_config(tmp_path, valve_doc())
        assert main([verb, *self.VERBS[verb], "--config", cfg, "--out", ""]) == 2
        assert "config error: output.path: expected a non-empty string" in capsys.readouterr().err

    def test_directory_as_path_refused_before_engine(self, tmp_path, capsys, no_engine):
        cfg = write_config(tmp_path, valve_doc())
        assert main(["curve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config error: output.path:" in capsys.readouterr().err

    def test_unwritable_directory_refused_before_engine(self, tmp_path, capsys, no_engine,
                                                        monkeypatch):
        cfg = write_config(tmp_path, valve_doc())
        monkeypatch.setattr(shockwear.cli.os, "access", lambda path, mode: False)
        assert main(["curve", "--config", cfg, "--out", str(tmp_path / "c.csv")]) == 2
        assert "is not writable" in capsys.readouterr().err

    def test_open_error_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^output\.path: cannot write"):
            shockwear.cli._write_csv(str(tmp_path / "missing" / "out.csv"), "h", [])

    def test_guard_error_leaves_files_alone(self, tmp_path):
        cfg = write_config(tmp_path, valve_doc(**{"model.lambda0": 50.0}))
        kept, absent = tmp_path / "kept.csv", tmp_path / "absent.csv"
        kept.write_text("earlier output\n")
        assert main(["curve", "--config", cfg, "--out", str(kept)]) == 3
        assert main(["paths", "2", "--config", cfg, "--out", str(absent)]) == 3
        assert kept.read_text() == "earlier output\n"
        assert not absent.exists()


class TestEntryPoint:
    @pytest.mark.parametrize("verb", [["sweep", "gamma", "x"], ["paths", "0"],
                                      ["validate", "--tol", "-1"]])
    def test_print_config_precedes_verb_checks(self, tmp_path, capsys, verb):
        # each verb's own arguments are invalid; --print-config echoes and exits first
        cfg_path = write_config(tmp_path, valve_doc())
        assert main([*verb, "--config", cfg_path, "--print-config"]) == 0
        assert json.loads(capsys.readouterr().out) == config_to_dict(load_config(cfg_path))
        assert main([*verb, "--config", cfg_path]) == 2

    PRINT_CONFIG = {  # SHA-256 of the --print-config echo of each benchmark config and the README's
        "decoupled.json": "c2b714b90553fc812529aed8cea441d927c509ba4cd3fbab1f61be11e3868f72",
        "valve.json": "021b2f18885b91e3cb56857ffdbcb0bcb052f9a02a48bed325b7c20108e66d69",
        "valve_coarse.json": "7767885757975a9401fb3560ad60f6abdc76af1465d7df554788a64a483478c7",
        "README.md": "0395b8ba9a016d3289551251de1c349a199e8d491ab68ec4b94f2500b09bf195",
    }

    @pytest.mark.parametrize("name", sorted(PRINT_CONFIG))
    def test_print_config_pinned_digest(self, tmp_path, capsys, name):
        # the echo's key order and number text are part of its bytes
        path = CONFIGS / name
        if name == "README.md":
            path = tmp_path / "readme.json"
            path.write_text(readme_config_example())
        assert main(["curve", "--config", str(path), "--print-config"]) == 0
        echo = capsys.readouterr().out.encode()
        assert hashlib.sha256(echo).hexdigest() == self.PRINT_CONFIG[name]

    def test_module_invocation(self, tmp_path):
        out = tmp_path / "curve.csv"
        doc = valve_doc(**{"run.n_reps": 200, "output.path": str(out)})
        cfg = write_config(tmp_path, doc)
        proc = subprocess.run(
            [sys.executable, "-m", "shockwear.cli", "curve", "--config", cfg],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_scipy_stays_out(self, tmp_path):
        # scipy.special is most of the start-up time. The gamma CDF of
        # validate's oracle, and the inverse gamma CDF that theta laws and rate
        # changes need, are loaded without it; the first and the last two runs
        # use them. Every run is one block, which runs in this process, so the
        # worker pool's modules stay out too.
        theta = write_config(tmp_path, valve_doc(**{"run.n_reps": 200,
                                                    "model.theta": {"shape": 20.0, "rate": 20.0}}))
        aggressive = write_config(tmp_path, aggressive_doc(), name="aggressive.json")
        script = f"""
import sys
import shockwear.cli
def modules():
    return [m for m in ("scipy", "multiprocessing", "concurrent.futures") if m in sys.modules]
loaded = [modules()]
def run(*argv):
    assert shockwear.cli.main(list(argv)) == 0, argv
    loaded.append(modules())
configs, out = {str(CONFIGS)!r}, {str(tmp_path / "out.csv")!r}
run("validate", "--config", configs + "/decoupled.json", "--reps", "500")
run("curve", "--config", configs + "/valve_coarse.json", "--reps", "500", "--out", out)
run("sweep", "gamma", "0,0.001,0.01", "--config", configs + "/valve_coarse.json",
    "--reps", "500", "--out", out)
run("paths", "5", "--config", configs + "/valve.json", "--out", out)
run("curve", "--config", {theta!r}, "--out", out)
run("paths", "40", "--config", {aggressive!r}, "--out", out)
assert any(line.rstrip().endswith(",1") for line in open(out))  # a rate change
print(loaded)
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == str([[]] * 7)
