"""JSON run configuration: parsing, validation and normalized echo.

The model block carries one key per physical quantity (H, D1, D0, alpha1,
alpha2, beta, lambda0, eta, gamma, W, Y, optionally theta); the run block
holds replication count, master seed, evaluation grid, dt and horizon.
Validation errors name the offending field. Range rules on model values live
in the model dataclasses; this module checks types and presence, the run and
output blocks, and names the config key when a dataclass rejects a value.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass, fields

import numpy as np

from .degradation import DegradationParams
from .errors import ConfigError
from .kernel import GammaLaw, NormalLaw
from .shocks import ShockParams
from .simulate import ModelParams, Numerics

# JSON model key -> (ModelParams section, dataclass field, law class for object
# values or None for numbers), in the order the normalized config writes them.
MODEL_KEYS = {
    "H": ("degradation", "soft_threshold", None),
    "D1": ("shock", "hard_threshold", None),
    "D0": ("shock", "damage_threshold", None),
    "alpha1": ("degradation", "alpha1", None),
    "alpha2": ("degradation", "alpha2", None),
    "beta": ("degradation", "beta", None),
    "lambda0": ("shock", "lambda0", None),
    "eta": ("shock", "eta", None),
    "gamma": ("shock", "gamma_dep", None),
    "W": ("shock", "magnitude_law", NormalLaw),
    "Y": ("degradation", "jump_law", NormalLaw),
    "theta": ("degradation", "theta_law", GammaLaw),  # optional; absent means theta = 1
}
_KEY_OF_FIELD = {name: key for key, (_, name, _) in MODEL_KEYS.items()}


@dataclass(frozen=True)
class GridSpec:
    start: float
    stop: float
    points: int

    def times(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class RunSettings:
    n_reps: int
    master_seed: int
    grid: GridSpec

    def __post_init__(self):
        if self.n_reps < 1:
            raise ConfigError(f"run.n_reps must be >= 1, got {self.n_reps}")
        if self.master_seed < 0:
            raise ConfigError(f"run.master_seed must be >= 0, got {self.master_seed}")


@dataclass(frozen=True)
class OutputSettings:
    path: str

    def __post_init__(self):
        if not self.path:
            raise ConfigError("output.path: expected a non-empty string")


@dataclass(frozen=True)
class RunConfig:
    model: ModelParams
    run: RunSettings
    output: OutputSettings


def _known_keys(d: dict, path: str, accepted) -> None:
    """Refuse a key of ``d`` outside ``accepted``, naming its dotted path."""
    for key in d:
        if key not in accepted:
            raise ConfigError(f"{path}{key}: unknown key; accepted: {', '.join(accepted)}")


def _section(doc: dict, key: str, accepted) -> dict:
    if key not in doc:
        raise ConfigError(f"missing section {key!r}")
    if not isinstance(doc[key], dict):
        raise ConfigError(f"{key}: expected an object")
    _known_keys(doc[key], f"{key}.", accepted)
    return doc[key]


def _number(d: dict, path: str, key: str) -> float:
    if key not in d:
        raise ConfigError(f"missing field {path}.{key}")
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {type(v).__name__}")
    if not math.isfinite(v):
        raise ConfigError(f"{path}.{key}: must be finite, got {v}")
    return float(v)


def _integer(d: dict, path: str, key: str) -> int:
    if key not in d:
        raise ConfigError(f"missing field {path}.{key}")
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {type(v).__name__}")
    return v


def _law(d: dict, path: str, key: str, law: type):
    if key not in d:
        raise ConfigError(f"missing field {path}.{key}")
    sub = d[key]
    names = [f.name for f in fields(law)]
    if not isinstance(sub, dict):
        raise ConfigError(f"{path}.{key}: expected an object with {'/'.join(names)}")
    _known_keys(sub, f"{path}.{key}.", names)
    values = [_number(sub, f"{path}.{key}", name) for name in names]
    try:
        return law(*values)
    except ValueError as exc:
        raise ConfigError(f"{path}.{key}: {exc}") from exc


def _config_names(message: str) -> str:
    """Rewrite dataclass field names in a validation message
    (``ShockParams.damage_threshold``) as config paths (``model.D0``)."""
    def key(m):
        return f"model.{_KEY_OF_FIELD[m[1]]}" if m[1] in _KEY_OF_FIELD else m[0]
    return re.sub(r"\b[A-Z]\w*\.(\w+)", key, message)


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("top level must be an object")
    _known_keys(doc, "", ("model", "run", "output"))
    model = _section(doc, "model", MODEL_KEYS)
    run = _section(doc, "run", ("n_reps", "master_seed", "grid", "dt", "horizon"))
    output = _section(doc, "output", ("path", "format"))

    kwargs: dict[str, dict] = {"degradation": {}, "shock": {}}
    for key, (section, name, law) in MODEL_KEYS.items():
        if law is None:
            kwargs[section][name] = _number(model, "model", key)
        elif key != "theta" or model.get(key) is not None:
            kwargs[section][name] = _law(model, "model", key, law)
    try:
        degradation = DegradationParams(**kwargs["degradation"])
        shock = ShockParams(**kwargs["shock"])
    except ValueError as exc:
        raise ConfigError(_config_names(str(exc))) from exc

    n_reps = _integer(run, "run", "n_reps")
    master_seed = _integer(run, "run", "master_seed")
    dt = _number(run, "run", "dt")
    horizon = _number(run, "run", "horizon")
    try:
        numerics = Numerics(dt=dt, horizon=horizon)
    except ValueError as exc:
        raise ConfigError(f"run.horizon/run.dt: {exc}") from exc

    grid_doc = run.get("grid")
    if not isinstance(grid_doc, dict):
        raise ConfigError("missing field run.grid (object with start/stop/points)")
    _known_keys(grid_doc, "run.grid.", ("start", "stop", "points"))
    start = _number(grid_doc, "run.grid", "start")
    stop = _number(grid_doc, "run.grid", "stop")
    points = _integer(grid_doc, "run.grid", "points")
    if points < 1:
        raise ConfigError(f"run.grid.points must be >= 1, got {points}")
    if start < 0.0 or stop < start:
        raise ConfigError(f"run.grid must satisfy 0 <= start <= stop, got [{start}, {stop}]")
    try:
        numerics.steps_ended([stop])
    except ValueError as exc:
        raise ConfigError(f"run.grid.stop ({stop}) must not exceed run.horizon ({horizon})") from exc

    out_path = output.get("path")
    if not isinstance(out_path, str):
        raise ConfigError("output.path: expected a non-empty string")
    # output.format may be left out; CSV is the only format written
    out_format = output.get("format", "csv")
    if out_format != "csv":
        raise ConfigError(f"output.format: only 'csv' is supported, got {out_format!r}")

    return RunConfig(
        model=ModelParams(degradation=degradation, shock=shock, numerics=numerics),
        run=RunSettings(n_reps=n_reps, master_seed=master_seed,
                        grid=GridSpec(start, stop, points)),
        output=OutputSettings(path=out_path),
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)


def config_to_dict(cfg: RunConfig) -> dict:
    model = {}
    for key, (section, name, law) in MODEL_KEYS.items():
        value = getattr(getattr(cfg.model, section), name)
        if law is None:
            model[key] = value
        elif value is not None:
            model[key] = asdict(value)
    num = cfg.model.numerics
    return {
        "model": model,
        "run": {
            "n_reps": cfg.run.n_reps,
            "master_seed": cfg.run.master_seed,
            "grid": {"start": cfg.run.grid.start, "stop": cfg.run.grid.stop,
                     "points": cfg.run.grid.points},
            "dt": num.dt,
            "horizon": num.horizon,
        },
        "output": {"path": cfg.output.path, "format": "csv"},
    }


def dump_config(cfg: RunConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=False) + "\n"
