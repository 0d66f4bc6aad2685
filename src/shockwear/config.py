"""JSON run configuration: parsing, validation and normalized echo.

The model block carries one key per physical quantity (H, D1, D0, alpha1,
alpha2, beta, lambda0, eta, gamma, W, Y, optionally theta); the run block
holds replication count, master seed, evaluation grid, dt and horizon.
Errors name the offending field. ``_object`` reads every JSON object (present,
no unknown key) and ``_value`` every number (present, of the asked type,
finite). Range rules live in the dataclass that holds the value: the model
dataclasses and laws, ``Numerics`` (dt, horizon), ``GridSpec`` (points,
0 <= start <= stop, one point only where start == stop), ``RunSettings``
(n_reps, master_seed), ``OutputSettings`` (path). ``parse_config`` keeps the
rules that span sections (grid stop within the horizon, output.format) and
names the config key a dataclass refuses.
"""

from __future__ import annotations

import json
import re
import sys
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

    def __post_init__(self):
        if self.points < 1:
            raise ConfigError(f"run.grid.points must be >= 1, got {self.points}")
        if self.start < 0.0 or self.stop < self.start:
            raise ConfigError(f"run.grid must satisfy 0 <= start <= stop, "
                              f"got [{self.start}, {self.stop}]")
        if self.points == 1 and self.start < self.stop:
            raise ConfigError(f"run.grid: 1 point holds start={self.start} alone, not "
                              f"stop={self.stop}; use points >= 2 or start == stop")

    def times(self) -> np.ndarray:
        try:
            return np.linspace(self.start, self.stop, self.points)
        except MemoryError:  # 8 bytes per point, allocated before any work
            raise ConfigError(f"run.grid.points={self.points} needs {8 * self.points} bytes of "
                              "grid times, more than can be allocated") from None


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
        if not isinstance(self.path, str) or not self.path:
            raise ConfigError("output.path: expected a non-empty string")


@dataclass(frozen=True)
class RunConfig:
    model: ModelParams
    run: RunSettings
    output: OutputSettings


def _names(cls: type) -> list[str]:
    return [f.name for f in fields(cls)]


def _object(parent: dict, path: str, key: str, accepted) -> dict:
    """``parent[key]``, an object whose keys all lie in ``accepted``. ``path``
    is the dotted path of ``parent``, empty at the top level."""
    where = f"{path}.{key}" if path else key
    if key not in parent:
        raise ConfigError(f"missing field {where}" if path else f"missing section {key!r}")
    obj = parent[key]
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object with {'/'.join(accepted)}")
    for name in obj:
        if name not in accepted:
            name = f"{where}.{name}" if where else name
            raise ConfigError(f"{name}: unknown key; accepted: {', '.join(accepted)}")
    return obj


def _value(parent: dict, path: str, key: str, kind: type):
    """``parent[key]`` as ``kind``: an integer for ``int``; for ``float`` a
    number within float64's finite range (a larger JSON integer is refused)."""
    if key not in parent:
        raise ConfigError(f"missing field {path}.{key}")
    value = parent[key]
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"{path}.{key}: expected {expected}, got {type(value).__name__}")
    if kind is float and not abs(value) <= sys.float_info.max:  # NaN fails <= too
        raise ConfigError(f"{path}.{key}: must be finite, got {value}")
    return kind(value)


def _config_names(message: str) -> str:
    """Rewrite dataclass field names in a validation message
    (``ShockParams.damage_threshold``) as config paths (``model.D0``)."""
    def key(m):
        return f"model.{_KEY_OF_FIELD[m[1]]}" if m[1] in _KEY_OF_FIELD else m[0]
    return re.sub(r"\b[A-Z]\w*\.(\w+)", key, message)


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("top level must be an object")
    doc = _object({"": doc}, "", "", ("model", "run", "output"))  # at the empty path
    model = _object(doc, "", "model", MODEL_KEYS)
    run = _object(doc, "", "run", (*_names(RunSettings), "dt", "horizon"))
    output = _object(doc, "", "output", (*_names(OutputSettings), "format"))

    kwargs: dict[str, dict] = {"degradation": {}, "shock": {}}
    for key, (section, name, law) in MODEL_KEYS.items():
        if law is None:
            kwargs[section][name] = _value(model, "model", key, float)
        elif key != "theta" or model.get(key) is not None:
            law_doc = _object(model, "model", key, _names(law))
            values = [_value(law_doc, f"model.{key}", n, float) for n in _names(law)]
            try:
                kwargs[section][name] = law(*values)
            except ValueError as exc:
                raise ConfigError(f"model.{key}: {exc}") from exc
    try:
        degradation = DegradationParams(**kwargs["degradation"])
        shock = ShockParams(**kwargs["shock"])
    except ValueError as exc:
        raise ConfigError(_config_names(str(exc))) from exc

    n_reps, master_seed = (_value(run, "run", key, int) for key in ("n_reps", "master_seed"))
    dt, horizon = (_value(run, "run", key, float) for key in ("dt", "horizon"))
    try:
        numerics = Numerics(dt=dt, horizon=horizon)
    except ValueError as exc:
        raise ConfigError(f"run.horizon/run.dt: {exc}") from exc
    grid_doc = _object(run, "run", "grid", _names(GridSpec))
    grid = GridSpec(_value(grid_doc, "run.grid", "start", float),
                    _value(grid_doc, "run.grid", "stop", float),
                    _value(grid_doc, "run.grid", "points", int))
    try:
        numerics.steps_ended([grid.stop])
    except ValueError as exc:
        raise ConfigError(f"run.grid.stop ({grid.stop}) must not exceed "
                          f"run.horizon ({horizon})") from exc

    # output.format may be left out; CSV is the only format written
    out_format = output.get("format", "csv")
    if out_format != "csv":
        raise ConfigError(f"output.format: only 'csv' is supported, got {out_format!r}")

    return RunConfig(model=ModelParams(degradation=degradation, shock=shock, numerics=numerics),
                     run=RunSettings(n_reps, master_seed, grid),
                     output=OutputSettings(output.get("path")))


class _Object(dict):
    repeated = ()  # a repeated key, here or in an object below: (*path to its object, key)


def _repeated(value) -> tuple:
    """A decoded JSON value's repeated key; an array's is its first object's."""
    if isinstance(value, list):
        return next(filter(None, map(_repeated, value)), ())
    return getattr(value, "repeated", ())


def _unique_keys(pairs: list) -> _Object:
    """A JSON object's pairs as a dict that records a repeated key, here or
    below, rather than keep the last value; ``load_config`` refuses it."""
    obj = _Object(pairs)
    keys = [key for key, _ in pairs]
    if len(obj) < len(keys):
        obj.repeated = (next(k for k in keys if keys.count(k) > 1),)
    else:
        obj.repeated = next(((k, *r) for k, r in zip(keys, map(_repeated, obj.values())) if r), ())
    return obj


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path} is nested too deeply to read") from exc
    if _repeated(doc):
        *where, key = _repeated(doc)
        raise ConfigError(f"{'.'.join(where) + ': ' if where else ''}duplicate key {key!r} "
                          f"in config {path}")
    return parse_config(doc)


def config_to_dict(cfg: RunConfig) -> dict:
    model = {}
    for key, (section, name, law) in MODEL_KEYS.items():
        value = getattr(getattr(cfg.model, section), name)
        if value is not None:  # only theta may be absent
            model[key] = value if law is None else asdict(value)
    num = cfg.model.numerics
    return {"model": model,
            "run": {**asdict(cfg.run), "dt": num.dt, "horizon": num.horizon},
            "output": {**asdict(cfg.output), "format": "csv"}}


def dump_config(cfg: RunConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=False) + "\n"
