"""Benchmark configuration: INI-style key-value files with an optional
sweep section expanded into a cartesian product of experiments.

Schema (all keys optional; unknown keys are errors; an empty value keeps
the default; out-of-range values are rejected naming the key):

    [experiment]
    clients = 2
    rounds = 10
    local_epochs = 1
    batch_size = 32
    seed = 42
    learning_rate = 0.001
    client_optimizer = adam     ; sgd | adam
    strategy = fedavg           ; fedavg | fedbn | fedprox | fedopt | feddistill
    mu = 0.01                   ; fedprox
    server_optimizer = adam     ; fedopt: sgd | adam
    server_learning_rate = 0.01 ; fedopt
    distill_weight = 0.5        ; feddistill
    weighted_aggregation = false
    cl_method = none            ; none | ewc | ewc_online | si | mas | nr
    penalty_lambda =            ; empty -> per-method default
    gamma_online = 1.0
    fisher_samples = 8
    si_xi = 0.1
    buffer_capacity = 1000
    mix_ratio = 0.5
    augmentation = false
    augment_sigma = 0.01
    hidden_activation = identity  ; identity | relu
    rounds_per_task =           ; FCL, empty -> rounds

    [sweep]                     ; comma lists, cartesian product
    strategies = fedavg, fedprox
    clients = 2, 10
    augmentation = false, true
    cl_methods = none
    seeds = 42

    [suite]
    dataset = synthetic         ; or a CSV path
    synthetic_n = 1000
    synthetic_noise = 0.1

The ``[experiment]`` keys are the fields of ``ExperimentConfig`` and of the
``StrategyConfig`` and ``PenaltyConfig`` nested in it, and the ``[suite]``
keys those of ``SuiteSpec``: each key's name, type and default is declared
once, on its dataclass field, and each range check once, in that
dataclass.
"""

from __future__ import annotations

import configparser
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import typing
from dataclasses import dataclass

from .orchestrator import ExperimentConfig


class ConfigError(ValueError):
    """Invalid benchmark configuration; message carries the key path."""


@dataclass
class SuiteSpec:
    """Dataset source shared by every experiment in the suite."""
    dataset: str = "synthetic"
    synthetic_n: int = 1000
    synthetic_noise: float = 0.1

    def __post_init__(self):
        if self.synthetic_n < 1:
            raise ValueError(f"synthetic_n must be >= 1, got {self.synthetic_n}")
        if not 0.0 <= self.synthetic_noise < math.inf:  # NaN included
            raise ValueError(f"synthetic_noise must be finite and >= 0, "
                             f"got {self.synthetic_noise}")


_hints = functools.cache(typing.get_type_hints)


def _fields(cls, prefix: str = ""):
    """(dotted path, type, default) of every field of a config dataclass,
    walking into the config dataclasses nested in it; ``X | None`` gives X."""
    for f in dataclasses.fields(cls):
        typ = _hints(cls)[f.name]
        if dataclasses.is_dataclass(typ):
            yield from _fields(typ, f"{prefix}{f.name}.")
        else:
            typ = next(t for t in typing.get_args(typ) or (typ,) if t is not type(None))
            yield prefix + f.name, typ, f.default


def _instantiate(cls, by_path: dict, prefix: str = ""):
    """``cls`` with every field taken from ``by_path``, keyed as ``_fields``."""
    kwargs = {}
    for f in dataclasses.fields(cls):
        typ = _hints(cls)[f.name]
        kwargs[f.name] = (_instantiate(typ, by_path, f"{prefix}{f.name}.")
                          if dataclasses.is_dataclass(typ) else by_path[prefix + f.name])
    return cls(**kwargs)


# the INI names of the fields whose name differs; every other key is the
# field's own name, also in a nested config
_RENAMED = {"clients": "n_clients", "rounds": "n_rounds", "strategy": "strategy.kind",
            "penalty_lambda": "penalty.lambda_", "si_xi": "penalty.xi"}
_KEY_OF_PATH = {path: key for key, path in _RENAMED.items()}

# [experiment] key -> (field path, type, default)
EXPERIMENT_SCHEMA = {_KEY_OF_PATH.get(path, path.rpartition(".")[2]): (path, typ, default)
                     for path, typ, default in _fields(ExperimentConfig)}
SUITE_SCHEMA = {path: (path, typ, default) for path, typ, default in _fields(SuiteSpec)}

# each [sweep] list and the [experiment] key it sweeps, in product order
_SWEEPS = {"strategies": "strategy", "clients": "clients", "augmentation": "augmentation",
           "cl_methods": "cl_method", "seeds": "seed"}


def _parse_bool(raw: str, path: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{path}: expected a boolean, got {raw!r}")


def _coerce(raw: str, typ, path: str):
    raw = raw.strip()
    if typ is bool:
        return _parse_bool(raw, path)
    try:
        return typ(raw)
    except ValueError:
        raise ConfigError(f"{path}: expected {typ.__name__}, got {raw!r}") from None


def _build(cls, schema: dict, values: dict, section: str):
    """``cls`` from INI ``values``; a dataclass check's ``ValueError``, whose
    message starts with a field's name, becomes a ``ConfigError`` naming the
    INI key of that field (field names are unique across the nested
    configs)."""
    try:
        return _instantiate(cls, {path: values[key] for key, (path, _, _) in schema.items()})
    except ValueError as exc:
        name, _, problem = str(exc).partition(" ")
        keys = {path.rpartition(".")[2]: key for key, (path, _, _) in schema.items()}
        if name in keys:
            raise ConfigError(f"{section}.{keys[name]}: {problem}") from exc
        raise ConfigError(f"{section}: {exc}") from exc


@dataclass
class ExperimentSpec:
    """Flat, hashable view of one experiment; builds the runtime config."""
    values: dict

    def run_id(self) -> str:
        blob = json.dumps(self.values, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    @property
    def is_fcl(self) -> bool:
        return self.values["cl_method"] != "none"

    def build(self) -> ExperimentConfig:
        return _build(ExperimentConfig, EXPERIMENT_SCHEMA, self.values, "experiment")


@dataclass
class BenchmarkSuite:
    experiments: list[ExperimentSpec]
    suite: SuiteSpec


def _read_section(parser: configparser.ConfigParser, section: str, schema: dict) -> dict:
    """The section's defaults, overridden by its non-empty values."""
    values = {key: default for key, (_, _, default) in schema.items()}
    if parser.has_section(section):
        for key, raw in parser.items(section):
            if key not in schema:
                raise ConfigError(f"{section}.{key}: unknown key")
            if raw.strip():
                values[key] = _coerce(raw, schema[key][1], f"{section}.{key}")
    return values


def parse_config(path: str, seed: int | None = None) -> BenchmarkSuite:
    """Parse and fully validate a benchmark config file, read as UTF-8 with
    values taken literally (a ``%`` is a plain character). A ``seed``
    replaces the config's seed and any seeds sweep before duplicates are
    dropped."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")

    for section in parser.sections():
        if section not in ("experiment", "sweep", "suite"):
            raise ConfigError(f"unknown section [{section}]")

    base = _read_section(parser, "experiment", EXPERIMENT_SCHEMA)
    suite = _build(SuiteSpec, SUITE_SCHEMA, _read_section(parser, "suite", SUITE_SCHEMA), "suite")

    axes = {key: [base[key]] for key in _SWEEPS.values()}
    if parser.has_section("sweep"):
        for name, raw in parser.items("sweep"):
            if name not in _SWEEPS:
                raise ConfigError(f"sweep.{name}: unknown key")
            typ = EXPERIMENT_SCHEMA[_SWEEPS[name]][1]
            items = [_coerce(s, typ, f"sweep.{name}") for s in raw.split(",") if s.strip()]
            if not items:
                raise ConfigError(f"sweep.{name}: empty list")
            axes[_SWEEPS[name]] = items
    if seed is not None:
        axes["seed"] = [seed]

    experiments = []
    for combo in itertools.product(*axes.values()):
        values = dict(base, **dict(zip(axes, combo)))
        if values["cl_method"] != "none":
            values["strategy"] = "fedavg"  # FCL adapts fedavg only
        spec = ExperimentSpec(values)
        spec.build()  # surface invalid values and combinations at parse time
        experiments.append(spec)

    # sweeping cl_methods with a strategies sweep can produce duplicates
    # (every FCL method is forced onto fedavg), as can a seed override;
    # keep first occurrence
    seen = set()
    unique = []
    for spec in experiments:
        rid = spec.run_id()
        if rid not in seen:
            seen.add(rid)
            unique.append(spec)
    return BenchmarkSuite(unique, suite)
