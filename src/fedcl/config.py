"""Benchmark configuration: INI-style key-value files with an optional
sweep section expanded into a cartesian product of experiments.

Schema (all keys optional unless noted; unknown keys are errors):

    [experiment]
    clients = 2                 ; >= 1
    rounds = 10                 ; >= 1
    local_epochs = 1
    batch_size = 32
    seed = 42
    learning_rate = 0.001
    client_optimizer = adam     ; sgd | adam
    strategy = fedavg           ; fedavg | fedbn | fedprox | fedopt | feddistill
    cl_method = none            ; none | ewc | ewc_online | si | mas | nr
    augmentation = false
    augment_sigma = 0.01
    hidden_activation = identity  ; identity | relu
    mu = 0.01                   ; fedprox
    server_optimizer = adam     ; fedopt
    server_learning_rate = 0.01 ; fedopt
    distill_weight = 0.5        ; feddistill
    weighted_aggregation = false
    penalty_lambda =            ; empty -> per-method default
    gamma_online = 1.0
    fisher_samples = 8
    si_xi = 0.1
    buffer_capacity = 1000
    mix_ratio = 0.5
    rounds_per_task =           ; FCL, empty -> rounds

    [sweep]                     ; comma lists, cartesian product
    strategies = fedavg, fedprox
    clients = 2, 10
    augmentation = false, true
    cl_methods = none

    [suite]
    dataset = synthetic         ; or a CSV path
    synthetic_n = 1000
    synthetic_noise = 0.1
"""

from __future__ import annotations

import configparser
import hashlib
import itertools
import json
from dataclasses import dataclass

from .continual import CL_METHODS, PenaltyConfig
from .orchestrator import ExperimentConfig
from .strategies import STRATEGIES, StrategyConfig


class ConfigError(ValueError):
    """Invalid benchmark configuration; message carries the key path."""


_EXPERIMENT_KEYS = {
    "clients": int,
    "rounds": int,
    "local_epochs": int,
    "batch_size": int,
    "seed": int,
    "learning_rate": float,
    "client_optimizer": str,
    "strategy": str,
    "cl_method": str,
    "augmentation": bool,
    "augment_sigma": float,
    "hidden_activation": str,
    "mu": float,
    "server_optimizer": str,
    "server_learning_rate": float,
    "distill_weight": float,
    "weighted_aggregation": bool,
    "penalty_lambda": float,
    "gamma_online": float,
    "fisher_samples": int,
    "si_xi": float,
    "buffer_capacity": int,
    "mix_ratio": float,
    "rounds_per_task": int,
}

_SWEEP_KEYS = {"strategies", "clients", "augmentation", "cl_methods", "seeds"}
_SUITE_KEYS = {"dataset", "synthetic_n", "synthetic_noise"}


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


@dataclass
class SuiteSpec:
    """Dataset source shared by every experiment in the suite."""
    dataset: str = "synthetic"
    synthetic_n: int = 1000
    synthetic_noise: float = 0.1


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
        v = self.values
        strategy = StrategyConfig(
            kind=v["strategy"],
            mu=v["mu"],
            server_optimizer=v["server_optimizer"],
            server_learning_rate=v["server_learning_rate"],
            distill_weight=v["distill_weight"],
            weighted_aggregation=v["weighted_aggregation"],
        )
        penalty = PenaltyConfig(
            lambda_=v["penalty_lambda"],
            gamma_online=v["gamma_online"],
            fisher_samples=v["fisher_samples"],
            xi=v["si_xi"],
            buffer_capacity=v["buffer_capacity"],
            mix_ratio=v["mix_ratio"],
        )
        try:
            return ExperimentConfig(
                n_clients=v["clients"],
                n_rounds=v["rounds"],
                local_epochs=v["local_epochs"],
                batch_size=v["batch_size"],
                seed=v["seed"],
                learning_rate=v["learning_rate"],
                client_optimizer=v["client_optimizer"],
                strategy=strategy,
                cl_method=v["cl_method"],
                penalty=penalty,
                augmentation=v["augmentation"],
                augment_sigma=v["augment_sigma"],
                hidden_activation=v["hidden_activation"],
                rounds_per_task=v["rounds_per_task"],
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass
class BenchmarkSuite:
    experiments: list[ExperimentSpec]
    suite: SuiteSpec


_DEFAULTS = {
    "clients": 2,
    "rounds": 10,
    "local_epochs": 1,
    "batch_size": 32,
    "seed": 42,
    "learning_rate": 1e-3,
    "client_optimizer": "adam",
    "strategy": "fedavg",
    "cl_method": "none",
    "augmentation": False,
    "augment_sigma": 0.01,
    "hidden_activation": "identity",
    "mu": 0.01,
    "server_optimizer": "adam",
    "server_learning_rate": 0.01,
    "distill_weight": 0.5,
    "weighted_aggregation": False,
    "penalty_lambda": None,
    "gamma_online": 1.0,
    "fisher_samples": 8,
    "si_xi": 0.1,
    "buffer_capacity": 1000,
    "mix_ratio": 0.5,
    "rounds_per_task": None,
}


def _validate_choices(values: dict, path: str = "experiment") -> None:
    if values["strategy"] not in STRATEGIES:
        raise ConfigError(f"{path}.strategy: unknown strategy {values['strategy']!r}")
    if values["cl_method"] not in CL_METHODS:
        raise ConfigError(f"{path}.cl_method: unknown cl_method {values['cl_method']!r}")
    if values["clients"] < 1:
        raise ConfigError(f"{path}.clients: must be >= 1, got {values['clients']}")
    if values["rounds"] < 1:
        raise ConfigError(f"{path}.rounds: must be >= 1, got {values['rounds']}")


def parse_config(path: str, seed: int | None = None) -> BenchmarkSuite:
    """Parse and fully validate a benchmark config file. A ``seed`` replaces
    the config's seed and any seeds sweep before duplicates are dropped."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")

    for section in parser.sections():
        if section not in ("experiment", "sweep", "suite"):
            raise ConfigError(f"unknown section [{section}]")

    base = dict(_DEFAULTS)
    if parser.has_section("experiment"):
        for key, raw in parser.items("experiment"):
            if key not in _EXPERIMENT_KEYS:
                raise ConfigError(f"experiment.{key}: unknown key")
            if raw.strip() == "":
                continue
            base[key] = _coerce(raw, _EXPERIMENT_KEYS[key], f"experiment.{key}")

    suite = SuiteSpec()
    if parser.has_section("suite"):
        for key, raw in parser.items("suite"):
            if key not in _SUITE_KEYS:
                raise ConfigError(f"suite.{key}: unknown key")
            if key == "dataset":
                suite.dataset = raw.strip()
            elif key == "synthetic_n":
                suite.synthetic_n = _coerce(raw, int, f"suite.{key}")
            else:
                suite.synthetic_noise = _coerce(raw, float, f"suite.{key}")

    sweeps = {}
    if parser.has_section("sweep"):
        for key, raw in parser.items("sweep"):
            if key not in _SWEEP_KEYS:
                raise ConfigError(f"sweep.{key}: unknown key")
            items = [s.strip() for s in raw.split(",") if s.strip()]
            if not items:
                raise ConfigError(f"sweep.{key}: empty list")
            sweeps[key] = items

    strategies = sweeps.get("strategies", [base["strategy"]])
    clients = [_coerce(c, int, "sweep.clients") if isinstance(c, str) else c
               for c in sweeps.get("clients", [base["clients"]])]
    augmentations = [_parse_bool(a, "sweep.augmentation") if isinstance(a, str) else a
                     for a in sweeps.get("augmentation", [base["augmentation"]])]
    cl_methods = sweeps.get("cl_methods", [base["cl_method"]])
    seeds = [_coerce(s, int, "sweep.seeds") if isinstance(s, str) else s
             for s in sweeps.get("seeds", [base["seed"]])]
    if seed is not None:
        seeds = [seed]

    experiments = []
    for strat, n_cli, aug, method, seed in itertools.product(
            strategies, clients, augmentations, cl_methods, seeds):
        values = dict(base)
        values.update(strategy=strat, clients=n_cli, augmentation=aug,
                      cl_method=method, seed=seed)
        if method != "none":
            values["strategy"] = "fedavg"  # FCL adapts fedavg only
        _validate_choices(values)
        spec = ExperimentSpec(values)
        spec.build()  # surface invalid combinations at parse time
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
