"""Deterministic federated and federated-continual learning benchmark for
multi-output social-appropriateness regression."""

__version__ = "0.1.0"

from .orchestrator import ExperimentConfig, RunResult, run_fcl, run_fl  # noqa: F401
from .strategies import StrategyConfig  # noqa: F401
from .continual import PenaltyConfig  # noqa: F401
