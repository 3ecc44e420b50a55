"""Server-side aggregation strategies and strategy-specific client loss
terms: FedAvg, FedBN, FedProx, FedOpt and the FedDistill teacher machinery.

Aggregation functions are pure; FedOpt carries its server optimizer state
in the Optimizer instance the caller owns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn

STRATEGIES = ("fedavg", "fedbn", "fedprox", "fedopt", "feddistill")


@dataclass
class ClientUpdate:
    client_id: int
    params: np.ndarray  # flat parameter vector after local training
    n_samples: int


@dataclass
class StrategyConfig:
    kind: str = "fedavg"
    mu: float = 0.01                       # FedProx proximal strength
    server_optimizer: str = "adam"         # FedOpt
    server_learning_rate: float = 0.01     # FedOpt
    distill_weight: float = 0.5            # FedDistill
    weighted_aggregation: bool = False     # sample-count weighting, default off

    # each message starts with the field's name, which config.py maps to its INI key
    def __post_init__(self):
        if self.kind not in STRATEGIES:
            raise ValueError(f"kind must be one of {', '.join(STRATEGIES)}, got {self.kind!r}")
        if not 0.0 <= self.mu < math.inf:  # NaN included
            raise ValueError(f"mu must be finite and >= 0, got {self.mu}")
        if self.server_optimizer not in nn.OPTIMIZERS:
            raise ValueError(f"server_optimizer must be one of {', '.join(nn.OPTIMIZERS)}, "
                             f"got {self.server_optimizer!r}")
        if not 0.0 <= self.server_learning_rate < math.inf:
            raise ValueError(f"server_learning_rate must be finite and >= 0, "
                             f"got {self.server_learning_rate}")
        if not 0.0 <= self.distill_weight <= 1.0:
            raise ValueError(f"distill_weight must be in [0, 1], got {self.distill_weight}")


def _check_layouts(updates: list[ClientUpdate]) -> int:
    if not updates:
        raise ValueError("no client updates to aggregate")
    length = updates[0].params.shape[0]
    for u in updates:
        if u.params.shape != (length,):
            raise ValueError(f"client {u.client_id}: parameter layout mismatch")
    return length


def fedavg_aggregate(updates: list[ClientUpdate], weighted: bool = False) -> np.ndarray:
    """Elementwise mean of client parameter vectors (BN slots included)."""
    _check_layouts(updates)
    # consensus fast path, one update included, keeps aggregation bit-exactly idempotent
    if all(np.array_equal(u.params, updates[0].params) for u in updates[1:]):
        return updates[0].params.copy()
    stacked = np.stack([u.params for u in updates])
    if weighted:
        # divide once at the end: scaling each row by w / w.sum() first would
        # round subnormal slots to zero that the plain mean keeps
        w = np.array([u.n_samples for u in updates], dtype=np.float64)
        return (stacked * w[:, None]).sum(axis=0) / w.sum()
    return stacked.mean(axis=0)


@dataclass
class FedBnResult:
    per_client: list[np.ndarray]   # mean on non-BN slots, own BN slots kept
    eval_params: np.ndarray        # mean non-BN slots + client-0 BN slots


def fedbn_aggregate(updates: list[ClientUpdate], bn_mask: np.ndarray,
                    weighted: bool = False) -> FedBnResult:
    """FedAvg on everything except the BatchNorm slots, which stay local.

    Server-side evaluation uses the aggregated non-BN slots with client 0's
    BN slots (the strategy defines no global BN statistics).
    """
    length = _check_layouts(updates)
    if bn_mask.shape != (length,):
        raise ValueError("bn_mask layout mismatch")
    mean = fedavg_aggregate(updates, weighted)
    per_client = []
    for u in updates:
        vec = mean.copy()
        vec[bn_mask] = u.params[bn_mask]
        per_client.append(vec)
    eval_params = mean.copy()
    eval_params[bn_mask] = updates[0].params[bn_mask]
    return FedBnResult(per_client=per_client, eval_params=eval_params)


def fedprox_penalty(omega: np.ndarray, omega_t: np.ndarray, mu: float) -> tuple[float, np.ndarray]:
    """Proximal term (mu/2) * ||omega - omega_t||^2 and its gradient.

    Local training applies its gradient as ``continual.quadratic_penalty_grad``
    with a unit importance on the optimized slots, which equals this gradient
    there."""
    if omega.shape != omega_t.shape:
        raise ValueError("parameter layout mismatch")
    if mu < 0.0:
        raise ValueError("mu must be >= 0")
    diff = omega - omega_t
    return 0.5 * mu * float(diff @ diff), mu * diff


def fedopt_server_step(global_params: np.ndarray, updates: list[ClientUpdate],
                       server_opt: nn.Optimizer, weighted: bool = False) -> np.ndarray:
    """Treat (global - average of updates) as a pseudo-gradient and apply
    the persistent server optimizer to the global parameters."""
    mean = fedavg_aggregate(updates, weighted)
    if global_params.shape != mean.shape:
        raise ValueError("parameter layout mismatch")
    if server_opt.kind == "sgd" and server_opt.learning_rate == 1.0:
        # g - 1.0*(g - mean) is not guaranteed to round back to mean, so the
        # FedAvg-equivalent case returns the mean directly
        server_opt.step_count += 1
        return mean.copy()
    delta = global_params - mean
    return server_opt.step(global_params, delta)


def distill_target(labels: np.ndarray, teacher_pred: np.ndarray,
                   distill_weight: float | np.ndarray) -> np.ndarray:
    """Blended regression target whose MSE gradient equals the gradient of
    (1-w)*MSE(pred, labels) + w*MSE(pred, teacher_pred). ``distill_weight``
    may be an array that broadcasts against the labels, e.g. one weight per
    model of a (C, B, 8) stack of batches."""
    if np.ndim(distill_weight) == 0 and distill_weight == 0.0:
        return labels
    return (1.0 - distill_weight) * labels + distill_weight * teacher_pred
