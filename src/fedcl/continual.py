"""Client-local continual-learning mechanisms: EWC, EWC-Online, SI and MAS
importance maps with their quadratic penalties, plus the naive-rehearsal
replay buffer and mixed-batch sampler.

Importance maps share the flat parameter layout of nn.MlpModel.params.
Penalties never touch BatchNorm running-statistic slots (they are not
optimized parameters); gamma and beta are included.

Consolidation runs no per-sample or per-minibatch loop. MAS is in closed
form: in eval mode each sample's gradient of a dense weight is the outer
product of its output gradient delta and its input a, and
|outer(delta, a)| = outer(|delta|, |a|), so the importance is
|Delta|^T |A| / N from one eval pass over the shard. The Fisher diagonal
takes all its minibatches in one ``nn.backward`` over a stack of the model,
and the replay buffer keeps its rows in two arrays that grow with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import data as dataio
from . import nn

CL_METHODS = ("none", "ewc", "ewc_online", "si", "mas", "nr")

DEFAULT_LAMBDAS = {"ewc": 100.0, "ewc_online": 100.0, "si": 1.0, "mas": 1.0}


@dataclass
class PenaltyConfig:
    lambda_: float | None = None   # None -> method default
    gamma_online: float = 1.0      # EWC-Online decay; no effect until a third task,
                                   # so EWC-Online equals EWC over FCL's two
    fisher_samples: int = 8        # minibatches sampled for the Fisher diagonal
    xi: float = 0.1                # SI damping
    buffer_capacity: int = 1000    # NR
    mix_ratio: float = 0.5         # NR buffer fraction per batch

    # each message starts with the field's name, which config.py maps to its INI key
    def __post_init__(self):
        if self.lambda_ is not None and not 0.0 <= self.lambda_ < math.inf:  # NaN included
            raise ValueError(f"lambda_ must be finite and >= 0, got {self.lambda_}")
        if not 0.0 < self.gamma_online <= 1.0:
            raise ValueError(f"gamma_online must be in (0, 1], got {self.gamma_online}")
        if self.fisher_samples < 1:
            raise ValueError(f"fisher_samples must be >= 1, got {self.fisher_samples}")
        if not 0.0 < self.xi < math.inf:
            raise ValueError(f"xi must be finite and positive, got {self.xi}")
        if self.buffer_capacity < 1:
            raise ValueError(f"buffer_capacity must be >= 1, got {self.buffer_capacity}")
        if not 0.0 <= self.mix_ratio <= 1.0:
            raise ValueError(f"mix_ratio must be in [0, 1], got {self.mix_ratio}")

    def effective_lambda(self, method: str) -> float:
        if self.lambda_ is not None:
            return self.lambda_
        return DEFAULT_LAMBDAS.get(method, 1.0)


@dataclass
class AnchorParams:
    theta_star: np.ndarray
    task_id: int


# the slots a penalty covers: every optimized slot, so all but the BatchNorm
# running statistics
PENALIZED_MASK = ~nn.running_stat_mask()


def compute_fisher(model: nn.MlpModel, shard: dataio.Dataset, fisher_samples: int,
                   seed: int, batch_size: int = 32) -> np.ndarray:
    """Empirical Fisher diagonal: mean over sampled minibatches of the
    elementwise-squared MSE gradient.

    The gradients are in eval mode: BN running statistics are frozen
    constants, so single-sample shards are well-defined and the model is
    left untouched. All minibatches take one ``nn.backward`` through a stack
    of copies of the model, one per minibatch; model k of a stack computes
    the bits it would compute alone, and the squared rows are summed in
    sample order, so the result equals a per-minibatch loop bit for bit."""
    if len(shard) == 0:
        raise ValueError("cannot compute Fisher on an empty shard")
    if fisher_samples < 1:
        raise ValueError(f"fisher_samples must be >= 1, got {fisher_samples}")
    bs = min(batch_size, len(shard))
    rng = np.random.default_rng([seed, 7])
    idx = np.concatenate([rng.choice(len(shard), size=bs, replace=False)
                          for _ in range(fisher_samples)])
    stack = nn.MlpModel(model.hidden_activation, np.tile(model.params, (fisher_samples, 1)))
    g = nn.backward(stack, shard.features[idx], shard.labels[idx], mode="eval")
    # a reduction over the leading axis adds row after row, like a running total
    fisher = np.add.reduce(g ** 2, axis=0) / fisher_samples
    fisher[~PENALIZED_MASK] = 0.0
    return fisher


def quadratic_penalty(theta: np.ndarray, anchors: list[AnchorParams],
                      importances: list[np.ndarray], lambda_: float) -> tuple[float, np.ndarray]:
    """Sum over (anchor, importance) pairs of (lambda/2) * sum_i I_i (theta_i - theta*_i)^2.

    Shared by EWC (one pair per task), EWC-Online (single running pair),
    SI and MAS (Omega in place of Fisher), and FedProx: its proximal term
    is lambda = mu, the round's global parameters as anchor and an
    importance of 1 on every penalized slot. Returns (value, gradient).

    For a (C, P) stack of parameter vectors, every anchor and importance map
    is stacked the same way (row k belongs to model k), the value is one
    number per row, and ``lambda_`` may be a (C,) array of one weight per
    row."""
    if len(anchors) != len(importances):
        raise ValueError("need one importance map per anchor")
    value = 0.0
    grad = np.zeros_like(theta)
    for anchor, imp in zip(anchors, importances):
        grad += quadratic_penalty_grad(theta, anchor.theta_star, imp, lambda_)
        diff = (theta - anchor.theta_star) * PENALIZED_MASK
        value = value + 0.5 * lambda_ * np.einsum("...i,...i->...", imp * diff, diff)
    return value, grad


def quadratic_penalty_grad(theta: np.ndarray, anchor: np.ndarray, importance: np.ndarray,
                           lambda_: float | np.ndarray) -> np.ndarray:
    """The gradient of one (anchor, importance) pair's quadratic penalty,
    lambda * I * (theta - theta*) on the penalized slots, without its value;
    local training reads only this. Stacks and ``lambda_`` as in
    ``quadratic_penalty``."""
    if anchor.shape != theta.shape or importance.shape != theta.shape:
        raise ValueError("parameter layout mismatch")
    lam = np.asarray(lambda_, dtype=np.float64)[..., None]  # broadcasts over a row
    diff = (theta - anchor) * PENALIZED_MASK
    # summed from zero, as a running total over pairs is: a -0.0 term reads +0.0
    grad = np.zeros_like(theta)
    grad += lam * importance * diff
    return grad


def ewc_online_update(running: np.ndarray | None, new_fisher: np.ndarray,
                      gamma_online: float) -> np.ndarray:
    """running <- gamma * running + new_fisher (running starts at zero)."""
    if running is None:
        return new_fisher.copy()
    if running.shape != new_fisher.shape:
        raise ValueError("importance layout mismatch")
    return gamma_online * running + new_fisher


# ---------------------------------------------------------------------------
# Synaptic Intelligence
# ---------------------------------------------------------------------------

@dataclass
class SiAccumulator:
    theta_at_task_start: np.ndarray
    omega_running: np.ndarray = field(default=None)  # type: ignore[assignment]
    xi: float = 0.1

    def __post_init__(self):
        if self.omega_running is None:
            self.omega_running = np.zeros_like(self.theta_at_task_start)


def si_accumulate(acc: SiAccumulator, grad_before_step: np.ndarray,
                  delta_theta: np.ndarray) -> None:
    """Per-step path-integral update w_i += (-g_i) * dtheta_i, in place, so an
    accumulator whose ``omega_running`` is a view of stacked rows updates them."""
    acc.omega_running += (-grad_before_step) * delta_theta


def si_consolidate(acc: SiAccumulator, theta_end: np.ndarray) -> np.ndarray:
    """Omega_i = max(0, w_i) / ((theta_end - theta_start)^2 + xi); resets the
    accumulator for the next task."""
    drift = theta_end - acc.theta_at_task_start
    omega = np.maximum(acc.omega_running, 0.0) / (drift ** 2 + acc.xi)
    omega[~PENALIZED_MASK] = 0.0
    acc.omega_running = np.zeros_like(theta_end)
    acc.theta_at_task_start = theta_end.copy()
    return omega


# ---------------------------------------------------------------------------
# Memory Aware Synapses
# ---------------------------------------------------------------------------

def mas_importance(model: nn.MlpModel, features: np.ndarray, seed: int) -> np.ndarray:
    """Omega_i = mean over samples of |d ||f(x)||^2_2 / d theta_i|.

    Uses only features (unlabelled by construction), in eval mode, where
    BatchNorm is a fixed per-feature affine map, so no step mixes samples.
    Sample n's gradient of a dense layer's weight is then the outer product
    delta_n a_n^T of its output gradient and its input, and
    |outer(delta, a)| = outer(|delta|, |a|), so the mean over N samples is
    |Delta|^T |A| / N for the (N, .) stacks Delta and A. Gamma's gradient is
    delta_n * xhat_n and a bias's or beta's delta_n, so theirs are column
    means of absolute values. One eval forward over all samples and one
    pass of ``nn.backward``'s chain rule give every stack; ``seed`` is
    unused (the result is deterministic). Running-statistic slots stay 0."""
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if n == 0:
        raise ValueError("cannot compute MAS importance on an empty shard")
    _ = seed
    pred, cache = model._forward_cached(features, "eval")
    dy = 2.0 * pred  # d ||f||^2 / df = 2 f, per sample
    terms, dense = nn._backprop(model, dy, cache)
    omega = np.zeros(nn.PARAM_COUNT)
    for name, (delta, inp) in zip(("out.weight", "lin2.weight", "lin1.weight"), dense):
        omega[nn.slot_slice(name)] = (np.abs(delta).T @ np.abs(inp)).ravel() / n
    # |delta * xhat| = |delta| * |xhat|, so gamma's terms need no second product
    means = nn._two_layer_view(omega, "lin1.bias", 3)
    np.add.reduce(np.abs(terms), axis=2, out=means)
    means /= n
    omega[nn.slot_slice("out.bias")] = np.add.reduce(np.abs(dy), axis=0) / n
    return omega


# ---------------------------------------------------------------------------
# Naive Rehearsal
# ---------------------------------------------------------------------------

class ReplayBuffer:
    """Reservoir-sampled store of previously seen (feature, label) pairs.

    The rows live in two arrays that grow geometrically (doubling, capped
    at ``capacity``) as rows arrive, so a buffer holds about as many rows
    as it has filled rather than ``capacity`` from its first insert; the
    first insert fixes the row shapes. ``features`` and ``labels`` are views
    of the filled rows."""

    def __init__(self, capacity: int, seed: int = 0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._features = self._labels = np.empty((0,))
        self.n_seen = 0
        self._rng = np.random.default_rng([seed, 9])

    def __len__(self) -> int:
        return min(self.n_seen, self.capacity)

    @property
    def features(self) -> np.ndarray:
        return self._features[:len(self)]

    @property
    def labels(self) -> np.ndarray:
        return self._labels[:len(self)]

    def _reserve(self, rows: int, feature: np.ndarray, label: np.ndarray) -> None:
        """Room for ``rows`` (at most ``capacity``) rows shaped like
        ``feature`` and ``label``, keeping the filled rows."""
        held = len(self._features) if self.n_seen else 0
        if rows <= held:
            return
        size = min(self.capacity, max(rows, 2 * held))
        features = np.empty((size,) + feature.shape, dtype=feature.dtype)
        labels = np.empty((size,) + label.shape, dtype=label.dtype)
        if held:
            features[:len(self)] = self.features
            labels[:len(self)] = self.labels
        self._features, self._labels = features, labels

    def add(self, feature: np.ndarray, label: np.ndarray) -> None:
        self._reserve(min(self.n_seen + 1, self.capacity), feature, label)
        self.n_seen += 1
        j = self.n_seen - 1
        if j >= self.capacity:  # full: keep with probability capacity / n_seen
            j = int(self._rng.integers(0, self.n_seen))
        if j < self.capacity:
            self._features[j] = feature
            self._labels[j] = label

    def add_dataset(self, ds: dataio.Dataset) -> None:
        """``add`` of every row in order: the rows that fit under capacity
        are copied in one slice, and only the rest draw from the reservoir."""
        if len(ds) == 0:
            return
        fill = len(self)
        head = min(len(ds), self.capacity - fill)
        self._reserve(fill + head, ds.features[0], ds.labels[0])
        self._features[fill:fill + head] = ds.features[:head]
        self._labels[fill:fill + head] = ds.labels[:head]
        self.n_seen += head
        for i in range(head, len(ds)):
            self.add(ds.features[i], ds.labels[i])

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        return self.rows(rng.integers(0, len(self), size=n))

    def rows(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the stored (features, labels) at positions ``idx``."""
        return self._features[idx], self._labels[idx]


def nr_store(buffer: ReplayBuffer, task_samples: dataio.Dataset) -> ReplayBuffer:
    """Stream a task's samples through the reservoir, drawn from the
    buffer's own RNG stream."""
    buffer.add_dataset(task_samples)
    return buffer


def nr_mixed_indices(buffer: ReplayBuffer, n: int, batch_size: int, mix_ratio: float,
                     seed: int, epoch: int) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """The batches of ``nr_mixed_batches`` for an n-row new shard, as
    (new-shard row indices, buffer positions or None) pairs. The buffer
    positions are the draws ``ReplayBuffer.sample`` would make, in order."""
    if batch_size < 2:
        raise ValueError(f"batch_size must be >= 2, got {batch_size}")
    n_buf = int(np.floor(mix_ratio * batch_size))
    if len(buffer) == 0 or n_buf == 0:
        return [(idx, None) for idx in dataio.minibatch_indices(n, batch_size, seed, epoch)]
    n_new = batch_size - n_buf
    if n_new < 1:
        n_new = 1  # mix_ratio 1.0 still advances through the new shard
    rng = np.random.default_rng([seed, 10, epoch])
    perm = rng.permutation(n)
    return [(perm[pos:pos + n_new], rng.integers(0, len(buffer), size=n_buf))
            for pos in range(0, n, n_new)]


def nr_mixed_batches(buffer: ReplayBuffer, new_shard: dataio.Dataset, batch_size: int,
                     mix_ratio: float, seed: int, epoch: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Batches mixing floor(mix_ratio * batch_size) buffer samples (uniform
    with replacement) with epoch-shuffled new-shard samples, each batch's
    new-shard rows first. Every new-shard sample appears exactly once per
    epoch. An empty buffer degrades to plain minibatches."""
    batches = []
    for new_idx, buffer_idx in nr_mixed_indices(buffer, len(new_shard), batch_size, mix_ratio,
                                                seed, epoch):
        features, labels = new_shard.features[new_idx], new_shard.labels[new_idx]
        if buffer_idx is not None:
            bf, bl = buffer.rows(buffer_idx)
            features, labels = np.concatenate([features, bf]), np.concatenate([labels, bl])
        batches.append((features, labels))
    return batches
