"""Minimal differentiable network core: dense layers, batch normalization,
MSE loss, hand-derived reverse-mode gradients and SGD/Adam optimizers.

Every model parameter lives in one float64 vector, ``MlpModel.params``, laid
out by ``LAYOUT``; each layer's arrays are reshaped views into it. The
aggregation and regularization code works on that vector directly, so every
write to a layer array happens in place.

An ``MlpModel`` can also hold a stack of C models of the same topology:
``params`` is then (C, P), every layer array gains a leading C axis, and
forward, backward and the optimizer step all C models with one call each.
The layer code is written once over that optional leading axis: matmuls are
``np.matmul`` over the trailing two axes and batch reductions run over axis
-2, so a single model is the no-axis case and model k of a stack computes
exactly the bits it would compute alone.

A training step is dominated by numpy's per-call overhead, not by
arithmetic, so the step code makes as few calls as it can while keeping
each element's ufunc sequence, and so every bit:

- Writes in place. The train-mode BatchNorm forward and backward compute
  into their own temporaries; both layers' batch statistics go into one
  array and update the running statistics with one pass over a strided view
  of both layers' slots (``_two_layer_view``). ``backward`` overwrites the
  forward's prediction with the output gradient, writes each weight
  gradient with ``np.matmul(out=...)`` and every hidden bias and BatchNorm
  gradient with one ``np.add.reduce(out=...)`` over ``_backprop``'s terms.
  ``Optimizer.step(out=params)`` steps the parameters in place. Eval-mode
  ``MlpModel.forward`` computes each layer over the previous one's output
  and keeps no backward cache.
- Reuses buffers. Each model keeps the gradient vector ``backward`` writes
  (``MlpModel._gradient``) and the view of its running statistics;
  ``backward`` returns a copy, so a caller never sees the buffer.
- Aliasing. A model's layer arrays, running-statistic view and a stack's
  row views alias ``params``; ``Optimizer.rows`` views alias the stacked
  optimizer's state. ``backward`` writes neither its batch nor its target,
  and ``BatchNormLayer.forward``/``backward`` write neither their input
  nor ``dy``; ``BatchNormLayer.transform`` and ``step(out=...)`` write
  over their argument by design.

The architecture is fixed: 29 -> 16 -> 16 -> 8 with a BatchNorm layer after
each hidden dense layer. Hidden activation is identity by default (a config
switch enables ReLU). All math is float64 so finite-difference checks and
bitwise reproducibility are meaningful.
"""

from __future__ import annotations

import numpy as np

IN_DIM = 29
HIDDEN_DIM = 16
OUT_DIM = 8

BN_EPSILON = 1e-5
BN_MOMENTUM = 0.1

HIDDEN_ACTIVATIONS = ("identity", "relu")
OPTIMIZERS = ("sgd", "adam")


class LinearLayer:
    """Dense layer y = x @ W.T + b with weight shape (out, in). A stack of C
    layers has weight (C, out, in) and bias (C, 1, out), and maps a
    (C, B, in) batch. ``arrays`` binds the layer to existing (weight, bias)
    arrays instead of fresh zeros."""

    def __init__(self, in_dim: int, out_dim: int, arrays: tuple | None = None):
        self.in_dim = in_dim
        self.out_dim = out_dim
        if arrays is None:
            arrays = (np.zeros((out_dim, in_dim), dtype=np.float64),
                      np.zeros(out_dim, dtype=np.float64))
        self.weight, self.bias = arrays

    def init_uniform(self, rng: np.random.Generator) -> None:
        # uniform in +-1/sqrt(fan_in)
        bound = 1.0 / np.sqrt(self.in_dim)
        self.weight[...] = rng.uniform(-bound, bound, size=(self.out_dim, self.in_dim))
        self.bias[...] = rng.uniform(-bound, bound, size=self.out_dim)

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = x @ self.weight.swapaxes(-1, -2)
        y += self.bias
        return y


class BatchNormLayer:
    """1-d batch normalization over the batch axis.

    Train mode normalizes with batch statistics and updates the running
    statistics as running <- (1 - momentum) * running + momentum * batch.
    Eval mode uses the running statistics only. A stack of C layers holds
    its per-feature vectors as (C, 1, dim), so that they broadcast over each
    layer's own batch of a (C, B, dim) input; statistics reduce over axis -2.
    ``arrays`` binds the layer to existing (gamma, beta, running_mean,
    running_var) arrays instead of a fresh identity transform.
    """

    def __init__(self, dim: int, momentum: float = BN_MOMENTUM, epsilon: float = BN_EPSILON,
                 arrays: tuple | None = None):
        if not 0.0 < momentum < 1.0:
            raise ValueError(f"momentum must be in (0, 1), got {momentum}")
        if epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.dim = dim
        self.momentum = momentum
        self.epsilon = epsilon
        if arrays is None:
            arrays = (np.ones(dim, dtype=np.float64), np.zeros(dim, dtype=np.float64),
                      np.zeros(dim, dtype=np.float64), np.ones(dim, dtype=np.float64))
        self.gamma, self.beta, self.running_mean, self.running_var = arrays

    def reset(self) -> None:
        """Identity transform and fresh running statistics, written in place."""
        self.gamma[...] = 1.0
        self.beta[...] = 0.0
        self.running_mean[...] = 0.0
        self.running_var[...] = 1.0

    def forward(self, x: np.ndarray, train: bool, stats: np.ndarray | None = None):
        """Returns (y, cache); cache records which normalization was used.
        ``x`` is not written to.

        In train mode the batch mean and variance are written to
        ``stats[0]`` and ``stats[1]``. When ``stats`` is given, the caller
        updates the running statistics from it (``MlpModel`` does both of
        its layers at once); else the layer updates its own."""
        if not train:
            std = np.sqrt(self.running_var + self.epsilon)
            xhat = x - self.running_mean
            xhat /= std
            y = self.gamma * xhat
            y += self.beta
            return y, ("eval", xhat, std)
        n = float(x.shape[-2])  # a float divisor skips the int conversion, same bits
        if n < 2:
            raise ValueError("batch normalization in train mode needs a batch of at least 2")
        # the ufunc sequence of x.mean(axis=0) and x.var(axis=0), without
        # their wrapper overhead; the results are bit-identical
        stacked = x.ndim == 3
        own = stats is None
        if own:
            stats = np.empty((2,) + self.running_mean.shape)
        mean, var = stats[0], stats[1]
        np.add.reduce(x, axis=-2, keepdims=stacked, out=mean)
        mean /= n
        xhat = x - mean
        y = xhat * xhat  # scratch for the variance, then the output
        np.add.reduce(y, axis=-2, keepdims=stacked, out=var)
        var /= n
        std = var + self.epsilon
        np.sqrt(std, out=std)
        xhat /= std
        if own:
            _update_running(self.running_mean, mean, self.momentum)
            _update_running(self.running_var, var, self.momentum)
        np.multiply(self.gamma, xhat, out=y)
        y += self.beta
        return y, ("train", xhat, std)

    def transform(self, x: np.ndarray) -> np.ndarray:
        """The eval-mode output for ``x``, written over ``x``; keeps nothing
        for a backward pass. The same ufuncs, in the same order, as
        ``forward`` in eval mode."""
        x -= self.running_mean
        x /= np.sqrt(self.running_var + self.epsilon)
        x *= self.gamma
        x += self.beta
        return x

    def backward(self, dy: np.ndarray, cache, out: np.ndarray | None = None) -> np.ndarray:
        """The input gradient dx, written to ``out`` when it is given;
        ``dy`` is not written to. (The parameter gradients are batch sums of
        dy * xhat for gamma and of dy for beta; module-level ``backward``
        forms them.) In eval mode the running statistics are constants, so
        dx is a plain elementwise rescale, row by row."""
        kind, xhat, std = cache
        if kind == "eval":
            dx = np.multiply(dy, self.gamma, out=out)
            dx /= std
            return dx
        # (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) / std, in place,
        # with both means from one reduction
        pair = np.empty((2,) + dy.shape)
        dxhat, scratch = pair[0], pair[1]
        np.multiply(dy, self.gamma, out=dxhat)
        np.multiply(dxhat, xhat, out=scratch)
        means = np.add.reduce(pair, axis=-2, keepdims=True)
        means /= float(dy.shape[-2])
        dx = np.subtract(dxhat, means[0], out=out)
        np.multiply(xhat, means[1], out=scratch)
        dx -= scratch
        dx /= std
        return dx


def _update_running(running: np.ndarray, batch: np.ndarray, momentum: float) -> None:
    """running <- (1 - momentum) * running + momentum * batch, in place and
    rounded in that order; ``batch`` is overwritten."""
    running *= 1.0 - momentum
    batch *= momentum
    running += batch


class MlpModel:
    """Fixed-topology regressor: Linear(29,16) BN Linear(16,16) BN Linear(16,8).

    ``params`` is the single store of every parameter (``LAYOUT`` order);
    the layer arrays are views into it, bound once here. Write to it in
    place (``params[...] = v``); rebinding it detaches the layers.

    Passing ``params`` binds the model to an existing float64 array instead
    of fresh storage, without changing its values: a (P,) array is one
    model, a (C, P) array a stack of C models (row k is model k), and a
    view of rows of a larger stack steps those rows in place. The layer
    arrays of a stack gain a leading C axis; its per-feature vectors (biases
    and BatchNorm vectors) are (C, 1, dim), to broadcast over each model's
    batch."""

    def __init__(self, hidden_activation: str = "identity", params: np.ndarray | None = None):
        if hidden_activation not in HIDDEN_ACTIVATIONS:
            raise ValueError(f"unknown hidden activation {hidden_activation!r}")
        fresh = params is None
        if fresh:
            params = np.zeros(PARAM_COUNT, dtype=np.float64)
        elif (params.dtype != np.float64 or params.ndim not in (1, 2)
              or params.shape[-1] != PARAM_COUNT):
            raise ValueError(f"expected float64 parameters of shape ({PARAM_COUNT},) or "
                             f"(C, {PARAM_COUNT}), got {params.dtype} {params.shape}")
        self.hidden_activation = hidden_activation
        self.params = params
        lead = params.shape[:-1]
        views = {layer: tuple(params[..., slots].reshape(lead + stacked_shape if lead else shape)
                              for slots, shape, stacked_shape in bindings)
                 for layer, bindings in _BINDINGS.items()}
        self.lin1 = LinearLayer(IN_DIM, HIDDEN_DIM, views["lin1"])
        self.bn1 = BatchNormLayer(HIDDEN_DIM, arrays=views["bn1"])
        self.lin2 = LinearLayer(HIDDEN_DIM, HIDDEN_DIM, views["lin2"])
        self.bn2 = BatchNormLayer(HIDDEN_DIM, arrays=views["bn2"])
        self.out = LinearLayer(HIDDEN_DIM, OUT_DIM, views["out"])
        if fresh:  # the layers' initial values: zero linear layers, identity BatchNorm
            self.bn1.reset()
            self.bn2.reset()
        # (layer, mean or variance) + the shape of one batch statistic
        self._stats_shape = (2, 2) + self.bn1.running_mean.shape
        self._running = None  # both layers' running statistics as one view, on first use
        self._grad = None     # backward's gradient vector and its block views, on first use

    def init_params(self, rng: np.random.Generator) -> None:
        self.lin1.init_uniform(rng)
        self.lin2.init_uniform(rng)
        self.out.init_uniform(rng)
        self.bn1.reset()
        self.bn2.reset()

    def _activate(self, h: np.ndarray) -> np.ndarray:
        """The hidden activation, written over ``h``."""
        if self.hidden_activation == "relu":
            np.maximum(h, 0.0, out=h)
        return h

    def forward(self, batch: np.ndarray, mode: str = "eval") -> np.ndarray:
        """Predictions for a (B, 29) batch; for a stack of C models, a
        client-major (C*B, 29) batch gives client-major (C*B, 8) predictions.
        Eval mode keeps nothing for a backward pass: each layer's output is
        computed over the previous one in place."""
        if mode == "train":
            y, _ = self._forward_cached(batch, mode)
            return y.reshape(-1, OUT_DIM)
        x = self._batch(batch, mode)
        h = self._activate(self.bn1.transform(self.lin1.forward(x)))
        h = self._activate(self.bn2.transform(self.lin2.forward(h)))
        return self.out.forward(h).reshape(-1, OUT_DIM)

    def _batch(self, batch: np.ndarray, mode: str) -> np.ndarray:
        """The checked batch; a stack of C models splits a client-major
        batch into (C, B, 29)."""
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim != 2 or batch.shape[1] != IN_DIM:
            raise ValueError(f"expected batch of shape (B, {IN_DIM}), got {batch.shape}")
        if batch.shape[0] < 1:
            raise ValueError("empty batch")
        if self.params.ndim == 2:
            n_models = self.params.shape[0]
            if batch.shape[0] % n_models:
                raise ValueError(f"a stack of {n_models} models needs a client-major batch "
                                 f"of a multiple of {n_models} rows, got {batch.shape[0]}")
            batch = batch.reshape(n_models, -1, IN_DIM)
        return batch

    def _forward_cached(self, batch: np.ndarray, mode: str):
        """Forward pass keeping what backward needs, as the tuple
        (input, BatchNorm 1 cache, activation 1, BatchNorm 2 cache,
        activation 2); a stack of C models splits the client-major batch
        into (C, B, 29) and returns (C, B, 8). Train mode then updates both
        BatchNorm layers' running statistics with one pass over them (the
        model's layers use the default ``BN_MOMENTUM``)."""
        x = self._batch(batch, mode)
        train = mode == "train"
        stats = np.empty(self._stats_shape) if train else (None, None)
        b1, bn1 = self.bn1.forward(self.lin1.forward(x), train, stats[0])
        a1 = self._activate(b1)
        b2, bn2 = self.bn2.forward(self.lin2.forward(a1), train, stats[1])
        a2 = self._activate(b2)
        y = self.out.forward(a2)
        if train:
            if self._running is None:
                self._running = _two_layer_view(self.params, "bn1.running_mean", 2,
                                                self.params.ndim == 2)
            _update_running(self._running, stats, BN_MOMENTUM)
        return y, (x, bn1, a1, bn2, a2)

    def _gradient(self) -> tuple:
        """The vector ``backward`` writes this model's gradient into, and
        its views: the dense weights (output layer first), every hidden bias
        and BatchNorm block (``_backprop``'s terms, summed), and the output
        bias. It is reused by every call; the running-statistic slots stay
        zero."""
        if self._grad is None:
            grad = np.zeros(self.params.shape, dtype=np.float64)
            lead = grad.shape[:-1]
            weights = [grad[..., slot_slice(name)].reshape(lead + OFFSETS[name][2])
                       for name in ("out.weight", "lin2.weight", "lin1.weight")]
            self._grad = (grad, weights, _two_layer_view(grad, "lin1.bias", 3, False),
                          grad[..., slot_slice("out.bias")])
        return self._grad

    def clone(self) -> "MlpModel":
        return MlpModel(self.hidden_activation, self.params.copy())


# ---------------------------------------------------------------------------
# Flat parameter layout
# ---------------------------------------------------------------------------

LAYOUT: list[tuple[str, tuple[int, ...]]] = [
    ("lin1.weight", (HIDDEN_DIM, IN_DIM)),
    ("lin1.bias", (HIDDEN_DIM,)),
    ("bn1.gamma", (HIDDEN_DIM,)),
    ("bn1.beta", (HIDDEN_DIM,)),
    ("bn1.running_mean", (HIDDEN_DIM,)),
    ("bn1.running_var", (HIDDEN_DIM,)),
    ("lin2.weight", (HIDDEN_DIM, HIDDEN_DIM)),
    ("lin2.bias", (HIDDEN_DIM,)),
    ("bn2.gamma", (HIDDEN_DIM,)),
    ("bn2.beta", (HIDDEN_DIM,)),
    ("bn2.running_mean", (HIDDEN_DIM,)),
    ("bn2.running_var", (HIDDEN_DIM,)),
    ("out.weight", (OUT_DIM, HIDDEN_DIM)),
    ("out.bias", (OUT_DIM,)),
]


def _build_offsets():
    offsets = {}
    pos = 0
    for name, shape in LAYOUT:
        size = int(np.prod(shape))
        offsets[name] = (pos, pos + size, shape)
        pos += size
    return offsets, pos


OFFSETS, PARAM_COUNT = _build_offsets()

def _build_bindings():
    """layer -> its (slots, shape, shape in a stack) in LAYOUT order, which is
    the order of the layer constructors' ``arrays``: how MlpModel binds the
    layer arrays to its parameters. A stack's per-feature vectors get a
    broadcast axis for the batch."""
    bindings = {}
    for name, (start, stop, shape) in OFFSETS.items():
        bindings.setdefault(name.split(".")[0], []).append(
            (slice(start, stop), shape, (1,) + shape if len(shape) == 1 else shape))
    return bindings


_BINDINGS = _build_bindings()


def slot_slice(name: str) -> slice:
    start, stop, _ = OFFSETS[name]
    return slice(start, stop)


def bn_mask() -> np.ndarray:
    """Boolean vector marking every BatchNorm slot (gamma, beta, running stats)."""
    mask = np.zeros(PARAM_COUNT, dtype=bool)
    for name in OFFSETS:
        if name.startswith("bn"):
            mask[slot_slice(name)] = True
    return mask


def running_stat_mask() -> np.ndarray:
    """Boolean vector marking only the running mean/var slots (not optimized)."""
    mask = np.zeros(PARAM_COUNT, dtype=bool)
    for name in OFFSETS:
        if "running" in name:
            mask[slot_slice(name)] = True
    return mask


def extract_params(model: MlpModel) -> np.ndarray:
    """A copy of the model's parameter vector (including BN running stats)."""
    return model.params.copy()


def inject_params(model: MlpModel, vec: np.ndarray) -> None:
    """Copy a flat parameter vector into the model's parameter vector."""
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape != (PARAM_COUNT,):
        raise ValueError(f"expected parameter vector of length {PARAM_COUNT}, got shape {vec.shape}")
    model.params[...] = vec


# Both hidden layers lay out their bias and BatchNorm vectors alike, this
# many slots apart
_LAYER_GAP = OFFSETS["lin2.bias"][0] - OFFSETS["lin1.bias"][0]


def _two_layer_view(arr: np.ndarray, first: str, count: int, batch_axis: bool) -> np.ndarray:
    """The ``count`` consecutive ``HIDDEN_DIM``-slot vectors of hidden layer
    1 that start at slot ``first``, and the same vectors of hidden layer 2,
    as one writable view of ``arr`` (a parameter or gradient vector or
    stack), shaped (layer, vector) + (C,) for a stack + (1,) with
    ``batch_axis`` + (HIDDEN_DIM,)."""
    item = arr.itemsize
    shape, strides = (2, count), (_LAYER_GAP * item, HIDDEN_DIM * item)
    if arr.ndim == 2:
        shape, strides = shape + arr.shape[:1], strides + arr.strides[:1]
    if batch_axis:
        shape, strides = shape + (1,), strides + (0,)
    return np.lib.stride_tricks.as_strided(arr[..., OFFSETS[first][0]:], shape + (HIDDEN_DIM,),
                                           strides + (item,))

# ---------------------------------------------------------------------------
# Loss and gradients
# ---------------------------------------------------------------------------

def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error averaged over the batch then over the 8 actions.

    Returns (scalar, per_action) where per_action[a] is the batch-mean
    squared error for action a and scalar is the mean of per_action.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")
    per_action = ((pred - target) ** 2).mean(axis=0)
    return float(per_action.mean()), per_action


def _backprop(model: MlpModel, dy: np.ndarray, cache) -> tuple[np.ndarray, list]:
    """The chain rule of ``backward``: from the gradient ``dy`` at the
    model's output and the forward ``cache``, the per-sample terms of every
    parameter gradient but the output bias's (the batch sum of ``dy``).

    Returns (terms, dense). ``terms`` holds, per hidden layer (axis 0), the
    gradient at the dense layer's output, that at the BatchNorm output
    times xhat, and that at the BatchNorm output (axis 1), each a
    contiguous batch-shaped array: their batch sums are the gradients of
    the layer's bias, gamma and beta, the order of ``LAYOUT``. ``dense`` is
    (delta, input) per dense layer, output layer first: its weight gradient
    is delta^T @ input.

    Row i of every term and input belongs to sample i. In eval mode no step
    mixes rows, so one sample's gradient is built from its rows alone
    (``continual.mas_importance`` relies on this)."""
    x, bn1, a1, bn2, a2 = cache
    relu = model.hidden_activation == "relu"
    terms = np.empty((2, 3) + dy.shape[:-1] + (HIDDEN_DIM,))
    dh1, dg1, db1, dh2, dg2, db2 = terms[0, 0], terms[0, 1], terms[0, 2], terms[1, 0], \
        terms[1, 1], terms[1, 2]
    np.matmul(dy, model.out.weight, out=db2)
    if relu:  # a2 > 0 exactly where the BatchNorm output was
        db2 *= a2 > 0.0
    np.multiply(db2, bn2[1], out=dg2)
    model.bn2.backward(db2, bn2, out=dh2)
    np.matmul(dh2, model.lin2.weight, out=db1)
    if relu:
        db1 *= a1 > 0.0
    np.multiply(db1, bn1[1], out=dg1)
    model.bn1.backward(db1, bn1, out=dh1)
    return terms, [(dy, a2), (dh2, a1), (dh1, x)]


def backward(model: MlpModel, batch: np.ndarray, target: np.ndarray,
             extra_penalty_grad: np.ndarray | None = None,
             mode: str = "train") -> np.ndarray:
    """Exact reverse-mode gradient of mse_loss (plus an optional pre-computed
    penalty gradient in parameter space) w.r.t. every parameter slot.

    In train mode the forward updates BN running statistics, as a training
    step would; eval mode treats them as constants (used by importance-map
    computation). Running-statistic slots receive zero gradient either way.

    For a stack of C models, ``batch`` is client-major (C*B, 29) and
    ``target`` (C*B, 8): rows k*B to (k+1)*B - 1 belong to model k, whose
    loss is averaged over its own B rows. The gradient then has the shape of
    ``model.params``, (C, P), as does ``extra_penalty_grad``. The result is
    a new array; ``batch`` and ``target`` are not written to.
    """
    target = np.asarray(target, dtype=np.float64)
    dy, cache = model._forward_cached(batch, mode)
    if target.shape != (dy.size // OUT_DIM, OUT_DIM):
        raise ValueError(f"shape mismatch: pred {dy.shape} vs target {target.shape}")
    n, width = dy.shape[-2:]
    dy -= target.reshape(dy.shape)  # then 2 * dy / (n * width), in place
    dy *= 2.0
    dy /= float(n * width)

    terms, dense = _backprop(model, dy, cache)
    grad, weights, sums, out_bias = model._gradient()
    for weight, (delta, inp) in zip(weights, dense):
        np.matmul(delta.swapaxes(-1, -2), inp, out=weight)
    # every bias and BatchNorm gradient of both hidden layers in one reduction
    np.add.reduce(terms, axis=-2, out=sums)
    np.add.reduce(dy, axis=-2, out=out_bias)

    if extra_penalty_grad is None:
        return grad.copy()
    extra_penalty_grad = np.asarray(extra_penalty_grad, dtype=np.float64)
    if extra_penalty_grad.shape != grad.shape:
        raise ValueError("penalty gradient has wrong length")
    return grad + extra_penalty_grad


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------

class Optimizer:
    """SGD or Adam on flat parameter vectors. State lives in the instance.

    The state takes the shape of the parameters it steps: for a (C, P)
    stack of vectors, Adam's moments are (C, P) and ``step_count`` holds one
    count per row (see ``stack``, ``rows`` and ``unstack``)."""

    def __init__(self, kind: str = "sgd", learning_rate: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        if kind not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer kind {kind!r}")
        if learning_rate < 0.0:
            raise ValueError("learning rate must be nonnegative")
        self.kind = kind
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.step_count = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None

    def reset(self) -> None:
        self.step_count = 0
        self.m = None
        self.v = None

    def _like(self) -> "Optimizer":
        return Optimizer(self.kind, self.learning_rate, self.beta1, self.beta2, self.epsilon)

    @classmethod
    def stack(cls, optimizers: list["Optimizer"], params: np.ndarray) -> "Optimizer":
        """One optimizer for the (C, P) stack ``params`` whose state row k is
        ``optimizers[k]``'s state. Adam moments an optimizer has not started
        are zeros, which is where its first step would start them."""
        stacked = optimizers[0]._like()
        stacked.step_count = np.array([o.step_count for o in optimizers])
        if stacked.kind == "adam":
            zeros = np.zeros(params.shape[-1])
            stacked.m = np.stack([zeros if o.m is None else o.m for o in optimizers])
            stacked.v = np.stack([zeros if o.v is None else o.v for o in optimizers])
        return stacked

    def rows(self, sel: int | slice) -> "Optimizer":
        """An optimizer for rows ``sel`` of a stacked optimizer whose state is
        a view of this one's, so its steps update these rows in place."""
        view = self._like()
        view.step_count = self.step_count[sel, ...]
        if self.m is not None:
            view.m, view.v = self.m[sel], self.v[sel]
        return view

    def unstack(self, optimizers: list["Optimizer"]) -> None:
        """Write state row k of a stacked optimizer back into ``optimizers[k]``."""
        for k, opt in enumerate(optimizers):
            opt.step_count = int(self.step_count[k])
            if self.m is not None:
                opt.m, opt.v = self.m[k], self.v[k]

    def step(self, params: np.ndarray, grads: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
        """The parameters after one step on ``grads``, written to ``out``
        when it is given (``params`` itself steps them in place), else to a
        new array."""
        params = np.asarray(params, dtype=np.float64)
        grads = np.asarray(grads, dtype=np.float64)
        if params.shape != grads.shape:
            raise ValueError(f"shape mismatch: params {params.shape} vs grads {grads.shape}")
        # checked before any state changes, so a rejected step leaves the
        # optimizer (and ``out``) as it was
        if not np.logical_and.reduce(np.isfinite(grads), axis=None):
            raise ValueError("NaN or inf in gradients")
        self.step_count += 1  # in place when it is a view of a stack's counts
        if self.kind == "sgd":
            return np.subtract(params, self.learning_rate * grads, out=out)
        if self.m is None:
            self.m = np.zeros_like(params)
            self.v = np.zeros_like(params)
        # in place, so the moments of a view step the stack's rows; one
        # scratch array holds each temporary in turn
        scratch = np.multiply(grads, 1.0 - self.beta1)
        self.m *= self.beta1
        self.m += scratch
        np.multiply(grads, grads, out=scratch)
        scratch *= 1.0 - self.beta2
        self.v *= self.beta2
        self.v += scratch
        # 1 - beta**t by Python's float pow, one value per row: numpy's
        # vectorised np.power differs from it in the last bit for some t
        t = self.step_count
        if isinstance(t, int) or t.ndim == 0:
            t = int(t)
            m_hat = self.m / (1.0 - self.beta1 ** t)
            v_hat = np.divide(self.v, 1.0 - self.beta2 ** t, out=scratch)
        else:
            t = t.tolist()
            m_hat = self.m / np.array([1.0 - self.beta1 ** s for s in t])[:, None]
            v_hat = np.divide(self.v, np.array([1.0 - self.beta2 ** s for s in t])[:, None],
                              out=scratch)
        # params - lr * m_hat / (sqrt(v_hat) + eps), with the temporaries in place
        m_hat *= self.learning_rate
        np.sqrt(v_hat, out=v_hat)
        v_hat += self.epsilon
        m_hat /= v_hat
        return np.subtract(params, m_hat, out=out)
