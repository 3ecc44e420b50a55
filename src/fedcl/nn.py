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

    def forward(self, x: np.ndarray, train: bool, update_running: bool = True):
        """Returns (y, cache); cache records which normalization was used."""
        if train:
            n = x.shape[-2]
            if n < 2:
                raise ValueError("batch normalization in train mode needs a batch of at least 2")
            # the ufunc sequence of x.mean(axis=0) and x.var(axis=0), without
            # their wrapper overhead; the results are bit-identical
            stacked = x.ndim == 3
            mean = np.add.reduce(x, axis=-2, keepdims=stacked) / n
            centred = x - mean
            var = np.add.reduce(centred * centred, axis=-2, keepdims=stacked) / n
            std = np.sqrt(var + self.epsilon)
            xhat = centred / std
            if update_running:  # in place, rounding as (1 - m) * running + m * batch
                self.running_mean *= 1.0 - self.momentum
                self.running_mean += self.momentum * mean
                self.running_var *= 1.0 - self.momentum
                self.running_var += self.momentum * var
            y = self.gamma * xhat
            y += self.beta
            return y, ("train", xhat, std)
        std = np.sqrt(self.running_var + self.epsilon)
        xhat = (x - self.running_mean) / std
        y = self.gamma * xhat
        y += self.beta
        return y, ("eval", xhat, std)

    def backward(self, dy: np.ndarray, cache) -> np.ndarray:
        """The input gradient dx. (The parameter gradients are batch sums of
        dy * xhat for gamma and of dy for beta; module-level ``backward`` forms
        them.) In eval mode the running statistics are constants, so dx is a
        plain elementwise rescale, row by row."""
        kind, xhat, std = cache
        dxhat = dy * self.gamma
        if kind == "eval":
            return dxhat / std
        n = dy.shape[-2]
        # (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) / std, in place
        dx = dxhat - np.add.reduce(dxhat, axis=-2, keepdims=True) / n
        dx -= xhat * (np.add.reduce(dxhat * xhat, axis=-2, keepdims=True) / n)
        dx /= std
        return dx


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

    def init_params(self, rng: np.random.Generator) -> None:
        self.lin1.init_uniform(rng)
        self.lin2.init_uniform(rng)
        self.out.init_uniform(rng)
        self.bn1.reset()
        self.bn2.reset()

    def _activate(self, h: np.ndarray) -> np.ndarray:
        if self.hidden_activation == "relu":
            return np.maximum(h, 0.0)
        return h

    def forward(self, batch: np.ndarray, mode: str = "eval") -> np.ndarray:
        """Predictions for a (B, 29) batch; for a stack of C models, a
        client-major (C*B, 29) batch gives client-major (C*B, 8) predictions."""
        y, _ = self._forward_cached(batch, mode)
        return y.reshape(-1, OUT_DIM)

    def _forward_cached(self, batch: np.ndarray, mode: str):
        """Forward pass keeping what backward needs; a stack of C models
        splits the client-major batch into (C, B, 29) and returns (C, B, 8)."""
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
        train = mode == "train"
        cache = {"x": batch}
        h1 = self.lin1.forward(batch)
        b1, cache["bn1"] = self.bn1.forward(h1, train)
        a1 = self._activate(b1)
        cache["b1"] = b1
        cache["a1"] = a1
        h2 = self.lin2.forward(a1)
        b2, cache["bn2"] = self.bn2.forward(h2, train)
        a2 = self._activate(b2)
        cache["b2"] = b2
        cache["a2"] = a2
        y = self.out.forward(a2)
        return y, cache

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


# gradient blocks of backward, in the order it produces them
_OUT_W, _OUT_B = slot_slice("out.weight"), slot_slice("out.bias")
_BN2_G, _BN2_B = slot_slice("bn2.gamma"), slot_slice("bn2.beta")
_LIN2_W, _LIN2_B = slot_slice("lin2.weight"), slot_slice("lin2.bias")
_BN1_G, _BN1_B = slot_slice("bn1.gamma"), slot_slice("bn1.beta")
_LIN1_W, _LIN1_B = slot_slice("lin1.weight"), slot_slice("lin1.bias")


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


def _backprop(model: MlpModel, dy: np.ndarray, cache):
    """The chain rule of ``backward``: from the gradient ``dy`` at the
    model's output and the forward ``cache``, yields one
    (scale slots, shift slots, delta, input, dense) tuple per layer, output
    layer first. ``delta`` is the gradient at the layer's output and
    ``input`` what its scale multiplies: the layer input for a dense layer,
    whose weight gradient is delta^T @ input; xhat for BatchNorm, whose
    gamma gradient is the batch sum of delta * input. The shift (bias, beta)
    gradient is the batch sum of delta.

    Row i of every delta and input belongs to sample i. In eval mode no
    step mixes rows, so one sample's gradient is built from its rows alone
    (``continual.mas_importance`` relies on this)."""
    relu = model.hidden_activation == "relu"
    yield _OUT_W, _OUT_B, dy, cache["a2"], True
    da2 = dy @ model.out.weight
    db2 = da2 * (cache["b2"] > 0.0) if relu else da2
    yield _BN2_G, _BN2_B, db2, cache["bn2"][1], False
    dh2 = model.bn2.backward(db2, cache["bn2"])
    yield _LIN2_W, _LIN2_B, dh2, cache["a1"], True
    da1 = dh2 @ model.lin2.weight
    db1 = da1 * (cache["b1"] > 0.0) if relu else da1
    yield _BN1_G, _BN1_B, db1, cache["bn1"][1], False
    dh1 = model.bn1.backward(db1, cache["bn1"])
    yield _LIN1_W, _LIN1_B, dh1, cache["x"], True


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
    ``model.params``, (C, P), as does ``extra_penalty_grad``.
    """
    target = np.asarray(target, dtype=np.float64)
    pred, cache = model._forward_cached(batch, mode)
    if target.shape != (pred.size // OUT_DIM, OUT_DIM):
        raise ValueError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")
    target = target.reshape(pred.shape)
    n, width = pred.shape[-2:]
    dy = pred - target  # then 2 * dy / (n * width), in place
    dy *= 2.0
    dy /= n * width

    lead = model.params.shape[:-1]
    vec = np.zeros(model.params.shape, dtype=np.float64)
    for scale, shift, delta, inp, dense in _backprop(model, dy, cache):
        if dense:
            vec[..., scale] = (delta.swapaxes(-1, -2) @ inp).reshape(lead + (-1,))
        else:
            vec[..., scale] = np.add.reduce(delta * inp, axis=-2)
        vec[..., shift] = np.add.reduce(delta, axis=-2)

    if extra_penalty_grad is not None:
        extra_penalty_grad = np.asarray(extra_penalty_grad, dtype=np.float64)
        if extra_penalty_grad.shape != vec.shape:
            raise ValueError("penalty gradient has wrong length")
        vec += extra_penalty_grad
    return vec


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

    def step(self, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
        params = np.asarray(params, dtype=np.float64)
        grads = np.asarray(grads, dtype=np.float64)
        if params.shape != grads.shape:
            raise ValueError(f"shape mismatch: params {params.shape} vs grads {grads.shape}")
        # checked before any state changes, so a rejected step leaves the
        # optimizer as it was
        if not np.isfinite(grads).all():
            raise ValueError("NaN or inf in gradients")
        self.step_count += 1  # in place when it is a view of a stack's counts
        if self.kind == "sgd":
            return params - self.learning_rate * grads
        if self.m is None:
            self.m = np.zeros_like(params)
            self.v = np.zeros_like(params)
        # in place, so the moments of a view step the stack's rows
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * grads
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * grads ** 2
        # 1 - beta**t by Python's float pow, one value per row: numpy's
        # vectorised np.power differs from it in the last bit for some t
        t = self.step_count
        if isinstance(t, int) or t.ndim == 0:
            t = int(t)
            m_hat = self.m / (1.0 - self.beta1 ** t)
            v_hat = self.v / (1.0 - self.beta2 ** t)
        else:
            t = t.tolist()
            m_hat = self.m / np.array([1.0 - self.beta1 ** s for s in t])[:, None]
            v_hat = self.v / np.array([1.0 - self.beta2 ** s for s in t])[:, None]
        # params - lr * m_hat / (sqrt(v_hat) + eps), with the temporaries in place
        m_hat *= self.learning_rate
        np.sqrt(v_hat, out=v_hat)
        v_hat += self.epsilon
        m_hat /= v_hat
        return params - m_hat
