"""Minimal differentiable network core: dense layers, batch normalization,
MSE loss, hand-derived reverse-mode gradients and SGD/Adam optimizers.

Every model parameter lives in one float64 vector, ``MlpModel.params``, laid
out by ``LAYOUT``; each layer's arrays are reshaped views into it. The
aggregation and regularization code works on that vector directly, so every
write to a layer array happens in place.

An ``MlpModel`` can also hold a stack of C models of the same topology:
``params`` is then (C, P), every layer array gains a leading C axis (a
per-feature vector is (C, dim)), and forward, backward and the optimizer
step all C models with one call each. A stack's hidden activations are
batch-major, (B, C, 16): a batch reduction over axis 0 then runs as B loops
over C * 16 contiguous values, where a (C, B, 16) layout would loop over 16
values per model and row, and a (C, 16) vector broadcasts over the batch.
Each step reads the hidden layers' per-feature vectors from one contiguous
copy (``MlpModel._hidden_vectors``). The matmuls run per model on the
(C, B, .) views (``_flip``), writing through them; the input batch and the
predictions stay client-major, (C*B, 29) and (C*B, 8). The layer code is
written once, with the model axis after the batch axis, so a single
model's (B, 16) is the no-axis case, and model k of a stack computes
exactly the bits it would compute alone: each batch sum adds the same rows
in the same order, whatever the layout.

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
    layers has weight (C, out, in) and bias (C, out), and maps the
    model-major (C, B, in) view of its input to a batch-major (B, C, out)
    output, each model's rows through its own weight. ``arrays`` binds the
    layer to existing (weight, bias) arrays instead of fresh zeros."""

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

    def forward(self, x: np.ndarray, bias: np.ndarray | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
        """x @ W.T + b, written to ``out`` when it is given (a batch-major
        array or view), else to a new batch-major array. A stack's ``x`` is
        model-major, (C, B, in), and its matmul writes through the
        model-major view of ``out``. ``bias`` stands in for the layer's own
        (a stack's step passes a contiguous copy)."""
        weight = self.weight.swapaxes(-1, -2)
        if out is None and x.ndim == 2:
            out = x @ weight
        else:
            if out is None:
                out = np.empty((x.shape[1], x.shape[0], self.out_dim))
            np.matmul(x, weight, out=_flip(out))
        out += self.bias if bias is None else bias
        return out


def _flip(a: np.ndarray) -> np.ndarray:
    """A stack's batch-major (B, C, n) array as its model-major (C, B, n)
    view, or the reverse; a single model's (B, n) array as it is."""
    return a.swapaxes(0, 1) if a.ndim == 3 else a


class BatchNormLayer:
    """1-d batch normalization over the batch axis, axis 0.

    Train mode normalizes with batch statistics and updates the running
    statistics as running <- (1 - momentum) * running + momentum * batch.
    Eval mode uses the running statistics only. A stack of C layers holds
    its per-feature vectors as (C, dim) and maps a batch-major (B, C, dim)
    input, so the vectors broadcast over the batch and every batch
    statistic is one reduction over axis 0 in runs of C * dim contiguous
    values. ``arrays`` binds the layer to existing (gamma, beta,
    running_mean, running_var) arrays instead of a fresh identity
    transform.

    Each method takes the vectors it reads as ``vectors`` (gamma, beta,
    running mean, running variance) or, in ``backward``, ``gamma``;
    ``MlpModel`` passes a stack's contiguous copies. By default they are
    the layer's own arrays.
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

    def vectors(self) -> tuple:
        """The layer's own (gamma, beta, running_mean, running_var)."""
        return self.gamma, self.beta, self.running_mean, self.running_var

    def forward(self, x: np.ndarray, train: bool, stats: np.ndarray | None = None,
                vectors: tuple | np.ndarray | None = None):
        """Returns (y, cache); cache records which normalization was used.
        ``x`` is not written to.

        In train mode the batch mean and variance are written to
        ``stats[0]`` and ``stats[1]``. When ``stats`` is given, the caller
        updates the running statistics from it (``MlpModel`` does both of
        its layers at once); else the layer updates its own."""
        gamma, beta, running_mean, running_var = self.vectors() if vectors is None else vectors
        if not train:
            std = np.sqrt(running_var + self.epsilon)
            xhat = x - running_mean
            xhat /= std
            y = gamma * xhat
            y += beta
            return y, ("eval", xhat, std)
        n = float(x.shape[0])  # a float divisor skips the int conversion, same bits
        if n < 2:
            raise ValueError("batch normalization in train mode needs a batch of at least 2")
        # the ufunc sequence of x.mean(axis=0) and x.var(axis=0), without
        # their wrapper overhead; the results are bit-identical
        own = stats is None
        if own:
            stats = np.empty((2,) + self.running_mean.shape)
        mean, var = stats[0], stats[1]
        np.add.reduce(x, axis=0, out=mean)
        mean /= n
        xhat = x - mean
        y = xhat * xhat  # scratch for the variance, then the output
        np.add.reduce(y, axis=0, out=var)
        var /= n
        std = var + self.epsilon
        np.sqrt(std, out=std)
        xhat /= std
        if own:
            _update_running(self.running_mean, mean, self.momentum)
            _update_running(self.running_var, var, self.momentum)
        np.multiply(gamma, xhat, out=y)
        y += beta
        return y, ("train", xhat, std)

    def transform(self, x: np.ndarray, vectors: tuple | np.ndarray | None = None) -> np.ndarray:
        """The eval-mode output for ``x``, written over ``x``; keeps nothing
        for a backward pass. The same ufuncs, in the same order, as
        ``forward`` in eval mode."""
        gamma, beta, running_mean, running_var = self.vectors() if vectors is None else vectors
        x -= running_mean
        x /= np.sqrt(running_var + self.epsilon)
        x *= gamma
        x += beta
        return x

    def backward(self, dy: np.ndarray, cache, out: np.ndarray | None = None,
                 gamma: np.ndarray | None = None) -> np.ndarray:
        """The input gradient dx, written to ``out`` when it is given;
        ``dy`` is not written to. (The parameter gradients are batch sums of
        dy * xhat for gamma and of dy for beta; module-level ``backward``
        forms them.) In eval mode the running statistics are constants, so
        dx is a plain elementwise rescale, row by row."""
        kind, xhat, std = cache
        if gamma is None:
            gamma = self.gamma
        if kind == "eval":
            dx = np.multiply(dy, gamma, out=out)
            dx /= std
            return dx
        # (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) / std, in place,
        # with both means from one reduction
        pair = np.empty((2,) + dy.shape)
        dxhat, scratch = pair[0], pair[1]
        np.multiply(dy, gamma, out=dxhat)
        np.multiply(dxhat, xhat, out=scratch)
        means = np.add.reduce(pair, axis=1)
        means /= float(dy.shape[0])
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
    view of rows of a larger stack steps those rows in place. Every layer
    array of a stack gains a leading C axis: its per-feature vectors
    (biases and BatchNorm vectors) are (C, dim). A stack's activations are
    batch-major, (B, C, dim), from the first dense layer's output to the
    output layer's."""

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
        views = {layer: tuple(params[..., slots].reshape(lead + shape)
                              for slots, shape in bindings)
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
        # a single model's hidden vectors as its steps read them: its own;
        # a stack's come from the view built on its first step
        self._own_vectors = None if lead else (
            (self.lin1.bias, self.bn1.vectors()), (self.lin2.bias, self.bn2.vectors()))
        self._vector_view = None

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

    def _hidden_vectors(self) -> tuple:
        """Per hidden layer, (dense bias, BatchNorm vectors) as a step reads
        them. A stack's are rows of ``params`` P slots apart, and numpy
        broadcasts a strided operand in runs of ``HIDDEN_DIM`` values, so
        each step reads one contiguous (2, 5, C, 16) copy of both layers'
        bias, gamma, beta, running mean and running variance (consecutive
        in ``LAYOUT``)."""
        if self._own_vectors is not None:
            return self._own_vectors
        if self._vector_view is None:  # as_strided is slow: build it once
            self._vector_view = _two_layer_view(self.params, "lin1.bias", 5)
        v = self._vector_view.copy()
        return (v[0, 0], v[0, 1:]), (v[1, 0], v[1, 1:])

    def forward(self, batch: np.ndarray, mode: str = "eval") -> np.ndarray:
        """Predictions for a (B, 29) batch; for a stack of C models, a
        client-major (C*B, 29) batch gives client-major (C*B, 8) predictions.
        Eval mode keeps nothing for a backward pass: each layer's output is
        computed over the previous one in place."""
        if mode == "train":
            y, _ = self._forward_cached(batch, mode)
        else:
            x = self._batch(batch, mode)
            (b1, v1), (b2, v2) = self._hidden_vectors()
            h = self._activate(self.bn1.transform(self.lin1.forward(x, b1), v1))
            h = self._activate(self.bn2.transform(self.lin2.forward(_flip(h), b2), v2))
            y = self._predict(h)
        return y.reshape(-1, OUT_DIM)

    def _predict(self, h: np.ndarray) -> np.ndarray:
        """The output layer over batch-major ``h``; a stack writes its
        predictions client-major, (C, B, 8), through their batch-major
        view."""
        if h.ndim == 2:
            return self.out.forward(h)
        y = np.empty((h.shape[1], h.shape[0], OUT_DIM))
        self.out.forward(_flip(h), out=_flip(y))
        return y

    def _batch(self, batch: np.ndarray, mode: str) -> np.ndarray:
        """The checked batch; a stack of C models takes a client-major batch
        as its model-major (C, B, 29) view, which the first dense layer
        reads as it is."""
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
        (input, hidden vectors, BatchNorm 1 cache, activation 1, BatchNorm 2
        cache, activation 2), a stack's input model-major (``_batch``) and
        its activations batch-major; returns the
        predictions, client-major (C, B, 8) for a stack. Train mode then
        updates both BatchNorm layers' running statistics with one pass over
        them (the model's layers use the default ``BN_MOMENTUM``)."""
        x = self._batch(batch, mode)
        train = mode == "train"
        stats = np.empty(self._stats_shape) if train else (None, None)
        vectors = (b1, v1), (b2, v2) = self._hidden_vectors()
        h1, bn1 = self.bn1.forward(self.lin1.forward(x, b1), train, stats[0], v1)
        a1 = self._activate(h1)
        h2, bn2 = self.bn2.forward(self.lin2.forward(_flip(a1), b2), train, stats[1], v2)
        a2 = self._activate(h2)
        y = self._predict(a2)
        if train:
            if self._running is None:
                self._running = _two_layer_view(self.params, "bn1.running_mean", 2)
            _update_running(self._running, stats, BN_MOMENTUM)
        return y, (x, vectors, bn1, a1, bn2, a2)

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
            self._grad = (grad, weights, _two_layer_view(grad, "lin1.bias", 3),
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
    """layer -> its (slots, shape) in LAYOUT order, which is the order of the
    layer constructors' ``arrays``: how MlpModel binds the layer arrays to
    its parameters."""
    bindings = {}
    for name, (start, stop, shape) in OFFSETS.items():
        bindings.setdefault(name.split(".")[0], []).append((slice(start, stop), shape))
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


def _two_layer_view(arr: np.ndarray, first: str, count: int) -> np.ndarray:
    """The ``count`` consecutive ``HIDDEN_DIM``-slot vectors of hidden layer
    1 that start at slot ``first``, and the same vectors of hidden layer 2,
    as one writable view of ``arr`` (a parameter or gradient vector or
    stack), shaped (layer, vector) + (C,) for a stack + (HIDDEN_DIM,)."""
    item = arr.itemsize
    shape, strides = (2, count), (_LAYER_GAP * item, HIDDEN_DIM * item)
    if arr.ndim == 2:
        shape, strides = shape + arr.shape[:1], strides + arr.strides[:1]
    return np.lib.stride_tricks.as_strided(arr[..., OFFSETS[first][0]:], shape + (HIDDEN_DIM,),
                                           strides + (item,))

# ---------------------------------------------------------------------------
# Loss and gradients
# ---------------------------------------------------------------------------

def mse_loss(pred: np.ndarray, target: np.ndarray, counts: np.ndarray | None = None) -> tuple:
    """Mean squared error averaged over the batch then over the 8 actions.

    Returns (scalar, per_action) where per_action[a] is the batch-mean
    squared error for action a and scalar is the mean of per_action. For
    (C, B, 8) predictions and targets, the rows of C models, per_action is
    (C, 8) and scalar a (C,) array, and row k is what model k's own (B, 8)
    rows give. Each mean is ``np.add.reduce`` and a divide by the float
    count: the ufunc sequence of ``ndarray.mean``, without its wrapper.

    ``counts``, one row count per model of (C, B, 8) rows, says that only
    model k's first counts[k] rows are its own and the rest padding: their
    squared errors are set to exactly 0.0 before the batch sum, and each
    model's sum is divided by its own count. The batch sum adds rows in
    order, and adding 0.0 to a sum of squares leaves it as it is, so row k
    is still what model k's own counts[k] rows give.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")
    squared = (pred - target) ** 2
    n = float(pred.shape[-2])
    if counts is not None:
        if pred.ndim != 3 or np.shape(counts) != pred.shape[:1]:
            raise ValueError(f"counts must hold one row count per model, shape {pred.shape[:1]}")
        counts = np.asarray(counts).tolist()  # a few models: plain ints are cheaper
        if not all(1 <= c <= n for c in counts):
            raise ValueError(f"row counts must be in 1..{pred.shape[-2]}, got {counts}")
        for k, c in enumerate(counts):
            if c < n:
                squared[k, c:] = 0.0
        n = np.array(counts, dtype=np.float64)[:, None]
    per_action = np.add.reduce(squared, axis=-2)
    per_action /= n
    scalar = np.add.reduce(per_action, axis=-1) / float(pred.shape[-1])
    return (float(scalar) if pred.ndim == 2 else scalar), per_action


def _backprop(model: MlpModel, dy: np.ndarray, cache) -> tuple[np.ndarray, list]:
    """The chain rule of ``backward``: from the gradient ``dy`` at the
    model's output and the forward ``cache``, the per-sample terms of every
    parameter gradient but the output bias's (the batch sum of ``dy``).

    Returns (terms, dense). ``terms`` holds, per hidden layer (axis 0), the
    gradient at the dense layer's output, that at the BatchNorm output
    times xhat, and that at the BatchNorm output (axis 1), each a
    contiguous batch-major array: their batch sums (over axis 2) are the
    gradients of the layer's bias, gamma and beta, the order of ``LAYOUT``.
    ``dense`` is (delta, input) per dense layer, output layer first, as
    per-model views (a stack's (C, B, .)): its weight gradient is
    delta^T @ input.

    Row i of every term and input belongs to sample i. In eval mode no step
    mixes rows, so one sample's gradient is built from its rows alone
    (``continual.mas_importance`` relies on this)."""
    x, ((_, v1), (_, v2)), bn1, a1, bn2, a2 = cache
    relu = model.hidden_activation == "relu"
    terms = np.empty((2, 3) + a1.shape)
    dh1, dg1, db1, dh2, dg2, db2 = terms[0, 0], terms[0, 1], terms[0, 2], terms[1, 0], \
        terms[1, 1], terms[1, 2]
    np.matmul(dy, model.out.weight, out=_flip(db2))
    if relu:  # a2 > 0 exactly where the BatchNorm output was
        db2 *= a2 > 0.0
    np.multiply(db2, bn2[1], out=dg2)
    model.bn2.backward(db2, bn2, out=dh2, gamma=v2[0])
    delta2 = _flip(dh2)
    np.matmul(delta2, model.lin2.weight, out=_flip(db1))
    if relu:
        db1 *= a1 > 0.0
    np.multiply(db1, bn1[1], out=dg1)
    model.bn1.backward(db1, bn1, out=dh1, gamma=v1[0])
    return terms, [(dy, _flip(a2)), (delta2, _flip(a1)), (_flip(dh1), x)]


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
    np.add.reduce(terms, axis=2, out=sums)
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
    count per row (see ``stack`` and ``rows``)."""

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
