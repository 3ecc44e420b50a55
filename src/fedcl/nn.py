"""Minimal differentiable network core: dense layers, batch normalization,
MSE loss, hand-derived reverse-mode gradients and SGD/Adam optimizers.

Every model parameter lives in one float64 vector, ``MlpModel.params``, laid
out by ``LAYOUT``. ``model.lin1``, ``bn1``, ``lin2``, ``bn2`` and ``out`` are
plain namespaces of reshaped views into it, and the layers are functions
over the arrays their caller passes (``_dense``, ``_batchnorm``,
``_batchnorm_eval``, ``_batchnorm_backward``), with BatchNorm's epsilon and
momentum fixed by ``BN_EPSILON`` and ``BN_MOMENTUM``. Every write to a
layer view happens in place, so the aggregation and regularization code
works on the vector directly.

An ``MlpModel`` can also hold a stack of C models: ``params`` is then
(C, P), every layer view gains a leading C axis (a per-feature vector is
(C, dim)), and forward, backward and the optimizer step all C models with
one call each. A stack's hidden activations are batch-major, (B, C, 16), so
a batch reduction over axis 0 runs as B loops over C * 16 contiguous values
and a (C, 16) vector broadcasts over the batch; each step reads the hidden
layers' per-feature vectors from one contiguous copy
(``MlpModel._hidden_vectors``). The matmuls run per model on the (C, B, .)
views (``_flip``); the input batch and the predictions stay client-major,
(C*B, 29) and (C*B, 8). The layer functions are written once, with the
model axis after the batch axis, so a single model's (B, 16) is the no-axis
case, and model k of a stack computes exactly the bits it would compute
alone: each batch sum adds the same rows in the same order.

A stack's models may also step on different row counts in one call, a
ragged step (``backward``'s ``counts``): their real rows are scattered
into a zero-padded (C, max count, 29) batch, every pad row is zeroed before
each batch sum, and each model's sums are divided by its own count. A sum
adds its rows in order and trailing zeros leave it as it is, so each model
still computes the bits of its own rows alone.

A training step is dominated by numpy's per-call overhead, so the step
code makes as few calls as it can while keeping each element's ufunc
sequence, and so every bit: a train step plus Adam makes 27 profiled numpy
calls for one model and 47 for a stack, a ragged step of a stack 55 (its
padding's layout and scatters), an eval forward 6 and 17
(``tests/test_nn.py`` holds them to that).

- Writes in place. ``_batchnorm`` and ``_batchnorm_backward`` compute into
  their own temporaries; both layers' batch statistics go into one array
  and update the running statistics with one pass over a strided view of
  both layers' slots (``_two_layer_view``). ``backward`` overwrites the
  forward's prediction with the output gradient, writes each weight
  gradient with ``np.matmul(out=...)`` and every hidden bias and BatchNorm
  gradient with one ``np.add.reduce(out=...)`` over ``_backprop``'s terms.
  ``Optimizer.step(out=params)`` steps the parameters in place. Eval-mode
  ``MlpModel.forward`` keeps no backward cache.
- Reuses buffers. Each model keeps the gradient vector ``backward`` writes
  (``MlpModel._gradient``) and the view of its running statistics;
  ``backward`` returns a copy, so a caller never sees the buffer.
- Aliasing. A model's layer views and a stack's row views alias
  ``params``; ``Optimizer.rows`` views alias the stacked optimizer's state.
  ``backward``, ``_batchnorm`` and ``_batchnorm_backward`` write none of
  their inputs, but ``_batchnorm`` zeroes the pad rows of a ragged step's
  dense output; ``_batchnorm_eval`` and ``step(out=...)`` write over their
  argument by design.

The architecture is fixed: 29 -> 16 -> 16 -> 8 with a BatchNorm layer after
each hidden dense layer. Hidden activation is identity by default (a config
switch enables ReLU). All math is float64 so finite-difference checks and
bitwise reproducibility are meaningful.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

IN_DIM = 29
HIDDEN_DIM = 16
OUT_DIM = 8

BN_EPSILON = 1e-5
BN_MOMENTUM = 0.1
# Adam's moment decay rates and the denominator's epsilon
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

HIDDEN_ACTIVATIONS = ("identity", "relu")
OPTIMIZERS = ("sgd", "adam")


def _dense(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
           out: np.ndarray | None = None) -> np.ndarray:
    """x @ weight.T + bias for a (out, in) weight, written to ``out`` when
    it is given (a batch-major array or view), else to a new batch-major
    array. A stack's weight is (C, out, in) and its bias (C, out); its ``x``
    is model-major, (C, B, in), and its matmul writes through the
    model-major view of ``out``, each model's rows through its own
    weight."""
    w = weight.swapaxes(-1, -2)
    if out is None and x.ndim == 2:
        out = x @ w
    else:
        if out is None:
            out = np.empty((x.shape[1], x.shape[0], weight.shape[-2]))
        np.matmul(x, w, out=_flip(out))
    out += bias
    return out


def _flip(a: np.ndarray) -> np.ndarray:
    """A stack's batch-major (B, C, n) array as its model-major (C, B, n)
    view, or the reverse; a single model's (B, n) array as it is."""
    return a.swapaxes(0, 1) if a.ndim == 3 else a


def _batchnorm(x: np.ndarray, vectors, stats: np.ndarray | None = None,
               pad: tuple | None = None) -> tuple:
    """1-d batch normalization of ``x`` over its batch axis, axis 0, with
    ``vectors`` (gamma, beta, running mean, running variance) broadcast over
    the batch; returns (y, cache), where the cache records which
    normalization was used. ``x`` is not written to, but for a ragged
    step's pad rows.

    With ``stats`` (train mode) it normalizes with the batch statistics and
    writes their mean and variance to ``stats[0]`` and ``stats[1]``; the
    caller updates the running statistics from them. Without, it
    normalizes with the running statistics (eval mode). In a ragged step
    (``pad``, see ``_padding``) the pad rows of ``x`` and of the squared
    deviations are zeroed before each batch sum, and model k's sums are
    divided by its own row count."""
    gamma, beta, running_mean, running_var = vectors
    if stats is None:
        std = np.sqrt(running_var + BN_EPSILON)
        xhat = x - running_mean
        xhat /= std
        y = gamma * xhat
        y += beta
        return y, ("eval", xhat, std)
    if pad is None:
        n = float(x.shape[0])  # a float divisor skips the int conversion, same bits
        if n < 2:
            raise ValueError("batch normalization in train mode needs a batch of at least 2")
    else:
        _, drop, n = pad
        x[drop.T] = 0.0
    # the ufunc sequence of x.mean(axis=0) and x.var(axis=0), without
    # their wrapper overhead; the results are bit-identical
    mean, var = stats[0], stats[1]
    np.add.reduce(x, axis=0, out=mean)
    mean /= n
    xhat = x - mean
    y = xhat * xhat  # scratch for the variance, then the output
    if pad is not None:
        y[drop.T] = 0.0
    np.add.reduce(y, axis=0, out=var)
    var /= n
    std = var + BN_EPSILON
    np.sqrt(std, out=std)
    xhat /= std
    np.multiply(gamma, xhat, out=y)
    y += beta
    return y, ("train", xhat, std)


def _batchnorm_eval(x: np.ndarray, vectors) -> np.ndarray:
    """The eval-mode output for ``x``, written over ``x``; keeps nothing
    for a backward pass. The same ufuncs, in the same order, as
    ``_batchnorm`` without ``stats``."""
    gamma, beta, running_mean, running_var = vectors
    x -= running_mean
    x /= np.sqrt(running_var + BN_EPSILON)
    x *= gamma
    x += beta
    return x


def _batchnorm_backward(dy: np.ndarray, cache, gamma: np.ndarray,
                        out: np.ndarray, pad: tuple | None = None) -> np.ndarray:
    """The input gradient dx of ``_batchnorm``, written to ``out``; ``dy``
    is not written to. (The parameter gradients are batch sums of dy * xhat
    for gamma and of dy for beta; ``backward`` forms them.) In eval mode the
    running statistics are constants, so dx is a plain elementwise rescale,
    row by row. In a ragged step (``pad``) ``dy``'s pad rows are zero, model
    k's means divide by its own row count and dx's pad rows are zeroed."""
    kind, xhat, std = cache
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
    means /= float(dy.shape[0]) if pad is None else pad[2]
    dx = np.subtract(dxhat, means[0], out=out)
    np.multiply(xhat, means[1], out=scratch)
    dx -= scratch
    dx /= std
    if pad is not None:
        dx[pad[1].T] = 0.0
    return dx


class MlpModel:
    """Fixed-topology regressor: Linear(29,16) BN Linear(16,16) BN Linear(16,8).

    ``params`` is the single store of every parameter (``LAYOUT`` order);
    ``lin1``, ``bn1``, ``lin2``, ``bn2`` and ``out`` are namespaces of views
    into it, bound once here. Write to it in place (``params[...] = v``);
    rebinding it detaches the views.

    Passing ``params`` binds the model to an existing float64 array instead
    of fresh storage, without changing its values: a (P,) array is one
    model, a (C, P) array a stack of C models (row k is model k), and a
    view of rows of a larger stack steps those rows in place. Every layer
    view of a stack gains a leading C axis: its per-feature vectors
    (biases and BatchNorm vectors) are (C, dim). A stack's activations are
    batch-major, (B, C, dim), from the first dense layer's output to the
    output layer's. Fresh storage holds zero dense layers and identity
    BatchNorm layers."""

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
        self.lin1, self.bn1, self.lin2, self.bn2, self.out = (
            SimpleNamespace(**{attr: params[..., slots].reshape(lead + shape)
                               for attr, slots, shape in bindings})
            for bindings in _BINDINGS.values())
        if fresh:
            self._identity_batchnorm()
        # (layer, mean or variance) + the shape of one batch statistic
        self._stats_shape = (2, 2) + self.bn1.running_mean.shape
        self._running = None  # both layers' running statistics as one view, on first use
        self._grad = None     # backward's gradient vector and its block views, on first use
        # a single model's hidden vectors as its steps read them: its own
        # views; a stack's come from the view built on its first step
        self._own_vectors = None if lead else tuple(
            (dense.bias, (bn.gamma, bn.beta, bn.running_mean, bn.running_var))
            for dense, bn in ((self.lin1, self.bn1), (self.lin2, self.bn2)))
        self._vector_view = None

    def _identity_batchnorm(self) -> None:
        """Identity BatchNorm layers with fresh running statistics, written
        in place."""
        for bn in (self.bn1, self.bn2):
            bn.gamma[...] = 1.0
            bn.beta[...] = 0.0
            bn.running_mean[...] = 0.0
            bn.running_var[...] = 1.0

    def init_params(self, rng: np.random.Generator) -> None:
        """Each dense layer's weight, then its bias, uniform in
        +-1/sqrt(fan_in), in the order lin1, lin2, out; identity BatchNorm."""
        for dense in (self.lin1, self.lin2, self.out):
            bound = 1.0 / np.sqrt(dense.weight.shape[-1])
            dense.weight[...] = rng.uniform(-bound, bound, size=dense.weight.shape[-2:])
            dense.bias[...] = rng.uniform(-bound, bound, size=dense.bias.shape[-1:])
        self._identity_batchnorm()

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
            x, _ = self._batch(batch, mode)
            (b1, v1), (b2, v2) = self._hidden_vectors()
            h = self._activate(_batchnorm_eval(_dense(x, self.lin1.weight, b1), v1))
            h = self._activate(_batchnorm_eval(_dense(_flip(h), self.lin2.weight, b2), v2))
            y = self._predict(h)
        return y.reshape(-1, OUT_DIM)

    def _predict(self, h: np.ndarray) -> np.ndarray:
        """The output layer over batch-major ``h``; a stack writes its
        predictions client-major, (C, B, 8), through their batch-major
        view."""
        if h.ndim == 2:
            return _dense(h, self.out.weight, self.out.bias)
        y = np.empty((h.shape[1], h.shape[0], OUT_DIM))
        _dense(_flip(h), self.out.weight, self.out.bias, out=_flip(y))
        return y

    def _batch(self, batch: np.ndarray, mode: str, counts=None) -> tuple:
        """The checked batch and its ``_padding`` (None but in a ragged
        step). A stack of C models takes a client-major batch as its
        model-major (C, B, 29) view, which the first dense layer reads as it
        is; with ``counts``, model k's counts[k] rows of a ragged
        client-major batch are scattered into a zero-padded (C, max count,
        29) array."""
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim != 2 or batch.shape[1] != IN_DIM:
            raise ValueError(f"expected batch of shape (B, {IN_DIM}), got {batch.shape}")
        if batch.shape[0] < 1:
            raise ValueError("empty batch")
        if counts is not None:
            pad = _padding(counts, self.params.shape[:-1], len(batch))
            return _scatter(batch, pad[0]), pad
        if self.params.ndim == 2:
            n_models = self.params.shape[0]
            if batch.shape[0] % n_models:
                raise ValueError(f"a stack of {n_models} models needs a client-major batch "
                                 f"of a multiple of {n_models} rows, got {batch.shape[0]}")
            batch = batch.reshape(n_models, -1, IN_DIM)
        return batch, None

    def _forward_cached(self, batch: np.ndarray, mode: str, counts=None):
        """Forward pass keeping what backward needs, as the tuple
        (input, hidden vectors, BatchNorm 1 cache, activation 1, BatchNorm 2
        cache, activation 2, padding), a stack's input model-major
        (``_batch``) and its activations batch-major; returns the
        predictions, client-major (C, B, 8) for a stack, (C, max count, 8)
        in a ragged step (``counts``), whose pad rows are not predictions.
        Train mode then updates both BatchNorm layers' running statistics
        with one pass over them, as
        running <- (1 - BN_MOMENTUM) * running + BN_MOMENTUM * batch, rounded
        in that order."""
        x, pad = self._batch(batch, mode, counts)
        train = mode == "train"
        stats = np.empty(self._stats_shape) if train else (None, None)
        vectors = (b1, v1), (b2, v2) = self._hidden_vectors()
        h1, bn1 = _batchnorm(_dense(x, self.lin1.weight, b1), v1, stats[0], pad)
        a1 = self._activate(h1)
        h2, bn2 = _batchnorm(_dense(_flip(a1), self.lin2.weight, b2), v2, stats[1], pad)
        a2 = self._activate(h2)
        y = self._predict(a2)
        if train:
            if self._running is None:
                self._running = _two_layer_view(self.params, "bn1.running_mean", 2)
            self._running *= 1.0 - BN_MOMENTUM
            stats *= BN_MOMENTUM
            self._running += stats
        return y, (x, vectors, bn1, a1, bn2, a2, pad)

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
    """layer -> its (attribute, slots, shape) in LAYOUT order: how MlpModel
    binds each layer's namespace of views to its parameters."""
    bindings = {}
    for name, (start, stop, shape) in OFFSETS.items():
        layer, attr = name.split(".")
        bindings.setdefault(layer, []).append((attr, slice(start, stop), shape))
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


def _padding(counts, lead: tuple, rows: int) -> tuple:
    """The layout of a ragged step of a stack of C models (``lead`` is
    (C,)): model k has counts[k] of the batch's ``rows`` client-major rows,
    padded with zero rows to the largest count. Returns (keep, drop, n):
    the (C, max count) mask of the real rows, its complement, and the
    counts as a (C, 1) float divisor of each model's batch sums. The
    counts are a few ints, so they are checked as a sequence, by Python's
    builtins, not as an array."""
    if (len(counts),) != lead:
        raise ValueError(f"counts must hold one row count per model of a stack, "
                         f"shape {lead}, got {np.shape(counts)}")
    if min(counts) < 2:  # as train-mode BatchNorm needs
        raise ValueError(f"a ragged step needs at least 2 rows a model, "
                         f"got counts {list(counts)}")
    if sum(counts) != rows:
        raise ValueError(f"counts add up to {sum(counts)} rows, the batch has {rows}")
    n = np.array(counts, dtype=np.float64)[:, None]
    keep = np.arange(max(counts)) < n
    return keep, ~keep, n


def _scatter(rows: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Client-major ragged ``rows`` as a (C, max count, dim) array, zero
    where ``keep`` (see ``_padding``) marks no row."""
    out = np.zeros(keep.shape + rows.shape[-1:])
    out[keep] = rows
    return out


def pad_rows(rows: np.ndarray, counts) -> tuple[np.ndarray, np.ndarray]:
    """The client-major ragged ``rows`` of a stack's step, counts[k] rows
    for model k, as the zero-padded (C, max count, dim) array a ragged
    ``backward`` steps on, and the mask of its real rows: ``padded[mask]``
    gives ``rows`` back."""
    keep, _, _ = _padding(counts, (len(counts),), len(rows))
    return _scatter(rows, keep), keep


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
    (``continual.mas_importance`` relies on this). In a ragged step, whose
    ``dy`` is zero on the pad rows, every term is zero there too."""
    x, ((_, v1), (_, v2)), bn1, a1, bn2, a2, pad = cache
    relu = model.hidden_activation == "relu"
    terms = np.empty((2, 3) + a1.shape)
    dh1, dg1, db1, dh2, dg2, db2 = terms[0, 0], terms[0, 1], terms[0, 2], terms[1, 0], \
        terms[1, 1], terms[1, 2]
    np.matmul(dy, model.out.weight, out=_flip(db2))
    if relu:  # a2 > 0 exactly where the BatchNorm output was
        db2 *= a2 > 0.0
    np.multiply(db2, bn2[1], out=dg2)
    _batchnorm_backward(db2, bn2, v2[0], dh2, pad)
    delta2 = _flip(dh2)
    np.matmul(delta2, model.lin2.weight, out=_flip(db1))
    if relu:
        db1 *= a1 > 0.0
    np.multiply(db1, bn1[1], out=dg1)
    _batchnorm_backward(db1, bn1, v1[0], dh1, pad)
    return terms, [(dy, _flip(a2)), (delta2, _flip(a1)), (_flip(dh1), x)]


def backward(model: MlpModel, batch: np.ndarray, target: np.ndarray,
             extra_penalty_grad: np.ndarray | None = None,
             mode: str = "train", counts=None) -> np.ndarray:
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

    A ragged step of a stack passes ``counts``, one row count per model:
    ``batch`` and ``target`` are then the real rows, client-major, counts[k]
    of them for model k, and each model's loss is averaged over its own
    rows. They are scattered into a zero-padded (C, max count, .) layout,
    and the pad rows are made inert: they are zeroed before every batch sum
    of the forward and the backward pass (``_batchnorm``,
    ``_batchnorm_backward``, the output gradient), and each model's sums
    are divided by its own count. A sum adds its rows in order, and
    trailing zero terms leave it as it is, so model k computes the bits its
    own counts[k] rows give alone. A step whose counts are all equal passes
    none.
    """
    target = np.asarray(target, dtype=np.float64)
    dy, cache = model._forward_cached(batch, mode, counts)
    pad = cache[-1]
    rows = dy.size // OUT_DIM if pad is None else len(batch)
    if target.shape != (rows, OUT_DIM):
        raise ValueError(f"shape mismatch: pred {dy.shape} vs target {target.shape}")
    n, width = dy.shape[-2:]
    if pad is None:
        dy -= target.reshape(dy.shape)  # then 2 * dy / (n * width), in place
        dy *= 2.0
        dy /= float(n * width)
    else:
        keep, drop, n = pad
        dy -= _scatter(target, keep)
        dy *= 2.0
        dy /= (n * width)[:, None]
        dy[drop] = 0.0

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
    """SGD or Adam (``ADAM_BETA1``, ``ADAM_BETA2``, ``ADAM_EPSILON``) on
    flat parameter vectors. State lives in the instance.

    The state takes the shape of the parameters it steps: for a (C, P)
    stack of vectors, Adam's moments are (C, P) and ``step_count`` holds one
    count per row (see ``stack`` and ``rows``)."""

    def __init__(self, kind: str = "sgd", learning_rate: float = 1e-3):
        if kind not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer kind {kind!r}")
        if not 0.0 <= learning_rate < math.inf:  # NaN included
            raise ValueError(f"learning_rate must be finite and >= 0, got {learning_rate}")
        self.kind = kind
        self.learning_rate = learning_rate
        self.step_count = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None

    def _like(self) -> "Optimizer":
        return Optimizer(self.kind, self.learning_rate)

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
        scratch = np.multiply(grads, 1.0 - ADAM_BETA1)
        self.m *= ADAM_BETA1
        self.m += scratch
        np.multiply(grads, grads, out=scratch)
        scratch *= 1.0 - ADAM_BETA2
        self.v *= ADAM_BETA2
        self.v += scratch
        # 1 - beta**t by Python's float pow, one value per row: numpy's
        # vectorised np.power differs from it in the last bit for some t
        t = self.step_count
        if isinstance(t, int) or t.ndim == 0:
            t = int(t)
            m_hat = self.m / (1.0 - ADAM_BETA1 ** t)
            v_hat = np.divide(self.v, 1.0 - ADAM_BETA2 ** t, out=scratch)
        else:
            t = t.tolist()
            m_hat = self.m / np.array([1.0 - ADAM_BETA1 ** s for s in t])[:, None]
            v_hat = np.divide(self.v, np.array([1.0 - ADAM_BETA2 ** s for s in t])[:, None],
                              out=scratch)
        # params - lr * m_hat / (sqrt(v_hat) + eps), with the temporaries in place
        m_hat *= self.learning_rate
        np.sqrt(v_hat, out=v_hat)
        v_hat += ADAM_EPSILON
        m_hat /= v_hat
        return np.subtract(params, m_hat, out=out)
