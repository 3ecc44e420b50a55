import numpy as np
import pytest

from fedcl import nn


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_model(rng: np.random.Generator) -> nn.MlpModel:
    """Model with fully randomized parameters, including BN state, so tests
    exercise non-trivial gamma/beta and running statistics."""
    m = nn.MlpModel()
    vec = rng.normal(0.0, 0.5, size=nn.PARAM_COUNT)
    # running_var slots must stay positive
    for name in ("bn1.running_var", "bn2.running_var"):
        vec[nn.slot_slice(name)] = rng.uniform(0.5, 2.0, size=16)
    nn.inject_params(m, vec)
    return m


def finite_difference(loss_fn, params: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar loss over a flat parameter vector."""
    grad = np.empty_like(params)
    for i in range(len(params)):
        p_plus = params.copy()
        p_plus[i] += h
        p_minus = params.copy()
        p_minus[i] -= h
        grad[i] = (loss_fn(p_plus) - loss_fn(p_minus)) / (2 * h)
    return grad


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Max relative error, ignoring slots where both sides vanish below the
    finite-difference noise floor (~1e-10 for h=1e-5 on f64)."""
    diff = np.abs(a - b)
    err = diff / np.maximum(1e-8, np.abs(a) + np.abs(b))
    return float(np.max(np.where(diff <= 1e-9, 0.0, err)))
