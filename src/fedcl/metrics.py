"""Regression metrics averaged across the 8 action targets: MSE, RMSE, PCC.

The reported average RMSE is sqrt(average MSE) so that every (loss, rmse)
pair satisfies rmse = sqrt(loss); the mean of per-action RMSEs is emitted
as a secondary field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEGENERATE_STD = 1e-12


@dataclass
class MetricsReport:
    per_action_mse: np.ndarray          # (8,)
    avg_mse: float                      # the reported "loss"
    avg_rmse: float                     # sqrt(avg_mse)
    mean_per_action_rmse: float         # secondary column
    per_action_pcc: np.ndarray          # (8,), nan where degenerate
    avg_pcc: float                      # mean over non-degenerate actions
    degenerate_actions: list[int] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "per_action_mse": [float(v) for v in self.per_action_mse],
            "avg_mse": self.avg_mse,
            "avg_rmse": self.avg_rmse,
            "mean_per_action_rmse": self.mean_per_action_rmse,
            "per_action_pcc": [float(v) for v in self.per_action_pcc],
            "avg_pcc": self.avg_pcc,
            "degenerate_actions": list(self.degenerate_actions),
        }


def pcc(x: np.ndarray, y: np.ndarray) -> float | None:
    """Pearson correlation; None when either side has (near-)zero variance."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"pcc expects two equal-length vectors, got {x.shape} and {y.shape}")
    if x.shape[0] < 2:
        raise ValueError("pcc needs at least 2 samples")
    r, degenerate = _row_pcc(x[None], y[None])
    return None if degenerate[0] else float(r[0])


def _row_pcc(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pearson correlation of each row of x with the same row of y, for two
    (K, N) arrays, and a mask of the rows where either side has (near-)zero
    variance, whose correlation is meaningless. When the rows are
    contiguous (or K is 1), each row takes the ufunc sequence of the 1-d
    computation, so it equals that row's own correlation bit for bit."""
    xc = x - _mean(x, axis=1, keepdims=True)
    yc = y - _mean(y, axis=1, keepdims=True)
    sx = np.sqrt(_mean(xc ** 2, axis=1))
    sy = np.sqrt(_mean(yc ** 2, axis=1))
    degenerate = (sx < DEGENERATE_STD) | (sy < DEGENERATE_STD)
    scale = sx * sy
    scale[degenerate] = 1.0  # their value is discarded; avoids dividing by 0
    return _mean(xc * yc, axis=1) / scale, degenerate


def _mean(a: np.ndarray, axis: int = 0, keepdims: bool = False):
    """``a.mean(axis, keepdims=keepdims)`` bit for bit: the ufunc sequence
    of ``ndarray.mean`` (``np.add.reduce``, then a divide by the float
    count) without its Python wrapper."""
    total = np.add.reduce(a, axis=axis, keepdims=keepdims)
    total /= float(a.shape[axis])
    return total


def compute_report(pred: np.ndarray, target: np.ndarray) -> MetricsReport:
    """Per-action and averaged MSE/RMSE/PCC for one evaluation pass."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.ndim != 2:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")
    if pred.shape[0] < 2:
        raise ValueError("PCC needs at least 2 samples")
    per_action_mse = _mean((pred - target) ** 2)
    avg_mse = float(_mean(per_action_mse))
    # every action at once, on (actions, samples) rows
    per_action_pcc, degenerate = _row_pcc(np.ascontiguousarray(pred.T),
                                          np.ascontiguousarray(target.T))
    per_action_pcc[degenerate] = np.nan
    finite = per_action_pcc[~np.isnan(per_action_pcc)]
    avg_pcc = float(_mean(finite)) if finite.size else float("nan")
    return MetricsReport(
        per_action_mse=per_action_mse,
        avg_mse=avg_mse,
        avg_rmse=float(np.sqrt(avg_mse)),
        mean_per_action_rmse=float(_mean(np.sqrt(per_action_mse))),
        per_action_pcc=per_action_pcc,
        avg_pcc=avg_pcc,
        degenerate_actions=np.flatnonzero(degenerate).tolist(),
    )
