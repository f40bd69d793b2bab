"""Ordinary least squares on flattened windows, with a small ridge term
for numerical stability."""

from __future__ import annotations

import numpy as np

from ..labeling import WINDOW_CHUNK, Standardizer, Windows
from .base import ForecastModel


class SingularSystemError(np.linalg.LinAlgError):
    """Normal equations are singular; retry with ridge > 0."""


def _solve_normal_equations(A: np.ndarray, y: np.ndarray, ridge: float) -> np.ndarray:
    """Solve (A^T A + R) beta = A^T y for the design matrix A = [X | 1] via
    Cholesky.

    The ridge penalty is applied to the feature coefficients only, never to
    the intercept (A's last column).
    """
    p = A.shape[1] - 1
    G = A.T @ A
    if ridge > 0:
        G[np.arange(p), np.arange(p)] += ridge
    b = A.T @ y
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        raise SingularSystemError(
            "normal equations are singular or indefinite; pass ridge > 0"
        ) from None
    z = np.linalg.solve(L, b)
    return np.linalg.solve(L.T, z)


def fit_linear(
    windows: Windows,
    ridge: float = 1e-6,
    standardizer: Standardizer | None = None,
) -> ForecastModel:
    """Fit regularized least squares with intercept on flattened windows."""
    if ridge < 0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")
    if not windows:
        raise ValueError("empty window set")
    w, d = windows.shape
    # [X | 1] filled chunk by chunk: the only full copy of the flattened windows
    A = np.empty((len(windows), w * d + 1))
    for first in range(0, len(windows), WINDOW_CHUNK):
        rows = slice(first, first + WINDOW_CHUNK)
        A[rows, :-1] = windows.take(rows).reshape(-1, w * d)
    A[:, -1] = 1.0
    y = windows.label.astype(np.float64)
    beta = _solve_normal_equations(A, y, ridge)
    return ForecastModel(
        kind="linear",
        params={"coef": beta[:-1].copy(), "intercept": beta[-1:].copy()},
        window=w,
        n_channels=d,
        standardizer=standardizer,
        meta={"ridge": ridge},
    )


def linear_raw_batch(model: ForecastModel, X: np.ndarray) -> np.ndarray:
    """Raw (unclipped) predictions for standardized windows (B, w, d)."""
    flat = X.reshape(X.shape[0], -1)
    return flat @ model.params["coef"] + model.params["intercept"][0]
