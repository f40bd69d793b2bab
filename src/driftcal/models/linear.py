"""Ordinary least squares on flattened windows, with a small ridge term
for numerical stability."""

from __future__ import annotations

import numpy as np

from ..labeling import WINDOW_CHUNK, Windows, window_chunks
from .base import ForecastModel
from .threads import one_blas_thread


class SingularSystemError(np.linalg.LinAlgError):
    """Normal equations are singular; retry with ridge > 0."""


def fit_linear(windows: Windows, ridge: float = 1e-6) -> ForecastModel:
    """Fit regularized least squares with intercept on flattened windows."""
    if ridge < 0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")
    if not windows:
        raise ValueError("empty window set")
    w, d = windows.shape
    p = w * d
    # A^T A and A^T y of A = [X | 1], summed over blocks of A's rows in block
    # order, at one BLAS thread like the solve: no bit depends on the thread
    # count, and no more than one block of A exists at a time
    G, b = np.zeros((p + 1, p + 1)), np.zeros(p + 1)
    A = np.empty((min(len(windows), WINDOW_CHUNK), p + 1))
    A[:, -1] = 1.0
    with one_blas_thread():
        for first in range(0, len(windows), WINDOW_CHUNK):
            rows = slice(first, min(first + WINDOW_CHUNK, len(windows)))
            block = A[: rows.stop - first]
            block[:, :-1] = windows.take(rows).reshape(-1, p)
            G += block.T @ block
            b += block.T @ windows.label[rows]
        del A, block  # only the sums are needed from here, and only L after the factor
        # the ridge penalizes the feature coefficients only, never the intercept
        G[np.arange(p), np.arange(p)] += ridge
        try:
            L = np.linalg.cholesky(G)
        except np.linalg.LinAlgError:
            raise SingularSystemError(
                "normal equations are singular or indefinite; pass ridge > 0"
            ) from None
        del G
        beta = np.linalg.solve(L.T, np.linalg.solve(L, b))
    return ForecastModel(
        kind="linear",
        params={"coef": beta[:-1].copy(), "intercept": beta[-1:].copy()},
        window=w,
        n_channels=d,
        meta={"ridge": ridge},
    )


def linear_raw(model: ForecastModel, take, n: int) -> np.ndarray:
    """Raw (unclipped) predictions for the n standardized windows that
    ``take(rows)`` gathers, one product per window_chunks slice, at one
    BLAS thread: the product's bits depend on the thread count."""
    coef, out = model.params["coef"], np.empty(n)
    with one_blas_thread():
        for rows in window_chunks(n):
            out[rows] = take(rows).reshape(-1, len(coef)) @ coef
    return out + model.params["intercept"][0]
