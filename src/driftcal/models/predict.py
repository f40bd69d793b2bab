"""Prediction entry points shared by all forecaster kinds.

These take raw (unstandardized) windows; the model's stored standardizer
is applied internally. Point forecasts are clipped at zero.
"""

from __future__ import annotations

import numpy as np

from .attention import attention_raw_batch
from .base import ForecastModel, ShapeMismatchError
from .linear import linear_raw_batch
from .quantile import quantile_raw_batch


def _raw_point_batch(model: ForecastModel, X_std: np.ndarray) -> np.ndarray:
    if model.kind == "linear":
        return linear_raw_batch(model, X_std)
    if model.kind == "attention":
        return attention_raw_batch(model, X_std)
    if model.kind == "quantile":
        levels = sorted(model.meta["quantiles"])
        rectified = quantile_raw_batch(model, X_std)
        median_idx = min(range(len(levels)), key=lambda j: abs(levels[j] - 0.5))
        return rectified[:, median_idx]
    raise ValueError(f"unknown model kind {model.kind!r}")


def _standardized(model: ForecastModel, windows: np.ndarray) -> np.ndarray:
    if windows.ndim != 3 or windows.shape[1:] != (model.window, model.n_channels):
        raise ShapeMismatchError(
            f"expected (B, {model.window}, {model.n_channels}) windows, got {windows.shape}"
        )
    return model.standardize(windows)


def predict_ttd_batch(model: ForecastModel, windows: np.ndarray) -> np.ndarray:
    """Clipped point forecasts for raw windows of shape (B, w, d)."""
    raw = _raw_point_batch(model, _standardized(model, windows))
    return np.maximum(raw, 0.0)


def predict_quantiles_batch(model: ForecastModel, windows: np.ndarray) -> np.ndarray:
    """Rectified, zero-clipped quantile forecasts (B, n_levels), ascending."""
    if model.kind != "quantile":
        raise ValueError(f"model kind {model.kind!r} has no quantile heads")
    rectified = quantile_raw_batch(model, _standardized(model, windows))
    return np.maximum(rectified, 0.0)
