"""The forecaster kinds, and the prediction entry points shared by them.

The predictions take raw (unstandardized) windows; the model's stored
standardizer is applied internally. Point forecasts are clipped at zero.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from ..labeling import WINDOW_CHUNK, Windows
from .attention import attention_raw_batch, train_attention
from .base import ForecastModel, ShapeMismatchError
from .linear import fit_linear, linear_raw_batch
from .quantile import QUANTILES, fit_quantile, quantile_raw_batch


class Kind(NamedTuple):
    """One forecaster kind: its fit, called as (train, val, cfg,
    standardizer) -> (model, epoch logs); its raw point forecasts for
    standardized windows (B, w, d); and the metric its epoch logs record."""

    fit: Callable
    raw_point: Callable
    val_metric: str


# each fit looks its function up when called, so a wrapped module attribute runs
KINDS = {
    "linear": Kind(lambda train, val, cfg, std: (fit_linear(train, cfg.ridge, std), []),
                   linear_raw_batch, "none"),
    "quantile": Kind(lambda *args: fit_quantile(*args),
                     lambda model, X: quantile_raw_batch(model, X)[:, QUANTILES.index(0.5)],
                     "pinball"),
    "attention": Kind(lambda *args: train_attention(*args), attention_raw_batch, "mae"),
}


def kind_of(name: str) -> Kind:
    """The KINDS entry for a kind name; ValueError names an unknown one."""
    if name not in KINDS:
        raise ValueError(f"unknown model kind {name!r}")
    return KINDS[name]


def _check_shape(model: ForecastModel, shape: tuple[int, ...]) -> None:
    if len(shape) != 3 or shape[1:] != (model.window, model.n_channels):
        raise ShapeMismatchError(
            f"expected (B, {model.window}, {model.n_channels}) windows, got {shape}"
        )


def _standardized(model: ForecastModel, windows: np.ndarray) -> np.ndarray:
    _check_shape(model, windows.shape)
    return model.standardize(windows)


def predict_ttd_batch(model: ForecastModel, windows: np.ndarray) -> np.ndarray:
    """Clipped point forecasts for raw windows of shape (B, w, d)."""
    raw = kind_of(model.kind).raw_point(model, _standardized(model, windows))
    return np.maximum(raw, 0.0)


def predict_ttd_windows(model: ForecastModel, windows: Windows) -> np.ndarray:
    """Clipped point forecasts for every window of a raw window set.

    The windows are gathered and standardized WINDOW_CHUNK at a time into
    the one array the model reads, so no raw copy of the whole set exists;
    the model then forecasts them in one call, as predict_ttd_batch would.
    """
    raw_point = kind_of(model.kind).raw_point
    shape = (len(windows), *windows.shape)
    _check_shape(model, shape)
    X = np.empty(shape)
    for lo in range(0, len(windows), WINDOW_CHUNK):
        rows = slice(lo, lo + WINDOW_CHUNK)
        X[rows] = model.standardize(windows.take(rows))
    return np.maximum(raw_point(model, X), 0.0)


def predict_quantiles_batch(model: ForecastModel, windows: np.ndarray) -> np.ndarray:
    """Rectified, zero-clipped quantile forecasts (B, n_levels), ascending."""
    if model.kind != "quantile":
        raise ValueError(f"model kind {model.kind!r} has no quantile heads")
    rectified = quantile_raw_batch(model, _standardized(model, windows))
    return np.maximum(rectified, 0.0)
