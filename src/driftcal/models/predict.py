"""The forecaster kinds, and the prediction entry points shared by them.

The predictions take raw (unstandardized) windows; the model's stored
standardizer is applied internally. Point forecasts are clipped at zero.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from ..labeling import Windows
from .attention import attention_raw, train_attention
from .base import ForecastModel, ShapeMismatchError
from .linear import fit_linear, linear_raw
from .quantile import QUANTILES, fit_quantile, quantile_raw


class Kind(NamedTuple):
    """One forecaster kind: its fit, called as (train, val, cfg) -> (model
    without a standardizer, epoch logs) on standardized windows; its raw
    point forecasts, called as (model, take, n) for the n standardized
    windows (k, w, d) that take(rows) gathers; and the metric its epoch logs
    record."""

    fit: Callable
    raw_point: Callable
    val_metric: str


# each fit looks its function up when called, so a wrapped module attribute runs
KINDS = {
    "linear": Kind(lambda train, val, cfg: (fit_linear(train, cfg.ridge), []), linear_raw, "none"),
    "quantile": Kind(lambda *args: fit_quantile(*args),
                     lambda *args: quantile_raw(*args)[:, QUANTILES.index(0.5)],
                     "pinball"),
    "attention": Kind(lambda *args: train_attention(*args), attention_raw, "mae"),
}


def kind_of(name: str) -> Kind:
    """The KINDS entry for a kind name; ValueError names an unknown one."""
    if name not in KINDS:
        raise ValueError(f"unknown model kind {name!r}")
    return KINDS[name]


def _standardizing(model: ForecastModel, gather, shape: tuple[int, ...]):
    """take(rows) for a raw forecast, after a check of the windows' shape:
    the raw windows gather(rows) returns, standardized chunk by chunk."""
    if len(shape) != 3 or shape[1:] != (model.window, model.n_channels):
        raise ShapeMismatchError(
            f"expected (B, {model.window}, {model.n_channels}) windows, got {shape}"
        )
    return lambda rows: model.standardize(gather(rows))


def predict_ttd_batch(model: ForecastModel, windows: np.ndarray) -> np.ndarray:
    """Clipped point forecasts for raw windows of shape (B, w, d)."""
    take = _standardizing(model, windows.__getitem__, windows.shape)
    return np.maximum(kind_of(model.kind).raw_point(model, take, len(windows)), 0.0)


def predict_ttd_windows(model: ForecastModel, windows: Windows) -> np.ndarray:
    """Clipped point forecasts for every window of a raw window set, gathered
    a chunk at a time: predict_ttd_batch on their stack, bit for bit."""
    take = _standardizing(model, windows.take, (len(windows), *windows.shape))
    return np.maximum(kind_of(model.kind).raw_point(model, take, len(windows)), 0.0)


def predict_quantiles_batch(model: ForecastModel, windows: np.ndarray) -> np.ndarray:
    """Rectified, zero-clipped quantile forecasts (B, n_levels), ascending."""
    if model.kind != "quantile":
        raise ValueError(f"model kind {model.kind!r} has no quantile heads")
    take = _standardizing(model, windows.__getitem__, windows.shape)
    return np.maximum(quantile_raw(model, take, len(windows)), 0.0)
