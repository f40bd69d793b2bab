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


def _forecast(model: ForecastModel, windows, raw) -> np.ndarray:
    """raw(model, take, n), clipped at zero, for n raw windows: an array
    (n, w, d), or a Windows set, gathered a block at a time. take(rows)
    standardizes them, after a check of their shape."""
    if isinstance(windows, Windows):
        gather, shape = windows.take, (len(windows), *windows.shape)
    else:
        gather, shape = windows.__getitem__, windows.shape
    if len(shape) != 3 or shape[1:] != (model.window, model.n_channels):
        raise ShapeMismatchError(
            f"expected (B, {model.window}, {model.n_channels}) windows, got {shape}"
        )
    return np.maximum(raw(model, lambda rows: model.standardize(gather(rows)), shape[0]), 0.0)


def predict_ttd_batch(model: ForecastModel, windows: np.ndarray) -> np.ndarray:
    """Clipped point forecasts for raw windows of shape (B, w, d)."""
    return _forecast(model, windows, kind_of(model.kind).raw_point)


def predict_ttd_windows(model: ForecastModel, windows: Windows) -> np.ndarray:
    """Clipped point forecasts for every window of a raw window set, gathered
    a block at a time: predict_ttd_batch on their stack, bit for bit."""
    return _forecast(model, windows, kind_of(model.kind).raw_point)


def predict_quantiles_batch(model: ForecastModel, windows: np.ndarray) -> np.ndarray:
    """Rectified, zero-clipped quantile forecasts (B, n_levels), ascending."""
    return _forecast(model, windows, quantile_raw)
