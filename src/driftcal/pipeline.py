"""End-to-end wiring: adapted runs -> windows -> forecasters -> scorers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .adaptation import AdaptedDataset, subset_runs
from .labeling import (
    LabeledWindow,
    SplitAssignment,
    Standardizer,
    apply_standardizer,
    compute_ttd,
    fit_standardizer,
    make_windows,
    split_engines,
)
from .metrics import RegressionReport, regression_metrics
from .models import (
    EpochLog,
    ForecastModel,
    TrainConfig,
    fit_linear,
    fit_quantile,
    predict_quantiles_batch,
    predict_ttd_batch,
    train_attention,
)
from .scheduler import CycleScorer


@dataclass
class WindowBundle:
    """Windows for one adapted dataset, split at the engine level.

    ``*_raw`` windows carry original channel units; ``*_std`` are
    standardized with train statistics only.
    """

    train_raw: list[LabeledWindow]
    val_raw: list[LabeledWindow]
    train_std: list[LabeledWindow]
    val_std: list[LabeledWindow]
    standardizer: Standardizer
    split: SplitAssignment
    w: int
    stride: int


def label_and_window(
    dataset: AdaptedDataset,
    w: int = 40,
    stride: int = 1,
    train_fraction: float = 0.75,
    seed: int = 0,
    allow_cross_reset: bool = True,
) -> WindowBundle:
    split = split_engines(
        [run.engine_id for run in dataset.runs], fraction=train_fraction, seed=seed
    )
    train_raw: list[LabeledWindow] = []
    val_raw: list[LabeledWindow] = []
    for run in dataset.runs:
        windows = make_windows(
            run, compute_ttd(run), w=w, stride=stride, allow_cross_reset=allow_cross_reset
        )
        if run.engine_id in split.train_engines:
            train_raw.extend(windows)
        else:
            val_raw.extend(windows)
    if not train_raw or not val_raw:
        raise ValueError(
            f"split produced {len(train_raw)} train / {len(val_raw)} val windows; "
            f"runs may be shorter than w={w}"
        )
    standardizer = fit_standardizer(train_raw)
    return WindowBundle(
        train_raw=train_raw,
        val_raw=val_raw,
        train_std=apply_standardizer(standardizer, train_raw),
        val_std=apply_standardizer(standardizer, val_raw),
        standardizer=standardizer,
        split=split,
        w=w,
        stride=stride,
    )


def train_forecaster(
    kind: str, bundle: WindowBundle, cfg: TrainConfig, ridge: float = 1e-6
) -> tuple[ForecastModel, list[EpochLog]]:
    """Fit one forecaster on the bundle's standardized train windows."""
    if kind == "linear":
        model = fit_linear(bundle.train_std, ridge=ridge, standardizer=bundle.standardizer)
        return model, []
    if kind == "quantile":
        return fit_quantile(
            bundle.train_std, bundle.val_std, cfg, standardizer=bundle.standardizer
        )
    if kind == "attention":
        return train_attention(
            bundle.train_std, bundle.val_std, cfg, standardizer=bundle.standardizer
        )
    raise ValueError(f"unknown forecaster kind {kind!r}")


def evaluate_forecaster(
    model: ForecastModel, windows_raw: list[LabeledWindow]
) -> tuple[RegressionReport, np.ndarray, np.ndarray]:
    """Validation metrics plus (true, predicted) pairs for scatter output."""
    X = np.stack([win.features for win in windows_raw])
    y = np.array([win.label for win in windows_raw], dtype=np.float64)
    yhat = predict_ttd_batch(model, X)
    return regression_metrics(y, yhat), y, yhat


def forecast_scorer(
    model: ForecastModel, dataset: AdaptedDataset, use_quantile: bool = False
) -> CycleScorer:
    """Per-cycle decision scores for every run in the dataset.

    Scores exist at cycles >= w (a full window is needed). The point score
    is the clipped forecast; with use_quantile=True it is the rectified,
    clipped lowest-level quantile.
    """
    w = model.window
    scores: dict[tuple[int, int], float] = {}
    for run in dataset.runs:
        if run.length < w:
            continue
        ends = np.arange(w, run.length + 1)
        # window i is channels[i : i + w], a view; it ends at cycle w + i
        X = sliding_window_view(run.channels, (w, run.channels.shape[1]))[:, 0]
        if use_quantile:
            values = predict_quantiles_batch(model, X)[:, 0]
        else:
            values = predict_ttd_batch(model, X)
        for e, v in zip(ends, values):
            scores[(run.engine_id, int(e))] = float(v)
    return CycleScorer(scores=scores, start_cycle=w)


def validation_subset(dataset: AdaptedDataset, split: SplitAssignment) -> AdaptedDataset:
    return subset_runs(dataset, split.val_engines)


def training_subset(dataset: AdaptedDataset, split: SplitAssignment) -> AdaptedDataset:
    return subset_runs(dataset, split.train_engines)
