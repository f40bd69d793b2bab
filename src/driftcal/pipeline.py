"""End-to-end wiring: adapted runs -> windows -> forecasters -> scorers."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .adaptation import AdaptedDataset, subset_runs
from .labeling import (
    SplitAssignment,
    Standardizer,
    Windows,
    fit_standardizer,
    split_engines,
    window_runs,
)
from .metrics import RegressionReport, regression_metrics
from .models import (
    EpochLog,
    ForecastModel,
    TrainConfig,
    kind_of,
    predict_ttd_windows,
)
from .models.predict import _forecast
from .models.quantile import quantile_raw
from .scheduler import CycleScorer


@dataclass
class WindowBundle:
    """Windows for one adapted dataset, split at the engine level.

    ``*_raw`` windows carry original channel units; ``*_std`` are
    standardized with train statistics only. All four read the dataset's
    one raw channel matrix or its one standardized copy.
    """

    train_raw: Windows
    val_raw: Windows
    train_std: Windows
    val_std: Windows
    standardizer: Standardizer
    split: SplitAssignment


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
    windows = window_runs(dataset.runs, w=w, stride=stride, allow_cross_reset=allow_cross_reset)
    in_train = np.isin(windows.engine_id, split.train_engines)
    train_raw, val_raw = windows.subset(in_train), windows.subset(~in_train)
    if not train_raw or not val_raw:
        raise ValueError(
            f"split produced {len(train_raw)} train / {len(val_raw)} val windows; "
            f"runs may be shorter than w={w}"
        )
    standardizer = fit_standardizer(train_raw)
    channels_std = standardizer.transform(windows.channels)
    return WindowBundle(
        train_raw=train_raw,
        val_raw=val_raw,
        train_std=replace(train_raw, channels=channels_std),
        val_std=replace(val_raw, channels=channels_std),
        standardizer=standardizer,
        split=split,
    )


def train_forecaster(
    kind: str, bundle: WindowBundle, cfg: TrainConfig
) -> tuple[ForecastModel, list[EpochLog]]:
    """Fit one forecaster of a KINDS kind on the bundle's standardized train
    windows; the model carries the bundle's standardizer."""
    model, logs = kind_of(kind).fit(bundle.train_std, bundle.val_std, cfg)
    return replace(model, standardizer=bundle.standardizer), logs


def evaluate_forecaster(
    model: ForecastModel, windows_raw: Windows
) -> tuple[RegressionReport, np.ndarray, np.ndarray]:
    """Validation metrics plus (true, predicted) pairs for scatter output."""
    yhat = predict_ttd_windows(model, windows_raw)
    return regression_metrics(windows_raw.label, yhat), windows_raw.label, yhat


def forecast_scorer(
    model: ForecastModel, dataset: AdaptedDataset, use_quantile: bool = False
) -> CycleScorer:
    """Per-cycle decision scores for every run in the dataset.

    Scores exist at cycles >= w (a full window is needed). The point score
    is the clipped forecast; with use_quantile=True it is the rectified,
    clipped lowest-level quantile (q10). One forecast covers the dataset's
    windows, gathered a block at a time, so a window scores the bits
    evaluate_forecaster gives it. A window with a non-finite cell raises
    ValueError, as ``window_runs`` does.
    """
    scores: dict[tuple[int, int], float] = {}
    windows = window_runs(dataset.runs, w=model.window) if dataset.runs else None
    if windows:  # else no run is w cycles long
        values = (_forecast(model, windows, quantile_raw)[:, 0] if use_quantile
                  else predict_ttd_windows(model, windows))
        keys = zip(windows.engine_id.tolist(), windows.end_cycle.tolist())
        scores = dict(zip(keys, values.tolist()))
    return CycleScorer(scores=scores, start_cycle=model.window)


def validation_subset(dataset: AdaptedDataset, split: SplitAssignment) -> AdaptedDataset:
    return subset_runs(dataset, split.val_engines)


def training_subset(dataset: AdaptedDataset, split: SplitAssignment) -> AdaptedDataset:
    return subset_runs(dataset, split.train_engines)
