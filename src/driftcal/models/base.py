"""Shared forecaster contract: config, model container, serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..labeling import Standardizer

MODEL_MAGIC = "driftcal-model v1"


class ShapeMismatchError(ValueError):
    """Input window shape does not match the trained model."""


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; the message carries epoch/step."""


@dataclass
class TrainConfig:
    max_epochs: int = 40
    batch_size: int = 64
    base_lr: float = 3e-4
    warmup_steps: int = 100
    patience: int = 6
    seed: int = 0
    weight_decay: float = 0.01
    smooth_l1_beta: float = 1.0
    # attention extras
    d_model: int = 64
    heads: int = 4
    layers: int = 2
    pool: str = "mean"  # or "last"
    # quantile extras
    hidden_width: int = 64

    def __post_init__(self):
        for name in ("max_epochs", "batch_size", "patience", "d_model", "heads", "hidden_width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be >= 0")
        if self.d_model % self.heads != 0:
            raise ValueError(f"heads ({self.heads}) must divide d_model ({self.d_model})")
        if self.pool not in ("mean", "last"):
            raise ValueError(f"pool must be 'mean' or 'last', got {self.pool!r}")


@dataclass(frozen=True)
class EpochLog:
    epoch: int
    train_loss: float
    val_metric: float  # MAE for attention; for quantile, the sum over levels of the mean pinball
    lr: float


@dataclass
class ForecastModel:
    """A trained forecaster plus the standardizer it was trained with.

    ``params`` maps parameter names to float64 arrays; ``meta`` carries the
    kind-specific architecture settings needed to run the forward pass.
    """

    kind: str  # linear | quantile | attention
    params: dict[str, np.ndarray]
    window: int
    n_channels: int
    standardizer: Standardizer | None = None
    meta: dict = field(default_factory=dict)

    @property
    def n_features(self) -> int:
        return self.window * self.n_channels

    def check_window(self, window: np.ndarray) -> None:
        if window.shape != (self.window, self.n_channels):
            raise ShapeMismatchError(
                f"expected window of shape ({self.window}, {self.n_channels}), "
                f"got {window.shape}"
            )

    def standardize(self, windows: np.ndarray) -> np.ndarray:
        """Apply the stored training statistics (identity when absent)."""
        if self.standardizer is None:
            return windows
        return self.standardizer.transform(windows)


def flatten_params(params: dict[str, np.ndarray]) -> np.ndarray:
    """Concatenate all parameters (sorted by name) into one flat vector."""
    return np.concatenate([params[name].ravel() for name in sorted(params)])


def unflatten_params(flat: np.ndarray, template: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    out = {}
    offset = 0
    for name in sorted(template):
        size = template[name].size
        out[name] = flat[offset : offset + size].reshape(template[name].shape).copy()
        offset += size
    return out


def save_model(model: ForecastModel, path: str | Path, extra_header: dict | None = None) -> None:
    """Versioned text header (shapes, meta, standardizer) + little-endian
    float64 blob. Identical models produce byte-identical files."""
    for name, arr in model.params.items():
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"refusing to save non-finite parameter {name!r}")
    names = sorted(model.params)
    header = {
        "kind": model.kind,
        "window": model.window,
        "n_channels": model.n_channels,
        "meta": model.meta,
        "standardizer": None
        if model.standardizer is None
        else {
            "mean": model.standardizer.mean.tolist(),
            "std": model.standardizer.std.tolist(),
        },
        "params": [[name, list(model.params[name].shape)] for name in names],
    }
    if extra_header:
        header.update(extra_header)
    blob = b"".join(
        np.ascontiguousarray(model.params[name], dtype="<f8").tobytes() for name in names
    )
    with open(path, "wb") as f:
        f.write(MODEL_MAGIC.encode("utf-8") + b"\n")
        f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        f.write(blob)


def load_model(path: str | Path) -> ForecastModel:
    with open(path, "rb") as f:
        magic = f.readline().rstrip(b"\n").decode("utf-8")
        if magic != MODEL_MAGIC:
            raise ValueError(f"{path}: not a model file (magic {magic!r})")
        header = json.loads(f.readline().decode("utf-8"))
        blob = f.read()
    params = {}
    offset = 0
    for name, shape in header["params"]:
        size = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(blob, dtype="<f8", count=size, offset=offset * 8)
        params[name] = arr.reshape(shape).astype(np.float64)
        offset += size
    std = header["standardizer"]
    standardizer = None
    if std is not None:
        standardizer = Standardizer(
            mean=np.array(std["mean"], dtype=np.float64),
            std=np.array(std["std"], dtype=np.float64),
        )
    return ForecastModel(
        kind=header["kind"],
        params=params,
        window=header["window"],
        n_channels=header["n_channels"],
        standardizer=standardizer,
        meta=header["meta"],
    )


def stack_windows(windows) -> tuple[np.ndarray, np.ndarray]:
    """(B, w, d) features and (B,) float labels from LabeledWindows."""
    if not windows:
        raise ValueError("empty window set")
    X = np.stack([win.features for win in windows]).astype(np.float64, copy=False)
    y = np.array([win.label for win in windows], dtype=np.float64)
    return X, y


def stack_train_val(train_windows, val_windows):
    """Stacked (X, y) train and validation sets, both non-empty and of one
    window shape."""
    if not train_windows or not val_windows:
        raise ValueError("need non-empty train and validation window sets")
    Xtr, ytr = stack_windows(train_windows)
    Xva, yva = stack_windows(val_windows)
    if Xva.shape[1:] != Xtr.shape[1:]:
        raise ValueError(f"validation window shape {Xva.shape[1:]} != train {Xtr.shape[1:]}")
    return Xtr, ytr, Xva, yva
