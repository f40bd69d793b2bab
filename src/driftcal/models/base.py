"""Shared forecaster contract: config, model container, serialization."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..labeling import Standardizer, Windows

MODEL_MAGIC = "driftcal-model v2"


class ShapeMismatchError(ValueError):
    """Input window shape does not match the trained model."""


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; the message carries epoch/step."""


@dataclass(frozen=True)
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
    ridge: float = 1e-6  # the linear model's L2 penalty

    def __post_init__(self):
        for name in ("max_epochs", "batch_size", "patience", "d_model", "heads", "layers",
                     "hidden_width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("warmup_steps", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not (math.isfinite(self.base_lr) and self.base_lr > 0):
            raise ValueError(f"base_lr must be finite and > 0, got {self.base_lr}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if not (math.isfinite(self.ridge) and self.ridge >= 0):
            raise ValueError(f"ridge must be finite and >= 0, got {self.ridge}")
        if not (math.isfinite(self.smooth_l1_beta) and self.smooth_l1_beta > 0):
            raise ValueError(f"smooth_l1_beta must be finite and > 0, got {self.smooth_l1_beta}")
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

    ``params`` maps parameter names to float arrays (float32 as the
    quantile and attention fits return them, float64 otherwise and as
    loaded); ``meta``
    carries the kind-specific architecture settings needed to run the
    forward pass.
    """

    kind: str  # linear | quantile | attention
    params: dict[str, np.ndarray]
    window: int
    n_channels: int
    standardizer: Standardizer | None = None
    meta: dict = field(default_factory=dict)

    def standardize(self, windows: np.ndarray) -> np.ndarray:
        """Apply the stored training statistics (identity when absent)."""
        if self.standardizer is None:
            return windows
        return self.standardizer.transform(windows)


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
    """Read a save_model file; a malformed one raises one ValueError naming it."""
    return read_model(path)[0]


def read_model(path: str | Path) -> tuple[ForecastModel, dict]:
    """A save_model file's model and its whole header, the extra_header
    fields included; a malformed file raises one ValueError naming it."""
    with open(path, "rb") as f:
        magic = f.readline().rstrip(b"\n").decode("utf-8", "replace")
        if magic != MODEL_MAGIC:
            raise ValueError(f"{path}: not a {MODEL_MAGIC!r} file (magic {magic!r}); retrain it")
        header_line, blob = f.readline(), f.read()
    try:
        header = json.loads(header_line)
        sizes = [math.prod(shape) for _, shape in header["params"]]
        if len(blob) != 8 * sum(sizes):
            raise ValueError(f"{len(blob)} parameter bytes, expected {8 * sum(sizes)}")
        flat = np.frombuffer(blob, dtype="<f8").astype(np.float64)
        offsets = np.cumsum([0, *sizes]).tolist()
        params = {name: flat[offsets[i]:offsets[i + 1]].reshape(shape)
                  for i, (name, shape) in enumerate(header["params"])}
        std = header["standardizer"]
        standardizer = None
        if std is not None:
            stats = {name: np.array(std[name], dtype=np.float64) for name in ("mean", "std")}
            for name, values in stats.items():
                if values.shape != (header["n_channels"],):
                    raise ValueError(f"standardizer {name} of shape {values.shape}, "
                                     f"expected ({header['n_channels']},)")
            standardizer = Standardizer(**stats)
        model = ForecastModel(
            kind=header["kind"],
            params=params,
            window=header["window"],
            n_channels=header["n_channels"],
            standardizer=standardizer,
            meta=header["meta"],
        )
        return model, header
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"{path} is malformed: {type(exc).__name__}: {exc}") from exc


def validation_set(train: Windows, val: Windows) -> np.ndarray:
    """The float labels of the validation windows, which each fit gathers
    itself; both window sets must be non-empty and of one window shape."""
    if not train or not val:
        raise ValueError("need non-empty train and validation window sets")
    if val.shape != train.shape:
        raise ValueError(f"validation window shape {val.shape} != train {train.shape}")
    return val.label
