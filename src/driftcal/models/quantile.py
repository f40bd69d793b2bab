"""Multi-quantile pinball-loss regressor.

A two-layer feed-forward network (width 64, tanh) on flattened windows
with one output head per quantile level; trained on summed pinball losses.
Quantile crossing is rectified by sorting the head outputs per input.
"""

from __future__ import annotations

import numpy as np

from ..labeling import Standardizer, Windows
from .base import EpochLog, ForecastModel, TrainConfig, validation_set
from .nn import check_finite, pinball_grad, pinball_loss, tanh_grad, xavier_uniform
from .optim import fit_minibatch

DEFAULT_QUANTILES = (0.1, 0.5, 0.9)


def init_quantile_params(
    rng: np.random.Generator, n_features: int, hidden: int, n_quantiles: int
) -> dict[str, np.ndarray]:
    return {
        "l1.w": xavier_uniform(rng, (n_features, hidden)),
        "l1.b": np.zeros(hidden),
        "l2.w": xavier_uniform(rng, (hidden, hidden)),
        "l2.b": np.zeros(hidden),
        "head.w": xavier_uniform(rng, (hidden, n_quantiles)),
        "head.b": np.zeros(n_quantiles),
    }


def quantile_forward_batch(Xf: np.ndarray, params: dict[str, np.ndarray], check: bool = True):
    """Raw head outputs (B, n_quantiles) for flattened windows (B, p)."""
    h1 = np.tanh(Xf @ params["l1.w"] + params["l1.b"])
    h2 = np.tanh(h1 @ params["l2.w"] + params["l2.b"])
    out = h2 @ params["head.w"] + params["head.b"]
    if check:
        check_finite(out, "quantile head")
    return out, {"Xf": Xf, "h1": h1, "h2": h2}


def quantile_backward_batch(dout: np.ndarray, params: dict[str, np.ndarray], cache):
    grads: dict[str, np.ndarray] = {}
    grads["head.w"] = cache["h2"].T @ dout
    grads["head.b"] = dout.sum(axis=0)
    dh2 = (dout @ params["head.w"].T) * tanh_grad(cache["h2"])
    grads["l2.w"] = cache["h1"].T @ dh2
    grads["l2.b"] = dh2.sum(axis=0)
    dh1 = (dh2 @ params["l2.w"].T) * tanh_grad(cache["h1"])
    grads["l1.w"] = cache["Xf"].T @ dh1
    grads["l1.b"] = dh1.sum(axis=0)
    return grads


def quantile_loss_and_grads(Xf, y, params, quantiles):
    """Summed-over-levels mean pinball loss plus parameter gradients."""
    out, cache = quantile_forward_batch(Xf, params)
    n = len(y)
    loss = 0.0
    dout = np.empty_like(out)
    for j, q in enumerate(quantiles):
        loss += float(np.mean(pinball_loss(y, out[:, j], q)))
        dout[:, j] = pinball_grad(y, out[:, j], q) / n
    return loss, quantile_backward_batch(dout, params, cache)


def fit_quantile(
    train_windows: Windows,
    val_windows: Windows,
    cfg: TrainConfig,
    quantiles: tuple[float, ...] = DEFAULT_QUANTILES,
    standardizer: Standardizer | None = None,
) -> tuple[ForecastModel, list[EpochLog]]:
    """Mini-batch AdamW on summed pinball losses; early stopping on the
    validation pinball loss with cfg.patience."""
    quantiles = tuple(sorted(quantiles))
    Xva3, yva = validation_set(train_windows, val_windows)
    w, d = train_windows.shape
    # one GEMM over all validation windows: row blocks could round differently
    Xva = Xva3.reshape(len(yva), -1)

    def val_pinball(params):
        val_out, _ = quantile_forward_batch(Xva, params, check=False)
        return sum(
            float(np.mean(pinball_loss(yva, val_out[:, j], q)))
            for j, q in enumerate(quantiles)
        )

    params = init_quantile_params(
        np.random.default_rng([cfg.seed, 3]), w * d, cfg.hidden_width, len(quantiles)
    )
    best_params, logs = fit_minibatch(
        lambda Xb, yb, p: quantile_loss_and_grads(Xb, yb, p, quantiles),
        val_pinball,
        params,
        lambda idx: train_windows.take(idx).reshape(len(idx), -1),
        train_windows.label.astype(np.float64),
        cfg,
        np.random.default_rng([cfg.seed, 4]),
    )
    model = ForecastModel(
        kind="quantile",
        params=best_params,
        window=w,
        n_channels=d,
        standardizer=standardizer,
        meta={"quantiles": list(quantiles), "hidden_width": cfg.hidden_width},
    )
    return model, logs


def quantile_raw_batch(model: ForecastModel, X: np.ndarray) -> np.ndarray:
    """Rectified (sorted ascending) head outputs for standardized windows."""
    out, _ = quantile_forward_batch(X.reshape(X.shape[0], -1), model.params, check=False)
    return np.sort(out, axis=1)
