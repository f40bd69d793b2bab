"""Multi-quantile pinball-loss regressor.

A two-layer feed-forward network (width 64, tanh) on flattened windows
with one output head per level of QUANTILES; trained on summed pinball
losses. Quantile crossing is rectified by sorting the head outputs per input.

The network trains and forecasts in float32 (DTYPE): its parameters are
drawn in float64 and rounded once, and the model file stores them as
float64 values that float32 holds exactly. Its forward, backward and loss
follow their inputs' dtype, so the gradient checks run them in float64.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..labeling import Windows, window_chunks
from .base import EpochLog, ForecastModel, TrainConfig, validation_set
from .nn import as_dtype, check_finite, pinball_grad, pinball_loss, tanh_grad, xavier_uniform
from .optim import fit_minibatch
from .threads import one_blas_thread

QUANTILES = (0.1, 0.5, 0.9)  # ascending
DTYPE = np.float32
# windows per hidden-layer product in _heads: a multiple of the 24-row unroll
# of OpenBLAS's Haswell sgemm, whose rows otherwise round unlike one product's
HEAD_CHUNK = 768


def init_quantile_params(
    rng: np.random.Generator, n_features: int, hidden: int
) -> dict[str, np.ndarray]:
    return {
        "l1.w": xavier_uniform(rng, (n_features, hidden)),
        "l1.b": np.zeros(hidden),
        "l2.w": xavier_uniform(rng, (hidden, hidden)),
        "l2.b": np.zeros(hidden),
        "head.w": xavier_uniform(rng, (hidden, len(QUANTILES))),
        "head.b": np.zeros(len(QUANTILES)),
    }


def _hidden(Xf: np.ndarray, params: dict[str, np.ndarray]):
    h1 = np.tanh(Xf @ params["l1.w"] + params["l1.b"])
    return h1, np.tanh(h1 @ params["l2.w"] + params["l2.b"])


def quantile_forward_batch(Xf: np.ndarray, params: dict[str, np.ndarray], check: bool = True):
    """Raw head outputs (B, n_quantiles) for flattened windows (B, p)."""
    h1, h2 = _hidden(Xf, params)
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


def quantile_loss_and_grads(Xf, y, params):
    """Summed-over-levels mean pinball loss plus parameter gradients."""
    out, cache = quantile_forward_batch(Xf, params)
    n = len(y)
    loss = 0.0
    dout = np.empty_like(out)
    for j, q in enumerate(QUANTILES):
        loss += float(np.mean(pinball_loss(y, out[:, j], q)))
        dout[:, j] = pinball_grad(y, out[:, j], q) / n
    return loss, quantile_backward_batch(dout, params, cache)


def fit_quantile(
    train_windows: Windows, val_windows: Windows, cfg: TrainConfig
) -> tuple[ForecastModel, list[EpochLog]]:
    """Mini-batch AdamW on summed pinball losses at the QUANTILES levels;
    early stopping on the validation pinball loss with cfg.patience. The
    labels, channels and parameters are cast to DTYPE once, and the
    returned parameters are DTYPE arrays."""
    yva = validation_set(train_windows, val_windows).astype(DTYPE)
    w, d = train_windows.shape
    shared = val_windows.channels is train_windows.channels  # as the WindowBundle's are
    train_windows = replace(train_windows, channels=train_windows.channels.astype(DTYPE))
    val_windows = replace(val_windows, channels=train_windows.channels if shared
                          else val_windows.channels.astype(DTYPE))

    def val_pinball(params):
        val_out = _heads(val_windows.take, len(yva), params)
        return sum(
            float(np.mean(pinball_loss(yva, val_out[:, j], q)))
            for j, q in enumerate(QUANTILES)
        )

    params = as_dtype(
        init_quantile_params(np.random.default_rng([cfg.seed, 3]), w * d, cfg.hidden_width), DTYPE)
    with one_blas_thread():
        best_params, logs = fit_minibatch(
            quantile_loss_and_grads,
            val_pinball,
            params,
            lambda idx: train_windows.take(idx).reshape(len(idx), -1),
            train_windows.label.astype(DTYPE),
            cfg,
            np.random.default_rng([cfg.seed, 4]),
        )
    model = ForecastModel(
        kind="quantile",
        params=best_params,
        window=w,
        n_channels=d,
        meta={"quantiles": list(QUANTILES), "hidden_width": cfg.hidden_width},
    )
    return model, logs


def _heads(take, n: int, params: dict[str, np.ndarray]) -> np.ndarray:
    """Raw head outputs (n, n_quantiles) in DTYPE for the n windows
    take(rows) gathers (cast to DTYPE), equal bit for bit to one
    quantile_forward_batch in DTYPE: the hidden layers run per HEAD_CHUNK
    slice of window_chunks, the 3-column head once over all rows, as the
    head's rows over a slice need not round as over the whole product
    (in float64, slices of up to 5,208 rows took OpenBLAS's small-matrix
    kernel)."""
    h2 = np.empty((n, params["l2.w"].shape[1]), dtype=DTYPE)
    for rows in window_chunks(n, HEAD_CHUNK):
        Xf = take(rows).reshape(-1, len(params["l1.w"])).astype(DTYPE, copy=False)
        h2[rows] = _hidden(Xf, params)[1]
    return h2 @ params["head.w"] + params["head.b"]


def quantile_raw(model: ForecastModel, take, n: int) -> np.ndarray:
    """Rectified (sorted) head outputs, as float64, for n standardized
    windows: a DTYPE forward of the model's parameters rounded to DTYPE
    (exact for a model fit_quantile trained), at one BLAS thread."""
    with one_blas_thread():
        return np.sort(_heads(take, n, as_dtype(model.params, DTYPE)), axis=1).astype(np.float64)
