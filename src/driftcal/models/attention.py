"""Compact self-attention sequence regressor.

Input windows are projected to d_model, given sinusoidal positional codes,
passed through pre-norm encoder layers (multi-head self-attention and a
4x-width feed-forward block, both with residual connections), pooled over
time, and read out by a linear head. Forward and backward passes are
explicit so gradients can be verified against finite differences.
"""

from __future__ import annotations

import math

import numpy as np

from ..labeling import Standardizer, Windows
from .base import EpochLog, ForecastModel, TrainConfig, validation_set
from .nn import (
    check_finite,
    gelu_forward,
    gelu_grad,
    layer_norm,
    layer_norm_backward,
    positional_encoding,
    smooth_l1,
    smooth_l1_grad,
    softmax,
    softmax_backward,
    xavier_uniform,
)
from .optim import fit_minibatch


def init_attention_params(
    rng: np.random.Generator, n_channels: int, d_model: int, heads: int, layers: int
) -> dict[str, np.ndarray]:
    """Xavier-uniform weights, zero biases, unit layer-norm gains."""
    if d_model % heads != 0:
        raise ValueError(f"heads ({heads}) must divide d_model ({d_model})")
    p: dict[str, np.ndarray] = {}
    p["in_proj.w"] = xavier_uniform(rng, (n_channels, d_model))
    p["in_proj.b"] = np.zeros(d_model)
    for i in range(layers):
        pfx = f"enc{i}."
        p[pfx + "ln1.g"] = np.ones(d_model)
        p[pfx + "ln1.b"] = np.zeros(d_model)
        for name in ("wq", "wk", "wv", "wo"):
            p[pfx + "attn." + name] = xavier_uniform(rng, (d_model, d_model))
            p[pfx + "attn." + name.replace("w", "b")] = np.zeros(d_model)
        p[pfx + "ln2.g"] = np.ones(d_model)
        p[pfx + "ln2.b"] = np.zeros(d_model)
        p[pfx + "ffn.w1"] = xavier_uniform(rng, (d_model, 4 * d_model))
        p[pfx + "ffn.b1"] = np.zeros(4 * d_model)
        p[pfx + "ffn.w2"] = xavier_uniform(rng, (4 * d_model, d_model))
        p[pfx + "ffn.b2"] = np.zeros(d_model)
    p["head.w"] = xavier_uniform(rng, (d_model, 1))
    p["head.b"] = np.zeros(1)
    return p


def n_encoder_layers(params: dict[str, np.ndarray]) -> int:
    layers = {int(name.split(".")[0][3:]) for name in params if name.startswith("enc")}
    return max(layers) + 1 if layers else 0


# Windows per inference forward. Activations scale with the batch, so
# scoring in fixed chunks keeps memory flat however many windows there are.
INFERENCE_CHUNK = 128


def _mm(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(..., din) @ (din, dout) via one 2-d GEMM (fast on single-core BLAS)."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(x.shape[:-1] + (w.shape[1],))


def _gram(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Weight gradient sum_bw x^T dy as one 2-d GEMM."""
    return x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])


def mha_forward(x: np.ndarray, params: dict[str, np.ndarray], prefix: str, heads: int):
    """Multi-head self-attention over (B, w, d_model) inputs."""
    B, w, dm = x.shape
    dh = dm // heads
    scale = 1.0 / math.sqrt(dh)
    q = _mm(x, params[prefix + "wq"]) + params[prefix + "bq"]
    k = _mm(x, params[prefix + "wk"]) + params[prefix + "bk"]
    v = _mm(x, params[prefix + "wv"]) + params[prefix + "bv"]
    qh = q.reshape(B, w, heads, dh).transpose(0, 2, 1, 3)
    kh = k.reshape(B, w, heads, dh).transpose(0, 2, 1, 3)
    vh = v.reshape(B, w, heads, dh).transpose(0, 2, 1, 3)
    scores = (qh @ kh.transpose(0, 1, 3, 2)) * scale
    attn = softmax(scores, axis=-1)  # (B, heads, w, w), rows sum to 1
    oh = attn @ vh
    merged = oh.transpose(0, 2, 1, 3).reshape(B, w, dm)
    out = _mm(merged, params[prefix + "wo"]) + params[prefix + "bo"]
    cache = {
        "x": x, "qh": qh, "kh": kh, "vh": vh, "attn": attn, "merged": merged,
        "prefix": prefix, "heads": heads, "scale": scale,
    }
    return out, cache


def mha_backward(dout: np.ndarray, params: dict[str, np.ndarray], cache):
    x = cache["x"]
    B, w, dm = x.shape
    heads, dh = cache["heads"], dm // cache["heads"]
    prefix = cache["prefix"]
    grads = {}
    grads[prefix + "wo"] = _gram(cache["merged"], dout)
    grads[prefix + "bo"] = dout.sum(axis=(0, 1))
    dmerged = _mm(dout, params[prefix + "wo"].T)
    doh = dmerged.reshape(B, w, heads, dh).transpose(0, 2, 1, 3)
    dattn = doh @ cache["vh"].transpose(0, 1, 3, 2)
    dvh = cache["attn"].transpose(0, 1, 3, 2) @ doh
    dscores = softmax_backward(dattn, cache["attn"]) * cache["scale"]
    dqh = dscores @ cache["kh"]
    dkh = dscores.transpose(0, 1, 3, 2) @ cache["qh"]
    dq = dqh.transpose(0, 2, 1, 3).reshape(B, w, dm)
    dk = dkh.transpose(0, 2, 1, 3).reshape(B, w, dm)
    dv = dvh.transpose(0, 2, 1, 3).reshape(B, w, dm)
    grads[prefix + "wq"] = _gram(x, dq)
    grads[prefix + "bq"] = dq.sum(axis=(0, 1))
    grads[prefix + "wk"] = _gram(x, dk)
    grads[prefix + "bk"] = dk.sum(axis=(0, 1))
    grads[prefix + "wv"] = _gram(x, dv)
    grads[prefix + "bv"] = dv.sum(axis=(0, 1))
    dx = _mm(dq, params[prefix + "wq"].T)
    dx += _mm(dk, params[prefix + "wk"].T)
    dx += _mm(dv, params[prefix + "wv"].T)
    return dx, grads


def _head(z: np.ndarray, params: dict[str, np.ndarray]) -> np.ndarray:
    """Linear read-out of the pooled (B, d_model) features."""
    return z @ params["head.w"][:, 0] + params["head.b"][0]


def attention_forward_batch(
    X: np.ndarray,
    params: dict[str, np.ndarray],
    heads: int,
    pool: str = "mean",
    check: bool = True,
):
    """Raw (unclipped) forecasts for a batch of windows (B, w, d)."""
    B, w, _ = X.shape
    d_model = params["in_proj.w"].shape[1]
    h = _mm(X, params["in_proj.w"]) + params["in_proj.b"] + positional_encoding(w, d_model)
    if check:
        check_finite(h, "in_proj")
    layer_caches = []
    for i in range(n_encoder_layers(params)):
        pfx = f"enc{i}."
        n1, ln1c = layer_norm(h, params[pfx + "ln1.g"], params[pfx + "ln1.b"])
        a, attnc = mha_forward(n1, params, pfx + "attn.", heads)
        if check:
            check_finite(a, f"enc{i}.attn")
        h1 = h + a
        n2, ln2c = layer_norm(h1, params[pfx + "ln2.g"], params[pfx + "ln2.b"])
        u = _mm(n2, params[pfx + "ffn.w1"]) + params[pfx + "ffn.b1"]
        g, tanh_u = gelu_forward(u)
        f = _mm(g, params[pfx + "ffn.w2"]) + params[pfx + "ffn.b2"]
        if check:
            check_finite(f, f"enc{i}.ffn")
        layer_caches.append(
            {"ln1c": ln1c, "attnc": attnc, "ln2c": ln2c, "n2": n2, "u": u,
             "tanh_u": tanh_u, "g": g}
        )
        h = h1 + f
    z = h.mean(axis=1) if pool == "mean" else h[:, -1, :]
    yhat = _head(z, params)
    if check:
        check_finite(yhat, "head")
    cache = {"X": X, "layer_caches": layer_caches, "z": z, "pool": pool, "w": w}
    return yhat, cache


def attention_backward_batch(dyhat: np.ndarray, params: dict[str, np.ndarray], cache):
    X = cache["X"]
    B, w, _ = X.shape
    d_model = params["in_proj.w"].shape[1]
    grads: dict[str, np.ndarray] = {}
    grads["head.w"] = (cache["z"].T @ dyhat)[:, None]
    grads["head.b"] = np.array([dyhat.sum()])
    dz = dyhat[:, None] * params["head.w"][:, 0][None, :]
    if cache["pool"] == "mean":
        dh = np.repeat(dz[:, None, :], w, axis=1) / w
    else:
        dh = np.zeros((B, w, d_model))
        dh[:, -1, :] = dz
    for i in reversed(range(len(cache["layer_caches"]))):
        c = cache["layer_caches"][i]
        pfx = f"enc{i}."
        # h_out = h1 + ffn(ln2(h1)); the residual passes dh straight through
        df = dh
        grads[pfx + "ffn.w2"] = _gram(c["g"], df)
        grads[pfx + "ffn.b2"] = df.sum(axis=(0, 1))
        dg = _mm(df, params[pfx + "ffn.w2"].T)
        du = dg * gelu_grad(c["u"], c["tanh_u"])
        grads[pfx + "ffn.w1"] = _gram(c["n2"], du)
        grads[pfx + "ffn.b1"] = du.sum(axis=(0, 1))
        dn2 = _mm(du, params[pfx + "ffn.w1"].T)
        dh1_ln, dg2, db2 = layer_norm_backward(dn2, c["ln2c"])
        grads[pfx + "ln2.g"] = dg2
        grads[pfx + "ln2.b"] = db2
        dh1 = dh + dh1_ln
        # h1 = h + attn(ln1(h))
        dn1, attn_grads = mha_backward(dh1, params, c["attnc"])
        grads.update(attn_grads)
        dh_ln, dg1, db1 = layer_norm_backward(dn1, c["ln1c"])
        grads[pfx + "ln1.g"] = dg1
        grads[pfx + "ln1.b"] = db1
        dh = dh1 + dh_ln
    grads["in_proj.w"] = _gram(X, dh)
    grads["in_proj.b"] = dh.sum(axis=(0, 1))
    return grads


def attention_loss_and_grads(X, y, params, heads, pool="mean", beta: float = 1.0):
    """Mean SmoothL1 over the batch plus gradients for every parameter."""
    yhat, cache = attention_forward_batch(X, params, heads, pool)
    err = yhat - y
    loss = float(np.mean(smooth_l1(err, beta)))
    dyhat = smooth_l1_grad(err, beta) / len(y)
    return loss, attention_backward_batch(dyhat, params, cache)


def train_attention(
    train_windows: Windows,
    val_windows: Windows,
    cfg: TrainConfig,
    standardizer: Standardizer | None = None,
) -> tuple[ForecastModel, list[EpochLog]]:
    """SmoothL1 + AdamW + warmup/cosine, early stopping on validation MAE.

    Deterministic for a fixed cfg.seed: init, shuffling, and the batch
    reduction order are all derived from it.
    """
    Xva, yva = validation_set(train_windows, val_windows)
    w, d = train_windows.shape

    def val_mae(params):
        val_pred = _forward_chunks(Xva, params, cfg.heads, cfg.pool)
        return float(np.mean(np.abs(np.maximum(val_pred, 0.0) - yva)))

    params = init_attention_params(
        np.random.default_rng([cfg.seed, 1]), d, cfg.d_model, cfg.heads, cfg.layers
    )
    best_params, logs = fit_minibatch(
        lambda Xb, yb, p: attention_loss_and_grads(
            Xb, yb, p, cfg.heads, cfg.pool, cfg.smooth_l1_beta
        ),
        val_mae,
        params,
        train_windows.take,
        train_windows.label.astype(np.float64),
        cfg,
        np.random.default_rng([cfg.seed, 2]),
    )

    model = ForecastModel(
        kind="attention",
        params=best_params,
        window=w,
        n_channels=d,
        standardizer=standardizer,
        meta={
            "d_model": cfg.d_model,
            "heads": cfg.heads,
            "layers": cfg.layers,
            "pool": cfg.pool,
            "smooth_l1_beta": cfg.smooth_l1_beta,
        },
    )
    return model, logs


def _forward_chunks(X: np.ndarray, params: dict[str, np.ndarray], heads: int,
                    pool: str) -> np.ndarray:
    """Raw forecasts for (B, w, d) windows, equal bit for bit to one
    attention_forward_batch call over all of X.

    The encoder runs INFERENCE_CHUNK windows at a time; each window's
    pooled features depend on that window alone. The read-out runs once
    over all of them, because numpy computes a one-row read-out (a last
    chunk of one window) as a dot product, which rounds differently.
    """
    z = np.empty((len(X), params["in_proj.w"].shape[1]))
    for start in range(0, len(X), INFERENCE_CHUNK):
        stop = start + INFERENCE_CHUNK
        # keep only z: the chunk's activation cache is freed before the next one
        z[start:stop] = attention_forward_batch(
            X[start:stop], params, heads, pool, check=False
        )[1]["z"]
    return _head(z, params)


def attention_raw_batch(model: ForecastModel, X: np.ndarray) -> np.ndarray:
    """Raw predictions for standardized windows (B, w, d)."""
    return _forward_chunks(X, model.params, model.meta["heads"], model.meta.get("pool", "mean"))
