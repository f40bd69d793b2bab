"""Compact self-attention sequence regressor.

Input windows are projected to d_model, given sinusoidal positional codes,
passed through pre-norm encoder layers (multi-head self-attention and a
4x-width feed-forward block, both with residual connections), pooled over
time, and read out by a linear head. Forward and backward passes are
explicit so gradients can be verified against finite differences.

A batch's per-window work runs in row slices on several threads, at one
BLAS thread; models/threads.py says how.
"""

from __future__ import annotations

import copy
import functools
import math
import threading

import numpy as np

from ..labeling import Standardizer, Windows
from .base import EpochLog, ForecastModel, TrainConfig, validation_set
from .nn import (
    NonFiniteError,
    check_finite,
    gelu_forward,
    gelu_from_tanh,
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
from .threads import one_blas_thread, row_slices, run_tasks


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
        # one packed Q|K|V projection, each block drawn as its own square layer
        p[pfx + "attn.wqkv"] = np.hstack([xavier_uniform(rng, (d_model, d_model)) for _ in "qkv"])
        p[pfx + "attn.bqkv"] = np.zeros(3 * d_model)
        p[pfx + "attn.wo"] = xavier_uniform(rng, (d_model, d_model))
        p[pfx + "attn.bo"] = np.zeros(d_model)
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


# Windows per inference forward outside training (a fit's validation
# forwards run in chunks of its batch, through its workspace). It equals the
# default batch, so inference holds no more activations than a training
# step, and fixed chunks keep memory flat however many windows there are.
INFERENCE_CHUNK = 64


# -- workspace ---------------------------------------------------------------

class Workspace:
    """Activation buffers that attention forwards and backwards reuse.

    Each named buffer is allocated on first use, for ``capacity`` windows;
    a batch of B <= capacity windows works in its leading B rows, which are
    C-contiguous. A row slice of the batch works in ``rows(start)``, which
    shares the buffers. A forward's cache reads the workspace, so a
    workspace serves one batch at a time: its backward must run before the
    next forward into the same workspace. Dead values share buffers: all
    layers write their GELU output into one, and the feed-forward backward
    writes dg into the layer's u and du into its tanh_u.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.start = 0
        self._buffers: dict[str, np.ndarray] = {}
        self._lock = threading.Lock()  # slices of one batch allocate a buffer once

    def allocated(self) -> bool:
        """Whether any buffer has been allocated."""
        return bool(self._buffers)

    def rows(self, start: int) -> Workspace:
        """This workspace, with batches from row ``start`` on."""
        view = copy.copy(self)
        view.start = start
        return view

    def get(self, name: str, B: int, *shape: int) -> np.ndarray:
        """The (B, *shape) rows of buffer ``name`` from this view's start."""
        stop = self.start + B
        if stop > self.capacity:
            raise ValueError(f"batch of {stop} windows exceeds the workspace's {self.capacity}")
        buf = self._buffers.get(name)
        if buf is None or buf.shape[1:] != shape:
            with self._lock:
                buf = self._buffers.get(name)
                if buf is None or buf.shape[1:] != shape:
                    buf = self._buffers[name] = np.empty((self.capacity, *shape))
        return buf[self.start : stop]

    def layer_norm(self, name: str, B: int, w: int, dm: int):
        """The (y, xhat, inv) buffers of one layer norm."""
        return (self.get(name + ".y", B, w, dm), self.get(name + ".xhat", B, w, dm),
                self.get(name + ".inv", B, w, 1))


def _mm(x: np.ndarray, w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(..., din) @ (din, dout) into ``out`` via one 2-d GEMM (fast on
    single-core BLAS); x and out are C-contiguous.

    A transposed w is copied first: OpenBLAS's small-matrix kernel for a
    transposed operand rounds a row differently with the number of rows, so
    a row slice would not equal its rows of the whole batch.
    """
    np.matmul(x.reshape(-1, x.shape[-1]), np.ascontiguousarray(w),
              out=out.reshape(-1, w.shape[1]))
    return out


def _gram(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Weight gradient sum_bw x^T dy as one 2-d GEMM."""
    return x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])


def _merge_heads(xh: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(B, heads, w, dh) per-head values copied into (B, w, heads * dh) ``out``."""
    B, heads, w, dh = xh.shape
    out.reshape(B, w, heads, dh)[...] = xh.transpose(0, 2, 1, 3)
    return out


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(B, heads, w, dh) view of (B, w, heads * dh) values."""
    B, w, dm = x.shape
    return x.reshape(B, w, heads, dm // heads).transpose(0, 2, 1, 3)


def mha_forward(x: np.ndarray, params: dict[str, np.ndarray], prefix: str, heads: int,
                ws: Workspace | None = None):
    """Multi-head self-attention over (B, w, d_model) inputs.

    The packed Q|K|V projection, the attention weights and the merged heads,
    which the backward reads, live in buffers named after ``prefix``; the
    output in one buffer every sublayer shares.
    """
    B, w, dm = x.shape
    ws = Workspace(B) if ws is None else ws
    dh = dm // heads
    scale = 1.0 / math.sqrt(dh)
    qkv = _mm(x, params[prefix + "wqkv"], ws.get(prefix + "qkv", B, w, 3 * dm))
    qkv += params[prefix + "bqkv"]
    qh, kh, vh = (_split_heads(part, heads) for part in np.split(qkv, 3, axis=-1))
    attn = np.matmul(qh, kh.transpose(0, 1, 3, 2), out=ws.get(prefix + "attn", B, heads, w, w))
    attn *= scale  # the scores, then in place their softmax: rows sum to 1
    softmax(attn, axis=-1, out=attn)
    oh = np.matmul(attn, vh, out=ws.get("oh", B, heads, w, dh))
    merged = _merge_heads(oh, ws.get(prefix + "merged", B, w, dm))
    out = _mm(merged, params[prefix + "wo"], ws.get("sublayer", B, w, dm))
    out += params[prefix + "bo"]
    cache = {
        "x": x, "qh": qh, "kh": kh, "vh": vh, "attn": attn, "merged": merged,
        "prefix": prefix, "heads": heads, "scale": scale, "ws": ws,
    }
    return out, cache


def mha_backward(dout: np.ndarray, params: dict[str, np.ndarray], cache) -> np.ndarray:
    """dx for dout of mha_forward's output. The packed Q|K|V gradient stays
    in buffer d_qkv: with dout, x and the merged heads it gives the weight
    gradients, which _layer_grads sums over the whole batch."""
    x, ws = cache["x"], cache["ws"]
    B, w, dm = x.shape
    heads, dh = cache["heads"], dm // cache["heads"]
    prefix = cache["prefix"]
    dmerged = _mm(dout, params[prefix + "wo"].T, ws.get("d_merged", B, w, dm))
    doh = _split_heads(dmerged, heads)
    dattn = np.matmul(doh, cache["vh"].transpose(0, 1, 3, 2),
                      out=ws.get("d_attn", B, heads, w, w))
    dheads = ws.get("d_heads", B, heads, w, dh)
    dqkv = ws.get("d_qkv", B, w, 3 * dm)
    dq, dk, dv = np.split(dqkv, 3, axis=-1)  # column views; _merge_heads reshapes them as views
    _merge_heads(np.matmul(cache["attn"].transpose(0, 1, 3, 2), doh, out=dheads), dv)
    dscores = softmax_backward(dattn, cache["attn"], out=ws.get("d_scores", B, heads, w, w))
    dscores *= cache["scale"]
    _merge_heads(np.matmul(dscores, cache["kh"], out=dheads), dq)
    _merge_heads(np.matmul(dscores.transpose(0, 1, 3, 2), cache["qh"], out=dheads), dk)
    return _mm(dqkv, params[prefix + "wqkv"].T, ws.get("d_x", B, w, dm))


def _head(z: np.ndarray, params: dict[str, np.ndarray]) -> np.ndarray:
    """Linear read-out of the pooled (B, d_model) features."""
    return z @ params["head.w"][:, 0] + params["head.b"][0]


def _encode(X: np.ndarray, params: dict[str, np.ndarray], heads: int, pool: str, check: bool,
            ws: Workspace, z: np.ndarray) -> list[dict]:
    """The encoder over windows X (B, w, d) in workspace ``ws``, their
    pooled features written to z; returns the layer caches."""
    B, w, _ = X.shape
    d_model = params["in_proj.w"].shape[1]
    # h is the residual stream, updated in place: h += a is h + a, bit for bit
    h = _mm(X, params["in_proj.w"], ws.get("h", B, w, d_model))
    h += params["in_proj.b"]
    h += positional_encoding(w, d_model)
    if check:
        check_finite(h, "in_proj")
    layer_caches = []
    for i in range(n_encoder_layers(params)):
        pfx = f"enc{i}."
        dff = params[pfx + "ffn.w1"].shape[1]
        n1, ln1c = layer_norm(h, params[pfx + "ln1.g"], params[pfx + "ln1.b"],
                              out=ws.layer_norm(pfx + "ln1", B, w, d_model))
        a, attnc = mha_forward(n1, params, pfx + "attn.", heads, ws)
        if check:
            check_finite(a, f"enc{i}.attn")
        h += a
        n2, ln2c = layer_norm(h, params[pfx + "ln2.g"], params[pfx + "ln2.b"],
                              out=ws.layer_norm(pfx + "ln2", B, w, d_model))
        u = _mm(n2, params[pfx + "ffn.w1"], ws.get(pfx + "u", B, w, dff))
        u += params[pfx + "ffn.b1"]
        g, tanh_u = gelu_forward(u, out=(ws.get("g", B, w, dff),
                                         ws.get(pfx + "tanh_u", B, w, dff)))
        f = _mm(g, params[pfx + "ffn.w2"], ws.get("sublayer", B, w, d_model))
        f += params[pfx + "ffn.b2"]
        if check:
            check_finite(f, f"enc{i}.ffn")
        layer_caches.append({"ln1c": ln1c, "attnc": attnc, "ln2c": ln2c, "u": u,
                             "tanh_u": tanh_u})
        h += f
    if pool == "mean":
        np.mean(h, axis=1, out=z)
    else:
        z[...] = h[:, -1, :]
    return layer_caches


def _check_order(params: dict[str, np.ndarray]) -> list[str]:
    """The layers _encode checks for non-finite values, in pass order."""
    return ["in_proj", *(f"enc{i}.{part}" for i in range(n_encoder_layers(params))
                         for part in ("attn", "ffn"))]


def attention_forward_batch(
    X: np.ndarray,
    params: dict[str, np.ndarray],
    heads: int,
    pool: str = "mean",
    check: bool = True,
    workspace: Workspace | None = None,
):
    """Raw (unclipped) forecasts for a batch of windows (B, w, d).

    Activations go into ``workspace``, or a fresh one for this batch; the
    returned cache reads them, and holds the workspace for the backward.
    A window that turns non-finite raises NonFiniteError naming the first
    layer, in pass order, where any window did.
    """
    B, w, _ = X.shape
    ws = Workspace(B) if workspace is None else workspace
    # A fresh workspace's first batch (told before z is allocated) runs as one
    # slice, so its buffers come from this thread's malloc arena: a pool
    # thread's arena would keep their memory after the workspace is gone
    # (+16% peak RSS on the default benchmark when slices allocated them).
    d_model = params["in_proj.w"].shape[1]
    slices = row_slices(B, w, d_model) if ws.allocated() else [slice(0, B)]
    z = ws.get("z", B, d_model)

    def encode(rows: slice):
        try:
            return _encode(X[rows], params, heads, pool, check, ws.rows(rows.start), z[rows])
        except NonFiniteError as exc:
            return exc

    caches = run_tasks([functools.partial(encode, rows) for rows in slices])
    failed = [c for c in caches if isinstance(c, NonFiniteError)]
    if failed:
        order = _check_order(params)
        raise min(failed, key=lambda exc: order.index(exc.layer))
    yhat = _head(z, params)
    if check:
        check_finite(yhat, "head")
    cache = {"X": X, "slices": list(zip(slices, caches)), "z": z, "pool": pool, "ws": ws}
    return yhat, cache


def _backward_rows(i: int, c: dict, params: dict[str, np.ndarray], ws: Workspace) -> None:
    """Encoder layer i's backward over one row slice: the gradient of the
    residual stream below the layer, into buffer d_stream{i}, from the one
    above it in d_stream{i+1}. The inputs of the layer's weight, bias and gain
    gradients stay in the workspace for _layer_grads."""
    B, w, dff = c["u"].shape
    dm = params["in_proj.w"].shape[1]
    pfx = f"enc{i}."
    # h_out = h1 + ffn(ln2(h1)); the residual passes dh straight through
    dh = ws.get(f"d_stream{i + 1}", B, w, dm)
    # g back into the shared buffer, then gelu' over tanh_u and dg over the dead u
    gelu_from_tanh(c["u"], c["tanh_u"], ws.get("g", B, w, dff))
    du = gelu_grad(c["u"], c["tanh_u"], out=c["tanh_u"])
    du *= _mm(dh, params[pfx + "ffn.w2"].T, c["u"])
    dn2 = _mm(du, params[pfx + "ffn.w1"].T, ws.get("d_n2", B, w, dm))
    dh1_ln, _ = layer_norm_backward(dn2, c["ln2c"], out=ws.get("d_ln", B, w, dm),
                                    scratch=ws.get("d_ln2_xhat", B, w, dm))
    dh1 = np.add(dh, dh1_ln, out=ws.get("d_h1", B, w, dm))
    # h1 = h + attn(ln1(h))
    dn1 = mha_backward(dh1, params, c["attnc"])
    dh_ln, _ = layer_norm_backward(dn1, c["ln1c"], out=ws.get("d_ln", B, w, dm),
                                   scratch=ws.get("d_ln1_xhat", B, w, dm))
    np.add(dh1, dh_ln, out=ws.get(f"d_stream{i}", B, w, dm))


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """Sum over the windows and positions of (B, w, n) values."""
    return np.add.reduce(a, axis=(0, 1))


def _layer_grads(i: int, params: dict[str, np.ndarray], ws: Workspace, B: int, w: int):
    """Parameter name -> no-argument task computing that gradient of encoder
    layer i from the whole batch's buffers _backward_rows left; GEMMs first."""
    pfx = f"enc{i}."
    dm, dff = params[pfx + "ffn.w1"].shape

    def buf(name: str, n: int = dm) -> np.ndarray:
        return ws.get(name, B, w, n)

    dh, du, dh1 = buf(f"d_stream{i + 1}"), buf(pfx + "tanh_u", dff), buf("d_h1")
    dqkv = buf("d_qkv", 3 * dm)
    tasks = {
        "ffn.w1": (_gram, buf(pfx + "ln2.y"), du),
        "ffn.w2": (_gram, buf("g", dff), dh),
        "attn.wqkv": (_gram, buf(pfx + "ln1.y"), dqkv),
        "attn.wo": (_gram, buf(pfx + "attn.merged"), dh1),
        "ffn.b1": (_sum_rows, du),
        "ffn.b2": (_sum_rows, dh),
        "attn.bqkv": (_sum_rows, dqkv),
        "attn.bo": (_sum_rows, dh1),
        "ln2.g": (_sum_rows, buf("d_ln2_xhat")),
        "ln2.b": (_sum_rows, buf("d_n2")),
        "ln1.g": (_sum_rows, buf("d_ln1_xhat")),
        "ln1.b": (_sum_rows, buf("d_x")),
    }
    return {pfx + name: functools.partial(*task) for name, task in tasks.items()}


def attention_backward_batch(dyhat: np.ndarray, params: dict[str, np.ndarray], cache):
    """Gradients of every parameter for dyhat of the forward's forecasts.

    Each layer's per-window chain runs on the forward's row slices; then
    its gradients, each one sum over the whole batch, run as tasks side by
    side, before the next layer's chain overwrites their inputs.
    """
    X, ws = cache["X"], cache["ws"]
    B, w, _ = X.shape
    d_model = params["in_proj.w"].shape[1]
    grads: dict[str, np.ndarray] = {}
    grads["head.w"] = (cache["z"].T @ dyhat)[:, None]
    grads["head.b"] = np.array([dyhat.sum()])
    dz = dyhat[:, None] * params["head.w"][:, 0][None, :]
    n_layers = n_encoder_layers(params)
    dh = ws.get(f"d_stream{n_layers}", B, w, d_model)
    if cache["pool"] == "mean":
        np.divide(dz[:, None, :], w, out=dh)
    else:
        dh.fill(0.0)
        dh[:, -1, :] = dz
    for i in reversed(range(n_layers)):
        run_tasks([functools.partial(_backward_rows, i, caches[i], params, ws.rows(rows.start))
                   for rows, caches in cache["slices"]])
        tasks = _layer_grads(i, params, ws, B, w)  # one thread for one slice
        grads.update(zip(tasks, run_tasks(list(tasks.values()), len(cache["slices"]))))
    dh = ws.get("d_stream0", B, w, d_model)
    grads["in_proj.w"] = _gram(X, dh)
    grads["in_proj.b"] = _sum_rows(dh)
    return grads


def attention_loss_and_grads(X, y, params, heads, pool="mean", beta: float = 1.0,
                             workspace: Workspace | None = None):
    """Mean SmoothL1 over the batch plus gradients for every parameter."""
    yhat, cache = attention_forward_batch(X, params, heads, pool, workspace=workspace)
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
    reduction order are all derived from it, and the bits are the same at
    every BLAS thread count: the fit holds numpy's OpenBLAS at one thread.
    The training steps and the validation forwards share one workspace,
    sized for one batch.
    """
    yva = validation_set(train_windows, val_windows)
    w, d = train_windows.shape
    ws = Workspace(min(cfg.batch_size, len(train_windows)))

    def val_mae(params):
        val_pred = _forward_chunks(val_windows.take, len(yva), params, cfg.heads, cfg.pool, ws)
        return float(np.mean(np.abs(np.maximum(val_pred, 0.0) - yva)))

    params = init_attention_params(
        np.random.default_rng([cfg.seed, 1]), d, cfg.d_model, cfg.heads, cfg.layers
    )
    with one_blas_thread():
        best_params, logs = fit_minibatch(
            lambda Xb, yb, p: attention_loss_and_grads(
                Xb, yb, p, cfg.heads, cfg.pool, cfg.smooth_l1_beta, ws
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


def _forward_chunks(take, n: int, params: dict[str, np.ndarray], heads: int,
                    pool: str, ws: Workspace) -> np.ndarray:
    """Raw forecasts for n windows, equal bit for bit to one
    attention_forward_batch call over all of them.

    ``take(rows)`` gathers a slice of the windows (from a fit's window set,
    or a forecast's); the encoder runs on one workspace of them at a
    time, and a window's pooled features depend on that window alone. The
    read-out runs once over all of them: numpy computes a one-row read-out
    (a last chunk of one window) as a dot product, which rounds differently.
    """
    z = np.empty((n, params["in_proj.w"].shape[1]))
    for start in range(0, n, ws.capacity):
        rows = slice(start, start + ws.capacity)
        z[rows] = attention_forward_batch(
            take(rows), params, heads, pool, check=False, workspace=ws
        )[1]["z"]
    return _head(z, params)


def attention_raw(model: ForecastModel, take, n: int) -> np.ndarray:
    """Raw predictions for the n standardized windows that ``take(rows)``
    gathers, INFERENCE_CHUNK at a time through one workspace, at one BLAS
    thread."""
    ws = Workspace(max(1, min(n, INFERENCE_CHUNK)))
    with one_blas_thread():
        return _forward_chunks(take, n, model.params, model.meta["heads"],
                               model.meta.get("pool", "mean"), ws)
