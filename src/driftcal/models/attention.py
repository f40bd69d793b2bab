"""Compact self-attention sequence regressor.

Input windows are projected to d_model, given sinusoidal positional codes,
passed through pre-norm encoder layers (multi-head self-attention and a
4x-width feed-forward block, both with residual connections), pooled over
time, and read out by a linear head. Forward and backward passes are
explicit so gradients can be verified against finite differences.

Batches run in micro-batches of MICRO_BATCH windows on several threads,
each in its own workspace, at one BLAS thread; models/threads.py says how.

The model trains and forecasts in float32 (DTYPE): its parameters are
drawn in float64 and rounded once, windows are rounded a micro-batch at a
time, and the model file stores float64 values that float32 holds
exactly. The forward, backward and loss follow their inputs' dtype, so
the gradient checks run them in float64.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..labeling import Windows, forecast_blocks
from .base import EpochLog, ForecastModel, TrainConfig, validation_set
from .nn import (
    NonFiniteError,
    as_dtype,
    check_finite,
    gelu_forward,
    gelu_from_tanh,
    gelu_grad,
    layer_norm,
    layer_norm_backward,
    layer_norm_output,
    leading_view,
    positional_encoding,
    smooth_l1,
    smooth_l1_grad,
    softmax,
    softmax_backward,
    xavier_uniform,
)
from .optim import fit_minibatch
from .threads import n_threads, one_blas_thread, run_tasks


DTYPE = np.float32


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


# Windows per micro-batch. Training batches are cut into micro-batches of
# at most this size, and validation and inference forwards into blocks of
# exactly this size (forecast_blocks); each runs whole on one thread in that
# thread's workspace, so activations take threads x MICRO_BATCH windows
# however large the batch. A warm default step (64 windows, 2 threads on a
# 2-CPU host) took a median 55 ms at 24 and 50 ms at 16 in float32, 91 ms at
# 16 in float64 (interleaved in one process); in fresh workspaces it traced
# 23, 16 and 33 MiB.
MICRO_BATCH = 24


# -- workspace ---------------------------------------------------------------

class Workspace:
    """Activation buffers that attention forwards and backwards reuse.

    Each named buffer is allocated on first use, for ``capacity`` windows,
    in ``dtype``, which each forward sets to its windows' dtype; a batch of
    B <= capacity windows works in its leading B rows, which are
    C-contiguous. A forward's cache reads the workspace, so a workspace
    serves one batch at a time: its backward must run before the next
    forward into the same workspace. Each encoder layer keeps only what
    its backward reads: both norms' xhat and inv, qkv, the attention
    weights, u and tanh_u. All layers share one buffer for each other
    value; the backward refills the norm outputs and merged heads by the
    forward's own ufuncs, and puts its scratch into forward buffers dead
    by then (the stream's gradient into h, dg into u, du into tanh_u, the
    Q|K|V gradient into a view of u). A default-size 24-window workspace
    holds 11.0 MiB in float32 (a 16-window one 14.7 MiB in float64).
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.dtype = np.dtype(np.float64)
        self._buffers: dict[str, np.ndarray] = {}

    def allocated(self) -> bool:
        """Whether any buffer has been allocated."""
        return bool(self._buffers)

    def get(self, name: str, B: int, *shape: int) -> np.ndarray:
        """The leading (B, *shape) rows of buffer ``name``."""
        if B > self.capacity:
            raise ValueError(f"batch of {B} windows exceeds the workspace's {self.capacity}")
        buf = self._buffers.get(name)
        if buf is None or buf.shape[1:] != shape or buf.dtype != self.dtype:
            buf = self._buffers[name] = np.empty((self.capacity, *shape), self.dtype)
        return buf[:B]

    def layer_norm(self, name: str, B: int, w: int, dm: int):
        """The (y, xhat, inv) buffers of one layer norm; every norm shares y."""
        return (self.get("ln", B, w, dm), self.get(name + ".xhat", B, w, dm),
                self.get(name + ".inv", B, w, 1))


def micro_workspaces(batch: int) -> list[Workspace]:
    """MICRO_BATCH-window workspaces for batches of up to ``batch`` windows:
    one per thread that runs their micro-batches."""
    return [Workspace(MICRO_BATCH)
            for _ in range(min(n_threads(), math.ceil(max(1, batch) / MICRO_BATCH)))]


def _micro_batches(batches: list[slice], work, workspaces: list[Workspace]):
    """work(rows, ws) for each micro-batch ``rows`` of ``batches``, yielded
    in order.

    They run in rounds of one micro-batch per workspace, side by side on as
    many threads (run_tasks). A round whose workspaces are not all allocated
    runs on this thread, so that their buffers come from this thread's
    malloc arena: a pool thread's arena would keep their memory after the
    workspaces are gone (+16% peak RSS on the default benchmark when pool
    threads allocated them).
    """
    for first in range(0, len(batches), len(workspaces)):
        tasks = [functools.partial(work, rows, ws)
                 for rows, ws in zip(batches[first:], workspaces)]
        if all(ws.allocated() for ws in workspaces[: len(tasks)]):
            yield from run_tasks(tasks)
        else:
            yield from [task() for task in tasks]


def _mm(x: np.ndarray, w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(..., din) @ (din, dout) into ``out`` via one 2-d GEMM (fast on
    single-core BLAS); x and out are C-contiguous.

    A transposed w is copied first: OpenBLAS's small-matrix kernel for a
    transposed operand rounds a row differently with the number of rows, so
    a micro-batch would not equal its rows of the whole batch.
    """
    np.matmul(x.reshape(-1, x.shape[-1]), np.ascontiguousarray(w),
              out=out.reshape(-1, w.shape[1]))
    return out


def _gram(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Weight gradient sum_bw x^T dy as one 2-d GEMM."""
    return x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """Sum over the windows and positions of (B, w, n) values."""
    return np.add.reduce(a, axis=(0, 1))


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

    The packed Q|K|V projection and the attention weights, which the
    backward reads, live in buffers named after ``prefix``; the per-head
    values, the merged heads and the output in buffers every layer shares.
    """
    B, w, dm = x.shape
    if ws is None:
        ws = Workspace(B)
        ws.dtype = x.dtype
    dh = dm // heads
    scale = 1.0 / math.sqrt(dh)
    qkv = _mm(x, params[prefix + "wqkv"], ws.get(prefix + "qkv", B, w, 3 * dm))
    qkv += params[prefix + "bqkv"]
    qh, kh, vh = (_split_heads(part, heads) for part in np.split(qkv, 3, axis=-1))
    attn = np.matmul(qh, kh.transpose(0, 1, 3, 2), out=ws.get(prefix + "attn", B, heads, w, w))
    attn *= scale  # the scores, then in place their softmax: rows sum to 1
    softmax(attn, axis=-1, out=attn)
    oh = np.matmul(attn, vh, out=ws.get("oh", B, heads, w, dh))
    merged = _merge_heads(oh, ws.get("merged", B, w, dm))
    out = _mm(merged, params[prefix + "wo"], ws.get("sublayer", B, w, dm))
    out += params[prefix + "bo"]
    cache = {
        "x": x, "qh": qh, "kh": kh, "vh": vh, "attn": attn,
        "prefix": prefix, "heads": heads, "scale": scale, "ws": ws,
    }
    return out, cache


def mha_backward(dout: np.ndarray, params: dict[str, np.ndarray], cache,
                 grads: dict, dqkv: np.ndarray) -> np.ndarray:
    """dx for dout of mha_forward's output, in the shared sublayer buffer;
    the weight and bias gradients go into ``grads`` and the Q|K|V gradient
    into ``dqkv``. The caller must have refilled x's buffer; the merged
    heads are rebuilt here by the forward's own operations."""
    x, ws = cache["x"], cache["ws"]
    B, w, dm = x.shape
    heads, dh = cache["heads"], dm // cache["heads"]
    prefix = cache["prefix"]
    oh = np.matmul(cache["attn"], cache["vh"], out=ws.get("oh", B, heads, w, dh))
    grads[prefix + "wo"] = _gram(_merge_heads(oh, ws.get("merged", B, w, dm)), dout)
    grads[prefix + "bo"] = _sum_rows(dout)
    # dead forward buffers: the sublayer output's takes dmerged, the per-head values' dheads
    dmerged = _mm(dout, params[prefix + "wo"].T, ws.get("sublayer", B, w, dm))
    doh = _split_heads(dmerged, heads)
    dattn = np.matmul(doh, cache["vh"].transpose(0, 1, 3, 2),
                      out=ws.get("d_attn", B, heads, w, w))
    dq, dk, dv = np.split(dqkv, 3, axis=-1)  # column views; _merge_heads reshapes them as views
    _merge_heads(np.matmul(cache["attn"].transpose(0, 1, 3, 2), doh, out=oh), dv)
    dscores = softmax_backward(dattn, cache["attn"], out=ws.get("d_scores", B, heads, w, w))
    dscores *= cache["scale"]
    _merge_heads(np.matmul(dscores, cache["kh"], out=oh), dq)
    _merge_heads(np.matmul(dscores.transpose(0, 1, 3, 2), cache["qh"], out=oh), dk)
    grads[prefix + "wqkv"] = _gram(x, dqkv)
    grads[prefix + "bqkv"] = _sum_rows(dqkv)
    return _mm(dqkv, params[prefix + "wqkv"].T, dmerged)  # dmerged is dead too


def _check_order(params: dict[str, np.ndarray]) -> list[str]:
    """The layers a checked forward tests for non-finite values, in pass order."""
    return ["in_proj", *(f"enc{i}.{part}" for i in range(n_encoder_layers(params))
                         for part in ("attn", "ffn")), "head"]


def attention_forward_batch(
    X: np.ndarray,
    params: dict[str, np.ndarray],
    heads: int,
    pool: str = "mean",
    check: bool = True,
    workspace: Workspace | None = None,
):
    """Raw (unclipped) forecasts for a batch of windows (B, w, d), in the
    dtype of X and the parameters.

    Activations go into ``workspace``, or a fresh one for this batch, in
    X's dtype; the returned cache reads them, and holds the workspace for
    the backward. A window that turns non-finite raises NonFiniteError
    naming the first layer where any window did.
    """
    B, w, _ = X.shape
    ws = Workspace(B) if workspace is None else workspace
    ws.dtype = X.dtype
    d_model = params["in_proj.w"].shape[1]
    z = ws.get("z", B, d_model)
    # h is the residual stream, updated in place: h += a is h + a, bit for bit
    h = _mm(X, params["in_proj.w"], ws.get("h", B, w, d_model))
    h += params["in_proj.b"]
    h += positional_encoding(w, d_model, X.dtype)
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
    yhat = z @ params["head.w"][:, 0] + params["head.b"][0]  # the linear read-out
    if check:
        check_finite(yhat, "head")
    return yhat, {"X": X, "layers": layer_caches, "z": z, "pool": pool, "ws": ws}


def _layer_backward(i: int, c: dict, params: dict[str, np.ndarray], ws: Workspace,
                    grads: dict) -> None:
    """Encoder layer i's backward: its parameter gradients into ``grads``,
    and the gradient of the residual stream below the layer into buffer h,
    over the one above it there (h is dead once the forward has pooled it)."""
    B, w, dff = c["u"].shape
    dm = params["in_proj.w"].shape[1]
    pfx = f"enc{i}."
    # h_out = h1 + ffn(ln2(h1)); the residual passes dh straight through
    dh = ws.get("h", B, w, dm)
    # g back into the shared buffer, then gelu' over tanh_u and dg over the dead u
    g = gelu_from_tanh(c["u"], c["tanh_u"], ws.get("g", B, w, dff))
    grads[pfx + "ffn.w2"] = _gram(g, dh)
    grads[pfx + "ffn.b2"] = _sum_rows(dh)
    du = gelu_grad(c["u"], c["tanh_u"], out=c["tanh_u"])
    du *= _mm(dh, params[pfx + "ffn.w2"].T, c["u"])
    # the layer norms share one output buffer, refilled just before a GEMM
    # reads it; in between it is the layer-norm backward's scratch
    ln = layer_norm_output(c["ln2c"][0], params[pfx + "ln2.g"], params[pfx + "ln2.b"],
                           ws.get("ln", B, w, dm))
    grads[pfx + "ffn.w1"] = _gram(ln, du)
    grads[pfx + "ffn.b1"] = _sum_rows(du)
    dn2 = _mm(du, params[pfx + "ffn.w1"].T, ws.get("d_n2", B, w, dm))
    dh1_ln, dgain = layer_norm_backward(dn2, c["ln2c"], out=ws.get("d_ln", B, w, dm),
                                        scratch=ln)
    grads[pfx + "ln2.g"] = _sum_rows(dgain)
    grads[pfx + "ln2.b"] = _sum_rows(dn2)
    dh1 = np.add(dh, dh1_ln, out=dn2)
    # h1 = h + attn(ln1(h)); u is dead and a view of it takes the Q|K|V
    # gradient (3 * d_model <= d_ff); dh's buffer then takes the gradient of h
    layer_norm_output(c["ln1c"][0], params[pfx + "ln1.g"], params[pfx + "ln1.b"], ln)
    dn1 = mha_backward(dh1, params, c["attnc"], grads, leading_view(c["u"], (B, w, 3 * dm)))
    dh_ln, dgain = layer_norm_backward(dn1, c["ln1c"], out=ws.get("d_ln", B, w, dm),
                                       scratch=ln)
    grads[pfx + "ln1.g"] = _sum_rows(dgain)
    grads[pfx + "ln1.b"] = _sum_rows(dn1)
    np.add(dh1, dh_ln, out=dh)


def attention_backward_batch(dyhat: np.ndarray, params: dict[str, np.ndarray], cache):
    """Gradients of every parameter for dyhat of the forward's forecasts,
    each one sum over the forward's windows."""
    X, ws = cache["X"], cache["ws"]
    B, w, _ = X.shape
    d_model = params["in_proj.w"].shape[1]
    grads: dict[str, np.ndarray] = {}
    grads["head.w"] = (cache["z"].T @ dyhat)[:, None]
    grads["head.b"] = np.array([dyhat.sum()])
    dz = dyhat[:, None] * params["head.w"][:, 0][None, :]
    dh = ws.get("h", B, w, d_model)  # the residual stream is dead once pooled
    if cache["pool"] == "mean":
        np.divide(dz[:, None, :], w, out=dh)
    else:
        dh.fill(0.0)
        dh[:, -1, :] = dz
    for i, layer_cache in reversed(list(enumerate(cache["layers"]))):
        _layer_backward(i, layer_cache, params, ws, grads)
    grads["in_proj.w"] = _gram(X, dh)
    grads["in_proj.b"] = _sum_rows(dh)
    return grads


def attention_loss_and_grads(X, y, params, heads, pool="mean", beta: float = 1.0,
                             workspaces: list[Workspace] | None = None):
    """Mean SmoothL1 over the batch plus gradients for every parameter.

    Everything runs in the dtype of X and the parameters, the targets y
    rounded to it. Each micro-batch runs its forward and backward whole,
    in one of ``workspaces`` (fresh ones when None); the loss is taken once
    over all the forecasts, and the gradients are summed in micro-batch
    order, so no bit depends on the thread count. A NonFiniteError names
    the first layer, in pass order, where any micro-batch's forward failed.
    """
    B = len(y)
    y = np.asarray(y, X.dtype)
    yhat = np.empty(B, X.dtype)

    def step(rows: slice, ws: Workspace):
        try:
            yhat[rows], cache = attention_forward_batch(X[rows], params, heads, pool,
                                                        workspace=ws)
        except NonFiniteError as exc:
            return exc
        return attention_backward_batch(smooth_l1_grad(yhat[rows] - y[rows], beta) / B,
                                        params, cache)

    grads, failed = None, []
    workspaces = workspaces or micro_workspaces(B)
    size = workspaces[0].capacity
    batches = [slice(first, min(first + size, B)) for first in range(0, B, size)]
    for outcome in _micro_batches(batches, step, workspaces):
        if isinstance(outcome, NonFiniteError):
            failed.append(outcome)
        elif grads is None:
            grads = outcome
        else:
            for name, g in outcome.items():
                grads[name] += g
    if failed:
        order = _check_order(params)
        raise min(failed, key=lambda exc: order.index(exc.layer))
    return float(np.mean(smooth_l1(yhat - y, beta))), grads


def train_attention(
    train_windows: Windows, val_windows: Windows, cfg: TrainConfig
) -> tuple[ForecastModel, list[EpochLog]]:
    """SmoothL1 + AdamW + warmup/cosine, early stopping on validation MAE.

    Deterministic for a fixed cfg.seed: init, shuffling, and the batch
    reduction order are all derived from it, and the bits are the same at
    every thread count: the fit holds numpy's OpenBLAS at one thread.
    The training steps and the validation forwards share one set of
    micro-batch workspaces. Parameters and windows are rounded to DTYPE
    (the windows a batch at a time, never the whole channel matrix), and
    the returned parameters are DTYPE arrays.
    """
    yva = validation_set(train_windows, val_windows)
    w, d = train_windows.shape
    workspaces = micro_workspaces(min(cfg.batch_size, len(train_windows)))

    def val_mae(params):
        val_pred = _forward_chunks(val_windows.take, len(yva), params, cfg.heads, cfg.pool,
                                   workspaces)
        return float(np.mean(np.abs(np.maximum(val_pred, 0.0) - yva)))

    params = as_dtype(init_attention_params(
        np.random.default_rng([cfg.seed, 1]), d, cfg.d_model, cfg.heads, cfg.layers
    ), DTYPE)
    with one_blas_thread():
        best_params, logs = fit_minibatch(
            lambda Xb, yb, p: attention_loss_and_grads(
                Xb, yb, p, cfg.heads, cfg.pool, cfg.smooth_l1_beta, workspaces
            ),
            val_mae,
            params,
            lambda idx: train_windows.take(idx).astype(DTYPE),
            train_windows.label,
            cfg,
            np.random.default_rng([cfg.seed, 2]),
        )

    model = ForecastModel(
        kind="attention",
        params=best_params,
        window=w,
        n_channels=d,
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
                    pool: str, workspaces: list[Workspace]) -> np.ndarray:
    """Raw forecasts for the n windows ``take(rows)`` gathers (from a fit's
    window set, or a forecast's), rounded here to the parameters' dtype and
    forecast in it: one attention_forward_batch per MICRO_BATCH-window
    block (forecast_blocks), a round of blocks side by side in
    ``workspaces``."""
    dtype = params["in_proj.w"].dtype

    def forward(X: np.ndarray, ws: Workspace) -> np.ndarray:
        return attention_forward_batch(X.astype(dtype, copy=False), params, heads, pool,
                                       check=False, workspace=ws)[0]

    return forecast_blocks(forward, take, n, MICRO_BATCH,
                           lambda work, blocks: _micro_batches(blocks, work, workspaces))


def attention_raw(model: ForecastModel, take, n: int) -> np.ndarray:
    """Raw predictions, as float64, for the n standardized windows that
    ``take(rows)`` gathers, a block at a time: a DTYPE forward of the
    model's parameters rounded to DTYPE (exact for a model train_attention
    trained), at one BLAS thread."""
    with one_blas_thread():
        return _forward_chunks(take, n, as_dtype(model.params, DTYPE), model.meta["heads"],
                               model.meta.get("pool", "mean"),
                               micro_workspaces(n)).astype(np.float64)
