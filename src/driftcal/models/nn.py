"""Numeric building blocks for the hand-rolled forecasters.

Every primitive comes as a forward/backward pair so analytic gradients can
be checked against central finite differences. The kernels and losses
follow their inputs' dtype: float32 when the attention and quantile
forecasters train and forecast, float64 in the gradient checks.
"""

from __future__ import annotations

import functools
import math

import numpy as np

LAYER_NORM_EPS = 1e-8
_GELU_C0 = math.sqrt(2.0 / math.pi)
_GELU_C1 = 0.044715


class NonFiniteError(FloatingPointError):
    """A forward pass produced NaN or Inf; the message names the layer,
    and so does ``layer`` when check_finite raised it."""

    def __init__(self, message: str, layer: str | None = None):
        super().__init__(message)
        self.layer = layer


def check_finite(arr: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite values in {name}", layer=name)


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Xavier/Glorot uniform init; fans taken from the 2-d weight shape."""
    fan_in, fan_out = shape[0], shape[-1]
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _empty_like(x) -> np.ndarray:
    """An uninitialized array of x's shape in x's float dtype (float64
    for integers)."""
    x = np.asarray(x)
    return np.empty(x.shape, np.result_type(x.dtype, np.float32))


def as_dtype(params: dict[str, np.ndarray], dtype) -> dict[str, np.ndarray]:
    """The parameters rounded to ``dtype`` (the arrays themselves where
    they already are)."""
    return {name: p.astype(dtype, copy=False) for name, p in params.items()}


def leading_view(buf: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The leading elements of the C-contiguous ``buf`` as an array of
    ``shape``: one buffer serving values of several shapes."""
    return buf.reshape(-1)[: math.prod(shape)].reshape(shape)


# -- positional encoding -----------------------------------------------------

@functools.lru_cache(maxsize=16)
def positional_encoding(length: int, d_model: int, dtype=np.float64) -> np.ndarray:
    """(length, d_model) table of sinusoidal codes for positions 0..length-1,
    computed in float64 and rounded once to ``dtype``.

    Built once per shape and dtype and shared, so it is read-only.
    """
    pe = np.empty((length, d_model), dtype=np.float64)
    positions = np.arange(length, dtype=np.float64)[:, None]
    k = np.arange(d_model, dtype=np.float64) // 2
    angles = positions / (10000.0 ** (2.0 * k / d_model))
    pe[:, 0::2] = np.sin(angles[:, 0::2])
    pe[:, 1::2] = np.cos(angles[:, 1::2])
    pe = pe.astype(dtype, copy=False)
    pe.flags.writeable = False
    return pe


# The kernels below write into ``out`` buffers (fresh ones when none are
# given) with one ufunc per operation of the formula, in its order, so they
# equal the whole-array expressions bit for bit. A mean is np.add.reduce
# followed by a division by the count, which is how np.mean computes it.

# -- softmax -----------------------------------------------------------------

def softmax(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """exp(x - max) / sum(exp(x - max)) along ``axis``; ``out`` may be x itself."""
    out = _empty_like(x) if out is None else out
    shift = np.maximum.reduce(x, axis=axis, keepdims=True)
    np.subtract(x, shift, out=out)
    np.exp(out, out=out)
    total = np.add.reduce(out, axis=axis, keepdims=True)
    return np.divide(out, total, out=out)


def softmax_backward(
    dp: np.ndarray, p: np.ndarray, axis: int = -1, out: np.ndarray | None = None
) -> np.ndarray:
    """p * (dp - sum(dp * p)) along ``axis``; ``out`` must not be dp or p."""
    out = _empty_like(p) if out is None else out
    np.multiply(dp, p, out=out)
    total = np.add.reduce(out, axis=axis, keepdims=True)
    np.subtract(dp, total, out=out)
    return np.multiply(p, out, out=out)


# -- layer normalization -----------------------------------------------------

def layer_norm(
    x: np.ndarray,
    gain: np.ndarray,
    bias: np.ndarray,
    eps: float = LAYER_NORM_EPS,
    out: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
):
    """Normalize over the last axis, then apply the affine gain/bias.

    Returns (y, cache); the cache keeps the pre-affine normalized values
    xhat and the inverse deviations inv. ``out`` is the (y, xhat, inv)
    buffers, of x's shape twice and of x's shape with a last axis of 1.
    """
    if out is None:
        out = (_empty_like(x), _empty_like(x), _empty_like(x[..., :1]))
    y, xhat, inv = out
    n = x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True)
    mean /= n
    np.subtract(x, mean, out=xhat)  # centered
    np.square(xhat, out=y)
    np.add.reduce(y, axis=-1, keepdims=True, out=inv)
    inv /= n  # variance
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    return layer_norm_output(xhat, gain, bias, y), (xhat, inv, gain)


def layer_norm_output(xhat: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                      out: np.ndarray) -> np.ndarray:
    """gain * xhat + bias into ``out``: layer_norm's output, bit for bit,
    from its xhat, so a backward can refill it instead of keeping it."""
    np.multiply(gain, xhat, out=out)
    out += bias
    return out


def layer_norm_backward(
    dy: np.ndarray, cache, out: np.ndarray | None = None, scratch: np.ndarray | None = None
):
    """(dx, dy * xhat) for dy of layer_norm's output, into ``out`` and the
    work buffer ``scratch`` of dy's shape (fresh ones when not given);
    neither may be dy. Summed over the leading axes, dy * xhat is the gain
    gradient and dy the bias gradient; the caller sums them."""
    xhat, inv, gain = cache
    dx = _empty_like(dy) if out is None else out
    tmp = _empty_like(dy) if scratch is None else scratch
    n = dy.shape[-1]
    dxhat = np.multiply(dy, gain, out=dx)
    m1 = np.add.reduce(dxhat, axis=-1, keepdims=True)
    m1 /= n
    np.multiply(dxhat, xhat, out=tmp)
    m2 = np.add.reduce(tmp, axis=-1, keepdims=True)
    m2 /= n
    # dx = inv * (dxhat - m1 - xhat * m2)
    np.subtract(dxhat, m1, out=dx)
    np.multiply(xhat, m2, out=tmp)
    np.subtract(dx, tmp, out=dx)
    np.multiply(inv, dx, out=dx)
    return dx, np.multiply(dy, xhat, out=tmp)


# -- activations -------------------------------------------------------------

# elements per GELU block: a block and its scratch stay in L2 cache while
# every elementwise step runs over it.
_GELU_BLOCK = 32768


def _gelu_blocks(x: np.ndarray, *extra: np.ndarray):
    """Flat, C-ordered views of x (a copy when it is not C-contiguous) and
    of each same-shape array in ``extra``, one tuple per block of at most
    _GELU_BLOCK elements. Each of ``extra`` must be C-contiguous: a copy
    would lose what the caller writes into it, so it raises ValueError."""
    if not all(a.flags.c_contiguous for a in extra):
        raise ValueError("GELU outputs and tanh(u) must be C-contiguous")
    flats = [np.ascontiguousarray(x).reshape(-1), *(a.reshape(-1) for a in extra)]
    for start in range(0, flats[0].size, _GELU_BLOCK):
        yield tuple(f[start : start + _GELU_BLOCK] for f in flats)


def _gelu_tanh(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = tanh(C0 * (x + C1 * (x * x * x))), in that operation order."""
    np.multiply(x, x, out=out)
    np.multiply(out, x, out=out)
    np.multiply(_GELU_C1, out, out=out)
    np.add(x, out, out=out)
    np.multiply(_GELU_C0, out, out=out)
    return np.tanh(out, out=out)


def gelu_forward(
    x: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-approximation GELU; also returns tanh(u) for a cheap backward.

    Works block by block into the C-contiguous (g, t) buffers ``out``, or
    fresh ones; every element goes through the same operations, in the same
    order, as the plain formula 0.5 * x * (1 + tanh(C0 * (x + C1 * x^3))).
    """
    g, t = (_empty_like(x), _empty_like(x)) if out is None else out
    scratch = np.empty(min(g.size, _GELU_BLOCK), g.dtype)
    for xb, gb, tb in _gelu_blocks(x, g, t):
        gelu_from_tanh(xb, _gelu_tanh(xb, tb), gb, scratch)
    return g, t


def gelu_from_tanh(x: np.ndarray, tanh_u: np.ndarray, out: np.ndarray,
                   scratch: np.ndarray | None = None) -> np.ndarray:
    """0.5 * x * (1 + tanh_u), in that operation order, block by block into
    the C-contiguous ``out``: gelu_forward's g, bit for bit, from its t."""
    scratch = np.empty(min(out.size, _GELU_BLOCK), out.dtype) if scratch is None else scratch
    for xb, tb, ob in _gelu_blocks(x, tanh_u, out):
        s = scratch[: xb.size]
        np.multiply(0.5, xb, out=ob)
        np.add(1.0, tb, out=s)
        np.multiply(ob, s, out=ob)
    return out


def gelu_grad(x: np.ndarray, tanh_u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """d GELU / dx from gelu_forward's t = tanh_u, block by block into the
    C-contiguous ``out`` (a fresh array, or tanh_u itself), in the operation
    order of the formula

    0.5 * (1 + t) + 0.5 * x * (1 - t * t) * (C0 * (1 + 3 * C1 * x * x)).
    """
    out = _empty_like(x) if out is None else out
    n = min(out.size, _GELU_BLOCK)
    s1, s2 = np.empty(n, out.dtype), np.empty(n, out.dtype)
    for xb, ob, tb in _gelu_blocks(x, out, tanh_u):
        s1b, s2b = s1[: xb.size], s2[: xb.size]
        # s1 = 0.5 * (1 + t) and ob = 0.5 * x * (1 - t * t), reading t first
        np.add(1.0, tb, out=s1b)
        np.multiply(0.5, s1b, out=s1b)
        np.multiply(tb, tb, out=s2b)
        np.subtract(1.0, s2b, out=s2b)
        np.multiply(0.5, xb, out=ob)
        np.multiply(ob, s2b, out=ob)
        # s2 = C0 * (1 + 3 * C1 * (x * x)); ob *= s2
        np.multiply(xb, xb, out=s2b)
        np.multiply(3.0 * _GELU_C1, s2b, out=s2b)
        np.add(1.0, s2b, out=s2b)
        np.multiply(_GELU_C0, s2b, out=s2b)
        np.multiply(ob, s2b, out=ob)
        np.add(s1b, ob, out=ob)  # ob = 0.5 * (1 + t) + ob
    return out


def tanh_grad(t: np.ndarray) -> np.ndarray:
    """Derivative of tanh given its output t."""
    return 1.0 - t**2


# -- losses ------------------------------------------------------------------

def _float_array(e) -> np.ndarray:
    """e as an array of its float dtype (float64 for Python numbers and integers)."""
    e = np.asarray(e)
    return e.astype(np.result_type(e.dtype, np.float32), copy=False)


def smooth_l1(e, beta: float = 1.0):
    """Huber-style loss: quadratic inside |e| < beta, linear outside, in
    e's float dtype."""
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    e = _float_array(e)
    out = np.where(np.abs(e) < beta, 0.5 * e**2 / beta, np.abs(e) - 0.5 * beta)
    return float(out) if out.ndim == 0 else out


def smooth_l1_grad(e, beta: float = 1.0):
    """d(smooth_l1)/de, in e's float dtype."""
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    e = _float_array(e)
    out = np.where(np.abs(e) < beta, e / beta, np.sign(e))
    return float(out) if out.ndim == 0 else out


def pinball_loss(y, yhat, q: float):
    """Quantile regression loss at level q: asymmetric absolute error, in
    the dtype of y - yhat (float64 for Python numbers and integers)."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must be in (0, 1), got {q}")
    diff = np.subtract(y, yhat)
    out = np.where(diff >= 0, q * diff, (q - 1.0) * diff)
    return float(out) if out.ndim == 0 else out


def pinball_grad(y, yhat, q: float):
    """d(pinball)/d(yhat); the subgradient -q is used at y == yhat."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must be in (0, 1), got {q}")
    diff = np.subtract(y, yhat)
    out = np.where(diff >= 0, -q, 1.0 - q).astype(np.result_type(diff.dtype, np.float32))
    return float(out) if out.ndim == 0 else out
