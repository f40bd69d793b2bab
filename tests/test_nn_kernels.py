"""The out= kernels of models.nn against their whole-array formulas, bit for bit.

Each kernel writes one ufunc per operation into caller buffers; these tests
check that the bits equal those of the plain expressions in oracles.py for
random shapes, constant rows, large magnitudes, and output buffers that are
reused across calls (filled with stale values from an earlier input). Each
runs in float64, as the gradient checks do, and in float32, as the
forecasters train: the kernel and the formula in the same dtype.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftcal.models.nn import (
    _GELU_BLOCK,
    gelu_forward,
    gelu_from_tanh,
    gelu_grad,
    layer_norm,
    layer_norm_backward,
    softmax,
    softmax_backward,
)

from oracles import (
    gelu,
    gelu_grad_reference,
    oracle_layer_norm,
    oracle_layer_norm_backward,
    oracle_softmax,
    oracle_softmax_backward,
)

# per dtype, magnitudes up to near its largest finite squares' range; each
# test draws either dtype, on twice the examples it ran in float64 alone
SCALES = {np.float64: [1e-3, 1.0, 8.0, 1e4, 1e100], np.float32: [1e-3, 1.0, 8.0, 1e4, 1e15]}
DTYPES = st.sampled_from(list(SCALES))


@st.composite
def arrays(draw, min_dims=1, max_dims=4):
    """A float64 or float32 array of a random shape; some rows along the
    last axis may be constant."""
    dtype = draw(DTYPES)
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=min_dims - 1,
                                max_size=max_dims - 1)))
    shape += (draw(st.integers(1, 45)),)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(scale=draw(st.sampled_from(SCALES[dtype])), size=shape).astype(dtype)
    if draw(st.booleans()):
        rows = rng.random(shape[:-1]) < 0.5
        x[rows] = x[rows][..., :1]
    return x


def _normal(rng, size, dtype, scale=1.0) -> np.ndarray:
    return rng.normal(scale=scale, size=size).astype(dtype)


def _stale(shape, seed=0, dtype=np.float64):
    """A buffer holding leftovers of another computation."""
    return _normal(np.random.default_rng(seed), shape, dtype, scale=1e3)


def _same(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)


@settings(max_examples=160, deadline=None)
@given(x=arrays(), data=st.data())
def test_softmax_equals_formula(x, data):
    axis = data.draw(st.integers(-x.ndim, x.ndim - 1))
    expected = oracle_softmax(x, axis)
    assert _same(softmax(x, axis), expected)
    out = _stale(x.shape, dtype=x.dtype)
    assert softmax(x, axis, out=out) is out
    assert _same(out, expected)
    inplace = x.copy()  # the attention forward takes the softmax of its scores in place
    softmax(inplace, axis, out=inplace)
    assert _same(inplace, expected)


def test_softmax_of_large_scores_equals_formula():
    x = np.array([[1e300, -1e300, 0.0], [710.0, 700.0, -745.0], [5.0, 5.0, 5.0]])
    assert _same(softmax(x), oracle_softmax(x))
    x = np.array([[1e38, -1e38, 0.0], [95.0, 85.0, -110.0], [5.0, 5.0, 5.0]], np.float32)
    assert _same(softmax(x), oracle_softmax(x))


@settings(max_examples=160, deadline=None)
@given(x=arrays(), seed=st.integers(0, 2**32 - 1))
def test_softmax_backward_equals_formula(x, seed):
    p = oracle_softmax(x)
    dp = _normal(np.random.default_rng(seed), x.shape, x.dtype)
    expected = oracle_softmax_backward(dp, p)
    assert _same(softmax_backward(dp, p), expected)
    out = _stale(x.shape, dtype=x.dtype)
    for _ in range(2):  # the same buffer, twice
        assert softmax_backward(dp, p, out=out) is out
        assert _same(out, expected)


@settings(max_examples=160, deadline=None)
@given(x=arrays(), seed=st.integers(0, 2**32 - 1))
def test_layer_norm_and_backward_equal_formula(x, seed):
    rng = np.random.default_rng(seed)
    d = x.shape[-1]
    gain, bias, dy = (_normal(rng, size, x.dtype) for size in (d, d, x.shape))
    with np.errstate(all="ignore"):
        y_ref, (xhat_ref, inv_ref, _) = oracle_layer_norm(x, gain, bias)
        dx_ref, dgain_ref, dbias_ref = oracle_layer_norm_backward(dy, (xhat_ref, inv_ref, gain))
        bufs = (_stale(x.shape, 0, x.dtype), _stale(x.shape, 1, x.dtype),
                _stale(x.shape[:-1] + (1,), 2, x.dtype))
        dx_out, scratch = _stale(x.shape, 3, x.dtype), _stale(x.shape, 4, x.dtype)
        for out in (None, bufs, bufs):
            y, cache = layer_norm(x, gain, bias, out=out)
            assert _same(y, y_ref)
            assert _same(cache[0], xhat_ref) and _same(cache[1], inv_ref)
            axes = tuple(range(x.ndim - 1))  # the caller sums the gain and bias gradients
            for dout, work in ((None, None), (dx_out, scratch)):
                dx, dy_xhat = layer_norm_backward(dy, cache, out=dout, scratch=work)
                assert _same(dx, dx_ref)
                assert _same(np.add.reduce(dy_xhat, axis=axes), dgain_ref)
                assert _same(np.add.reduce(dy, axis=axes), dbias_ref)
            assert dx is dx_out and dy_xhat is scratch


@settings(max_examples=80, deadline=None)
@given(x=arrays())
def test_gelu_into_reused_buffers_equals_formula(x):
    g, t = _stale(x.shape, 0, x.dtype), _stale(x.shape, 1, x.dtype)
    dg = _stale(x.shape, 2, x.dtype)
    with np.errstate(all="ignore"):
        expected_g, expected_grad = gelu(x), gelu_grad_reference(x)
        for _ in range(2):
            assert gelu_forward(x, out=(g, t))[0] is g
            assert _same(g, expected_g)
            assert gelu_grad(x, t, out=dg) is dg
            assert _same(dg, expected_grad)


@settings(max_examples=24, deadline=None)
@given(shape=st.sampled_from([(4275, 23), (385, 256), (3, 20, 1640)]),
       seed=st.integers(0, 2**32 - 1), dtype=DTYPES, data=st.data())
def test_gelu_backward_in_place_equals_formula(shape, seed, dtype, data):
    # shapes spanning three whole GELU blocks and a partial one, in the order
    # the attention backward runs: g is refilled from x and tanh_u, then
    # gelu' overwrites tanh_u
    scale = data.draw(st.sampled_from(SCALES[dtype]))
    x = _normal(np.random.default_rng(seed), shape, dtype, scale)
    assert x.size > 3 * _GELU_BLOCK and x.size % _GELU_BLOCK
    with np.errstate(all="ignore"):
        g, t = gelu_forward(x)
        assert g.dtype == t.dtype == dtype
        assert _same(gelu_from_tanh(x, t, _stale(x.shape, 0, dtype)), g)
        assert _same(g, gelu(x))
        fresh = gelu_grad(x, t, out=_stale(x.shape, 1, dtype))
        assert gelu_grad(x, t, out=t) is t
        assert _same(t, fresh)
        assert _same(t, gelu_grad_reference(x))


def test_gelu_refuses_an_output_it_cannot_write_in_place():
    # a strided output would be filled through a copy that is then lost
    x = np.ones((4, 6), np.float32)
    strided = np.empty((6, 4), np.float32).T
    for call in (lambda: gelu_forward(x, out=(strided, np.empty_like(x))),
                 lambda: gelu_from_tanh(x, np.zeros_like(x), strided),
                 lambda: gelu_grad(x, np.zeros_like(x), out=strided)):
        with pytest.raises(ValueError, match="C-contiguous"):
            call()
