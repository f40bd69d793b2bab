"""The out= kernels of models.nn against their whole-array formulas, bit for bit.

Each kernel writes one ufunc per operation into caller buffers; these tests
check that the bits equal those of the plain expressions in oracles.py for
random shapes, constant rows, large magnitudes, and output buffers that are
reused across calls (filled with stale values from an earlier input).
"""

import numpy as np
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

SCALES = [1e-3, 1.0, 8.0, 1e4, 1e100]


@st.composite
def arrays(draw, min_dims=1, max_dims=4):
    """A float64 array of a random shape; some rows along the last axis
    may be constant."""
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=min_dims - 1,
                                max_size=max_dims - 1)))
    shape += (draw(st.integers(1, 45)),)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(scale=draw(st.sampled_from(SCALES)), size=shape)
    if draw(st.booleans()):
        rows = rng.random(shape[:-1]) < 0.5
        x[rows] = x[rows][..., :1]
    return x


def _stale(shape, seed=0):
    """A buffer holding leftovers of another computation."""
    return np.random.default_rng(seed).normal(scale=1e3, size=shape)


def _same(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


@settings(max_examples=80, deadline=None)
@given(x=arrays(), data=st.data())
def test_softmax_equals_formula(x, data):
    axis = data.draw(st.integers(-x.ndim, x.ndim - 1))
    expected = oracle_softmax(x, axis)
    assert _same(softmax(x, axis), expected)
    out = _stale(x.shape)
    assert softmax(x, axis, out=out) is out
    assert _same(out, expected)
    inplace = x.copy()  # the attention forward takes the softmax of its scores in place
    softmax(inplace, axis, out=inplace)
    assert _same(inplace, expected)


def test_softmax_of_large_scores_equals_formula():
    x = np.array([[1e300, -1e300, 0.0], [710.0, 700.0, -745.0], [5.0, 5.0, 5.0]])
    assert _same(softmax(x), oracle_softmax(x))


@settings(max_examples=80, deadline=None)
@given(x=arrays(), seed=st.integers(0, 2**32 - 1))
def test_softmax_backward_equals_formula(x, seed):
    p = oracle_softmax(x)
    dp = np.random.default_rng(seed).normal(size=x.shape)
    expected = oracle_softmax_backward(dp, p)
    assert _same(softmax_backward(dp, p), expected)
    out = _stale(x.shape)
    for _ in range(2):  # the same buffer, twice
        assert softmax_backward(dp, p, out=out) is out
        assert _same(out, expected)


@settings(max_examples=80, deadline=None)
@given(x=arrays(), seed=st.integers(0, 2**32 - 1))
def test_layer_norm_and_backward_equal_formula(x, seed):
    rng = np.random.default_rng(seed)
    d = x.shape[-1]
    gain, bias, dy = rng.normal(size=d), rng.normal(size=d), rng.normal(size=x.shape)
    with np.errstate(all="ignore"):
        y_ref, (xhat_ref, inv_ref, _) = oracle_layer_norm(x, gain, bias)
        dx_ref, dgain_ref, dbias_ref = oracle_layer_norm_backward(dy, (xhat_ref, inv_ref, gain))
        bufs = (_stale(x.shape), _stale(x.shape, 1), _stale(x.shape[:-1] + (1,), 2))
        dx_out, scratch = _stale(x.shape, 3), _stale(x.shape, 4)
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


@settings(max_examples=40, deadline=None)
@given(x=arrays())
def test_gelu_into_reused_buffers_equals_formula(x):
    g, t = _stale(x.shape), _stale(x.shape, 1)
    dg = _stale(x.shape, 2)
    with np.errstate(all="ignore"):
        expected_g, expected_grad = gelu(x), gelu_grad_reference(x)
        for _ in range(2):
            assert gelu_forward(x, out=(g, t))[0] is g
            assert _same(g, expected_g)
            assert gelu_grad(x, t, out=dg) is dg
            assert _same(dg, expected_grad)


@settings(max_examples=12, deadline=None)
@given(shape=st.sampled_from([(4275, 23), (385, 256), (3, 20, 1640)]),
       seed=st.integers(0, 2**32 - 1), scale=st.sampled_from(SCALES))
def test_gelu_backward_in_place_equals_formula(shape, seed, scale):
    # shapes spanning three whole GELU blocks and a partial one, in the order
    # the attention backward runs: g is refilled from x and tanh_u, then
    # gelu' overwrites tanh_u
    x = np.random.default_rng(seed).normal(scale=scale, size=shape)
    assert x.size > 3 * _GELU_BLOCK and x.size % _GELU_BLOCK
    with np.errstate(all="ignore"):
        g, t = gelu_forward(x)
        assert _same(gelu_from_tanh(x, t, _stale(x.shape)), g)
        assert _same(g, gelu(x))
        fresh = gelu_grad(x, t, out=_stale(x.shape, 1))
        assert gelu_grad(x, t, out=t) is t
        assert _same(t, fresh)
        assert _same(t, gelu_grad_reference(x))
