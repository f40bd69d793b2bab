"""Losses, positional encodings, and the optimizer pieces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftcal.models.attention import init_attention_params
from driftcal.models.optim import (BETA1, BETA2, EPS, LrSchedule, adamw_step, init_adamw_state,
                                   lr_at)
from driftcal.models.nn import (
    _GELU_BLOCK,
    gelu_forward,
    gelu_grad,
    layer_norm,
    pinball_loss,
    positional_encoding,
    smooth_l1,
    softmax,
)

from oracles import GELU_C0, GELU_C1, gelu, gelu_grad_reference, sinusoidal_pe, traced_peak


# ---------------------------------------------------------------------------
# pinball
# ---------------------------------------------------------------------------

def test_pinball_under_and_over():
    assert pinball_loss(10.0, 8.0, 0.1) == pytest.approx(0.2)
    assert pinball_loss(8.0, 10.0, 0.1) == pytest.approx(1.8)


def test_pinball_zero_at_equality():
    for q in (0.1, 0.5, 0.9):
        assert pinball_loss(3.0, 3.0, q) == 0.0


def test_pinball_rejects_bad_level():
    for q in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            pinball_loss(1.0, 2.0, q)


def test_pinball_nonnegative_random():
    rng = np.random.default_rng(0)
    y = rng.normal(size=100)
    yhat = rng.normal(size=100)
    for q in (0.1, 0.5, 0.9):
        assert np.all(pinball_loss(y, yhat, q) >= 0.0)


# ---------------------------------------------------------------------------
# smooth L1
# ---------------------------------------------------------------------------

def test_smooth_l1_values():
    assert smooth_l1(0.5, 1.0) == pytest.approx(0.125)
    assert smooth_l1(2.0, 1.0) == pytest.approx(1.5)


def test_smooth_l1_continuous_at_beta():
    for beta in (0.5, 1.0, 3.0):
        inside = smooth_l1(beta - 1e-12, beta)
        outside = smooth_l1(beta + 1e-12, beta)
        assert inside == pytest.approx(0.5 * beta, abs=1e-9)
        assert outside == pytest.approx(0.5 * beta, abs=1e-9)


def test_smooth_l1_rejects_bad_beta():
    with pytest.raises(ValueError):
        smooth_l1(1.0, 0.0)


# ---------------------------------------------------------------------------
# sinusoidal positional encoding
# ---------------------------------------------------------------------------

def test_pe_at_position_zero():
    for d_model in (4, 8, 64):
        for k in range(0, d_model, 2):
            assert sinusoidal_pe(0, k, d_model) == 0.0
            assert sinusoidal_pe(0, k + 1, d_model) == 1.0


def test_pe_bounded():
    rng = np.random.default_rng(1)
    for _ in range(100):
        pos = int(rng.integers(0, 10000))
        dim = int(rng.integers(0, 16))
        assert -1.0 <= sinusoidal_pe(pos, dim, 16) <= 1.0


def test_pe_pure():
    assert sinusoidal_pe(17, 5, 8) == sinusoidal_pe(17, 5, 8)


def test_pe_matrix_matches_scalar():
    table = positional_encoding(10, 8)
    for pos in range(10):
        for dim in range(8):
            assert table[pos, dim] == pytest.approx(sinusoidal_pe(pos, dim, 8), abs=1e-15)


def test_pe_rejects_bad_dim():
    with pytest.raises(ValueError):
        sinusoidal_pe(0, 8, 8)


# ---------------------------------------------------------------------------
# learning-rate schedule
# ---------------------------------------------------------------------------

def test_lr_warmup_midpoint():
    sched = LrSchedule(base_lr=1e-3, warmup_steps=100, total_steps=1000)
    assert lr_at(50, sched) == pytest.approx(0.5e-3)


def test_lr_at_warmup_end():
    sched = LrSchedule(base_lr=2e-4, warmup_steps=100, total_steps=500)
    assert lr_at(100, sched) == pytest.approx(2e-4)


def test_lr_zero_at_total():
    sched = LrSchedule(base_lr=1e-3, warmup_steps=10, total_steps=200)
    assert lr_at(200, sched) == pytest.approx(0.0, abs=1e-18)
    assert lr_at(300, sched) == pytest.approx(0.0, abs=1e-18)  # clamped past the end


def test_lr_continuous_at_warmup_boundary():
    sched = LrSchedule(base_lr=1e-3, warmup_steps=100, total_steps=1000)
    assert lr_at(99, sched) == pytest.approx(lr_at(100, sched), rel=0.02)
    assert lr_at(100, sched) >= lr_at(101, sched)


def test_lr_schedule_validation():
    with pytest.raises(ValueError):
        LrSchedule(base_lr=1e-3, warmup_steps=100, total_steps=100)
    with pytest.raises(ValueError):
        LrSchedule(base_lr=1e-3, warmup_steps=-1, total_steps=100)
    sched = LrSchedule(base_lr=1e-3, warmup_steps=5, total_steps=10)
    with pytest.raises(ValueError):
        lr_at(-1, sched)


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------

def test_adamw_first_step_is_signed_lr():
    params = {"p": np.array([1.0, -2.0, 3.0])}
    grads = {"p": np.array([0.4, -0.7, 0.3])}
    state = init_adamw_state(params)
    before = params["p"].copy()
    adamw_step(params, grads, state, step=1, lr=1e-2, weight_decay=0.0)
    update = params["p"] - before
    assert np.all(np.abs(update + 1e-2 * np.sign(grads["p"])) < 1e-6 * 1e-2 + 1e-12)


def test_adamw_zero_grad_no_motion():
    params = {"p": np.array([1.0, 2.0])}
    state = init_adamw_state(params)
    adamw_step(params, {"p": np.zeros(2)}, state, step=1, lr=1e-2, weight_decay=0.0)
    assert np.array_equal(params["p"], np.array([1.0, 2.0]))


def test_adamw_two_steps_match_hand_recurrence():
    lr, b1, b2, eps, wd = 0.1, 0.9, 0.999, 1e-8, 0.01
    p = 2.0
    g1, g2 = 0.5, -0.25  # gradient of a quadratic evaluated at fixed points
    # hand-stepped scalar recurrence
    m = v = 0.0
    ph = p
    for step, g in ((1, g1), (2, g2)):
        ph *= 1.0 - lr * wd
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**step)
        vhat = v / (1 - b2**step)
        ph -= lr * mhat / (math.sqrt(vhat) + eps)
    params = {"p": np.array([p])}
    state = init_adamw_state(params)
    adamw_step(params, {"p": np.array([g1])}, state, step=1, lr=lr, weight_decay=wd)
    adamw_step(params, {"p": np.array([g2])}, state, step=2, lr=lr, weight_decay=wd)
    assert params["p"][0] == pytest.approx(ph, abs=1e-12)


def test_adamw_rejects_non_finite_grads():
    params = {"p": np.array([1.0])}
    state = init_adamw_state(params)
    with pytest.raises(FloatingPointError):
        adamw_step(params, {"p": np.array([np.nan])}, state, step=1, lr=1e-3)


def test_adamw_decoupled_decay_shrinks_params():
    params = {"p": np.array([10.0])}
    state = init_adamw_state(params)
    adamw_step(params, {"p": np.array([0.0])}, state, step=1, lr=0.1, weight_decay=0.5)
    assert params["p"][0] == pytest.approx(10.0 * (1 - 0.1 * 0.5))


# ---------------------------------------------------------------------------
# primitive sanity used by the encoder
# ---------------------------------------------------------------------------

def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    x = rng.normal(scale=8.0, size=(3, 4, 6, 6))
    p = softmax(x, axis=-1)
    assert np.abs(p.sum(axis=-1) - 1.0).max() < 1e-9
    assert p.min() >= 0.0


def test_layer_norm_pre_affine_stats():
    rng = np.random.default_rng(3)
    x = rng.normal(loc=3.0, scale=2.0, size=(5, 7, 16))
    _, (xhat, _, _) = layer_norm(x, np.ones(16), np.zeros(16))
    assert np.abs(xhat.mean(axis=-1)).max() <= 1e-7
    assert np.abs(xhat.var(axis=-1) - 1.0).max() <= 1e-5


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(0, 3 * _GELU_BLOCK + 7),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-3, 1.0, 4.0, 30.0]),
    transpose=st.booleans(),
)
def test_blocked_gelu_equals_reference_formula_bit_for_bit(size, seed, scale, transpose):
    x = np.random.default_rng(seed).normal(scale=scale, size=(size, 1))
    if transpose:  # a strided view, not a C-contiguous array
        x = np.repeat(x, 2, axis=1).T[:, ::2]
    g, t = gelu_forward(x)
    assert g.shape == t.shape == x.shape
    assert np.array_equal(g, gelu(x))
    assert np.array_equal(t, np.tanh(GELU_C0 * (x + GELU_C1 * (x * x * x))))
    assert np.array_equal(gelu_grad(x, t), gelu_grad_reference(x))


def test_gelu_grad_matches_finite_difference():
    x = np.linspace(-4, 4, 101)
    h = 1e-6
    numeric = (gelu(x + h) - gelu(x - h)) / (2 * h)
    assert np.abs(gelu_grad(x, gelu_forward(x)[1]) - numeric).max() < 1e-8


def test_adamw_steps_with_shared_scratch_equal_the_formula():
    # parameters of several sizes, a large one first: the shared scratch
    # buffers hold another parameter's values when a smaller one reads them
    rng = np.random.default_rng(3)
    shapes = {"a": (7, 5), "b": (3,), "c": (4, 6), "d": (1,)}
    params = {k: rng.normal(size=s) for k, s in shapes.items()}
    ref = {k: p.copy() for k, p in params.items()}
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    state = init_adamw_state(params)
    lr, wd = 0.05, 0.01
    for step in (1, 2, 3):
        grads = {k: rng.normal(size=s) for k, s in shapes.items()}
        adamw_step(params, grads, state, step, lr, weight_decay=wd)
        for k, g in grads.items():
            ref[k] *= 1.0 - lr * wd
            m[k] = m[k] * BETA1 + g * (1.0 - BETA1)
            v[k] = v[k] * BETA2 + g * g * (1.0 - BETA2)
            ref[k] -= m[k] / (1.0 - BETA1**step) * lr / (np.sqrt(v[k] / (1.0 - BETA2**step)) + EPS)
            assert np.array_equal(params[k], ref[k]), k


def test_adamw_state_holds_two_moments_and_one_shared_scratch_pair():
    # the default attention model: m and v are 2x the parameter bytes, and two
    # scratch buffers of the largest parameter add 0.32x (4x with a pair each)
    params = init_attention_params(np.random.default_rng(0), 24, 64, 4, 2)
    param_bytes = sum(p.nbytes for p in params.values())
    assert traced_peak(lambda: init_adamw_state(params)) < 2.5 * param_bytes
