import tracemalloc

import numpy as np
import pytest

from driftcal.models import (
    NonFiniteError,
    TrainConfig,
    TrainingDivergedError,
    load_model,
    predict_ttd_batch,
    save_model,
    train_attention,
)
from driftcal.models.attention import (
    INFERENCE_CHUNK,
    attention_forward_batch,
    attention_loss_and_grads,
    attention_raw_batch,
    init_attention_params,
    mha_forward,
)
from driftcal.models.base import ForecastModel

from oracles import (
    attention_forward,
    central_difference_gradients,
    flatten_params,
    max_relative_error,
    unflatten_params,
    windows_of,
)

TINY = dict(d_model=8, heads=2, layers=1)


def _tiny_params(seed=0, d=3):
    rng = np.random.default_rng(seed)
    return init_attention_params(rng, d, TINY["d_model"], TINY["heads"], TINY["layers"])


def test_single_position_attention_is_identity():
    # with one key, every softmax row is [1.0], so attention returns the values
    rng = np.random.default_rng(1)
    params = _tiny_params()
    x = rng.normal(size=(3, 1, TINY["d_model"]))
    out, cache = mha_forward(x, params, "enc0.attn.", TINY["heads"])
    assert np.abs(cache["attn"] - 1.0).max() < 1e-12
    v = x @ params["enc0.attn.wv"] + params["enc0.attn.bv"]
    expected = v @ params["enc0.attn.wo"] + params["enc0.attn.bo"]
    assert np.allclose(out, expected, atol=1e-12)


def test_channel_permutation_with_matching_rows_is_invariant():
    rng = np.random.default_rng(2)
    d = 5
    params = _tiny_params(d=d)
    window = rng.normal(size=(6, d))
    base = attention_forward(window, params, TINY["heads"])
    perm = rng.permutation(d)
    permuted = {k: v.copy() for k, v in params.items()}
    permuted["in_proj.w"] = params["in_proj.w"][perm]
    assert attention_forward(window[:, perm], permuted, TINY["heads"]) == pytest.approx(
        base, abs=1e-12
    )


def test_softmax_rows_sum_to_one_in_forward():
    rng = np.random.default_rng(3)
    params = _tiny_params()
    x = rng.normal(size=(4, 6, TINY["d_model"]))
    _, cache = mha_forward(x, params, "enc0.attn.", TINY["heads"])
    assert np.abs(cache["attn"].sum(axis=-1) - 1.0).max() < 1e-9


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    params = _tiny_params(seed=4)
    X = rng.normal(size=(4, 6, 3))
    y = rng.normal(loc=5.0, scale=3.0, size=4)

    _, analytic = attention_loss_and_grads(X, y, params, TINY["heads"], "mean", 1.0)

    def loss_at(flat):
        loss, _ = attention_loss_and_grads(
            X, y, unflatten_params(flat, params), TINY["heads"], "mean", 1.0
        )
        return loss

    numeric = central_difference_gradients(loss_at, flatten_params(params), step=1e-5)
    assert max_relative_error(flatten_params(analytic), numeric) <= 1e-4


def test_non_finite_input_names_layer():
    params = _tiny_params()
    X = np.full((2, 6, 3), np.nan)
    with pytest.raises(NonFiniteError, match="in_proj"):
        attention_forward_batch(X, params, TINY["heads"])


def _affine_readout_windows(n=50, w=6, d=3, seed=0):
    """Labels are an exact affine readout of the last cycle of channel 1."""
    rng = np.random.default_rng(seed)
    features, labels = [], []
    for _ in range(n):
        feats = rng.normal(size=(w, d))
        label = int(rng.integers(0, 41))
        feats[-1, 1] = (label - 20.0) / 10.0
        features.append(feats)
        labels.append(label)
    return windows_of(np.stack(features), labels)


def _tiny_cfg(**kw):
    base = dict(
        max_epochs=40, batch_size=8, base_lr=3e-2, warmup_steps=10, patience=40,
        seed=0, weight_decay=0.0, d_model=16, heads=2, layers=1,
    )
    base.update(kw)
    return TrainConfig(**base)


def test_overfit_affine_readout_task():
    windows = _affine_readout_windows()
    model, logs = train_attention(windows, windows, _tiny_cfg())
    assert logs[-1].val_metric < 1.0  # train==val here; MAE under one cycle


def test_patience_stops_after_k_plus_patience():
    windows = _affine_readout_windows(n=24)
    # updates of ~1e-300 change no parameter the loss reads, so the metric
    # never improves and epoch 1 is the best
    cfg = _tiny_cfg(max_epochs=30, patience=6, base_lr=1e-300, warmup_steps=0)
    model, logs = train_attention(windows, windows, cfg)
    assert len({log.val_metric for log in logs}) == 1
    assert len(logs) == 1 + 6


def test_same_seed_reproduces_identical_parameters(tmp_path):
    windows = _affine_readout_windows(n=30)
    cfg = _tiny_cfg(max_epochs=3, seed=9)
    model_a, _ = train_attention(windows, windows, cfg)
    model_b, _ = train_attention(windows, windows, cfg)
    for name in model_a.params:
        assert np.array_equal(model_a.params[name], model_b.params[name])
    save_model(model_a, tmp_path / "a.bin")
    save_model(model_b, tmp_path / "b.bin")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_divergence_reports_epoch_and_step():
    windows = _affine_readout_windows(n=30)
    # lr*wd > 1 flips and amplifies the decay factor until overflow
    cfg = _tiny_cfg(max_epochs=60, batch_size=16, base_lr=1e9, warmup_steps=0,
                    weight_decay=1.0)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDivergedError, match="epoch"):
            train_attention(windows, windows, cfg)


def test_model_roundtrip_and_prediction(tmp_path):
    windows = _affine_readout_windows(n=30)
    model, _ = train_attention(windows, windows, _tiny_cfg(max_epochs=2))
    save_model(model, tmp_path / "m.bin")
    loaded = load_model(tmp_path / "m.bin")
    window = windows[0].features[None]
    assert predict_ttd_batch(loaded, window)[0] == pytest.approx(predict_ttd_batch(model, window)[0])
    assert predict_ttd_batch(loaded, window)[0] >= 0.0


def test_heads_must_divide_d_model():
    with pytest.raises(ValueError):
        TrainConfig(d_model=10, heads=4)
    with pytest.raises(ValueError):
        init_attention_params(np.random.default_rng(0), 3, 10, 4, 1)


def _tiny_model(d=3, w=6, pool="mean"):
    return ForecastModel(kind="attention", params=_tiny_params(d=d), window=w, n_channels=d,
                         meta={"heads": TINY["heads"], "pool": pool})


@pytest.mark.parametrize("pool", ["mean", "last"])
@pytest.mark.parametrize(
    "n", [0, 1, INFERENCE_CHUNK - 1, INFERENCE_CHUNK, INFERENCE_CHUNK + 1, 3 * INFERENCE_CHUNK + 5]
)
def test_chunked_inference_equals_one_forward(n, pool):
    model = _tiny_model(pool=pool)
    X = np.random.default_rng(n).normal(size=(n, 6, 3))
    whole, _ = attention_forward_batch(X, model.params, TINY["heads"], pool, check=False)
    chunked = attention_raw_batch(model, X)
    assert chunked.shape == (n,)
    assert np.array_equal(chunked, whole)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_inference_memory_does_not_grow_with_window_count():
    n = 512
    model = _tiny_model(w=40)
    X = np.random.default_rng(0).normal(size=(4 * n, 40, 3))
    small = _traced_peak(lambda: attention_raw_batch(model, X[:n]))
    large = _traced_peak(lambda: attention_raw_batch(model, X))
    assert large < 1.5 * small
