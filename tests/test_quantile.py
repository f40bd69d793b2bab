import numpy as np
import pytest

from driftcal.models import (
    TrainConfig,
    fit_quantile,
    load_model,
    predict_quantiles_batch,
    predict_ttd_batch,
    predict_ttd_windows,
    save_model,
)
from driftcal.models.base import ShapeMismatchError
from driftcal.models.quantile import (
    init_quantile_params,
    quantile_forward_batch,
    quantile_loss_and_grads,
)
from driftcal.pipeline import label_and_window, train_forecaster

from oracles import (
    central_difference_gradients,
    fit_quantile_constants,
    fit_quantile_float64,
    flatten_params,
    max_relative_error,
    unflatten_params,
    windows_of,
)


def test_constants_converge_to_empirical_quantiles():
    labels = np.arange(1.0, 101.0)
    constants = fit_quantile_constants(labels, (0.1, 0.5, 0.9))
    for c, q in zip(constants, (0.1, 0.5, 0.9)):
        assert abs(c - np.quantile(labels, q)) <= 2.0


def test_median_constant_on_skewed_labels():
    constants = fit_quantile_constants(np.array([0.0, 0.0, 10.0]), (0.5,))
    assert abs(constants[0] - 0.0) <= 1.0


def test_quantile_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    params = init_quantile_params(rng, 6, 8)
    X = rng.normal(size=(8, 6))
    y = rng.normal(loc=5.0, scale=4.0, size=8)
    # keep every residual away from the pinball kink under the 1e-5 probe
    out0, _ = __import__("driftcal.models.quantile", fromlist=["quantile_forward_batch"]).quantile_forward_batch(X, params)
    assert np.abs(out0 - y[:, None]).min() > 1e-3

    _, analytic = quantile_loss_and_grads(X, y, params)

    def loss_at(flat):
        loss, _ = quantile_loss_and_grads(X, y, unflatten_params(flat, params))
        return loss

    numeric = central_difference_gradients(loss_at, flatten_params(params), step=1e-5)
    assert max_relative_error(flatten_params(analytic), numeric) <= 1e-4


def _scalar_windows(xs, labels):
    return windows_of(np.asarray(xs, dtype=float).reshape(-1, 1, 1), labels)


def _train_cfg(**kw):
    base = dict(max_epochs=80, batch_size=32, base_lr=5e-3, warmup_steps=20,
                patience=80, seed=1, weight_decay=0.0, hidden_width=64)
    base.update(kw)
    return TrainConfig(**base)


def test_symmetric_noise_gives_symmetric_quantiles():
    rng = np.random.default_rng(7)
    n = 400
    xs = rng.uniform(-1, 1, size=n)
    labels = np.round(20.0 + 10.0 * xs + rng.normal(0.0, 3.0, size=n))
    windows = _scalar_windows(xs, labels)
    model, _ = fit_quantile(windows, windows, _train_cfg())
    q = predict_quantiles_batch(model, np.stack([w.features for w in windows]))
    asym = np.mean(q[:, 0] + q[:, 2] - 2.0 * q[:, 1])
    label_range = labels.max() - labels.min()
    assert abs(asym) <= 0.05 * label_range


def test_rectified_quantiles_never_cross():
    rng = np.random.default_rng(8)
    xs = rng.uniform(-1, 1, size=100)
    labels = np.round(15 + 5 * xs + rng.normal(0, 3, size=100))
    windows = _scalar_windows(xs, labels)
    model, _ = fit_quantile(windows, windows, _train_cfg(max_epochs=10))
    probe = np.stack([w.features for w in windows] + [np.array([[x]]) for x in (-5, 0, 5)])
    q = predict_quantiles_batch(model, probe)
    assert np.all(q[:, 0] <= q[:, 1] + 1e-12)
    assert np.all(q[:, 1] <= q[:, 2] + 1e-12)
    assert np.all(q >= 0.0)


def test_quantiles_ordered_with_median_as_point_forecast():
    rng = np.random.default_rng(9)
    xs = rng.uniform(-1, 1, size=60)
    labels = np.round(10 + 4 * xs + rng.normal(0, 2, size=60))
    windows = _scalar_windows(xs, labels)
    model, _ = fit_quantile(windows, windows, _train_cfg(max_epochs=5))
    window = windows[0].features[None]
    q10, q50, q90 = predict_quantiles_batch(model, window)[0]
    assert q10 <= q50 <= q90
    # the point forecast of a quantile model is its (clipped) median
    assert predict_ttd_batch(model, window)[0] == pytest.approx(max(q50, 0.0))
    with pytest.raises(ShapeMismatchError):
        predict_quantiles_batch(model, np.zeros((1, 2, 1)))


def test_quantile_level_validation():
    with pytest.raises(ValueError):
        fit_quantile_constants(np.arange(5.0), (0.0,))


def test_early_stopping_on_validation_pinball():
    rng = np.random.default_rng(10)
    xs = rng.uniform(-1, 1, size=80)
    labels = np.round(10 + 4 * xs)
    windows = _scalar_windows(xs, labels)
    # updates of ~1e-300 change no parameter the loss reads: no epoch improves
    cfg = _train_cfg(max_epochs=30, patience=4, base_lr=1e-300, warmup_steps=0)
    _, logs = fit_quantile(windows, windows, cfg)
    assert len({log.val_metric for log in logs}) == 1
    assert len(logs) == 1 + 4


@pytest.mark.parametrize("val_shape", [(3, 4), (2, 3)])
def test_validation_windows_of_another_shape_are_rejected(val_shape):
    rng = np.random.default_rng(11)

    def windows(shape):
        return windows_of(rng.normal(size=(6, *shape)), range(6))

    with pytest.raises(ValueError, match="validation window shape"):
        fit_quantile(windows((4, 3)), windows(val_shape), _train_cfg(max_epochs=1))


def test_float32_fit_agrees_with_a_float64_fit(small_dataset, tmp_path):
    """The product's float32 fit against the same run in float64 (the
    oracle): q50 MAE and the last validation pinball within 1%, the heads
    ascending on average in both, and a saved model's parameters exactly
    float32 values."""
    bundle = label_and_window(small_dataset, seed=42)
    cfg = TrainConfig(max_epochs=25, base_lr=5e-3, patience=25, seed=42)
    model, logs = train_forecaster("quantile", bundle, cfg)
    params64, logs64 = fit_quantile_float64(bundle.train_std, bundle.val_std, cfg)
    assert len(logs) == len(logs64) == cfg.max_epochs
    assert logs[-1].val_metric == pytest.approx(logs64[-1].val_metric, rel=0.01)

    y = bundle.val_raw.label
    X_val = bundle.val_std.take(slice(None)).reshape(len(y), -1)
    mae32 = np.mean(np.abs(predict_ttd_windows(model, bundle.val_raw) - y))
    heads64, _ = quantile_forward_batch(X_val, params64)
    mae64 = np.mean(np.abs(np.maximum(np.sort(heads64, axis=1)[:, 1], 0.0) - y))
    assert mae32 == pytest.approx(mae64, rel=0.01)

    q = predict_quantiles_batch(model, bundle.val_raw.take(slice(None)))
    assert np.all(np.diff(q, axis=1) >= 0.0)
    params32 = {name: p.astype(np.float32) for name, p in model.params.items()}
    heads32, _ = quantile_forward_batch(X_val.astype(np.float32), params32)
    for heads in (heads32, heads64):
        assert np.all(np.diff(heads.mean(axis=0)) > 0.0)

    save_model(model, tmp_path / "model.bin")
    for name, p in load_model(tmp_path / "model.bin").params.items():
        assert np.array_equal(p, p.astype(np.float32).astype(np.float64)), name
