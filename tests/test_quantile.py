import numpy as np
import pytest

from driftcal.models import TrainConfig, fit_quantile, predict_quantiles_batch, predict_ttd_batch
from driftcal.models.base import ShapeMismatchError
from driftcal.models.quantile import (
    init_quantile_params,
    quantile_loss_and_grads,
)

from oracles import (
    central_difference_gradients,
    fit_quantile_constants,
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
