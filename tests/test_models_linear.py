import numpy as np
import pytest

from driftcal.models.base import ShapeMismatchError
from driftcal.models.linear import SingularSystemError, fit_linear, linear_raw_batch
from driftcal.models.predict import predict_ttd_batch

from oracles import windows_of


def _windows_from(X3, y):
    return windows_of(X3, np.round(y))


def _random_problem(n=50, w=4, d=3, seed=0):
    rng = np.random.default_rng(seed)
    X3 = rng.normal(size=(n, w, d))
    return X3, rng


def test_exact_fit_single_feature():
    X3, rng = _random_problem(n=60)
    # integer labels exactly linear in one cell, others irrelevant
    X3[:, 0, 0] = rng.integers(-20, 20, size=60).astype(float) / 2.0
    y = 2.0 * X3[:, 0, 0]
    model = fit_linear(_windows_from(X3, y), ridge=1e-9)
    assert model.params["coef"][0] == pytest.approx(2.0, abs=1e-6)
    pred = linear_raw_batch(model, X3)
    ss_res = np.sum((pred - y) ** 2)
    ss_tot = np.sum((y - y.mean()) ** 2)
    assert 1.0 - ss_res / ss_tot >= 1.0 - 1e-9


def test_constant_targets():
    X3, _ = _random_problem()
    y = np.full(len(X3), 7.0)
    model = fit_linear(_windows_from(X3, y))
    assert model.params["intercept"][0] == pytest.approx(7.0, abs=1e-6)
    assert np.abs(model.params["coef"]).max() < 1e-6
    assert np.allclose(linear_raw_batch(model, X3), 7.0, atol=1e-6)


def test_matches_normal_equation_oracle():
    X3, rng = _random_problem(n=50, w=5, d=4, seed=3)
    y = rng.integers(0, 40, size=50).astype(float)  # labels are integer TTDs
    ridge = 1e-6
    model = fit_linear(_windows_from(X3, y), ridge=ridge)
    X = X3.reshape(50, -1)
    A = np.hstack([X, np.ones((50, 1))])
    R = np.zeros((21, 21))
    R[np.arange(20), np.arange(20)] = ridge
    beta = np.linalg.inv(A.T @ A + R) @ (A.T @ y)  # independent dense solve
    got = np.concatenate([model.params["coef"], model.params["intercept"]])
    assert np.abs(got - beta).max() < 1e-8


def test_residual_gradient_norm_small():
    X3, rng = _random_problem(n=80, w=6, d=4, seed=5)
    y = rng.integers(0, 60, size=80).astype(float)
    ridge = 1e-6
    model = fit_linear(_windows_from(X3, y), ridge=ridge)
    X = X3.reshape(80, -1)
    A = np.hstack([X, np.ones((80, 1))])
    beta = np.concatenate([model.params["coef"], model.params["intercept"]])
    grad = A.T @ (A @ beta - y)
    grad[:-1] += ridge * beta[:-1]
    assert np.linalg.norm(grad) / max(1.0, np.linalg.norm(A.T @ y)) <= 1e-6


def test_singular_without_ridge_raises():
    X3, rng = _random_problem(n=30, w=4, d=3, seed=7)
    X3[:, :, 2] = X3[:, :, 1]  # duplicated channel -> rank deficient
    y = rng.integers(0, 20, size=30).astype(float)
    with pytest.raises(SingularSystemError, match="ridge"):
        fit_linear(_windows_from(X3, y), ridge=0.0)
    fit_linear(_windows_from(X3, y), ridge=1e-6)  # regularized solve succeeds


def test_negative_ridge_rejected():
    X3, rng = _random_problem()
    with pytest.raises(ValueError):
        fit_linear(_windows_from(X3, rng.normal(size=len(X3))), ridge=-1.0)


def test_predict_clips_and_checks_shape():
    X3, rng = _random_problem(n=40, seed=9)
    y = rng.normal(loc=-30, size=40)  # force negative raw outputs
    model = fit_linear(_windows_from(X3, y))
    window = X3[0]
    assert predict_ttd_batch(model, window[None])[0] >= 0.0
    with pytest.raises(ShapeMismatchError):
        predict_ttd_batch(model, window[None, :2])
