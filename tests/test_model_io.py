"""Model container, serialization guards, and explicit prediction clipping."""

import numpy as np
import pytest

from driftcal.labeling import Standardizer
from driftcal.models import ForecastModel, load_model, predict_ttd_batch, save_model


def _constant_linear_model(intercept, w=2, d=3):
    """A linear model with zero coefficients: raw output == intercept."""
    return ForecastModel(
        kind="linear",
        params={"coef": np.zeros(w * d), "intercept": np.array([float(intercept)])},
        window=w,
        n_channels=d,
        meta={"ridge": 0.0},
    )


@pytest.mark.parametrize("raw,expected", [(-3.2, 0.0), (0.0, 0.0), (17.5, 17.5)])
def test_predict_clips_raw_output(raw, expected):
    model = _constant_linear_model(raw)
    assert predict_ttd_batch(model, np.zeros((1, 2, 3)))[0] == expected


def test_perfect_pseudo_model_scores_mae_zero():
    # evaluation of an exact predictor: MAE 0, R^2 = 1
    from driftcal.pipeline import evaluate_forecaster
    from driftcal.models import fit_linear

    from oracles import windows_of

    rng = np.random.default_rng(0)
    features, labels = [], []
    for _ in range(30):
        label = int(rng.integers(0, 50))
        feats = rng.normal(size=(2, 3))
        feats[0, 0] = float(label)
        features.append(feats)
        labels.append(label)
    windows = windows_of(np.stack(features), labels)
    oracle_model = fit_linear(windows, ridge=1e-12)
    report, y, yhat = evaluate_forecaster(oracle_model, windows)
    assert report.mae == pytest.approx(0.0, abs=1e-7)
    assert report.r2 == pytest.approx(1.0, abs=1e-9)
    assert len(y) == len(windows)


def test_save_refuses_non_finite_parameters(tmp_path):
    model = _constant_linear_model(1.0)
    model.params["coef"][0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        save_model(model, tmp_path / "m.bin")


def test_roundtrip_preserves_standardizer(tmp_path):
    model = _constant_linear_model(4.0)
    model.standardizer = Standardizer(
        mean=np.array([1.0, 2.0, 3.0]), std=np.array([0.5, 1.5, 2.5])
    )
    save_model(model, tmp_path / "m.bin")
    loaded = load_model(tmp_path / "m.bin")
    assert np.array_equal(loaded.standardizer.mean, model.standardizer.mean)
    assert np.array_equal(loaded.standardizer.std, model.standardizer.std)
    assert loaded.kind == "linear"
    assert loaded.window == 2 and loaded.n_channels == 3
    window = np.array([[[1.0, 2.0, 3.0], [1.5, 3.5, 5.5]]])
    assert predict_ttd_batch(loaded, window)[0] == predict_ttd_batch(model, window)[0]
