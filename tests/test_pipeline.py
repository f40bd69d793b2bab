"""Forecast scorers against the per-run sliding-window reference, and the
validation forecasts of evaluate_forecaster."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from driftcal.adaptation import Segment
from driftcal.labeling import Standardizer
from driftcal.models import (ForecastModel, TrainConfig, fit_linear, fit_quantile,
                             predict_ttd_batch, save_model, train_attention)
from driftcal.pipeline import (
    evaluate_forecaster,
    forecast_scorer,
    label_and_window,
    train_forecaster,
)

from oracles import oracle_forecast_scorer, windows_of

W = 30


@pytest.fixture(scope="module")
def models(small_dataset):
    bundle = label_and_window(small_dataset, w=W, seed=4)
    return {
        "linear": train_forecaster("linear", bundle, TrainConfig(seed=4))[0],
        "quantile": train_forecaster("quantile", bundle,
                                     TrainConfig(max_epochs=2, patience=2, seed=4))[0],
        "attention": train_forecaster("attention", bundle,
                                      TrainConfig(max_epochs=1, patience=1, seed=4))[0],
    }


@pytest.fixture(scope="module")
def fleet_with_short_run(small_dataset):
    first = small_dataset.runs[0]
    short = replace(first, engine_id=99, channels=first.channels[: W - 5],
                    segments=(Segment(1, W - 5, None),), reset_events=())
    return replace(small_dataset, runs=[*small_dataset.runs[:3], short, *small_dataset.runs[3:]])


@pytest.mark.parametrize(("kind", "use_quantile"),
                         [("linear", False), ("quantile", False), ("quantile", True),
                          ("attention", False)],
                         ids=["linear", "quantile_point", "quantile_q10", "attention"])
def test_forecast_scorer_matches_sliding_window_oracle(models, fleet_with_short_run, kind,
                                                       use_quantile):
    model = models[kind]
    got = forecast_scorer(model, fleet_with_short_run, use_quantile=use_quantile)
    want = oracle_forecast_scorer(model, fleet_with_short_run, use_quantile=use_quantile)
    assert got.start_cycle == want.start_cycle == W
    assert list(got.scores) == list(want.scores)  # same keys, in the same order
    assert not any(engine == 99 for engine, _ in got.scores)  # the short run has no window
    assert (np.array(list(got.scores.values())).tobytes()
            == np.array(list(want.scores.values())).tobytes())  # bit for bit


@pytest.mark.parametrize("kind", ["linear", "quantile", "attention"])
def test_evaluate_equals_one_forecast_over_the_gathered_windows(models, small_dataset,
                                                                monkeypatch, kind):
    val = label_and_window(small_dataset, w=W, seed=4).val_raw
    expected = predict_ttd_batch(models[kind], val.take(slice(None)))
    # chunk edges in 166 windows; chunks and tails of 32 or more rows keep
    # every product on the BLAS kernel one product over all of them uses
    monkeypatch.setattr("driftcal.labeling.WINDOW_CHUNK", 64)
    report, y, yhat = evaluate_forecaster(models[kind], val)
    assert yhat.tobytes() == expected.tobytes()
    assert y.tolist() == val.label.tolist() and report.n == len(val)


def test_unknown_kind_raises_one_value_error_before_reading_the_bundle():
    with pytest.raises(ValueError, match="'bogus'"):
        train_forecaster("bogus", None, TrainConfig())


def test_evaluate_holds_no_raw_copy_of_the_whole_window_set():
    n, w, d = 8000, 40, 24
    rng = np.random.default_rng(0)
    windows = windows_of(rng.normal(size=(n, w, d)), np.zeros(n))
    model = ForecastModel(kind="linear", params={"coef": rng.normal(size=w * d),
                                                 "intercept": np.zeros(1)},
                          window=w, n_channels=d,
                          standardizer=Standardizer(mean=np.ones(d), std=np.full(d, 2.0)))
    tracemalloc.start()
    try:
        evaluate_forecaster(model, windows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    standardized_bytes = n * w * d * 8
    assert peak < 1.5 * standardized_bytes  # a raw copy beside it would make 2x


# each kind's own fit, which returns a model without a standardizer
FITS = {"linear": lambda train, val, cfg: fit_linear(train, cfg.ridge),
        "quantile": lambda *args: fit_quantile(*args)[0],
        "attention": lambda *args: train_attention(*args)[0]}


@pytest.mark.parametrize("kind", list(FITS))
def test_train_forecaster_saves_a_direct_fit_with_the_bundles_standardizer(small_dataset,
                                                                           tmp_path, kind):
    bundle = label_and_window(small_dataset, w=W, seed=4)
    cfg = TrainConfig(max_epochs=1, patience=1, seed=4, d_model=16, heads=2, layers=1)
    model, _ = train_forecaster(kind, bundle, cfg)
    direct = FITS[kind](bundle.train_std, bundle.val_std, cfg)
    assert direct.standardizer is None
    direct.standardizer = bundle.standardizer
    save_model(model, tmp_path / "pipeline.bin")
    save_model(direct, tmp_path / "direct.bin")
    assert (tmp_path / "pipeline.bin").read_bytes() == (tmp_path / "direct.bin").read_bytes()
