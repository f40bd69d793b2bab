"""Forecast scorers against the per-run sliding-window reference, and the
validation forecasts of evaluate_forecaster."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from driftcal.adaptation import AdaptationConfig, Segment, adapt_dataset
from driftcal.labeling import Standardizer
from driftcal.models import (ForecastModel, TrainConfig, fit_linear, fit_quantile,
                             predict_quantiles_batch, predict_ttd_batch, save_model,
                             train_attention)
from driftcal.pipeline import (
    evaluate_forecaster,
    forecast_scorer,
    label_and_window,
    train_forecaster,
    validation_subset,
)
from driftcal.synthetic import synthetic_trajectories

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
def test_evaluate_equals_one_forecast_over_the_gathered_windows(models, small_dataset, kind):
    val = label_and_window(small_dataset, w=W, seed=4).val_raw
    expected = predict_ttd_batch(models[kind], val.take(slice(None)))
    report, y, yhat = evaluate_forecaster(models[kind], val)
    assert yhat.tobytes() == expected.tobytes()
    assert y.tolist() == val.label.tolist() and report.n == len(val)


@pytest.fixture(scope="module")
def default_fleet():
    """The CLI's default synthetic fleet at seed 7, its bundle and validation runs."""
    dataset = adapt_dataset(synthetic_trajectories(n_engines=20, seed=7,
                                                   length_range=(200, 300)),
                            AdaptationConfig(), seed=7)
    bundle = label_and_window(dataset, seed=7)
    return bundle, validation_subset(dataset, bundle.split)


@pytest.mark.parametrize("kind", ["linear", "quantile", "attention"])
def test_evaluate_and_score_forecast_every_validation_window_alike(default_fleet, kind):
    # evaluate's metrics and the replayed policies read the same bits; the
    # quantile model's q10 heads too, which only the quantile policy reads
    bundle, val = default_fleet
    cfg = TrainConfig(max_epochs=1, patience=1, seed=7)
    model = train_forecaster(kind, bundle, cfg)[0]
    keys = list(zip(bundle.val_raw.engine_id.tolist(), bundle.val_raw.end_cycle.tolist()))
    _, _, yhat = evaluate_forecaster(model, bundle.val_raw)
    scores = forecast_scorer(model, val).scores
    assert list(scores) == keys
    assert np.array(list(scores.values())).tobytes() == yhat.tobytes()
    if kind == "quantile":
        q10 = predict_quantiles_batch(model, bundle.val_raw.take(slice(None)))[:, 0]
        scores = forecast_scorer(model, val, use_quantile=True).scores
        assert np.array(list(scores.values())).tobytes() == q10.tobytes()


@pytest.mark.parametrize("n_runs", [1, 3])  # fewer rows in all than one window, and more
def test_a_fleet_of_runs_shorter_than_the_window_scores_nothing(models, small_dataset, n_runs):
    short = replace(small_dataset, runs=[replace(run, channels=run.channels[: W - 1],
                                                 segments=(Segment(1, W - 1, None),),
                                                 reset_events=())
                                         for run in small_dataset.runs[:n_runs]])
    for use_quantile in (False, True):
        scorer = forecast_scorer(models["quantile"], short, use_quantile=use_quantile)
        assert scorer.scores == {} and scorer.start_cycle == W


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
