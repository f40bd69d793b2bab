"""Byte-level pins on every canonical output of a fixed fleet.

Each hash was taken before the code it covers was rewritten: the data-layer
and quantile hashes before the writers, the reader, the ranking and the
optimizer were vectorized; the linear and attention model hashes and the
attention forecast hash before attention inference ran in chunks, the
linear design matrix was filled in place and GELU worked in blocks; the
early-stopping quantile model, the epoch-log hashes and the default run
config digest before the quantile and attention forecasters shared one
training loop and the run config built its parts from their fields; all of
them before windows became views into one channel matrix; the policy event
hashes before the replay stepped segment jobs instead of a global clock. A
refactor must leave every one of them unchanged. The model pins cover float64
arithmetic, so they hold only for one BLAS build (numpy's bundled OpenBLAS)
at one BLAS thread count: at numpy's default thread count every pin holds,
while with OPENBLAS_NUM_THREADS=1 the linear and attention model pins fail.
"""

import hashlib
from dataclasses import fields

import numpy as np
import pytest

from driftcal.adaptation import (
    ADAPTED_CSV_NAME,
    ADAPTED_META_NAME,
    AdaptationConfig,
    adapt_dataset,
    dataset_digest,
    write_adapted_dataset,
)
from driftcal.cli import RunConfig
from driftcal.cmapss_io import serialize_trajectories
from driftcal.models import EpochLog, TrainConfig, predict_ttd_batch, save_model
from driftcal.pipeline import (
    forecast_scorer,
    label_and_window,
    train_forecaster,
    training_subset,
    validation_subset,
)
from driftcal.scheduler import (
    POLICY_KINDS,
    CapacitySpec,
    PolicySpec,
    median_segment_length,
    simulate,
)
from driftcal.synthetic import synthetic_trajectories
from driftcal.util import fmt_float

SEED = 3

PINS = {
    "trajectories_txt": "87691a742f7f325a73cfc50d4f5607dcfba9d523ac28d48e5c2a80a5de1c0536",
    "adapted_csv": "54da021117105a5abfd1226e6dc42081d0aa37777aff6cea61b0f1be93fbfca3",
    "adapted_meta": "ac9f7e526856427b59aa44a1e04002948cec58f52c5d0d08dbf4b59d4d68986e",
    "dataset_digest": "fe9fe6457479b45d0ea2f19d9c49e2ab0177b74e5522e8262466ab83d8622a32",
    "quantile_model": "25e83e4de49ff930f118a652c2df212e6a62482b08c08a1461c179a4088f30e4",
    "linear_model": "ff9cf51b4295c03c78d1f1fbd7244b255c4dedec04a5f3a85cf7c95f536c01a3",
    "attention_model": "d028964fb08c3890d8b397f1cfe123b2cd7329a370f38eda08a7c4940dcd3c97",
    "attention_predictions": "b080cd6ab86a05fe7c8c5ff76555dab9fad2333b66b7dab69a23667ecba86339",
    "run_config_digest": "4c1bcbe352d3d7a8f6c6bf5d21f7f12f054361dcd09de7740a95bfb0bd98aa2e",
    "quantile_early_stop_model": "76cd2ce6f7e91e2f70b1e9079c0acd6139eac0f02a191b6970f8a6104bdd7a12",
    "quantile_logs": "34cccf0ec395c0794f11a71dffb72ae2198c14018021405c6cedfe82c577d358",
    "quantile_early_stop_logs": "ea072af901b189c966f7d7fae42a189f86ef47e38769a9c7b9efcd92fd6622ee",
    "attention_logs": "bb2e7ea87680e1d74aed35d1187815b600fcdb9b1d6d74c8a75e73df303b94d6",
}

# events of each policy on the validation runs, uncapped and with CAPACITY
EVENT_PINS = {
    "reactive": "a89e23e9e7cc1df69346a09a481735cb13535462720a8b03e3593397a970a8f3",
    "fixed": "becc628f01d9e68fb75254a8a9c79524cd918476309e0acf6875e9c13b3c5c9b",
    "predictive": "2bfc845675cda094ee2d4f353571af3ee4a76b00b2f5722808cd3b749050cf86",
    "quantile": "98b2309bb4e320a82446f6affc9df1dfb5937af466df6eda3f0cdf9661e59c03",
    "reactive:k1": "a89e23e9e7cc1df69346a09a481735cb13535462720a8b03e3593397a970a8f3",
    "fixed:k1": "becc628f01d9e68fb75254a8a9c79524cd918476309e0acf6875e9c13b3c5c9b",
    "predictive:k1": "090972f3f424d42ae2f0e01a97a488fe4a19ef85c199c498ee3e5ec2a4ab05c3",
    "quantile:k1": "5ec59ca8d4a9d54e3d0ea12fe63c24c55a28fce71a1b097f6ca1520c0e5c67cb",
}
CAPACITY = CapacitySpec(k=1, window_width=5)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def fleet():
    return synthetic_trajectories(n_engines=8, seed=SEED, length_range=(130, 360))


@pytest.fixture(scope="module")
def dataset(fleet):
    return adapt_dataset(fleet, AdaptationConfig(), seed=SEED)


@pytest.fixture(scope="module")
def bundle(dataset):
    return label_and_window(dataset, seed=SEED)


def _model_sha(model, tmp_path) -> str:
    save_model(model, tmp_path / "model.bin")
    return _sha((tmp_path / "model.bin").read_bytes())


def _logs_sha(logs) -> str:
    """Every field of every epoch log, as float64 bytes."""
    names = [f.name for f in fields(EpochLog)]
    table = np.array([[getattr(log, name) for name in names] for log in logs], dtype=np.float64)
    return _sha(table.tobytes())


def _outcome_sha(outcome) -> str:
    """The rows ``simulate`` writes to events_<policy>.csv, then the counts and cost."""
    rows = [",".join([str(ev.engine_id), str(ev.cycle), ev.event,
                      "" if ev.score is None else fmt_float(ev.score)])
            for ev in outcome.events]
    rows.append(f"{outcome.n_cal},{outcome.n_vio},{fmt_float(outcome.cost)}")
    return _sha("\n".join(rows).encode("utf-8"))


@pytest.fixture(scope="module")
def policy_hashes(dataset, bundle):
    """Outcome hash per policy, uncapped and under CAPACITY (key suffix ":k1"),
    with the linear point scorer and the 2-epoch quantile scorer at margin 5."""
    val = validation_subset(dataset, bundle.split)
    linear, _ = train_forecaster("linear", bundle, TrainConfig(seed=SEED))
    quantile, _ = train_forecaster("quantile", bundle, TrainConfig(max_epochs=2, patience=2,
                                                                   seed=SEED))
    scorers = {"predictive": forecast_scorer(linear, val),
               "quantile": forecast_scorer(quantile, val, use_quantile=True)}
    period = median_segment_length(training_subset(dataset, bundle.split))
    hashes = {}
    for kind in POLICY_KINDS:
        policy = PolicySpec(kind=kind, margin=5, period=period if kind == "fixed" else None)
        for suffix, capacity in (("", None), (":k1", CAPACITY)):
            hashes[kind + suffix] = _outcome_sha(
                simulate(val, scorers.get(kind), policy, capacity=capacity))
    return hashes


def test_default_run_config_digest():
    # every CSV preamble carries this digest
    assert RunConfig().digest() == PINS["run_config_digest"]


def test_serialized_trajectories_hash(fleet):
    assert _sha(serialize_trajectories(fleet).encode("utf-8")) == PINS["trajectories_txt"]


def test_adapted_files_and_digest_hashes(dataset, tmp_path):
    result = write_adapted_dataset(dataset, tmp_path)
    assert _sha((tmp_path / ADAPTED_CSV_NAME).read_bytes()) == PINS["adapted_csv"]
    assert _sha((tmp_path / ADAPTED_META_NAME).read_bytes()) == PINS["adapted_meta"]
    assert result["digest"] == PINS["dataset_digest"]
    assert dataset_digest(dataset) == PINS["dataset_digest"]


def test_quantile_model_bytes_hash(bundle, tmp_path):
    model, logs = train_forecaster(
        "quantile", bundle, TrainConfig(max_epochs=2, patience=2, seed=SEED)
    )
    assert len(logs) == 2
    assert _model_sha(model, tmp_path) == PINS["quantile_model"]
    assert _logs_sha(logs) == PINS["quantile_logs"]


def test_early_stopped_quantile_model_restores_best_epoch(bundle, tmp_path):
    cfg = TrainConfig(max_epochs=12, patience=2, base_lr=1e-2, warmup_steps=0, seed=SEED)
    model, logs = train_forecaster("quantile", bundle, cfg)
    val = [log.val_metric for log in logs]
    best_epoch = val.index(min(val)) + 1
    assert len(logs) < cfg.max_epochs
    assert best_epoch < len(logs)
    assert _model_sha(model, tmp_path) == PINS["quantile_early_stop_model"]
    assert _logs_sha(logs) == PINS["quantile_early_stop_logs"]


def test_linear_model_bytes_hash(bundle, tmp_path):
    model, _ = train_forecaster("linear", bundle, TrainConfig(seed=SEED))
    assert _model_sha(model, tmp_path) == PINS["linear_model"]


def test_attention_model_and_prediction_bytes_hash(bundle, tmp_path):
    model, logs = train_forecaster(
        "attention", bundle, TrainConfig(max_epochs=1, patience=1, seed=SEED)
    )
    assert len(logs) == 1
    assert _model_sha(model, tmp_path) == PINS["attention_model"]
    assert _logs_sha(logs) == PINS["attention_logs"]
    X_val = np.stack([win.features for win in bundle.val_raw])
    assert len(X_val) > 128  # crosses inference chunk boundaries
    yhat = predict_ttd_batch(model, X_val)
    assert _sha(yhat.tobytes()) == PINS["attention_predictions"]


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_policy_event_hashes(policy_hashes, kind):
    assert policy_hashes[kind] == EVENT_PINS[kind]
    assert policy_hashes[f"{kind}:k1"] == EVENT_PINS[f"{kind}:k1"]


def test_capacity_defers_forecast_triggers(policy_hashes):
    # the capped pins cover deferred triggers, not a copy of the uncapped events
    for kind in ("predictive", "quantile"):
        assert policy_hashes[f"{kind}:k1"] != policy_hashes[kind]
