"""Byte-level pins on every canonical output of a fixed fleet.

Each hash was taken before the code it covers was rewritten: the data-layer
and quantile hashes before the writers, the reader, the ranking and the
optimizer were vectorized; the attention model and forecast hashes
before attention inference ran in chunks and GELU worked in blocks; the
early-stopping quantile model, the epoch-log hashes and the default run
config digest before the quantile and attention forecasters shared one
training loop and the run config built its parts from their fields; all of
them before windows became views into one channel matrix; the policy event
hashes before the replay stepped segment jobs instead of a global clock; the
off-default adaptation digest before the adaptation functions took their
config whole; the attention init hash, in the packed Q|K|V layout, before
each layer's three projections became one. A refactor must leave every one of
them unchanged. Model format v2 (the packed projection) retook the model and
attention forecast pins; the quantile files after their magic line are
the bytes format v1 would write for the same parameters (V1_BODY_PINS).
The attention init
forecast hash was taken before attention batches ran in row slices on
several threads; the attention model and forecast pins were retaken then,
once, because the gradient GEMMs of the last, partial batch now always run
at one BLAS thread. The linear model pin was retaken once when the linear
fit began to sum its normal equations in row blocks at one BLAS thread; the
linear forecast pin was taken then. The attention model and forecast pins
were retaken once more when attention training moved from row slices to
micro-batches of 16 windows: their gradients are summed in micro-batch
order, and a float sum taken in another order rounds differently. The
pinned fit's epoch logs kept their bits. The quantile model, epoch-log and
file-body pins and the quantile policy's event pins were retaken once when
the quantile forecaster began to train and forecast in float32, and the
attention model, epoch-log, forecast and init-forecast pins once when the
attention forecaster did, in micro-batches of 24 windows. No pin moved
when every forecast began to run on fixed blocks of windows, the last one
padded with zero windows, and the forecast scorers to forecast a dataset
in one call. The model pins cover float arithmetic, so they hold only for one BLAS build (numpy's
bundled OpenBLAS) and one of its kernels (ON_KERNEL), but at every thread
count (test_fits_do_not_depend_on_blas_threads).
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from driftcal.adaptation import (
    ADAPTED_CSV_NAME,
    ADAPTED_META_NAME,
    AdaptationConfig,
    adapt_dataset,
    dataset_digest,
    read_adapted_dataset,
    write_adapted_dataset,
)
from driftcal.cli import RunConfig
from driftcal.cmapss_io import serialize_trajectories
from driftcal.models import (
    EpochLog,
    TrainConfig,
    predict_quantiles_batch,
    predict_ttd_batch,
    predict_ttd_windows,
    save_model,
    threads,
)
from driftcal.models.attention import MICRO_BATCH, attention_raw, init_attention_params
from driftcal.models.base import ForecastModel
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
    "quantile_model": "2a5d82ec038f7ddc87b7f434b21d7d67e2dd9ef2ebb45f0d0e5f987db7ba4b3f",
    "linear_model": "3a8861f57de9ecdcd37ca0007361ae9d0a91f1d2591f0b8584a9949e4266625c",
    "linear_predictions": "922765f307e1e3e519fea1ac3ea72fb00b6ce45e5e505f3bd4576d1cb6428dcb",
    "attention_model": "38d81087fa8ffdef02ad19e49e9d554d482bb8b6bc92e8f5f9d92fecd5428813",
    "attention_predictions": "0500ca14a98820292c2236522bbef60aaa4269d4b452835581bfa1444eaa5a85",
    "run_config_digest": "4c1bcbe352d3d7a8f6c6bf5d21f7f12f054361dcd09de7740a95bfb0bd98aa2e",
    "quantile_early_stop_model": "d0634133d87a3d925d6cb6af2f97ab9c5b5e49d9f6eb38cc3946bb62d0b442e0",
    "quantile_logs": "8c2d816d6dc34d5d994d878c7d1e3cbb34fb7ce25ef623aa1e08539d21bc75f4",
    "quantile_early_stop_logs": "03fd78e583e02a268500a8ea71bb2bc99068be38b81b419adbd387642334403e",
    "attention_logs": "664ff65d1113d94f56a9e4d2c2092827d18e1ad7cfb711b51ab2225a6a10beca",
    "off_default_dataset_digest":
        "e8d596451cbfd0de2c00c52787da17fa78bea1437fccb838ec70146a827f7e1d",
    "attention_init": "1615db5ce57bb63e077b19c518d6e46c62c7ed91c1aee9a5a0ec315974e31f2e",
    "attention_init_inference":
        "a8c47c7a7e09bbd7e4d39a998c3c869f7411da579b5ad2e303e91db92ebd8734",
}

# The kernel numpy's OpenBLAS ran when the pins were taken: the model pins
# hold on it alone, and a mismatch elsewhere may be another kernel's rounding.
ON_KERNEL = f"pinned on OpenBLAS's SkylakeX kernel; this run's is {threads.blas_kernel()}"

# quantile model files after their first (magic) line, as model format v1 would write them
V1_BODY_PINS = {
    "quantile_model": "2e90d1efa637d70f3d72c760ecc0528de10855a0fb9901f7efcc1cbfcbe89319",
    "quantile_early_stop_model":
        "3542936f19564faebbb575dd8657d6223385eb27bace9c9c32ba3c9df6d91a8c",
}

# every adaptation field off its default: changing any one of them moves the digest
OFF_DEFAULT_ADAPTATION = AdaptationConfig(
    top_k=4, max_resets=2, fraction_low=0.6, fraction_high=0.7, noise_sigma_frac=0.05,
    stitch_low=0.9, stitch_high=1.1, noise_reset_prob=0.3,
)

# events of each policy on the validation runs, uncapped and with CAPACITY
EVENT_PINS = {
    "reactive": "a89e23e9e7cc1df69346a09a481735cb13535462720a8b03e3593397a970a8f3",
    "fixed": "becc628f01d9e68fb75254a8a9c79524cd918476309e0acf6875e9c13b3c5c9b",
    "predictive": "2bfc845675cda094ee2d4f353571af3ee4a76b00b2f5722808cd3b749050cf86",
    "quantile": "51cce94e28b41f486ef34152a39f84d59e7ba88f3d6f7ce7304db943392f4aab",
    "reactive:k1": "a89e23e9e7cc1df69346a09a481735cb13535462720a8b03e3593397a970a8f3",
    "fixed:k1": "becc628f01d9e68fb75254a8a9c79524cd918476309e0acf6875e9c13b3c5c9b",
    "predictive:k1": "090972f3f424d42ae2f0e01a97a488fe4a19ef85c199c498ee3e5ec2a4ab05c3",
    "quantile:k1": "f073bce0d17ff4d82c380ee824c23cf5d12892dd814549a50a3183d19d45a581",
}
CAPACITY = CapacitySpec(k=1, window_width=5)

# the pinned fit of each kind
FITS = {
    "linear": TrainConfig(seed=SEED),
    "quantile": TrainConfig(max_epochs=2, patience=2, seed=SEED),
    "attention": TrainConfig(max_epochs=1, patience=1, seed=SEED),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fleet():
    return synthetic_trajectories(n_engines=8, seed=SEED, length_range=(130, 360))


@pytest.fixture(scope="module")
def fleet():
    return _fleet()


@pytest.fixture(scope="module")
def dataset(fleet):
    return adapt_dataset(fleet, AdaptationConfig(), seed=SEED)


@pytest.fixture(scope="module")
def bundle(dataset):
    return label_and_window(dataset, seed=SEED)


def _model_shas(model, tmp_path) -> tuple[str, str]:
    """Hashes of the saved model file, whole and after its magic line."""
    save_model(model, tmp_path / "model.bin")
    data = (tmp_path / "model.bin").read_bytes()
    return _sha(data), _sha(data.split(b"\n", 1)[1])


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
    linear, _ = train_forecaster("linear", bundle, FITS["linear"])
    quantile, _ = train_forecaster("quantile", bundle, FITS["quantile"])
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
    assert RunConfig().digest() == PINS["run_config_digest"], ON_KERNEL


def test_serialized_trajectories_hash(fleet):
    text = serialize_trajectories(fleet)
    assert _sha(text.encode("utf-8")) == PINS["trajectories_txt"], ON_KERNEL


def test_adapted_files_and_digest_hashes(dataset, tmp_path):
    result = write_adapted_dataset(dataset, tmp_path)
    assert _sha((tmp_path / ADAPTED_CSV_NAME).read_bytes()) == PINS["adapted_csv"], ON_KERNEL
    assert _sha((tmp_path / ADAPTED_META_NAME).read_bytes()) == PINS["adapted_meta"], ON_KERNEL
    assert result["digest"] == PINS["dataset_digest"], ON_KERNEL
    assert dataset_digest(dataset) == PINS["dataset_digest"], ON_KERNEL


def test_mirror_read_reproduces_the_dataset_digest(dataset, tmp_path, monkeypatch):
    """Read back through the binary mirror, with the CSV parse forbidden."""
    write_adapted_dataset(dataset, tmp_path)

    def no_parse(*args, **kwargs):
        raise AssertionError("the CSV was parsed")

    monkeypatch.setattr(np, "loadtxt", no_parse)
    loaded = read_adapted_dataset(tmp_path, expected_digest=PINS["dataset_digest"])
    assert dataset_digest(loaded) == PINS["dataset_digest"], ON_KERNEL


def test_off_default_adaptation_digest(fleet):
    dataset = adapt_dataset(fleet, OFF_DEFAULT_ADAPTATION, seed=SEED)
    assert dataset_digest(dataset) == PINS["off_default_dataset_digest"], ON_KERNEL


def test_quantile_model_bytes_hash(bundle, tmp_path):
    model, logs = train_forecaster("quantile", bundle, FITS["quantile"])
    assert len(logs) == 2
    assert _model_shas(model, tmp_path) == (PINS["quantile_model"],
                                            V1_BODY_PINS["quantile_model"]), ON_KERNEL
    assert _logs_sha(logs) == PINS["quantile_logs"], ON_KERNEL


def test_early_stopped_quantile_model_restores_best_epoch(bundle, tmp_path):
    cfg = TrainConfig(max_epochs=12, patience=2, base_lr=1e-2, warmup_steps=0, seed=SEED)
    model, logs = train_forecaster("quantile", bundle, cfg)
    val = [log.val_metric for log in logs]
    best_epoch = val.index(min(val)) + 1
    assert len(logs) < cfg.max_epochs
    assert best_epoch < len(logs)
    assert _model_shas(model, tmp_path) == (PINS["quantile_early_stop_model"],
                                            V1_BODY_PINS["quantile_early_stop_model"]), ON_KERNEL
    assert _logs_sha(logs) == PINS["quantile_early_stop_logs"], ON_KERNEL


def test_linear_model_bytes_hash(bundle, tmp_path):
    model, _ = train_forecaster("linear", bundle, FITS["linear"])
    assert _model_shas(model, tmp_path)[0] == PINS["linear_model"], ON_KERNEL


def test_linear_prediction_bytes_hash(bundle):
    model, _ = train_forecaster("linear", bundle, FITS["linear"])
    yhat = predict_ttd_windows(model, bundle.val_raw)
    assert _sha(yhat.tobytes()) == PINS["linear_predictions"], ON_KERNEL


def _init_params():
    return init_attention_params(np.random.default_rng([SEED, 1]), 24, 64, 4, 2)


def test_attention_init_params_hash():
    params = _init_params()
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode("utf-8"))
        h.update(params[name].tobytes())
    assert h.hexdigest() == PINS["attention_init"], ON_KERNEL


def test_attention_inference_bytes_hash(bundle):
    # forecasts of the untrained model: inference bits, apart from any training
    w, d = bundle.val_std.shape
    model = ForecastModel(kind="attention", params=_init_params(), window=w, n_channels=d,
                          meta={"heads": 4, "pool": "mean"})
    X = bundle.val_std.take(slice(None))
    assert len(X) > 2 * MICRO_BATCH and len(X) % MICRO_BATCH  # ends on a partial micro-batch
    yhat = attention_raw(model, X.__getitem__, len(X))
    assert _sha(yhat.tobytes()) == PINS["attention_init_inference"], ON_KERNEL


def test_attention_model_and_prediction_bytes_hash(bundle, tmp_path):
    model, logs = train_forecaster("attention", bundle, FITS["attention"])
    assert len(logs) == 1
    assert _model_shas(model, tmp_path)[0] == PINS["attention_model"], ON_KERNEL
    assert _logs_sha(logs) == PINS["attention_logs"], ON_KERNEL
    X_val = np.stack([win.features for win in bundle.val_raw])
    assert len(X_val) > 128  # crosses inference chunk boundaries
    yhat = predict_ttd_batch(model, X_val)
    assert _sha(yhat.tobytes()) == PINS["attention_predictions"], ON_KERNEL


def fit_hashes() -> dict[str, list[str]]:
    """Per kind, hashes of its pinned fit's model file and epoch logs, and
    of its forecasts for the validation windows: every quantile head, the
    point forecast of the other kinds."""
    bundle = label_and_window(adapt_dataset(_fleet(), AdaptationConfig(), seed=SEED), seed=SEED)
    hashes = {}
    for kind, cfg in FITS.items():
        model, logs = train_forecaster(kind, bundle, cfg)
        if kind == "quantile":
            yhat = predict_quantiles_batch(model, bundle.val_raw.take(slice(None)))
        else:
            yhat = predict_ttd_windows(model, bundle.val_raw)
        with tempfile.TemporaryDirectory() as tmp:
            hashes[kind] = [_model_shas(model, Path(tmp))[0], _logs_sha(logs),
                            _sha(yhat.tobytes())]
    return hashes


def thread_fit_hashes(thread_counts) -> list[dict[str, list[str]]]:
    """fit_hashes with attention's micro-batches on each of ``thread_counts``
    threads (the usable-CPU count patched)."""
    usable_cpus = threads.usable_cpus
    try:
        runs = []
        for n in thread_counts:
            threads.usable_cpus = lambda n=n: n
            runs.append(fit_hashes())
        return runs
    finally:
        threads.usable_cpus = usable_cpus


def test_fits_do_not_depend_on_blas_threads():
    """Every kind's pinned fit, in fresh processes with OPENBLAS_NUM_THREADS=1
    and with the variable removed (numpy's default thread count), each at
    two micro-batch thread counts, writes the same model, epoch logs and
    forecasts in all four."""
    tests = Path(__file__).resolve().parent
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(tests.parent / "src"), str(tests), env.get("PYTHONPATH")]))
    runs = []
    for extra, counts in (({"OPENBLAS_NUM_THREADS": "1"}, (1, 3)), ({}, (2, 4))):
        script = ("import json, test_pinned_hashes as t; "
                  f"print(json.dumps(t.thread_fit_hashes({counts})))")
        run = subprocess.run([sys.executable, "-c", script], cwd=tests, env={**env, **extra},
                             capture_output=True, text=True)
        assert run.returncode == 0, f"{extra or 'default threads'}:\n{run.stderr[-3000:]}"
        runs += json.loads(run.stdout)
    assert all(run == runs[0] for run in runs)


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_policy_event_hashes(policy_hashes, kind):
    assert policy_hashes[kind] == EVENT_PINS[kind], ON_KERNEL
    assert policy_hashes[f"{kind}:k1"] == EVENT_PINS[f"{kind}:k1"], ON_KERNEL


def test_capacity_defers_forecast_triggers(policy_hashes):
    # the capped pins cover deferred triggers, not a copy of the uncapped events
    for kind in ("predictive", "quantile"):
        assert policy_hashes[f"{kind}:k1"] != policy_hashes[kind]
