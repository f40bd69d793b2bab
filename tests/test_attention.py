
import numpy as np
import pytest

from driftcal.models import (
    NonFiniteError,
    TrainConfig,
    TrainingDivergedError,
    load_model,
    predict_ttd_batch,
    predict_ttd_windows,
    save_model,
    train_attention,
)
from driftcal.models.attention import (
    DTYPE,
    MICRO_BATCH,
    Workspace,
    _forward_chunks,
    attention_forward_batch,
    attention_loss_and_grads,
    attention_raw,
    init_attention_params,
    mha_forward,
    micro_workspaces,
)
from driftcal.models.base import ForecastModel
from driftcal.models.nn import as_dtype
from driftcal.models.threads import one_blas_thread
from driftcal.pipeline import label_and_window, train_forecaster

from oracles import (
    attention_forward,
    central_difference_gradients,
    flatten_params,
    max_relative_error,
    train_attention_float64,
    traced_peak,
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
    dm = TINY["d_model"]  # V is the last of the packed Q|K|V column blocks
    v = x @ params["enc0.attn.wqkv"][:, 2 * dm:] + params["enc0.attn.bqkv"][2 * dm:]
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
@pytest.mark.parametrize(  # last micro-batches of a partial, a whole, one and five windows,
    # at MICRO_BATCH and (127 to 389) at the earlier 16-window micro-batch
    "n", [0, 1, 127, 128, 129, 389, 8 * MICRO_BATCH - 1, 8 * MICRO_BATCH, 8 * MICRO_BATCH + 1,
          24 * MICRO_BATCH + 5]
)
def test_chunked_inference_equals_one_forward(n, pool):
    model = _tiny_model(pool=pool)
    X = np.random.default_rng(n).normal(size=(n, 6, 3))
    with one_blas_thread():  # as attention_raw runs, in the model's dtype
        whole, _ = attention_forward_batch(X.astype(DTYPE), as_dtype(model.params, DTYPE),
                                           TINY["heads"], pool, check=False)
    chunked = attention_raw(model, X.__getitem__, n)
    assert chunked.shape == (n,)
    assert np.array_equal(chunked, whole)


@pytest.mark.parametrize("n", [17, 33, 48, 64, 100, 129])
def test_chunked_inference_at_the_default_window_equals_one_forward(n):
    # 40-cycle windows and the default d_model: a micro-batch starts on a
    # multiple of 24 GEMM rows, the row unroll of Haswell's sgemm, only
    # because MICRO_BATCH is one; at 16 windows every n here failed under
    # that kernel
    params = init_attention_params(np.random.default_rng(n), 3, 64, 4, 1)
    model = ForecastModel(kind="attention", params=params, window=40, n_channels=3,
                          meta={"heads": 4, "pool": "mean"})
    X = np.random.default_rng(n).normal(size=(n, 40, 3))
    with one_blas_thread():
        whole, _ = attention_forward_batch(X.astype(DTYPE), as_dtype(params, DTYPE), 4,
                                           check=False)
    assert np.array_equal(attention_raw(model, X.__getitem__, n), whole)


@pytest.mark.xfail(raises=AssertionError,
                   reason="known defect: OpenBLAS's SkylakeX sgemm rounds the 8-column ffn.w2 "
                          "product in its small-matrix kernel at a 24-window micro-batch's size "
                          "and in its regular kernel at the one forward's")
def test_chunked_inference_at_d_model_8_equals_one_forward():
    # d_model 8 and 40-cycle windows: each micro-batch's ffn.w2 product (960
    # rows, K = 32) stays under 1e6 multiply-adds, the one forward's (4,000
    # rows) does not; it passes under the kernels without that path
    n = 100
    params = init_attention_params(np.random.default_rng(n), 3, 8, 2, 1)
    model = ForecastModel(kind="attention", params=params, window=40, n_channels=3,
                          meta={"heads": 2, "pool": "mean"})
    X = np.random.default_rng(n).normal(size=(n, 40, 3))
    with one_blas_thread():
        whole, _ = attention_forward_batch(X.astype(DTYPE), as_dtype(params, DTYPE), 2,
                                           check=False)
    assert np.array_equal(attention_raw(model, X.__getitem__, n), whole)


def test_inference_memory_does_not_grow_with_window_count():
    n = 512
    model = _tiny_model(w=40)
    X = np.random.default_rng(0).normal(size=(4 * n, 40, 3))
    small = traced_peak(lambda: attention_raw(model, X.__getitem__, n))
    large = traced_peak(lambda: attention_raw(model, X.__getitem__, len(X)))
    assert large < 1.5 * small


def _default_size_params(d=24):
    """Parameters at the default model size (d_model 64, 4 heads, 2 layers)."""
    return init_attention_params(np.random.default_rng(5), d, 64, 4, 2)


def test_step_with_a_warm_workspace_allocates_little():
    params = _default_size_params()
    rng = np.random.default_rng(6)
    X, y = rng.normal(size=(64, 40, 24)), rng.normal(loc=20.0, scale=5.0, size=64)
    ws = micro_workspaces(64)
    for _ in range(2):
        attention_loss_and_grads(X, y, params, 4, "mean", 1.0, ws)
    peak = traced_peak(lambda: attention_loss_and_grads(X, y, params, 4, "mean", 1.0, ws))
    assert peak < 10 * 2**20  # a step without workspaces allocates 20 MB per thread


def _fresh_workspace_step_peak() -> int:
    """Traced peak of a default-size step of 64 windows in one fresh 64-window workspace."""
    params = _default_size_params()
    rng = np.random.default_rng(6)
    X, y = rng.normal(size=(64, 40, 24)), rng.normal(loc=20.0, scale=5.0, size=64)
    return traced_peak(lambda: attention_loss_and_grads(X, y, params, 4, "mean", 1.0,
                                                        [Workspace(64)]))


def test_step_with_a_fresh_workspace_stays_below_85_mb():
    # a step in one 64-window workspace traces 60 MB at the default size
    assert _fresh_workspace_step_peak() < 85 * 2**20


def test_workspace_keeps_only_what_the_backward_reads():
    # each layer keeps xhat and inv of both norms, qkv, the attention weights,
    # u and tanh_u; the norm outputs and merged heads are shared and refilled
    # by the backward, whose scratch goes into dead forward buffers
    assert _fresh_workspace_step_peak() < 66 * 2**20


def test_fit_memory_does_not_grow_with_the_validation_set():
    # validation forwards gather a micro-batch per workspace at a time; one
    # stack of 8n windows of 40 x 24 would add 7n windows' 7.5 kB each
    rng = np.random.default_rng(11)

    def windows(n):
        return windows_of(rng.normal(size=(n, 40, 24)), rng.integers(0, 60, size=n).tolist())

    train, small, large = windows(32), windows(64), windows(8 * 64)
    cfg = TrainConfig(max_epochs=1, batch_size=16, **TINY)

    def fit_peak(val):
        return traced_peak(lambda: train_attention(train, val, cfg))

    fit_peak(small)  # warm: one-time caches and the thread pool
    assert fit_peak(large) < 1.15 * fit_peak(small)


def _assert_same_grads(a, b):
    assert a.keys() == b.keys()
    for name in a:
        assert np.array_equal(a[name], b[name]), name


@pytest.mark.parametrize("pool", ["mean", "last"])
def test_shared_workspace_equals_fresh_workspaces(pool):
    params = _tiny_params(seed=7)
    rng = np.random.default_rng(8)
    ws, workspaces = Workspace(64), micro_workspaces(64)
    for B in (64, 31, 64):  # a smaller batch works in the leading rows
        X, y = rng.normal(size=(B, 6, 3)), rng.normal(loc=5.0, size=B)
        loss, grads = attention_loss_and_grads(X, y, params, TINY["heads"], pool, 1.0,
                                               workspaces)
        fresh_loss, fresh_grads = attention_loss_and_grads(X, y, params, TINY["heads"], pool)
        assert loss == fresh_loss
        _assert_same_grads(grads, fresh_grads)
        yhat, _ = attention_forward_batch(X, params, TINY["heads"], pool, workspace=ws)
        fresh_yhat, _ = attention_forward_batch(X, params, TINY["heads"], pool)
        assert np.array_equal(yhat, fresh_yhat)


def test_workspace_rejects_a_batch_larger_than_its_capacity():
    with pytest.raises(ValueError, match="exceeds"):
        attention_forward_batch(np.zeros((5, 6, 3)), _tiny_params(), TINY["heads"],
                                workspace=Workspace(4))


@pytest.mark.parametrize("pool", ["mean", "last"])
def test_chunked_forwards_through_one_workspace_equal_one_forward(pool):
    params = _tiny_params(seed=9)
    rng = np.random.default_rng(10)
    ws = Workspace(5)
    for n in (17, 3, 15, 17):  # partial and whole last chunks, one workspace throughout
        X = rng.normal(size=(n, 6, 3))
        # chunks of an array, as inference takes them, and of a window set, as a fit does
        with one_blas_thread():  # as inference and fits run
            whole, _ = attention_forward_batch(X, params, TINY["heads"], pool, check=False)
            for take in (X.__getitem__, windows_of(X, np.zeros(n, dtype=int)).take):
                chunked = _forward_chunks(take, n, params, TINY["heads"], pool, [ws])
                assert np.array_equal(chunked, whole)


def test_float32_fit_agrees_with_a_float64_fit(small_dataset, tmp_path):
    """The product's float32 fit against the same run in float64 (the
    oracle): every epoch's validation MAE, and the MAE of the best
    parameters' forecasts, within a relative 1e-4 (the two differed by at
    most 5e-7 over seeds 1, 2 and 42 at 10 epochs); a saved model's
    parameters are exactly float32 values."""
    bundle = label_and_window(small_dataset, seed=42)
    cfg = TrainConfig(max_epochs=6, base_lr=3e-3, warmup_steps=10, patience=6, seed=42)
    model, logs = train_forecaster("attention", bundle, cfg)
    params64, logs64 = train_attention_float64(bundle.train_std, bundle.val_std, cfg)
    assert len(logs) == len(logs64) == cfg.max_epochs
    for log, log64 in zip(logs, logs64):
        assert log.val_metric == pytest.approx(log64.val_metric, rel=1e-4)

    y = bundle.val_raw.label
    mae32 = np.mean(np.abs(predict_ttd_windows(model, bundle.val_raw) - y))
    with one_blas_thread():
        pred64, _ = attention_forward_batch(bundle.val_std.take(slice(None)), params64,
                                            cfg.heads, check=False)
    mae64 = np.mean(np.abs(np.maximum(pred64, 0.0) - y))
    assert mae32 == pytest.approx(mae64, rel=1e-4)

    save_model(model, tmp_path / "model.bin")
    for name, p in load_model(tmp_path / "model.bin").params.items():
        assert np.array_equal(p, p.astype(np.float32).astype(np.float64)), name
