"""The benchmark's tracer against the functions it wraps.

bench/tracing.py replaces the driftcal functions in its TARGETS table with
timing wrappers and reads some of their arguments for its counters. A
renamed or re-signed function breaks a traced benchmark run; these tests
fail on it first.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

from driftcal.models import TrainConfig

from oracles import windows_of

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402  (bench/tracing.py)

FLOPS = "models.attention.gemm_flops_computed"


def _tiny_windows(n=20, w=6, d=3):
    rng = np.random.default_rng(0)
    return windows_of(rng.normal(size=(n, w, d)), rng.integers(0, 30, size=n).tolist())


def _traced(tracer, fn):
    """fn() under an operation span, the only spans the counters record."""
    modules = {module for module, *_ in tracing.TARGETS}
    for module in modules:
        importlib.import_module(module)
    tracer.install()
    try:
        resolved = [getattr(sys.modules[module], func) for module, func, *_ in tracing.TARGETS]
        with tracer.span("op:test"):
            fn()
    finally:
        tracer.uninstall()
    return resolved


def test_tracer_wraps_every_target_and_counts_attention_flops():
    windows = _tiny_windows()
    cfg = TrainConfig(max_epochs=2, patience=2, batch_size=8, warmup_steps=1, d_model=8,
                      heads=2, layers=1)
    attention = importlib.import_module("driftcal.models.attention")
    tracer = tracing.Tracer()
    resolved = _traced(tracer, lambda: attention.train_attention(windows, windows, cfg))
    for (module, func, *_), fn in zip(tracing.TARGETS, resolved):
        assert hasattr(fn, "__wrapped__"), f"{module}.{func} was not wrapped"
        assert getattr(sys.modules[module], func) is fn.__wrapped__  # put back
    _, _, calls, _ = tracer.summary()
    for op in tracing.ATTENTION_OPS:
        assert calls[f"models.attention.{op}"] > 0, op
    assert calls["models.attention.fit"] == 1
    assert tracer.counts["models.attention.epochs"] == 2
    assert tracer.counts[FLOPS] > 0


def test_train_forecaster_records_the_fit_spans():
    pipeline = importlib.import_module("driftcal.pipeline")
    windows = _tiny_windows()
    bundle = pipeline.WindowBundle(train_raw=windows, val_raw=windows, train_std=windows,
                                   val_std=windows, standardizer=None, split=None)
    cfg = TrainConfig(max_epochs=2, patience=2, batch_size=8, hidden_width=4)
    tracer = tracing.Tracer()
    _traced(tracer, lambda: [pipeline.train_forecaster(kind, bundle, cfg)
                             for kind in ("linear", "quantile")])
    _, _, calls, _ = tracer.summary()
    assert calls["models.linear.fit"] == 1
    assert calls["models.quantile.fit"] == 1
    assert tracer.counts["models.quantile.epochs"] == 2


def test_flop_counter_reads_the_forward_and_backward_arguments():
    attention = importlib.import_module("driftcal.models.attention")
    params = attention.init_attention_params(np.random.default_rng(1), 3, 8, 2, 1)
    rng = np.random.default_rng(2)
    X, y = rng.normal(size=(5, 6, 3)), rng.normal(size=5)
    tracer = tracing.Tracer()
    _traced(tracer, lambda: attention.attention_loss_and_grads(X, y, params, 2))
    expected = (tracing._attention_flops(X.shape, params, False)
                + tracing._attention_flops(X.shape, params, True))
    assert tracer.counts[FLOPS] == expected
