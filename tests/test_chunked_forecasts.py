"""Forecasts and the quantile fit's validation pass read their windows
window_chunks at a time: they equal one product over all windows bit for
bit (the oracles in tests/oracles.py), at every BLAS thread count, and
their memory does not grow with a stack of the window set."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from driftcal.labeling import WINDOW_CHUNK, Standardizer, Windows
from driftcal.models import (TrainConfig, fit_quantile, predict_quantiles_batch,
                             predict_ttd_windows)
from driftcal.models.base import ForecastModel
from driftcal.models.predict import kind_of
from driftcal.models.quantile import HEAD_CHUNK, init_quantile_params, quantile_raw

from oracles import linear_raw_batch, quantile_raw_batch, traced_peak

C, H = WINDOW_CHUNK, HEAD_CHUNK
W, D, HIDDEN = 40, 24, 64  # the default window, channel count and quantile width
# around the chunk edges of both chunk sizes: one call, a joined tail (the
# shortest ones send a product to another BLAS kernel), and a tail of its
# own; at 6 * C + 1 the quantile head over all windows is too large for
# OpenBLAS's small-matrix kernel, which a head run per chunk would use
SIZES = [0, 1, 2, H - 1, H, H + 1, C - 1, C, C + 1, C + 2, C + 16, C + 17, H + H // 2 - 1,
         H + H // 2, H + H // 2 + 1, C + 511, C + 512, 2 * C + 1, 3 * H + 1, 3 * C + 1,
         6 * C + 1]


def _models(standardizer=None) -> dict[str, ForecastModel]:
    rng = np.random.default_rng(0)
    params = {"linear": {"coef": rng.normal(size=W * D), "intercept": np.array([3.0])},
              "quantile": init_quantile_params(rng, W * D, HIDDEN)}
    return {kind: ForecastModel(kind=kind, params=p, window=W, n_channels=D,
                                standardizer=standardizer) for kind, p in params.items()}


@pytest.fixture(scope="module")
def standardized():
    return np.random.default_rng(1).normal(size=(max(SIZES), W, D))


@pytest.mark.parametrize("n", SIZES)
def test_chunked_forecasts_equal_one_product_bit_for_bit(standardized, n):
    X = standardized[:n]
    linear, quantile = _models().values()
    point = kind_of("linear").raw_point(linear, X.__getitem__, n)
    assert point.shape == (n,)
    assert np.array_equal(point, linear_raw_batch(linear, X))
    heads = quantile_raw(quantile, X.__getitem__, n)
    assert heads.shape == (n, 3)
    assert np.array_equal(heads, quantile_raw_batch(quantile, X))
    assert np.array_equal(kind_of("quantile").raw_point(quantile, X.__getitem__, n), heads[:, 1])


def _sha(values: np.ndarray) -> str:
    return hashlib.sha256(values.tobytes()).hexdigest()


def forecast_hashes() -> list[str]:
    """Hashes of the linear forecasts and the quantile heads for 2 * C + 1
    standardized windows, enough rows for OpenBLAS to split a product
    across threads."""
    X = np.random.default_rng(2).normal(size=(2 * C + 1, W, D))
    linear, quantile = _models().values()
    return [_sha(kind_of("linear").raw_point(linear, X.__getitem__, len(X))),
            _sha(quantile_raw(quantile, X.__getitem__, len(X)))]


def test_forecasts_do_not_depend_on_blas_threads():
    """forecast_hashes in fresh processes with OPENBLAS_NUM_THREADS=1 and
    with the variable removed (numpy's default thread count)."""
    tests = Path(__file__).resolve().parent
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(tests.parent / "src"), str(tests), env.get("PYTHONPATH")]))
    script = "import json, test_chunked_forecasts as t; print(json.dumps(t.forecast_hashes()))"
    runs = []
    for extra in ({"OPENBLAS_NUM_THREADS": "1"}, {}):
        run = subprocess.run([sys.executable, "-c", script], cwd=tests, env={**env, **extra},
                             capture_output=True, text=True)
        assert run.returncode == 0, f"{extra or 'default threads'}:\n{run.stderr[-3000:]}"
        runs.append(json.loads(run.stdout))
    assert runs[0] == runs[1]


# -- memory -------------------------------------------------------------------

N = 8 * C + 5


def _sliding(n, seed):
    """n raw windows sliding over one (n + W - 1, D) channel matrix, as
    windowing makes them: the channels take 1/W of a stack of the windows."""
    rng = np.random.default_rng(seed)
    ends = np.arange(W, n + W)
    return Windows(rng.normal(size=(n + W - 1, D)), W, start=ends - W,
                   label=rng.integers(0, 60, size=n).astype(np.float64),
                   engine_id=np.zeros(n, np.int64), end_cycle=ends)


# a few chunks of windows, plus per window the quantile hidden layer and
# heads: a stack of the N windows alone would take 2.6 times as much
BUDGET = 3 * C * W * D * 8 + N * (HIDDEN + 3) * 8
STANDARDIZER = Standardizer(mean=np.full(D, 0.5), std=np.full(D, 2.0))


def test_quantile_fit_validation_memory_does_not_grow_with_the_window_count():
    train, val = _sliding(64, 3), _sliding(N, 4)
    cfg = TrainConfig(max_epochs=1, patience=1, batch_size=16, hidden_width=HIDDEN)
    assert traced_peak(lambda: fit_quantile(train, val, cfg)) < BUDGET


@pytest.mark.parametrize("kind", ["linear", "quantile"])
def test_window_set_forecast_memory_does_not_grow_with_the_window_count(kind):
    model = _models(STANDARDIZER)[kind]
    windows = _sliding(N, 5)
    assert traced_peak(lambda: predict_ttd_windows(model, windows)) < BUDGET


def test_quantile_forecast_memory_does_not_grow_with_the_window_count():
    # overlapping views of the channel matrix, as stacked windows would be
    windows = _sliding(N, 6)
    X = np.lib.stride_tricks.sliding_window_view(windows.channels, (W, D))[:, 0]
    model = _models(STANDARDIZER)["quantile"]
    assert traced_peak(lambda: predict_quantiles_batch(model, X)) < BUDGET
