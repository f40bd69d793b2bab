"""Attention batches cut into micro-batches, run at several thread counts.

A batch's micro-batches run side by side, one per usable CPU; the thread
count is forced here by patching the usable-CPU count. The micro-batches
are fixed and their gradients summed in micro-batch order, so forecasts,
loss and gradients must be the same bits at every thread count.
"""

import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftcal.models import NonFiniteError, TrainConfig, TrainingDivergedError, train_attention
from driftcal.models import attention, fit_quantile, linear, quantile, threads
from driftcal.models.attention import (
    MICRO_BATCH,
    Workspace,
    _forward_chunks,
    attention_forward_batch,
    attention_loss_and_grads,
    init_attention_params,
    micro_workspaces,
)

from driftcal.models.nn import as_dtype

from oracles import traced_peak, windows_of

HEADS = 2


def _params(seed: int, d: int = 3) -> dict[str, np.ndarray]:
    return init_attention_params(np.random.default_rng(seed), d, 8, HEADS, 2)


@contextmanager
def _cpus(n: int):
    """A context in which attention sees ``n`` usable CPUs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(threads, "usable_cpus", lambda: n)
        yield


def _step(n_cpus, X, y, params, pool, workspaces=None):
    """(forecasts, loss, gradients) of the micro-batched forwards and a
    training step at ``n_cpus``, in ``workspaces`` or fresh ones."""
    with _cpus(n_cpus):
        workspaces = workspaces or micro_workspaces(len(X))
        yhat = _forward_chunks(X.__getitem__, len(X), params, HEADS, pool, workspaces)
        loss, grads = attention_loss_and_grads(X, y, params, HEADS, pool, 1.0, workspaces)
    return yhat, loss, grads


def _forward_outcome(n_cpus, X, params) -> str:
    """The NonFiniteError message of a training step at ``n_cpus``, or "finite"."""
    with _cpus(n_cpus), np.errstate(all="ignore"):
        try:
            attention_loss_and_grads(X, np.zeros(len(X)), params, HEADS)
        except NonFiniteError as exc:
            return str(exc)
    return "finite"


def _whole_forward_outcome(X, params) -> str:
    """The NonFiniteError message of one checked forward over X, or "finite"."""
    with np.errstate(all="ignore"):
        try:
            attention_forward_batch(X, params, HEADS)
        except NonFiniteError as exc:
            return str(exc)
    return "finite"


def _assert_same_step(a, b):
    assert np.array_equal(a[0], b[0])
    assert a[1] == b[1]
    assert a[2].keys() == b[2].keys()
    for name in a[2]:
        assert np.array_equal(a[2][name], b[2][name]), name


@settings(max_examples=120, deadline=None)  # half in each dtype
@given(B=st.integers(1, 150), n_cpus=st.integers(2, 4), pool=st.sampled_from(["mean", "last"]),
       w=st.sampled_from([1, 2, 6]), seed=st.integers(0, 2**32 - 1),
       dtype=st.sampled_from([np.float64, attention.DTYPE]))
def test_step_does_not_depend_on_the_thread_count(B, n_cpus, pool, w, seed, dtype):
    rng = np.random.default_rng(seed)
    params = as_dtype(_params(seed % 1000), dtype)
    X = rng.normal(size=(B, w, 3)).astype(dtype)
    y = rng.normal(loc=5.0, scale=3.0, size=B).astype(dtype)
    one = _step(1, X, y, params, pool)
    # fresh workspaces: the first round allocates them on this thread
    _assert_same_step(_step(n_cpus, X, y, params, pool), one)
    with _cpus(n_cpus):
        workspaces = micro_workspaces(B + 3)
    for batch in (X[: max(1, B // 2)], X):  # warm workspaces, a larger batch second
        rows = len(batch)
        expected = _step(1, batch, y[:rows], params, pool)
        _assert_same_step(_step(n_cpus, batch, y[:rows], params, pool, workspaces), expected)


def _directional_error(X, y, params, pool, grads) -> float:
    """|analytic - central-difference| derivative of the step's loss along a
    random direction, over the analytic one plus 1."""
    rng = np.random.default_rng(len(X))
    step = {name: rng.normal(size=p.shape) for name, p in params.items()}

    def loss_at(t):
        moved = {name: p + t * step[name] for name, p in params.items()}
        return attention_loss_and_grads(X, y, moved, HEADS, pool)[0]

    numeric = (loss_at(1e-6) - loss_at(-1e-6)) / 2e-6
    analytic = sum(float(np.sum(grads[name] * step[name])) for name in params)
    return abs(numeric - analytic) / (abs(analytic) + 1.0)


@settings(max_examples=40, deadline=None)
@given(B=st.integers(1, 3 * MICRO_BATCH + 2), layers=st.integers(1, 3),
       n_cpus=st.integers(1, 3), pool=st.sampled_from(["mean", "last"]),
       seed=st.integers(0, 2**32 - 1))
def test_warm_workspaces_read_no_stale_value(B, layers, n_cpus, pool, seed):
    # The backward refills shared buffers and keeps its scratch in forward
    # buffers that are dead by then. A step in workspaces that other
    # parameters' forwards and steps, at other batch sizes, left full must
    # equal a step in fresh ones and the whole batch through one workspace;
    # its gradient must be the derivative of its loss.
    rng = np.random.default_rng(seed)
    params, other = (init_attention_params(rng, 3, 8, HEADS, layers) for _ in range(2))
    X, y = rng.normal(size=(B, 6, 3)), rng.normal(loc=5.0, scale=3.0, size=B)
    with _cpus(n_cpus):
        workspaces = micro_workspaces(3 * MICRO_BATCH + 2)
        for n in (3 * MICRO_BATCH + 2, max(1, B // 2)):
            X_other = rng.normal(size=(n, 6, 3))
            _forward_chunks(X_other.__getitem__, n, other, HEADS, pool, workspaces)
            attention_loss_and_grads(X_other, rng.normal(size=n), other, HEADS, pool, 1.0,
                                     workspaces)
        loss, grads = attention_loss_and_grads(X, y, params, HEADS, pool, 1.0, workspaces)
        warm = _forward_chunks(X.__getitem__, B, params, HEADS, pool, workspaces), loss, grads
    _assert_same_step(warm, _step(n_cpus, X, y, params, pool))
    _assert_same_step(warm, _step(1, X, y, params, pool, [Workspace(MICRO_BATCH)]))
    assert _directional_error(X, y, params, pool, grads) < 1e-5  # 1.4e-8 at most in 300 cases


def test_a_fresh_workspace_allocates_on_the_calling_thread(monkeypatch):
    # a pool thread's malloc arena would keep the buffers' memory after the
    # workspace is gone, so a round of fresh workspaces runs on this thread
    allocating = []
    get = Workspace.get

    def watched(self, name, B, *shape):
        new = name not in self._buffers
        buf = get(self, name, B, *shape)
        if new:
            allocating.append(threading.current_thread())
        return buf

    monkeypatch.setattr(Workspace, "get", watched)
    rng = np.random.default_rng(5)
    X, y = rng.normal(size=(64, 6, 3)), rng.normal(loc=5.0, scale=3.0, size=64)
    with _cpus(2):
        attention_loss_and_grads(X, y, _params(4), HEADS, "mean", 1.0)
    assert allocating and set(allocating) == {threading.main_thread()}


def test_slices_allocating_together_lose_no_buffer(monkeypatch):
    # Workspaces warmed by forwards alone get their backward buffers on the
    # pool's threads. Four micro-batches on four threads, switching as often
    # as the interpreter allows: the step must equal the one-thread step.
    params = _params(4)
    rng = np.random.default_rng(5)
    B = 4 * MICRO_BATCH
    X, y = rng.normal(size=(B, 6, 3)), rng.normal(loc=5.0, scale=3.0, size=B)
    expected = _step(1, X, y, params, "mean")
    monkeypatch.setattr(threads, "_pool", None)  # a fresh pool, sized for four threads
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            with _cpus(4):
                workspaces = micro_workspaces(len(X))
                _forward_chunks(X.__getitem__, len(X), params, HEADS, "mean", workspaces)
            _assert_same_step(_step(4, X, y, params, "mean", workspaces), expected)
    finally:
        sys.setswitchinterval(interval)
        threads._pool[1].shutdown()


@settings(max_examples=40, deadline=None)
@given(B=st.integers(2, 40), n_cpus=st.integers(1, 4), data=st.data())
def test_sliced_forward_names_the_earliest_non_finite_layer(B, n_cpus, data):
    # an infinite weight makes every finite window non-finite in that
    # sublayer, while NaN windows fail at the input projection, before it
    params = _params(1)
    blown = data.draw(st.sampled_from(
        [None, "enc0.attn.wo", "enc0.ffn.w2", "enc1.ffn.w2", "head.w"]))
    if blown:
        params[blown] = params[blown] * np.inf
    X = np.random.default_rng(B).normal(size=(B, 6, 3))
    X[data.draw(st.lists(st.integers(0, B - 1), max_size=3))] = np.nan
    assert _forward_outcome(n_cpus, X, params) == _whole_forward_outcome(X, params)


def test_sliced_forward_prefers_an_earlier_layer_in_a_later_slice():
    params = _params(2)
    params["enc0.ffn.w2"] = params["enc0.ffn.w2"] * np.inf
    X = np.random.default_rng(3).normal(size=(MICRO_BATCH + 8, 6, 3))
    assert _forward_outcome(2, X, params) == "non-finite values in enc0.ffn"
    X[-1] = np.nan  # now the last micro-batch fails at in_proj, the first still at enc0.ffn
    assert _forward_outcome(2, X, params) == "non-finite values in in_proj"


def test_step_memory_is_bounded_by_the_micro_batch_workspaces():
    # two threads hold two micro-batch workspaces and their gradients,
    # however many windows the batch has (the default model size), in
    # float64 and in the dtype the model trains in: the default 64-window
    # batch and one of 4 micro-batches stay under the steady-state bound,
    # and one of 16 micro-batches peaks as one of 4, each round of two whole
    # ones building two gradient sets beside the running sum
    params64 = init_attention_params(np.random.default_rng(5), 24, 64, 4, 2)
    for dtype in (np.float64, attention.DTYPE):
        params = as_dtype(params64, dtype)
        rng = np.random.default_rng(6)
        peaks = {}
        for B in (64, 4 * MICRO_BATCH, 16 * MICRO_BATCH):
            X = rng.normal(size=(B, 40, 24)).astype(dtype)
            y = rng.normal(loc=20.0, scale=5.0, size=B).astype(dtype)
            with _cpus(2):  # fresh workspaces, allocated in the step
                peaks[B] = traced_peak(lambda: attention_loss_and_grads(X, y, params, 4))
        grad_bytes = sum(p.nbytes for p in params.values())
        assert peaks[16 * MICRO_BATCH] < peaks[4 * MICRO_BATCH] + grad_bytes, dtype
        ws = Workspace(MICRO_BATCH)
        attention_loss_and_grads(X[:MICRO_BATCH], y[:MICRO_BATCH], params, 4, "mean", 1.0, [ws])
        ws_bytes = sum(buf.nbytes for buf in ws._buffers.values())
        # the sum, one finished and one growing set per thread, and a spare
        for B in (64, 4 * MICRO_BATCH):
            assert peaks[B] < 2 * ws_bytes + 6 * grad_bytes, (dtype, B)


def _diverged_attention_fit():
    rng = np.random.default_rng(0)
    windows = windows_of(rng.normal(size=(30, 6, 3)), rng.integers(0, 40, size=30).tolist())
    # lr*wd > 1 flips and amplifies the decay factor until overflow
    cfg = TrainConfig(max_epochs=60, batch_size=16, base_lr=1e9, warmup_steps=0,
                      weight_decay=1.0, d_model=8, heads=HEADS, layers=1)
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError):
        train_attention(windows, windows, cfg)


def _diverged_quantile_fit():
    rng = np.random.default_rng(0)
    windows = windows_of(rng.normal(size=(30, 6, 3)), rng.integers(0, 40, size=30).tolist())
    cfg = TrainConfig(max_epochs=60, batch_size=16, base_lr=1e9, warmup_steps=0,
                      weight_decay=1.0, patience=60, hidden_width=8)
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError):
        fit_quantile(windows, windows, cfg)


def _singular_linear_fit():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(30, 4, 3))
    X[:, :, 2] = X[:, :, 1]  # a duplicated channel: rank deficient
    with pytest.raises(linear.SingularSystemError):
        linear.fit_linear(windows_of(X, rng.integers(0, 20, size=30)), ridge=0.0)


# each failing fit, and a step it takes inside its one-thread block
FAILING_FITS = {
    "attention": (_diverged_attention_fit, attention, "attention_loss_and_grads"),
    "quantile": (_diverged_quantile_fit, quantile, "quantile_loss_and_grads"),
    "linear": (_singular_linear_fit, np.linalg, "cholesky"),
}


@pytest.mark.skipif(threads.openblas_threads() is None,
                    reason="numpy's bundled OpenBLAS not found")
@pytest.mark.parametrize("n_cpus", [1, 2])
@pytest.mark.parametrize("kind", FAILING_FITS)
def test_failed_fit_restores_the_blas_thread_count(monkeypatch, kind, n_cpus):
    fit, module, step_name = FAILING_FITS[kind]
    monkeypatch.setattr(threads, "usable_cpus", lambda: n_cpus)
    get_threads, _ = threads.openblas_threads()
    before = get_threads()
    seen = []
    step = getattr(module, step_name)

    def watched(*args, **kwargs):
        seen.append(get_threads())
        return step(*args, **kwargs)

    monkeypatch.setattr(module, step_name, watched)
    fit()
    assert seen and set(seen) == {1}
    assert get_threads() == before
