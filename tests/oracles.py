"""Independent brute-force reference implementations used by the tests.

These deliberately avoid the library's code paths: ranks are computed by
sorting with explicit tie groups, Pearson via np.corrcoef, TTD labels by
re-scanning adapted channels against thresholds, and policy outcomes by a
straightforward per-segment replay and by a global-clock replay,
forecast scores by cutting each run's windows with sliding_window_view,
and softmax, layer norm and GELU as whole-array expressions.

Linear, quantile and attention forecasts are computed block by block
over the windows stacked with zero windows up to whole blocks of the
library's block sizes, one product or forward per block; the quantile and
attention ones in float32, as the library forecasts.

Helpers that only tests use live here too: a trajectory summary, an
intercept-only pinball fit and the quantile and attention fits in float64,
all of which run the library's training loop, parameter flattening for the
finite-difference checks, a window set built from given window arrays,
and the traced peak of a call.

The adapted CSV and its digest are built here as whole strings, and
trajectory text is parsed from the list of all its lines, as the library
did before it wrote, hashed and parsed text a run or a block at a time.
"""

from __future__ import annotations

import hashlib
import math
import tracemalloc
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from driftcal.adaptation import AdaptedDataset, AdaptedRun, _metadata_dict
from driftcal.cmapss_io import (
    CHANNEL_NAMES,
    N_CHANNELS,
    N_COLUMNS,
    N_SENSORS,
    SchemaError,
    SensorTrajectory,
    _scan_lines,
    sensor_column,
)
from driftcal.labeling import WINDOW_CHUNK, Windows
from driftcal.models import TrainConfig, predict_quantiles_batch, predict_ttd_batch
from driftcal.models.attention import (
    MICRO_BATCH,
    attention_forward_batch,
    attention_loss_and_grads,
    init_attention_params,
)
from driftcal.models.quantile import (
    HEAD_CHUNK,
    QUANTILES,
    init_quantile_params,
    quantile_forward_batch,
    quantile_loss_and_grads,
)
from driftcal.models.threads import one_blas_thread
from driftcal.models.nn import pinball_grad, pinball_loss
from driftcal.models.optim import fit_minibatch
from driftcal.scheduler import (
    EVENT_CORRECTIVE,
    EVENT_PREVENTIVE,
    EVENT_VIOLATION,
    CapacitySpec,
    CostSpec,
    CycleScorer,
    PolicyOutcome,
    PolicySpec,
    SimEvent,
    SimulationError,
    rank_by_urgency,
    total_cost,
)
from driftcal.util import canonical_json, float_row_format

GELU_C0 = math.sqrt(2.0 / math.pi)
GELU_C1 = 0.044715


def oracle_average_ranks(values) -> np.ndarray:
    """1-based average ranks, with tie groups found by np.unique; each NaN
    ranks on its own after every number, in input order, as in a stable sort."""
    values = np.asarray(values, dtype=np.float64)
    numbers = ~np.isnan(values)
    uniq, inverse, counts = np.unique(values[numbers], return_inverse=True, return_counts=True)
    # average 1-based rank of each distinct value
    ends = np.cumsum(counts)
    starts = ends - counts
    avg = (starts + ends + 1) / 2.0
    ranks = np.empty(len(values))
    ranks[numbers] = avg[inverse]
    ranks[~numbers] = np.arange(numbers.sum() + 1, len(values) + 1)
    return ranks


def oracle_spearman(a, b) -> float:
    """Rank-then-Pearson, with ranks from oracle_average_ranks; 0.0 for a
    series of constant rank."""
    ra, rb = oracle_average_ranks(a), oracle_average_ranks(b)
    if np.all(ra == ra[0]) or np.all(rb == rb[0]):
        return 0.0
    return float(np.corrcoef(ra, rb)[0, 1])


def oracle_sensor_scores(trajs) -> dict[int, float]:
    """Per sensor id, the mean over the trajectories of |oracle_spearman|
    between the sensor's series and the cycle index."""
    return {sensor_id: float(np.mean([
        abs(oracle_spearman(traj.sensor(sensor_id), np.arange(1, traj.length + 1)))
        for traj in trajs])) for sensor_id in range(1, N_SENSORS + 1)}


def threshold_crossed(spec, value: float) -> bool:
    """Whether a channel value lies at or beyond a ThresholdSpec, in its direction."""
    if spec.direction > 0:
        return value >= spec.threshold
    return value <= spec.threshold


def oracle_ttd_labels(run) -> np.ndarray:
    """Re-derive TTD per cycle by scanning channels against thresholds.

    Within each segment the first in-direction crossing is found from the
    adapted data itself (not from the stored crossing_cycle); labels count
    down to it, are zero from it onward, and count down to the segment end
    when no crossing exists.
    """
    values = np.zeros(run.length, dtype=np.int64)
    for seg in run.segments:
        crossing = None
        for t in range(seg.start, seg.end + 1):
            row = run.channels[t - 1]
            for spec in run.thresholds:
                if threshold_crossed(spec, row[sensor_column(spec.sensor_id)]):
                    crossing = t
                    break
            if crossing is not None:
                break
        for t in range(seg.start, seg.end + 1):
            if crossing is None:
                values[t - 1] = seg.end - t
            else:
                values[t - 1] = max(crossing - t, 0)
    return values


class OracleWindow(NamedTuple):
    features: np.ndarray  # (w, d) copy
    label: int
    engine_id: int
    end_cycle: int


def oracle_windows(run, ttd_values, w=40, stride=1, allow_cross_reset=True) -> list[OracleWindow]:
    """Windows ending at cycles w, w+stride, ... up to the run length, one
    copied window at a time; with allow_cross_reset=False, windows reaching
    back into an earlier segment are dropped. The first kept window with a
    non-finite cell raises ValueError."""
    seg_ids = run.segment_ids()
    out = []
    for end in range(w, run.length + 1, stride):
        start = end - w + 1
        if not allow_cross_reset and seg_ids[start - 1] != seg_ids[end - 1]:
            continue
        features = run.channels[start - 1 : end]
        if not np.all(np.isfinite(features)):
            raise ValueError(f"engine {run.engine_id}: non-finite features at cycle {end}")
        out.append(OracleWindow(features.copy(), int(ttd_values[end - 1]), run.engine_id, end))
    return out


def windows_of(features, labels) -> Windows:
    """A window set holding the given (n, w, d) windows, each its own rows."""
    features = np.asarray(features, dtype=np.float64)
    n, w, d = features.shape
    ids = np.arange(n, dtype=np.int64)
    return Windows(channels=features.reshape(n * w, d), w=w, start=ids * w,
                   label=np.asarray(labels, dtype=np.float64), engine_id=np.ones(n, np.int64),
                   end_cycle=ids * w + w)


def oracle_forecast_scorer(model, dataset, use_quantile=False) -> CycleScorer:
    """Per-cycle forecast scores from each run's windows, cut as views with
    sliding_window_view and forecast in one batch over all runs; a run
    shorter than w gets no scores."""
    w = model.window
    keys, views = [], []
    for run in dataset.runs:
        if run.length < w:
            continue
        # window i is channels[i : i + w], a view; it ends at cycle w + i
        views.append(sliding_window_view(run.channels, (w, run.channels.shape[1]))[:, 0])
        keys += [(run.engine_id, int(e)) for e in range(w, run.length + 1)]
    if not views:
        return CycleScorer(scores={}, start_cycle=w)
    X = np.concatenate(views)
    if use_quantile:
        values = predict_quantiles_batch(model, X)[:, 0]
    else:
        values = predict_ttd_batch(model, X)
    return CycleScorer(scores=dict(zip(keys, values.tolist())), start_cycle=w)


def oracle_segment_replay(dataset, scorer, margin, start_cycle=1):
    """Per-segment replay, independent of the simulator's global loop.

    Returns (n_cal, n_vio). At each cycle the crossing is checked first;
    otherwise the policy triggers when the score is available and <= margin.
    """
    n_cal = n_vio = 0
    for run in dataset.runs:
        for seg in run.segments:
            for t in range(seg.start, seg.end + 1):
                if seg.crossing is not None and t == seg.crossing:
                    n_vio += 1
                    n_cal += 1
                    break
                if t >= start_cycle and scorer(run.engine_id, t) <= margin:
                    n_cal += 1
                    break
    return n_cal, n_vio


@dataclass
class _RunState:
    run: AdaptedRun
    seg_idx: int = 0
    cycle: int = 1
    since_cal: int = 0
    done: bool = False

    def current_segment(self):
        return self.run.segments[self.seg_idx]

    def advance_segment(self):
        self.seg_idx += 1
        self.since_cal = 0
        if self.seg_idx >= len(self.run.segments):
            self.done = True
        else:
            self.cycle = self.run.segments[self.seg_idx].start


def oracle_simulate(
    dataset: AdaptedDataset,
    scorer: CycleScorer | None,
    policy: PolicySpec,
    costs: CostSpec = CostSpec(),
    capacity: CapacitySpec | None = None,
) -> PolicyOutcome:
    """Replay every run in the dataset under one policy, on a global clock.

    Runs are stepped on a shared cycle axis (all start at cycle 1), one
    cycle at a time, each run carrying its segment, cycle and cycles since
    calibration. This is the loop ``scheduler.simulate`` replaced with
    segment jobs; it must give the same outcome, events included.
    """
    if policy.kind in ("predictive", "quantile") and scorer is None:
        raise SimulationError(f"{policy.kind} policy requires a scorer")

    states = [_RunState(run=run) for run in dataset.runs]
    n_cal = 0
    n_vio = 0
    events: list[SimEvent] = []
    t = 1
    window_id = -1
    budget = 0
    while any(not s.done for s in states):
        if capacity is not None:
            wid = (t - 1) // capacity.window_width
            if wid != window_id:
                window_id = wid
                budget = capacity.k

        candidates: list[tuple[int, float, _RunState]] = []
        for s in states:
            if s.done or s.cycle != t:
                continue
            seg = s.current_segment()
            if seg.crossing is not None and t == seg.crossing:
                n_vio += 1
                n_cal += 1
                events.append(SimEvent(s.run.engine_id, t, EVENT_VIOLATION))
                events.append(SimEvent(s.run.engine_id, t, EVENT_CORRECTIVE))
                s.advance_segment()
                continue
            s.since_cal += 1
            wants, score = False, None
            if policy.kind == "fixed":
                if s.since_cal >= policy.period:
                    wants, score = True, 0.0
            elif policy.kind in ("predictive", "quantile"):
                if t >= scorer.start_cycle:
                    value = scorer(s.run.engine_id, t)
                    if value <= policy.margin:
                        wants, score = True, value
            if wants:
                candidates.append((s.run.engine_id, score, s))
            else:
                s.cycle = t + 1
                if s.cycle > seg.end:
                    # only reachable in a crossing-free final segment
                    s.advance_segment()

        if candidates:
            if capacity is None:
                serviced = candidates
            else:
                picked = []
                if budget > 0:
                    picked = rank_by_urgency(
                        [(eng, sc) for eng, sc, _ in candidates],
                        min(budget, len(candidates)),
                    )
                chosen = {eng for eng, _ in picked}
                budget -= len(picked)
                serviced = [c for c in candidates if c[0] in chosen]
                for eng, _, s in candidates:
                    if eng not in chosen:  # deferred; stays eligible
                        s.cycle = t + 1
                        if s.cycle > s.current_segment().end:
                            s.advance_segment()
            for eng, score, s in serviced:
                n_cal += 1
                logged = None if policy.kind in ("reactive", "fixed") else score
                events.append(SimEvent(eng, t, EVENT_PREVENTIVE, logged))
                s.advance_segment()
        t += 1

    return PolicyOutcome(
        policy=policy.kind,
        n_cal=n_cal,
        n_vio=n_vio,
        cost=total_cost(n_cal, n_vio, costs),
        events=events,
    )


def gelu(x):
    """Tanh-approximation GELU as one whole-array expression."""
    return 0.5 * x * (1.0 + np.tanh(GELU_C0 * (x + GELU_C1 * (x * x * x))))


def gelu_grad_reference(x):
    """d GELU / dx as one whole-array expression."""
    t = np.tanh(GELU_C0 * (x + GELU_C1 * (x * x * x)))
    du = GELU_C0 * (1.0 + 3.0 * GELU_C1 * (x * x))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du


def oracle_softmax(x, axis=-1):
    """Softmax as whole-array expressions."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def oracle_softmax_backward(dp, p, axis=-1):
    return p * (dp - np.sum(dp * p, axis=axis, keepdims=True))


def oracle_layer_norm(x, gain, bias, eps=1e-8):
    """(y, (xhat, inv, gain)) of layer normalization over the last axis."""
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = np.mean(centered**2, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    return gain * xhat + bias, (xhat, inv, gain)


def oracle_layer_norm_backward(dy, cache):
    """(dx, dgain, dbias) of layer normalization."""
    xhat, inv, gain = cache
    dxhat = dy * gain
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = np.mean(dxhat * xhat, axis=-1, keepdims=True)
    dx = inv * (dxhat - m1 - xhat * m2)
    reduce_axes = tuple(range(dy.ndim - 1))
    return dx, np.sum(dy * xhat, axis=reduce_axes), np.sum(dy, axis=reduce_axes)


def attention_forward(window, params, heads, pool="mean") -> float:
    """Raw forecast for one standardized (w, d) window, as a batch of one."""
    yhat, _ = attention_forward_batch(window[None, :, :], params, heads, pool)
    return float(yhat[0])


def flatten_params(params: dict[str, np.ndarray]) -> np.ndarray:
    """Concatenate all parameters (sorted by name) into one flat vector."""
    return np.concatenate([params[name].ravel() for name in sorted(params)])


def unflatten_params(flat: np.ndarray, template: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    out = {}
    offset = 0
    for name in sorted(template):
        size = template[name].size
        out[name] = flat[offset : offset + size].reshape(template[name].shape).copy()
        offset += size
    return out


def sinusoidal_pe(pos: int, dim_index: int, d_model: int) -> float:
    """Standard sinusoidal positional code for one (position, dimension)."""
    if not 0 <= dim_index < d_model:
        raise ValueError(f"dim_index must be in 0..{d_model - 1}, got {dim_index}")
    k = dim_index // 2
    angle = pos / (10000.0 ** (2.0 * k / d_model))
    return math.sin(angle) if dim_index % 2 == 0 else math.cos(angle)


def central_difference_gradients(loss_fn, flat_params: np.ndarray, step: float = 1e-5):
    """Central finite differences of loss_fn over a flat parameter vector."""
    grads = np.empty_like(flat_params)
    for i in range(flat_params.size):
        plus = flat_params.copy()
        plus[i] += step
        minus = flat_params.copy()
        minus[i] -= step
        grads[i] = (loss_fn(plus) - loss_fn(minus)) / (2.0 * step)
    return grads


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def oracle_regression_metrics(y, yhat):
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    mae = sum(abs(a - b) for a, b in zip(y, yhat)) / len(y)
    rmse = math.sqrt(sum((a - b) ** 2 for a, b in zip(y, yhat)) / len(y))
    ybar = sum(y) / len(y)
    ss_res = sum((a - b) ** 2 for a, b in zip(y, yhat))
    ss_tot = sum((a - ybar) ** 2 for a in y)
    r2 = None if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return mae, rmse, r2


@dataclass(frozen=True)
class DatasetSummary:
    n_engines: int
    min_length: int
    max_length: int
    mean_length: float
    channel_min: np.ndarray  # (24,)
    channel_max: np.ndarray  # (24,)


def summarize_dataset(trajs: list[SensorTrajectory]) -> DatasetSummary:
    if not trajs:
        raise ValueError("cannot summarize an empty trajectory list")
    lengths = [t.length for t in trajs]
    stacked = np.vstack([t.channels for t in trajs])
    return DatasetSummary(
        n_engines=len(trajs),
        min_length=min(lengths),
        max_length=max(lengths),
        mean_length=float(np.mean(lengths)),
        channel_min=stacked.min(axis=0),
        channel_max=stacked.max(axis=0),
    )


def fit_quantile_constants(
    labels,
    quantiles: tuple[float, ...] = (0.1, 0.5, 0.9),
    steps: int = 2000,
    base_lr: float = 0.5,
    warmup_steps: int = 20,
) -> np.ndarray:
    """Intercept-only pinball training: one learned constant per level.

    Runs the forecasters' training loop with one full batch per step, no
    weight decay and no early stop. The minimizer of mean pinball loss at
    level q over a fixed label set is the empirical q-quantile, so this
    doubles as the optimality check.
    """
    y = np.asarray(labels, dtype=np.float64)
    quantiles = tuple(sorted(quantiles))

    def summed_pinball(yb, c):
        return sum(float(np.mean(pinball_loss(yb, c[j], q))) for j, q in enumerate(quantiles))

    def loss_and_grads(_Xb, yb, params):
        c = params["c"]
        grad = [float(np.mean(pinball_grad(yb, c[j], q))) for j, q in enumerate(quantiles)]
        return summed_pinball(yb, c), {"c": np.array(grad)}

    cfg = TrainConfig(max_epochs=steps, batch_size=len(y), base_lr=base_lr,
                      warmup_steps=warmup_steps, patience=steps, weight_decay=0.0)
    params = {"c": np.full(len(quantiles), float(np.mean(y)))}
    best, _ = fit_minibatch(loss_and_grads, lambda p: summed_pinball(y, p["c"]), params,
                            lambda idx: None, y, cfg, np.random.default_rng(0))
    return best["c"]


def _flat(X) -> np.ndarray:
    """(B, w * d) rows of windows (B, w, d), also for B = 0."""
    return X.reshape(len(X), X.shape[1] * X.shape[2])


def padded_blocks(X, size: int) -> np.ndarray:
    """(k, size, w, d) blocks of windows (B, w, d): X stacked with zero
    windows up to whole blocks, at least one block."""
    blocks = np.zeros((max(1, math.ceil(len(X) / size)) * size, *X.shape[1:]), X.dtype)
    blocks[: len(X)] = X
    return blocks.reshape(-1, size, *X.shape[1:])


def linear_raw_blocks(model, X) -> np.ndarray:
    """Raw linear forecasts for standardized windows (B, w, d): one
    matrix-vector product per padded WINDOW_CHUNK-window block, at one BLAS
    thread."""
    with one_blas_thread():
        out = [_flat(block) @ model.params["coef"] for block in padded_blocks(X, WINDOW_CHUNK)]
    return np.concatenate(out)[: len(X)] + model.params["intercept"][0]


def quantile_raw_blocks(model, X) -> np.ndarray:
    """Sorted quantile head outputs (B, n_levels) for standardized windows
    (B, w, d): one float32 forward per padded HEAD_CHUNK-window block, with
    the parameters rounded to float32, at one BLAS thread."""
    params = {name: p.astype(np.float32) for name, p in model.params.items()}
    with one_blas_thread():
        out = [quantile_forward_batch(_flat(block).astype(np.float32), params, check=False)[0]
               for block in padded_blocks(X, HEAD_CHUNK)]
    return np.sort(np.concatenate(out)[: len(X)], axis=1)


def attention_raw_blocks(X, params, heads, pool="mean") -> np.ndarray:
    """Raw attention forecasts for standardized windows (B, w, d) in the
    dtype of X and params: one forward per padded MICRO_BATCH-window block,
    each in a fresh workspace, at one BLAS thread."""
    with one_blas_thread():
        out = [attention_forward_batch(block, params, heads, pool, check=False)[0]
               for block in padded_blocks(X, MICRO_BATCH)]
    return np.concatenate(out)[: len(X)]


def fit_quantile_float64(train: Windows, val: Windows, cfg: TrainConfig):
    """(best params, epoch logs) of fit_quantile's training run in float64:
    the same initial draws, batches, loss, gradients and AdamW steps, with
    nothing rounded to float32, and the validation pinball from one forward
    over all validation windows."""
    w, d = train.shape
    X_val = _flat(val.take(slice(None)))

    def val_pinball(params):
        out, _ = quantile_forward_batch(X_val, params, check=False)
        return sum(float(np.mean(pinball_loss(val.label, out[:, j], q)))
                   for j, q in enumerate(QUANTILES))

    params = init_quantile_params(np.random.default_rng([cfg.seed, 3]), w * d, cfg.hidden_width)
    with one_blas_thread():
        return fit_minibatch(quantile_loss_and_grads, val_pinball, params,
                             lambda idx: _flat(train.take(idx)), train.label, cfg,
                             np.random.default_rng([cfg.seed, 4]))


def train_attention_float64(train: Windows, val: Windows, cfg: TrainConfig):
    """(best params, epoch logs) of train_attention's training run in
    float64: the same initial draws, batches, loss, gradients and AdamW
    steps, with nothing rounded to float32, and the validation MAE from one
    forward over all validation windows."""
    w, d = train.shape
    X_val = val.take(slice(None))

    def val_mae(params):
        pred, _ = attention_forward_batch(X_val, params, cfg.heads, cfg.pool, check=False)
        return float(np.mean(np.abs(np.maximum(pred, 0.0) - val.label)))

    def loss_and_grads(Xb, yb, params):
        return attention_loss_and_grads(Xb, yb, params, cfg.heads, cfg.pool, cfg.smooth_l1_beta)

    params = init_attention_params(np.random.default_rng([cfg.seed, 1]), d, cfg.d_model,
                                   cfg.heads, cfg.layers)
    with one_blas_thread():
        return fit_minibatch(loss_and_grads, val_mae, params, train.take, train.label, cfg,
                             np.random.default_rng([cfg.seed, 2]))


def traced_peak(fn) -> int:
    """Peak bytes tracemalloc traces while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reference_adapted_csv(dataset: AdaptedDataset) -> str:
    """The adapted CSV as one string, joined from every row's string."""
    header = ["engine_id", "cycle", "segment_id", "reset_flag", "reset_kind"] + list(CHANNEL_NAMES)
    lines = [",".join(header)]
    row = "%d,%d,%d,%s,%s," + float_row_format(N_CHANNELS)
    for run in dataset.runs:
        reset_cycles = {ev.cycle: ev.kind for ev in run.reset_events}
        rows = zip(run.segment_ids().tolist(), run.channels.tolist())
        for cycle, (seg_id, values) in enumerate(rows, start=1):
            kind = reset_cycles.get(cycle, "")
            lines.append(row % (run.engine_id, cycle, seg_id, "1" if kind else "0", kind, *values))
    return "\n".join(lines) + "\n"


def reference_dataset_digest(dataset: AdaptedDataset) -> str:
    """SHA-256 of the metadata text, "\n" and the whole CSV, concatenated."""
    meta_text = canonical_json(_metadata_dict(dataset))
    csv_text = reference_adapted_csv(dataset)
    return hashlib.sha256(meta_text.encode("utf-8") + b"\n" + csv_text.encode("utf-8")).hexdigest()


def reference_parse_trajectories(text: str | bytes) -> list[SensorTrajectory]:
    """Trajectories from the list of all the text's lines: one np.loadtxt
    call over the list, and the library's line scan over the same list when
    that fails or an engine_id or cycle is not a positive integer."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = text.splitlines()
    if not any(line.strip() for line in lines):
        return []
    try:
        table = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
        ids = table[:, :2]
        fast = table.shape[1] == N_COLUMNS and (
            np.all(np.isfinite(ids)) and np.all(ids == np.trunc(ids)) and np.all(ids >= 1)
        )
    except ValueError:
        fast = False
    if not fast:
        table = _scan_lines(lines)
    _, first_row, inverse = np.unique(table[:, 0], return_index=True, return_inverse=True)
    order = np.lexsort((table[:, 1], first_row[inverse]))
    engine_col, cycles, channels = table[order, 0], table[order, 1], table[order, 2:]
    starts = np.flatnonzero(np.concatenate(([True], engine_col[1:] != engine_col[:-1])))
    stops = np.append(starts[1:], len(order))
    trajectories = []
    for start, stop in zip(starts.tolist(), stops.tolist()):
        engine_id = int(engine_col[start])
        mismatch = np.flatnonzero(cycles[start:stop] != np.arange(1, stop - start + 1))
        if mismatch.size:
            raise SchemaError(
                f"engine {engine_id}: cycles are not contiguous 1..{stop - start} "
                f"(first mismatch near cycle {int(cycles[start + mismatch[0]])})"
            )
        trajectories.append(SensorTrajectory(engine_id=engine_id, channels=channels[start:stop]))
    return trajectories
