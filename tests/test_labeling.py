import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftcal.adaptation import (
    AdaptationConfig,
    AdaptedRun,
    Segment,
    ThresholdSpec,
    adapt_dataset,
)
from driftcal.cmapss_io import N_CHANNELS, sensor_column
from driftcal.labeling import (
    STD_FLOOR,
    WINDOW_CHUNK,
    Windows,
    compute_ttd,
    fit_standardizer,
    split_engines,
    window_runs,
)
from driftcal.pipeline import label_and_window
from driftcal.synthetic import synthetic_trajectories

from oracles import oracle_ttd_labels, oracle_windows


def _run_with_segments(segments, length):
    return AdaptedRun(
        engine_id=1,
        drift_sensors=(1,),
        thresholds=(),
        segments=tuple(segments),
        channels=np.zeros((length, N_CHANNELS)),
        reset_events=(),
    )


# ---------------------------------------------------------------------------
# compute_ttd
# ---------------------------------------------------------------------------

def test_ttd_crossing_segment():
    run = _run_with_segments([Segment(1, 10, 7)], 10)
    values = compute_ttd(run)
    assert values[2] == 4  # t=3 -> 7-3
    assert values[6] == 0  # t=7, at the crossing
    assert values[9] == 0  # after the crossing, still overdue


def test_ttd_crossing_free_final_segment():
    run = _run_with_segments([Segment(1, 10, None)], 10)
    values = compute_ttd(run)
    assert values[3] == 6  # t=4 -> 10-4
    assert values[9] == 0


def test_ttd_countdown_is_exactly_one_per_cycle():
    run = _run_with_segments([Segment(1, 30, 18), Segment(31, 50, 44), Segment(51, 60, None)], 60)
    values = compute_ttd(run)
    for seg in run.segments:
        stop = seg.crossing if seg.crossing is not None else seg.end
        for t in range(seg.start, stop):
            assert values[t - 1] - values[t] == 1


@st.composite
def segmentations(draw, max_length=80):
    """(length, segments) with segments covering cycles 1..length and a
    random crossing, or none, in each."""
    length = draw(st.integers(1, max_length))
    cuts = sorted(draw(st.sets(st.integers(2, length), max_size=4))) if length > 1 else []
    bounds = [1, *cuts, length + 1]
    segments = []
    for start, stop in zip(bounds, bounds[1:]):
        crossing = draw(st.one_of(st.none(), st.integers(start, stop - 1)))
        segments.append(Segment(start, stop - 1, crossing))
    return length, tuple(segments)


@settings(max_examples=200, deadline=None)
@given(segmentations(), st.sampled_from([1, -1]), st.integers(1, 21))
def test_ttd_matches_oracle_on_random_segmentations(segmentation, direction, sensor_id):
    length, segments = segmentation
    # the sensor sits past its threshold from each crossing to its segment's end
    channels = np.zeros((length, N_CHANNELS))
    for seg in segments:
        if seg.crossing is not None:
            channels[seg.crossing - 1 : seg.end, sensor_column(sensor_id)] = 2.0 * direction
    spec = ThresholdSpec(sensor_id=sensor_id, baseline=0.0, tail=2.0 * direction, fraction=0.5,
                         threshold=1.0 * direction, direction=direction)
    run = AdaptedRun(engine_id=1, drift_sensors=(sensor_id,), thresholds=(spec,),
                     segments=segments, channels=channels, reset_events=())
    assert np.array_equal(compute_ttd(run), oracle_ttd_labels(run))


def test_ttd_matches_brute_force_oracle_on_adapted_runs():
    for seed in range(5):
        trajs = synthetic_trajectories(n_engines=5, seed=100 + seed, length_range=(80, 130))
        dataset = adapt_dataset(trajs, AdaptationConfig(), seed=seed)
        for run in dataset.runs:
            assert np.array_equal(compute_ttd(run), oracle_ttd_labels(run))


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

def _labelled_run(length):
    rng = np.random.default_rng(length)
    run = AdaptedRun(
        engine_id=2,
        drift_sensors=(1,),
        thresholds=(),
        segments=(Segment(1, length, None),),
        channels=rng.normal(size=(length, N_CHANNELS)),
        reset_events=(),
    )
    return run, compute_ttd(run)


def test_window_count_identity():
    run, _ = _labelled_run(45)
    windows = window_runs([run], w=40, stride=1)
    assert len(windows) == 6
    assert windows.end_cycle.tolist() == list(range(40, 46))


def test_run_shorter_than_window_gives_no_windows():
    run, _ = _labelled_run(39)
    assert len(window_runs([run], w=40)) == 0


def test_stride_five():
    run, _ = _labelled_run(45)
    assert window_runs([run], w=40, stride=5).end_cycle.tolist() == [40, 45]


def test_window_labels_and_features_align():
    run, ttd = _labelled_run(50)
    windows = window_runs([run], w=10, stride=3)
    for win, features in zip(windows, windows.take(slice(None))):
        assert win.label == ttd[win.end_cycle - 1]
        assert np.array_equal(win.features, run.channels[win.end_cycle - 10 : win.end_cycle])
        assert np.array_equal(features, win.features)
        with pytest.raises(ValueError):
            win.features[0, 0] = 1.0  # items are read-only views


def test_cross_reset_exclusion_flag():
    length = 60
    run = AdaptedRun(
        engine_id=3,
        drift_sensors=(1,),
        thresholds=(),
        segments=(Segment(1, 30, 30), Segment(31, 60, None)),
        channels=np.zeros((length, N_CHANNELS)),
        reset_events=(),
    )
    spanning = window_runs([run], w=20, stride=1, allow_cross_reset=True)
    strict = window_runs([run], w=20, stride=1, allow_cross_reset=False)
    assert len(spanning) == 41
    # strict: windows ending in [20,30] fit segment 1, ending in [50,60] fit segment 2
    assert strict.end_cycle.tolist() == list(range(20, 31)) + list(range(50, 61))


def test_window_count_identity_on_dataset(small_dataset):
    for run in small_dataset.runs:
        assert len(window_runs([run], w=40, stride=1)) == max(0, run.length - 40 + 1)


@st.composite
def run_sets(draw):
    """1-3 runs of random segmentations and lengths (some shorter than the
    windows), and at most one non-finite cell."""
    runs = []
    for engine_id in range(1, draw(st.integers(1, 3)) + 1):
        length, segments = draw(segmentations(max_length=60))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        channels = rng.normal(size=(length, N_CHANNELS)) * 10.0 ** rng.integers(-3, 4)
        runs.append(AdaptedRun(engine_id=engine_id, drift_sensors=(1,), thresholds=(),
                               segments=segments, channels=channels, reset_events=()))
    if draw(st.booleans()):
        run = draw(st.sampled_from(runs))
        cell = (draw(st.integers(0, run.length - 1)), draw(st.integers(0, N_CHANNELS - 1)))
        run.channels[cell] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return runs


@settings(max_examples=200, deadline=None)
@given(run_sets(), st.integers(1, 25), st.integers(1, 5), st.booleans())
def test_windows_equal_the_per_window_oracle(runs, w, stride, allow_cross_reset):
    try:
        want = [win for run in runs for win in oracle_windows(
            run, compute_ttd(run), w=w, stride=stride, allow_cross_reset=allow_cross_reset)]
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            window_runs(runs, w=w, stride=stride, allow_cross_reset=allow_cross_reset)
        assert str(got.value) == str(exc)
        return
    windows = window_runs(runs, w=w, stride=stride, allow_cross_reset=allow_cross_reset)
    assert len(windows) == len(want)
    for got, expected in zip(windows, want):
        assert np.array_equal(got.features, expected.features)
        assert got[1:] == expected[1:]
    if want:
        stacked = windows.take(slice(None))
        assert stacked.flags.c_contiguous
        assert stacked.tobytes() == np.stack([win.features for win in want]).tobytes()


def test_windows_reject_bad_sizes():
    run, _ = _labelled_run(45)
    for w, stride in ((0, 1), (40, 0)):
        with pytest.raises(ValueError, match="must be >= 1"):
            window_runs([run], w=w, stride=stride)


# ---------------------------------------------------------------------------
# split_engines
# ---------------------------------------------------------------------------

def test_split_100_engines_75_25():
    split = split_engines(range(1, 101), fraction=0.75, seed=0)
    assert len(split.train_engines) == 75
    assert len(split.val_engines) == 25


def test_split_rounding_4_engines():
    split = split_engines([1, 2, 3, 4], fraction=0.75, seed=0)
    assert len(split.train_engines) == 3
    assert len(split.val_engines) == 1


def test_split_deterministic_and_disjoint():
    ids = list(range(1, 41))
    a = split_engines(ids, seed=5)
    b = split_engines(ids, seed=5)
    assert a == b
    assert set(a.train_engines).isdisjoint(a.val_engines)
    assert sorted(a.train_engines + a.val_engines) == ids


def test_split_empty_side_rejected():
    with pytest.raises(ValueError):
        split_engines([1, 2], fraction=0.95, seed=0)
    with pytest.raises(ValueError):
        split_engines([1], fraction=0.5, seed=0)


# ---------------------------------------------------------------------------
# standardizer
# ---------------------------------------------------------------------------

def _random_windows(n=30, w=8, seed=0, constant_channel=None, shift=0.0):
    run, _ = _labelled_run(w + n + seed)
    if constant_channel is not None:
        run.channels[:, constant_channel] = 3.14
    run.channels[:] += shift
    return window_runs([run], w=w, stride=1).subset(np.arange(n))


def test_fit_apply_self_normalizes():
    windows = _random_windows()
    std = fit_standardizer(windows)
    stacked = std.transform(windows.take(slice(None))).reshape(-1, N_CHANNELS)
    assert np.abs(stacked.mean(axis=0)).max() < 1e-9
    assert np.abs(stacked.std(axis=0) - 1.0).max() < 1e-6


def test_constant_channel_floored_and_zeroed():
    windows = _random_windows(constant_channel=5)
    std = fit_standardizer(windows)
    assert std.std[5] == pytest.approx(1e-8)
    assert np.all(std.transform(windows.channels)[:, 5] == 0.0)


def test_constant_channel_zeroed_across_chunks():
    """Later chunks carry the running total in their first row; a constant
    channel must still be found constant from the untouched cells."""
    windows = _random_windows(n=WINDOW_CHUNK + 600, constant_channel=5)
    std = fit_standardizer(windows)
    assert std.mean[5] == 3.14
    assert np.all(std.transform(windows.channels)[:, 5] == 0.0)


def test_train_stats_differ_from_val_stats():
    train = _random_windows(seed=1)
    # shift the validation distribution so the two transforms must differ
    val = _random_windows(n=10, seed=2, shift=2.5)
    with_train = fit_standardizer(train).transform(val.take(slice(None)))
    with_own = fit_standardizer(val).transform(val.take(slice(None)))
    assert not np.allclose(with_train, with_own)


def test_apply_has_no_side_effects():
    windows = _random_windows()
    channels = windows.channels.copy()
    std = fit_standardizer(windows)
    before = (std.mean.copy(), std.std.copy())
    std.transform(windows.channels)
    refit = fit_standardizer(windows)
    assert np.array_equal(windows.channels, channels)
    assert np.array_equal(refit.mean, before[0])
    assert np.array_equal(refit.std, before[1])


def test_fit_empty_rejected():
    with pytest.raises(ValueError):
        fit_standardizer(_random_windows().subset(np.arange(0)))


# d >= 2: numpy sums a stack of one column pairwise, not row by row
@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 2, WINDOW_CHUNK - 1, WINDOW_CHUNK, WINDOW_CHUNK + 1, 2 * WINDOW_CHUNK + 3]),
    st.integers(1, 6),
    st.integers(2, 5),
    st.one_of(st.none(), st.integers(0, 1)),
    st.integers(0, 2**32 - 1),
)
def test_streamed_standardizer_equals_whole_stack_formula(n, w, d, constant, seed):
    rng = np.random.default_rng(seed)
    rows = w + int(rng.integers(0, 50))
    channels = rng.normal(size=(rows, d)) * 10.0 ** rng.uniform(-4, 4, size=(rows, 1))
    if constant is not None:
        channels[:, constant] = rng.normal()
    start = rng.integers(0, rows - w + 1, size=n)  # overlapping, in any order
    ids = np.zeros(n, dtype=np.int64)
    windows = Windows(channels, w, start, ids, ids, ids)

    got = fit_standardizer(windows)

    stacked = np.concatenate([channels[s : s + w] for s in start])
    mean = stacked.mean(axis=0)
    std = np.maximum(stacked.std(axis=0), STD_FLOOR)
    is_constant = stacked.min(axis=0) == stacked.max(axis=0)
    mean[is_constant] = stacked[0, is_constant]
    assert got.mean.tobytes() == mean.tobytes()
    assert got.std.tobytes() == std.tobytes()


def test_leak_freedom_on_dataset(small_dataset):
    bundle = label_and_window(small_dataset, w=40, seed=3)
    train_ids = set(bundle.train_std.engine_id.tolist())
    val_ids = set(bundle.val_std.engine_id.tolist())
    assert train_ids.isdisjoint(val_ids)
    assert train_ids | val_ids == {run.engine_id for run in small_dataset.runs}


def test_standardized_windows_equal_transformed_raw_windows(small_dataset):
    bundle = label_and_window(small_dataset, w=40, seed=3)
    for raw, std in ((bundle.train_raw, bundle.train_std), (bundle.val_raw, bundle.val_std)):
        want = bundle.standardizer.transform(raw.take(slice(None)))
        assert std.take(slice(None)).tobytes() == want.tobytes()


def test_windowing_holds_no_copy_per_window():
    trajs = synthetic_trajectories(n_engines=60, seed=11)
    dataset = adapt_dataset(trajs, AdaptationConfig(), seed=11)
    tracemalloc.start()
    try:
        bundle = label_and_window(dataset, seed=11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    w, d = bundle.train_raw.shape
    # a list of per-window copies would hold n_train * w * d float64s on its own
    assert peak < 0.5 * len(bundle.train_raw) * w * d * 8
