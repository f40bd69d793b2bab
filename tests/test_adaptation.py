import os
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from driftcal import adaptation
from driftcal.adaptation import (
    ADAPTED_CSV_NAME,
    ADAPTED_META_NAME,
    ADAPTED_MIRROR_NAME,
    NOISE_RESET,
    STITCH_RESET,
    AdaptationConfig,
    AdaptationError,
    AdaptedDataset,
    AdaptedRun,
    DegenerateSpanError,
    ResetEvent,
    Segment,
    _average_ranks,
    adapt_dataset,
    dataset_digest,
    make_threshold,
    rank_drift_sensors,
    read_adapted_dataset,
    spearman_rho,
    subset_runs,
    synthesize_resets,
    write_adapted_dataset,
)
from driftcal.cmapss_io import N_CHANNELS, N_SENSORS, SensorTrajectory, sensor_column
from driftcal.synthetic import synthetic_trajectories
from driftcal.util import canonical_json

from oracles import (
    oracle_average_ranks,
    oracle_sensor_scores,
    oracle_spearman,
    reference_adapted_csv,
    reference_dataset_digest,
    threshold_crossed,
    traced_peak,
)


# ---------------------------------------------------------------------------
# spearman_rho
# ---------------------------------------------------------------------------

def test_spearman_perfect_agreement():
    assert spearman_rho([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)


def test_spearman_perfect_reversal():
    assert spearman_rho([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)


def test_spearman_constant_series_is_zero():
    assert spearman_rho([1, 2, 3], [5, 5, 5]) == 0.0
    assert spearman_rho([7, 7, 7], [1, 2, 3]) == 0.0


def test_spearman_errors():
    with pytest.raises(ValueError):
        spearman_rho([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        spearman_rho([1], [2])


def test_spearman_matches_oracle_on_random_series():
    rng = np.random.default_rng(12)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        a = rng.normal(size=n)
        b = rng.integers(0, 4, size=n).astype(float)  # ties likely
        assert spearman_rho(a, b) == pytest.approx(oracle_spearman(a, b), abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.integers(1, 40),
        elements=st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, -np.inf, np.inf, np.nan]),
    )
)
def test_average_ranks_match_oracle_on_tie_heavy_input(values):
    assert np.array_equal(_average_ranks(values), oracle_average_ranks(values))


def test_spearman_symmetric_and_monotone_invariant():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        rho = spearman_rho(a, b)
        assert rho == pytest.approx(spearman_rho(b, a), abs=1e-14)
        # strictly increasing transforms preserve ranks exactly
        assert spearman_rho(np.exp(a), b) == pytest.approx(rho, abs=1e-14)
        assert spearman_rho(a, 3.0 * b + 7.0) == pytest.approx(rho, abs=1e-14)


# ---------------------------------------------------------------------------
# rank_drift_sensors
# ---------------------------------------------------------------------------

def _traj_with_channels(engine_id, channels):
    return SensorTrajectory(engine_id=engine_id, channels=np.asarray(channels, dtype=np.float64))


def test_ranking_single_monotone_sensor():
    length = 30
    channels = np.ones((length, N_CHANNELS))
    channels[:, sensor_column(4)] = np.arange(length, dtype=float)
    ranking = rank_drift_sensors([_traj_with_channels(1, channels)])
    top_id, top_score = ranking.entries[0]
    assert top_id == 4
    assert top_score == pytest.approx(1.0)
    assert all(score == 0.0 for _, score in ranking.entries[1:])


def test_ranking_is_mean_of_per_engine_abs_rho():
    rng = np.random.default_rng(4)
    trajs = []
    for engine in (1, 2):
        channels = rng.normal(size=(25, N_CHANNELS))
        trajs.append(_traj_with_channels(engine, channels))
    ranking = rank_drift_sensors(trajs)
    scores = dict(ranking.entries)
    for sensor_id in range(1, 22):
        expected = np.mean(
            [
                abs(oracle_spearman(t.sensor(sensor_id), np.arange(1, t.length + 1)))
                for t in trajs
            ]
        )
        assert scores[sensor_id] == pytest.approx(expected, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.tuples(
        hnp.arrays(np.float64, st.tuples(st.integers(2, 30), st.just(N_SENSORS)),
                   elements=st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.nan])),
        st.sets(st.integers(0, N_SENSORS - 1)),  # columns made constant
    ),
    min_size=1, max_size=3))
def test_ranking_matches_oracle_on_tied_constant_and_nan_columns(engines):
    trajs = []
    for engine_id, (sensors, constant) in enumerate(engines, start=1):
        sensors[:, sorted(constant)] = sensors[0, sorted(constant)]
        channels = np.zeros((len(sensors), N_CHANNELS))
        channels[:, sensor_column(1):] = sensors
        trajs.append(_traj_with_channels(engine_id, channels))
    entries = rank_drift_sensors(trajs).entries
    expected = oracle_sensor_scores(trajs)
    assert [sensor_id for sensor_id, _ in entries] == sorted(
        expected, key=lambda sensor_id: (-dict(entries)[sensor_id], sensor_id))
    for sensor_id, score in entries:
        assert score == pytest.approx(expected[sensor_id], abs=1e-12)


def test_ranking_tie_break_by_sensor_id():
    channels = np.ones((20, N_CHANNELS))
    channels[:, sensor_column(9)] = np.arange(20.0)
    channels[:, sensor_column(3)] = np.arange(20.0) * 2.0
    ranking = rank_drift_sensors([_traj_with_channels(1, channels)])
    assert ranking.top(2) == (3, 9)  # equal scores 1.0, smaller id first


def test_ranking_rejects_bad_top_k():
    with pytest.raises(ValueError, match=r"top_k must be in 1\.\.21, got 22"):
        AdaptationConfig(top_k=22)
    with pytest.raises(ValueError, match=r"top_k must be in 1\.\.21, got 0"):
        AdaptationConfig(top_k=0)
    with pytest.raises(AdaptationError):
        rank_drift_sensors([])


def test_synthetic_drift_sensors_rank_first(small_trajectories):
    ranking = rank_drift_sensors(small_trajectories)
    assert set(ranking.top(3)) == {2, 7, 15}


# ---------------------------------------------------------------------------
# make_threshold
# ---------------------------------------------------------------------------

class _FixedFraction:
    def __init__(self, value):
        self.value = value

    def uniform(self, low, high):
        assert low <= self.value <= high
        return self.value


def test_threshold_lower_bound_upward():
    series = np.concatenate([np.zeros(10), np.linspace(0, 100, 15), np.full(5, 100.0)])
    spec = make_threshold(series, _FixedFraction(0.55), sensor_id=4)
    assert spec.baseline == pytest.approx(0.0)
    assert spec.tail == pytest.approx(100.0)
    assert spec.threshold == pytest.approx(55.0)
    assert spec.direction == 1


def test_threshold_upper_bound_downward():
    series = np.concatenate([np.full(10, 100.0), np.linspace(100, 0, 15), np.zeros(5)])
    spec = make_threshold(series, _FixedFraction(0.80), sensor_id=2)
    assert spec.threshold == pytest.approx(20.0)
    assert spec.direction == -1


def test_threshold_degenerate_span():
    series = np.full(30, 5.0)
    series[-1] = 5.0 + 1e-12
    with pytest.raises(DegenerateSpanError):
        make_threshold(series, np.random.default_rng(0), sensor_id=1)


def test_threshold_requires_20_cycles():
    with pytest.raises(AdaptationError):
        make_threshold(np.arange(19.0), np.random.default_rng(0))


def test_threshold_identity_holds_for_random_draws():
    rng = np.random.default_rng(8)
    for _ in range(20):
        series = np.linspace(0, rng.uniform(1, 50), 40) + rng.normal(0, 0.01, size=40)
        spec = make_threshold(series, rng, sensor_id=1)
        assert 0.55 <= spec.fraction <= 0.80
        assert spec.threshold == pytest.approx(
            spec.baseline + spec.fraction * (spec.tail - spec.baseline)
        )
        assert spec.direction == (1 if spec.tail > spec.baseline else -1)


# ---------------------------------------------------------------------------
# synthesize_resets
# ---------------------------------------------------------------------------

def _ramp_trajectory(engine_id=1, length=120, crossing_level=50.0):
    """Sensor 1 ramps 0..100 linearly; everything else flat."""
    channels = np.ones((length, N_CHANNELS))
    channels[:, sensor_column(1)] = np.linspace(0.0, 100.0, length)
    return _traj_with_channels(engine_id, channels)


def _spec_for(traj, sensor_id, fraction):
    return make_threshold(traj.sensor(sensor_id), _FixedFraction(fraction), sensor_id=sensor_id)


def test_no_crossing_single_segment():
    traj = _ramp_trajectory()
    spec = _spec_for(traj, 1, 0.55)
    # push the threshold out of reach
    far = spec.__class__(
        sensor_id=1, baseline=spec.baseline, tail=spec.tail, fraction=spec.fraction,
        threshold=1e9, direction=1,
    )
    run = synthesize_resets(traj, [far], [], np.random.default_rng(0))
    assert len(run.segments) == 1
    assert run.segments[0].crossing is None
    assert run.reset_events == ()
    assert np.array_equal(run.channels, traj.channels)


def test_monotone_ramp_segments_and_invariants():
    traj = _ramp_trajectory()
    spec = _spec_for(traj, 1, 0.55)
    rng = np.random.default_rng(1)
    run = synthesize_resets(traj, [spec], [_ramp_trajectory(2, 200)], rng,
                            AdaptationConfig(max_resets=3))
    # segments partition the run
    cycles = [c for seg in run.segments for c in range(seg.start, seg.end + 1)]
    assert cycles == list(range(1, traj.length + 1))
    assert len(run.reset_events) <= 3
    first = run.segments[0]
    assert first.crossing is not None and first.end == first.crossing
    # brute-force soundness: first in-direction crossing of each segment
    col = sensor_column(1)
    for seg in run.segments:
        hits = [
            t for t in range(seg.start, seg.end + 1)
            if run.channels[t - 1, col] >= spec.threshold
        ]
        if seg.crossing is None:
            assert not hits
        else:
            assert hits and hits[0] == seg.crossing
    # post-reset segments start below threshold
    for seg in run.segments[1:]:
        assert run.channels[seg.start - 1, col] < spec.threshold


def test_max_resets_zero_is_pure_scan():
    traj = _ramp_trajectory()
    spec = _spec_for(traj, 1, 0.55)
    run = synthesize_resets(traj, [spec], [], np.random.default_rng(0),
                            AdaptationConfig(max_resets=0))
    assert np.array_equal(run.channels, traj.channels)  # no mutation
    assert len(run.segments) == 1
    seg = run.segments[0]
    assert seg.start == 1 and seg.end == traj.length
    assert seg.crossing is not None


def test_short_donor_falls_back_to_noise():
    traj = _ramp_trajectory(length=120)
    spec = _spec_for(traj, 1, 0.55)
    short_donor = _ramp_trajectory(engine_id=2, length=30)
    # force the stitch branch every time: noise_reset_prob=0 means stitch
    run = synthesize_resets(
        traj, [spec], [short_donor], np.random.default_rng(3),
        AdaptationConfig(max_resets=3, noise_reset_prob=0.0),
    )
    assert all(ev.kind == "noise-reset" for ev in run.reset_events)
    assert len(run.reset_events) >= 1


def test_empty_sensor_set_rejected():
    traj = _ramp_trajectory()
    with pytest.raises(AdaptationError):
        synthesize_resets(traj, [], [], np.random.default_rng(0))


def test_non_drift_channels_untouched(small_trajectories, small_dataset):
    raw = {t.engine_id: t for t in small_trajectories}
    for run in small_dataset.runs:
        drift_cols = {sensor_column(s) for s in run.drift_sensors}
        for col in range(N_CHANNELS):
            if col not in drift_cols:
                assert np.array_equal(run.channels[:, col], raw[run.engine_id].channels[:, col])


# ---------------------------------------------------------------------------
# adapt_dataset and serialization
# ---------------------------------------------------------------------------

def test_adapt_deterministic_same_seed(small_trajectories):
    a = adapt_dataset(small_trajectories, AdaptationConfig(), seed=11)
    b = adapt_dataset(small_trajectories, AdaptationConfig(), seed=11)
    assert dataset_digest(a) == dataset_digest(b)


def test_adapt_seed_changes_fractions(small_trajectories):
    a = adapt_dataset(small_trajectories, AdaptationConfig(), seed=11)
    b = adapt_dataset(small_trajectories, AdaptationConfig(), seed=12)
    assert dataset_digest(a) != dataset_digest(b)
    fa = [spec.fraction for run in a.runs for spec in run.thresholds]
    fb = [spec.fraction for run in b.runs for spec in run.thresholds]
    assert fa != fb


def test_adapt_rng_streams_stable_per_engine(small_trajectories):
    full = adapt_dataset(small_trajectories, AdaptationConfig(), seed=11)
    # dropping the last engine must not disturb the first engine's thresholds
    partial = adapt_dataset(small_trajectories[:-1], AdaptationConfig(), seed=11)
    assert [s.fraction for s in full.runs[0].thresholds] == [
        s.fraction for s in partial.runs[0].thresholds
    ]


def test_adapt_top_k_drift_sensor_count(small_dataset):
    assert len(small_dataset.drift_sensors) == 3
    for run in small_dataset.runs:
        assert len(run.drift_sensors) == 3
        assert set(run.drift_sensors) <= set(small_dataset.drift_sensors)


def test_adapt_reset_bound_and_partition(small_dataset):
    for run in small_dataset.runs:
        assert len(run.reset_events) <= 3
        cycles = [c for seg in run.segments for c in range(seg.start, seg.end + 1)]
        assert cycles == list(range(1, run.length + 1))
        for seg in run.segments:
            if seg.crossing is not None:
                assert seg.start <= seg.crossing <= seg.end


def test_crossing_soundness_and_pre_crossing_safety(default_dataset):
    for run in default_dataset.runs:
        by_id = {spec.sensor_id: spec for spec in run.thresholds}
        for seg in run.segments:
            hits = []
            for t in range(seg.start, seg.end + 1):
                row = run.channels[t - 1]
                if any(
                    threshold_crossed(spec, row[sensor_column(sid)]) for sid, spec in by_id.items()
                ):
                    hits.append(t)
            if seg.crossing is None:
                assert not hits
            else:
                assert hits[0] == seg.crossing


def test_serialization_roundtrip(tmp_path, small_dataset):
    write_adapted_dataset(small_dataset, tmp_path)
    loaded = read_adapted_dataset(tmp_path)
    assert loaded.split_tag == small_dataset.split_tag
    assert loaded.seed == small_dataset.seed
    assert loaded.config == small_dataset.config
    assert loaded.drift_sensors == small_dataset.drift_sensors
    assert dataset_digest(loaded) == dataset_digest(small_dataset)
    for a, b in zip(small_dataset.runs, loaded.runs):
        assert a.engine_id == b.engine_id
        assert a.segments == b.segments
        assert a.thresholds == b.thresholds
        assert a.reset_events == b.reset_events
        assert np.array_equal(a.channels, b.channels)


def test_adapt_empty_input_rejected():
    with pytest.raises(AdaptationError):
        adapt_dataset([], AdaptationConfig(), seed=0)


@st.composite
def _adapted_datasets(draw, elements=st.floats(width=64)):
    """Small datasets with random segmentations and channel floats drawn
    from ``elements`` (any float64 by default)."""
    runs = []
    for engine_id in draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=3, unique=True)):
        length = draw(st.integers(1, 8))
        cuts = sorted(draw(st.sets(st.integers(2, length), max_size=3))) if length > 1 else []
        bounds = [1] + cuts + [length + 1]
        segments = tuple(Segment(a, b - 1, None) for a, b in zip(bounds, bounds[1:]))
        kinds = draw(st.lists(st.sampled_from([NOISE_RESET, STITCH_RESET]),
                              min_size=len(cuts), max_size=len(cuts)))
        channels = draw(hnp.arrays(np.float64, (length, N_CHANNELS), elements=elements))
        runs.append(AdaptedRun(
            engine_id=engine_id,
            drift_sensors=(2,),
            thresholds=(),
            segments=segments,
            channels=channels,
            reset_events=tuple(ResetEvent(c, k) for c, k in zip(cuts, kinds)),
        ))
    return AdaptedDataset(split_tag="synthetic", runs=runs, seed=0, config=AdaptationConfig())


@settings(max_examples=60, deadline=None)
@given(_adapted_datasets())
def test_write_read_returns_channels_bit_for_bit(dataset):
    with tempfile.TemporaryDirectory() as out:
        write_adapted_dataset(dataset, out)
        loaded = read_adapted_dataset(out)
    assert [r.engine_id for r in loaded.runs] == [r.engine_id for r in dataset.runs]
    for a, b in zip(dataset.runs, loaded.runs):
        assert a.segments == b.segments
        assert a.reset_events == b.reset_events
        # the text keeps no NaN sign or payload; every other value keeps its bits
        nan = np.isnan(a.channels)
        assert np.array_equal(nan, np.isnan(b.channels))
        assert np.array_equal(a.channels[~nan].view(np.uint64), b.channels[~nan].view(np.uint64))


@settings(max_examples=60, deadline=None)
@given(_adapted_datasets())
def test_streamed_files_and_digest_equal_the_whole_text(dataset):
    """Run-by-run writing and hashing give the bytes and digest of the CSV
    built as one string."""
    with tempfile.TemporaryDirectory() as out:
        written = write_adapted_dataset(dataset, out)
        with open(written["csv"], "rb") as f:
            csv_bytes = f.read()
        with open(written["metadata"], "rb") as f:
            meta_bytes = f.read()
    assert csv_bytes == reference_adapted_csv(dataset).encode("utf-8")
    assert meta_bytes == (canonical_json(adaptation._metadata_dict(dataset)) + "\n").encode()
    assert written["digest"] == dataset_digest(dataset) == reference_dataset_digest(dataset)


def _file_bytes(out) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}


def test_failed_write_leaves_earlier_files_as_they_were(tmp_path, small_dataset, monkeypatch):
    write_adapted_dataset(small_dataset, tmp_path)
    before = _file_bytes(tmp_path)
    formatted = []

    def rows_then_fail(run):
        if formatted:
            raise RuntimeError("formatting failed")
        formatted.append(run.engine_id)
        return b"partial\n"

    monkeypatch.setattr(adaptation, "_run_rows", rows_then_fail)
    with pytest.raises(RuntimeError, match="formatting failed"):
        write_adapted_dataset(subset_runs(small_dataset, [2, 3]), tmp_path)
    assert formatted  # the first run's rows were written before the failure
    assert _file_bytes(tmp_path) == before
    assert sorted(before) == [ADAPTED_CSV_NAME, ADAPTED_MIRROR_NAME, ADAPTED_META_NAME]


def test_failed_first_write_leaves_no_file(tmp_path, small_dataset, monkeypatch):
    def fail(run):
        raise RuntimeError("formatting failed")

    monkeypatch.setattr(adaptation, "_run_rows", fail)
    with pytest.raises(RuntimeError):
        write_adapted_dataset(small_dataset, tmp_path / "out")
    assert os.listdir(tmp_path / "out") == []


@pytest.fixture(scope="module")
def fleets():
    """Adapted synthetic fleets of 20 and 200 engines."""
    return [adapt_dataset(synthetic_trajectories(n, seed=3, length_range=(130, 360)), seed=3)
            for n in (20, 200)]


def test_write_memory_does_not_grow_with_the_fleet(fleets, tmp_path):
    """The write holds the metadata and one run's text. Building the whole
    CSV as one string traced 7.4 MB at 20 engines and 70.8 MB at 200."""
    peaks = [traced_peak(lambda: write_adapted_dataset(ds, tmp_path / str(len(ds.runs))))
             for ds in fleets]
    assert peaks[1] - peaks[0] < 2e6


def test_digest_memory_does_not_grow_with_the_fleet(fleets):
    """As for the write: 7.4 MB at 20 engines and 71.0 MB at 200 before the
    digest was streamed."""
    peaks = [traced_peak(lambda: dataset_digest(ds)) for ds in fleets]
    assert peaks[1] - peaks[0] < 2e6


def _tamper(path, engine_id, row_in_run, column, edit):
    lines = path.read_text().split("\n")
    rows = [i for i, line in enumerate(lines) if line.startswith(f"{engine_id},")]
    fields = lines[rows[row_in_run]].split(",")
    fields[column] = edit(fields[column])
    lines[rows[row_in_run]] = ",".join(fields)
    path.write_text("\n".join(lines))


@pytest.mark.parametrize("column,name", [(1, "cycle"), (2, "segment_id"), (3, "reset_flag")])
def test_read_rejects_csv_disagreeing_with_metadata(tmp_path, small_dataset, column, name):
    write_adapted_dataset(small_dataset, tmp_path)
    run = small_dataset.runs[2]
    _tamper(tmp_path / ADAPTED_CSV_NAME, run.engine_id, 5, column, lambda v: str(int(v) + 1))
    with pytest.raises(ValueError, match=f"engine {run.engine_id}: .*'{name}'"):
        read_adapted_dataset(tmp_path)


def test_read_rejects_split_engine_rows(tmp_path, small_dataset):
    write_adapted_dataset(small_dataset, tmp_path)
    path = tmp_path / ADAPTED_CSV_NAME
    header, *rows = path.read_text().splitlines()
    engine_id = small_dataset.runs[0].engine_id
    path.write_text("\n".join([header] + rows[1:] + rows[:1]) + "\n")
    with pytest.raises(ValueError, match=f"engine {engine_id}: .*not contiguous"):
        read_adapted_dataset(tmp_path)


# ---------------------------------------------------------------------------
# The binary mirror of the channels
# ---------------------------------------------------------------------------

def _no_parse():
    """A context in which parsing the CSV fails the test."""
    return mock.patch.object(np, "loadtxt", side_effect=AssertionError("the CSV was parsed"))


def _read_parsed(out) -> AdaptedDataset:
    """The dataset under ``out`` read through the CSV parse, the reference
    the mirror must equal: read with the mirror moved aside."""
    mirror = Path(out) / ADAPTED_MIRROR_NAME
    aside = mirror.with_name("aside")
    mirror.rename(aside)
    try:
        return read_adapted_dataset(out)
    finally:
        aside.rename(mirror)


def _assert_same_bits(a: AdaptedDataset, b: AdaptedDataset) -> None:
    assert [r.engine_id for r in a.runs] == [r.engine_id for r in b.runs]
    for x, y in zip(a.runs, b.runs):
        assert (x.segments, x.reset_events, x.thresholds) == (y.segments, y.reset_events,
                                                              y.thresholds)
        assert x.channels.dtype == y.channels.dtype == np.float64
        assert np.array_equal(x.channels.view(np.uint64), y.channels.view(np.uint64))


_EDGE_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
                     1.7976931348623157e308, -1.7976931348623157e308, 1e300, -1e-300,
                     np.inf, -np.inf]),
    st.floats(allow_nan=False, width=64),
)


@settings(max_examples=60, deadline=None)
@given(_adapted_datasets(elements=_EDGE_FLOATS))
def test_mirror_read_equals_the_csv_parse_bit_for_bit(dataset):
    """Signed zeros, subnormals and the largest exponents keep their bits
    through both paths, and both give the written digest."""
    with tempfile.TemporaryDirectory() as out:
        written = write_adapted_dataset(dataset, out)
        with _no_parse():
            mirrored = read_adapted_dataset(out, expected_digest=written["digest"])
        parsed = _read_parsed(out)
    _assert_same_bits(mirrored, parsed)
    _assert_same_bits(mirrored, dataset)
    assert dataset_digest(mirrored) == dataset_digest(parsed) == written["digest"]


def test_csv_edited_after_the_write_is_parsed(tmp_path, small_dataset):
    write_adapted_dataset(small_dataset, tmp_path)
    path = tmp_path / ADAPTED_CSV_NAME
    path.write_bytes(path.read_bytes())  # rewritten with the same bytes: still the mirror
    with _no_parse():
        read_adapted_dataset(tmp_path)
    run = small_dataset.runs[1]
    _tamper(path, run.engine_id, 3, 5, lambda v: "1234.5")  # op_setting_1 of cycle 4
    loaded = read_adapted_dataset(tmp_path)
    assert loaded.runs[1].channels[3, 0] == 1234.5
    assert np.array_equal(np.delete(loaded.runs[1].channels, 3, axis=0),
                          np.delete(run.channels, 3, axis=0))


def _flip_last_byte(data: bytes) -> bytes:
    return data[:-1] + bytes([data[-1] ^ 1])


@pytest.mark.parametrize("edit", [
    _flip_last_byte,
    lambda data: data[:-8],  # one value short
    lambda data: data + bytes(8),  # one value too many
    lambda data: data.replace(b"driftcal-adapted-channels v1", b"driftcal-adapted-channels v0"),
    lambda data: data.replace(b'"rows":', b'"rows":1', 1),
    lambda data: data.split(b"\n", 1)[0],  # the magic line alone
    lambda data: b"",
], ids=["flipped_payload_byte", "truncated", "extended", "magic", "rows", "no_header", "empty"])
def test_a_damaged_mirror_is_ignored(tmp_path, small_dataset, edit):
    write_adapted_dataset(small_dataset, tmp_path)
    mirror = tmp_path / ADAPTED_MIRROR_NAME
    mirror.write_bytes(edit(mirror.read_bytes()))
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        loaded = read_adapted_dataset(tmp_path)
    assert loadtxt.call_count == 1
    _assert_same_bits(loaded, small_dataset)


def test_a_mirror_of_another_dataset_is_ignored(tmp_path, small_dataset):
    """The mirror of a four-run subset, with its own digest, beside the
    whole dataset's CSV and sidecar."""
    write_adapted_dataset(subset_runs(small_dataset, [1, 2, 3, 4]), tmp_path / "subset")
    write_adapted_dataset(small_dataset, tmp_path)
    os.replace(tmp_path / "subset" / ADAPTED_MIRROR_NAME, tmp_path / ADAPTED_MIRROR_NAME)
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        loaded = read_adapted_dataset(tmp_path)
    assert loadtxt.call_count == 1
    _assert_same_bits(loaded, small_dataset)


def test_read_refuses_a_dataset_of_another_digest(tmp_path, small_dataset):
    written = write_adapted_dataset(small_dataset, tmp_path)
    other = "0" * 64
    with pytest.raises(ValueError) as err:
        read_adapted_dataset(tmp_path, expected_digest=other)
    assert str(err.value) == (f"{tmp_path / ADAPTED_CSV_NAME} and {ADAPTED_META_NAME} hash to "
                              f"dataset digest {written['digest']}, not the expected {other}")


@pytest.mark.parametrize(("text", "message"), [
    (lambda header: header, "no rows after the header"),
    (lambda header: header + "\n\n", "no rows after the header"),
    (lambda header: header.replace("cycle,segment_id", "segment_id,cycle") + "\n1,2,3",
     "the header line is not the adapted-dataset header"),
    (lambda header: "", "the header line is not the adapted-dataset header"),
], ids=["header_only", "blank_rows", "swapped_columns", "empty"])
def test_read_refuses_a_csv_without_rows_or_with_another_header(tmp_path, small_dataset, text,
                                                                message):
    write_adapted_dataset(small_dataset, tmp_path)
    path = tmp_path / ADAPTED_CSV_NAME
    header = path.read_text(encoding="utf-8").split("\n", 1)[0] + "\n"
    path.write_text(text(header), encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_adapted_dataset(tmp_path)
    assert str(err.value) == f"{path}: {message}"


def test_a_mirror_short_of_rows_is_refused(tmp_path, small_dataset):
    """A mirror of the right digest and payload hash, but written from one
    row fewer, leaves the last run short."""
    written = write_adapted_dataset(small_dataset, tmp_path)
    *runs, last = small_dataset.runs
    short = replace(small_dataset, runs=[*runs, replace(last, channels=last.channels[:-1])])
    with open(tmp_path / ADAPTED_MIRROR_NAME, "wb") as f:
        adaptation._write_mirror(short, written["digest"], f)
    with pytest.raises(ValueError, match=f"^engine {last.engine_id}: {ADAPTED_MIRROR_NAME} has "
                                         f"{last.length - 1} cycles, metadata says {last.length}$"):
        read_adapted_dataset(tmp_path)
