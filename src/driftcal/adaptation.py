"""Turn run-to-failure trajectories into calibration surrogates.

Drift-sensitive sensors are ranked by rank correlation with operating
cycle, each run gets per-sensor virtual thresholds placed inside its
baseline-to-tail span, and synthetic reset events split the run into
repeated drift segments that emulate recalibration.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .cmapss_io import CHANNEL_NAMES, N_CHANNELS, N_SENSORS, SensorTrajectory, sensor_column
from .util import canonical_json, derive_rng, float_row_format, sha256_bytes

SPEARMAN_METHOD = "spearman-vs-cycle"
NOISE_RESET = "noise-reset"
STITCH_RESET = "stitch-reset"

ADAPTED_CSV_NAME = "adapted.csv"
ADAPTED_META_NAME = "adapted_meta.json"


class AdaptationError(ValueError):
    """Adaptation cannot proceed on the given inputs."""


class DegenerateSpanError(AdaptationError):
    """Baseline-to-tail span too small to place a threshold."""


# ---------------------------------------------------------------------------
# Spearman rank correlation
# ---------------------------------------------------------------------------

def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties replaced by the group's average rank."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    # sorted positions start..end (inclusive) of each run of equal values
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], len(values)) - 1
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def spearman_rho(a, b) -> float:
    """Rank correlation: Pearson correlation of average-ranked values.

    Returns 0.0 when either series has zero rank variance (constant input).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"series must be equal-length 1-d, got {a.shape} and {b.shape}")
    if a.size < 2:
        raise ValueError(f"series length must be >= 2, got {a.size}")
    ra = _average_ranks(a) - (a.size + 1) / 2.0
    rb = _average_ranks(b) - (b.size + 1) / 2.0
    va = float(ra @ ra)
    vb = float(rb @ rb)
    if va == 0.0 or vb == 0.0:
        return 0.0
    return float((ra @ rb) / np.sqrt(va * vb))


@dataclass(frozen=True)
class DriftSensorRanking:
    """All 21 sensors ordered by mean |rho| against the cycle index."""

    entries: tuple[tuple[int, float], ...]  # (sensor_id, score), score descending
    method: str = SPEARMAN_METHOD

    def top(self, k: int) -> tuple[int, ...]:
        return tuple(sensor_id for sensor_id, _ in self.entries[:k])


def rank_drift_sensors(trajs: list[SensorTrajectory], top_k: int) -> DriftSensorRanking:
    """Score each sensor by the per-engine mean of |spearman_rho(series, cycle)|.

    Ties in score break toward the smaller sensor id.
    """
    if not trajs:
        raise AdaptationError("need at least one trajectory to rank sensors")
    if not 1 <= top_k <= N_SENSORS:
        raise AdaptationError(f"top_k must be in 1..{N_SENSORS}, got {top_k}")
    scores = np.zeros(N_SENSORS, dtype=np.float64)
    for traj in trajs:
        cycle = np.arange(1, traj.length + 1, dtype=np.float64)
        for sensor_id in range(1, N_SENSORS + 1):
            scores[sensor_id - 1] += abs(spearman_rho(traj.sensor(sensor_id), cycle))
    scores /= len(trajs)
    order = sorted(range(1, N_SENSORS + 1), key=lambda sid: (-scores[sid - 1], sid))
    entries = tuple((sid, float(scores[sid - 1])) for sid in order)
    return DriftSensorRanking(entries=entries)


# ---------------------------------------------------------------------------
# Virtual thresholds
# ---------------------------------------------------------------------------

BASELINE_CYCLES = 10
TAIL_CYCLES = 5
SPAN_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ThresholdSpec:
    """Virtual calibration limit for one sensor of one run."""

    sensor_id: int
    baseline: float
    tail: float
    fraction: float
    threshold: float
    direction: int  # +1 drifts upward, -1 downward

    def crossed(self, value: float) -> bool:
        if self.direction > 0:
            return value >= self.threshold
        return value <= self.threshold


def make_threshold(
    sensor_series,
    rng: np.random.Generator,
    sensor_id: int = 0,
    fraction_range: tuple[float, float] = (0.55, 0.80),
) -> ThresholdSpec:
    """Place a threshold inside the baseline-to-tail span of one series.

    Baseline is the mean of the first 10 cycles, tail the mean of the last 5;
    the fraction is drawn uniformly from ``fraction_range``.
    """
    series = np.asarray(sensor_series, dtype=np.float64)
    if series.ndim != 1 or series.size < 20:
        raise AdaptationError(f"series must be 1-d with length >= 20, got shape {series.shape}")
    baseline = float(series[:BASELINE_CYCLES].mean())
    tail = float(series[-TAIL_CYCLES:].mean())
    if abs(tail - baseline) < SPAN_TOLERANCE:
        raise DegenerateSpanError(
            f"sensor {sensor_id}: |tail - baseline| = {abs(tail - baseline):.3g} "
            f"below tolerance {SPAN_TOLERANCE:g}"
        )
    fraction = float(rng.uniform(*fraction_range))
    return ThresholdSpec(
        sensor_id=sensor_id,
        baseline=baseline,
        tail=tail,
        fraction=fraction,
        threshold=baseline + fraction * (tail - baseline),
        direction=1 if tail > baseline else -1,
    )


# ---------------------------------------------------------------------------
# Reset synthesis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Segment:
    """Maximal drift stretch: cycles start..end, inclusive, 1-based."""

    start: int
    end: int
    crossing: int | None  # first in-direction crossing, or None


@dataclass(frozen=True)
class ResetEvent:
    cycle: int  # first cycle of the post-reset segment
    kind: str  # NOISE_RESET or STITCH_RESET


@dataclass(frozen=True)
class AdaptedRun:
    engine_id: int
    drift_sensors: tuple[int, ...]
    thresholds: tuple[ThresholdSpec, ...]
    segments: tuple[Segment, ...]
    channels: np.ndarray  # (length, 24) adapted values
    reset_events: tuple[ResetEvent, ...]

    @property
    def length(self) -> int:
        return self.channels.shape[0]

    def sensor(self, sensor_id: int) -> np.ndarray:
        return self.channels[:, sensor_column(sensor_id)]

    def segment_ids(self) -> np.ndarray:
        """0-based segment index for every cycle, shape (length,)."""
        ids = np.empty(self.length, dtype=np.int64)
        for idx, seg in enumerate(self.segments):
            ids[seg.start - 1 : seg.end] = idx
        return ids


def _first_crossing(channels: np.ndarray, thresholds, start: int, end: int) -> int | None:
    """First cycle in [start, end] where any threshold is crossed in-direction."""
    block = channels[start - 1 : end]
    beyond = np.zeros(block.shape[0], dtype=bool)
    for spec in thresholds:
        col = block[:, sensor_column(spec.sensor_id)]
        if spec.direction > 0:
            beyond |= col >= spec.threshold
        else:
            beyond |= col <= spec.threshold
    hits = np.flatnonzero(beyond)
    if hits.size == 0:
        return None
    return start + int(hits[0])


def synthesize_resets(
    traj: SensorTrajectory,
    sensors: tuple[int, ...] | list[int],
    thresholds: list[ThresholdSpec] | tuple[ThresholdSpec, ...],
    donors: list[SensorTrajectory],
    rng: np.random.Generator,
    max_resets: int = 3,
    noise_sigma_frac: float = 0.02,
    stitch_range: tuple[float, float] = (0.95, 1.05),
    noise_reset_prob: float = 0.5,
) -> AdaptedRun:
    """Scan a run for threshold crossings and splice in recalibration events.

    At each crossing, if the reset budget is not exhausted, the drift
    sensors restart at the next cycle: either re-seeded near baseline with
    noise and re-drifted along the run's own early-life trend, or replaced
    by a scaled early-life slice of a donor engine. Non-drift channels are
    never touched. The final segment keeps its crossing (if any) and runs
    to the end of the trajectory.
    """
    sensors = tuple(sensors)
    if not sensors:
        raise AdaptationError(f"engine {traj.engine_id}: empty drift sensor set")
    by_id = {spec.sensor_id: spec for spec in thresholds}
    if set(by_id) != set(sensors):
        raise AdaptationError(
            f"engine {traj.engine_id}: thresholds cover {sorted(by_id)} "
            f"but drift sensors are {sorted(sensors)}"
        )
    specs = [by_id[s] for s in sensors]

    length = traj.length
    channels = traj.channels.copy()
    segments: list[Segment] = []
    resets: list[ResetEvent] = []
    start = 1
    while True:
        crossing = _first_crossing(channels, specs, start, length)
        if crossing is None:
            segments.append(Segment(start=start, end=length, crossing=None))
            break
        if len(resets) >= max_resets or crossing >= length:
            segments.append(Segment(start=start, end=length, crossing=crossing))
            break
        segments.append(Segment(start=start, end=crossing, crossing=crossing))
        reset_row = crossing  # 0-based row of cycle crossing+1
        remaining = length - crossing
        kind = NOISE_RESET
        if rng.uniform() >= noise_reset_prob:
            kind = STITCH_RESET
            if donors:
                donor = donors[int(rng.integers(len(donors)))]
                if donor.length < remaining:
                    kind = NOISE_RESET  # donor too short, fall back
            else:
                kind = NOISE_RESET
        if kind == STITCH_RESET:
            factor = float(rng.uniform(*stitch_range))
            for spec in specs:
                col = sensor_column(spec.sensor_id)
                channels[reset_row:, col] = donor.channels[:remaining, col] * factor
        else:
            for spec in specs:
                col = sensor_column(spec.sensor_id)
                sigma = noise_sigma_frac * abs(spec.tail - spec.baseline)
                trend = traj.channels[:remaining, col]
                noise = rng.normal(0.0, sigma, size=remaining)
                channels[reset_row:, col] = trend - trend[0] + spec.baseline + noise
        resets.append(ResetEvent(cycle=crossing + 1, kind=kind))
        start = crossing + 1

    return AdaptedRun(
        engine_id=traj.engine_id,
        drift_sensors=sensors,
        thresholds=tuple(specs),
        segments=tuple(segments),
        channels=channels,
        reset_events=tuple(resets),
    )


# ---------------------------------------------------------------------------
# Dataset-level adaptation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdaptationConfig:
    top_k: int = 3
    max_resets: int = 3
    fraction_low: float = 0.55
    fraction_high: float = 0.80
    noise_sigma_frac: float = 0.02
    stitch_low: float = 0.95
    stitch_high: float = 1.05
    noise_reset_prob: float = 0.5


@dataclass
class AdaptedDataset:
    split_tag: str
    runs: list[AdaptedRun]
    seed: int
    config: AdaptationConfig
    drift_sensors: tuple[int, ...] = ()  # split-level selection, ranking order


def adapt_dataset(
    trajs: list[SensorTrajectory],
    config: AdaptationConfig = AdaptationConfig(),
    seed: int = 0,
    split_tag: str = "synthetic",
) -> AdaptedDataset:
    """Adapt every run: rank sensors once, then threshold/reset each run
    with its own rng stream derived from (seed, engine_id)."""
    if not trajs:
        raise AdaptationError("cannot adapt an empty trajectory list")
    ranking = rank_drift_sensors(trajs, config.top_k)
    selected = ranking.top(config.top_k)
    fraction_range = (config.fraction_low, config.fraction_high)

    runs = []
    for traj in trajs:
        rng = derive_rng(seed, traj.engine_id)
        thresholds = []
        for sensor_id in selected:
            try:
                thresholds.append(
                    make_threshold(traj.sensor(sensor_id), rng, sensor_id, fraction_range)
                )
            except DegenerateSpanError:
                continue  # sensor uninformative for this run
        if not thresholds:
            raise AdaptationError(
                f"engine {traj.engine_id}: all selected sensors have degenerate spans"
            )
        donors = [d for d in trajs if d.engine_id != traj.engine_id]
        runs.append(
            synthesize_resets(
                traj,
                tuple(spec.sensor_id for spec in thresholds),
                thresholds,
                donors,
                rng,
                max_resets=config.max_resets,
                noise_sigma_frac=config.noise_sigma_frac,
                stitch_range=(config.stitch_low, config.stitch_high),
                noise_reset_prob=config.noise_reset_prob,
            )
        )
    return AdaptedDataset(
        split_tag=split_tag, runs=runs, seed=seed, config=config, drift_sensors=selected
    )


def subset_runs(dataset: AdaptedDataset, engine_ids) -> AdaptedDataset:
    wanted = set(engine_ids)
    return replace(dataset, runs=[r for r in dataset.runs if r.engine_id in wanted])


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------

def _adapted_csv(dataset: AdaptedDataset) -> str:
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


def _metadata_dict(dataset: AdaptedDataset) -> dict:
    return {
        "format": "driftcal-adapted v1",
        "split_tag": dataset.split_tag,
        "seed": dataset.seed,
        "config": asdict(dataset.config),
        "drift_sensors": list(dataset.drift_sensors),
        "runs": [
            {
                "engine_id": run.engine_id,
                "length": run.length,
                "drift_sensors": list(run.drift_sensors),
                "thresholds": [asdict(spec) for spec in run.thresholds],
                "segments": [
                    [seg.start, seg.end, seg.crossing] for seg in run.segments
                ],
                "reset_events": [[ev.cycle, ev.kind] for ev in run.reset_events],
            }
            for run in dataset.runs
        ],
    }


def dataset_digest(dataset: AdaptedDataset) -> str:
    """Content hash of the canonical serialization (metadata + CSV)."""
    meta = canonical_json(_metadata_dict(dataset))
    return sha256_bytes(meta.encode("utf-8") + b"\n" + _adapted_csv(dataset).encode("utf-8"))


def write_adapted_dataset(dataset: AdaptedDataset, out_dir: str | Path) -> dict:
    """Write canonical CSV + metadata sidecar; returns paths and digest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / ADAPTED_CSV_NAME
    meta_path = out_dir / ADAPTED_META_NAME
    csv_text = _adapted_csv(dataset)
    meta_text = canonical_json(_metadata_dict(dataset))
    csv_path.write_text(csv_text, encoding="utf-8")
    meta_path.write_text(meta_text + "\n", encoding="utf-8")
    digest = sha256_bytes(meta_text.encode("utf-8") + b"\n" + csv_text.encode("utf-8"))
    return {"csv": str(csv_path), "metadata": str(meta_path), "digest": digest}


def _check_key_columns(run: AdaptedRun, block: np.ndarray) -> None:
    """The CSV's cycle, segment_id and reset_flag columns must say what the
    metadata says; ``block`` holds the run's parsed rows."""
    cycles = np.arange(1, run.length + 1)
    expected = {
        "cycle": cycles,
        "segment_id": run.segment_ids(),
        "reset_flag": np.isin(cycles, [ev.cycle for ev in run.reset_events]),
    }
    for col, (name, want) in enumerate(expected.items(), start=1):
        bad = np.flatnonzero(block[:, col] != want)
        if bad.size:
            raise ValueError(
                f"engine {run.engine_id}: {ADAPTED_CSV_NAME} column {name!r} disagrees "
                f"with {ADAPTED_META_NAME} at row {int(bad[0]) + 1} of the run"
            )


def read_adapted_dataset(out_dir: str | Path) -> AdaptedDataset:
    out_dir = Path(out_dir)
    meta = json.loads((out_dir / ADAPTED_META_NAME).read_text(encoding="utf-8"))
    if meta.get("format") != "driftcal-adapted v1":
        raise ValueError(f"unsupported adapted-dataset format: {meta.get('format')!r}")

    # every column but the reset_kind text (column 4): engine_id, cycle,
    # segment_id, reset_flag, then the channels
    table = np.loadtxt(
        out_dir / ADAPTED_CSV_NAME,
        delimiter=",",
        skiprows=1,
        usecols=[0, 1, 2, 3, *range(5, 5 + N_CHANNELS)],
        ndmin=2,
        encoding="utf-8",
    )
    engines = table[:, 0]
    starts = np.flatnonzero(np.concatenate(([True], engines[1:] != engines[:-1])))
    stops = np.append(starts[1:], len(engines))
    blocks: dict[int, tuple[int, int]] = {}
    for start, stop in zip(starts.tolist(), stops.tolist()):
        engine_id = int(engines[start])
        if engine_id in blocks:
            raise ValueError(f"engine {engine_id}: {ADAPTED_CSV_NAME} rows are not contiguous")
        blocks[engine_id] = (start, stop)
    all_channels = np.ascontiguousarray(table[:, 4:])

    runs = []
    for entry in meta["runs"]:
        engine_id = entry["engine_id"]
        if engine_id not in blocks:
            raise ValueError(f"engine {engine_id}: no rows in {ADAPTED_CSV_NAME}")
        start, stop = blocks[engine_id]
        if stop - start != entry["length"]:
            raise ValueError(
                f"engine {engine_id}: CSV has {stop - start} cycles, "
                f"metadata says {entry['length']}"
            )
        run = AdaptedRun(
            engine_id=engine_id,
            drift_sensors=tuple(entry["drift_sensors"]),
            thresholds=tuple(ThresholdSpec(**t) for t in entry["thresholds"]),
            segments=tuple(
                Segment(start=s[0], end=s[1], crossing=s[2]) for s in entry["segments"]
            ),
            channels=all_channels[start:stop],
            reset_events=tuple(
                ResetEvent(cycle=e[0], kind=e[1]) for e in entry["reset_events"]
            ),
        )
        _check_key_columns(run, table[start:stop])
        runs.append(run)
    return AdaptedDataset(
        split_tag=meta["split_tag"],
        runs=runs,
        seed=meta["seed"],
        config=AdaptationConfig(**meta["config"]),
        drift_sensors=tuple(meta["drift_sensors"]),
    )
