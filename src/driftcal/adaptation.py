"""Turn run-to-failure trajectories into calibration surrogates.

Drift-sensitive sensors are ranked by rank correlation with operating
cycle, each run gets per-sensor virtual thresholds placed inside its
baseline-to-tail span, and synthetic reset events split the run into
repeated drift segments that emulate recalibration.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import warnings
from dataclasses import asdict, dataclass, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .cmapss_io import CHANNEL_NAMES, N_CHANNELS, N_SENSORS, SensorTrajectory, sensor_column
from .util import canonical_json, derive_rng, float_row_format, sha256_file

NOISE_RESET = "noise-reset"
STITCH_RESET = "stitch-reset"

ADAPTED_CSV_NAME = "adapted.csv"
ADAPTED_META_NAME = "adapted_meta.json"
ADAPTED_MIRROR_NAME = "adapted_channels.bin"
_CSV_HEADER = ",".join(
    ["engine_id", "cycle", "segment_id", "reset_flag", "reset_kind", *CHANNEL_NAMES]
).encode("utf-8") + b"\n"
_MIRROR_MAGIC = b"driftcal-adapted-channels v1\n"


class AdaptationError(ValueError):
    """Adaptation cannot proceed on the given inputs."""


class DegenerateSpanError(AdaptationError):
    """Baseline-to-tail span too small to place a threshold."""


@dataclass(frozen=True)
class AdaptationConfig:
    """Every setting of the adaptation step: sensor ranking, thresholds and resets."""

    top_k: int = 3
    max_resets: int = 3
    fraction_low: float = 0.55
    fraction_high: float = 0.80
    noise_sigma_frac: float = 0.02
    stitch_low: float = 0.95
    stitch_high: float = 1.05
    noise_reset_prob: float = 0.5

    def __post_init__(self):
        f_high, s_high = self.fraction_high, self.stitch_high
        for name, ok, rule in (
            ("top_k", 1 <= self.top_k <= N_SENSORS, f"in 1..{N_SENSORS}"),
            ("max_resets", self.max_resets >= 0, ">= 0"),
            ("fraction_high", 0 < f_high < 1, "in (0, 1)"),
            ("fraction_low", 0 < self.fraction_low <= f_high, f"in (0, fraction_high = {f_high}]"),
            ("stitch_high", 0 < s_high < math.inf, "finite and > 0"),
            ("stitch_low", 0 < self.stitch_low <= s_high, f"in (0, stitch_high = {s_high}]"),
            ("noise_sigma_frac", 0 <= self.noise_sigma_frac < math.inf, "finite and >= 0"),
            ("noise_reset_prob", 0 <= self.noise_reset_prob <= 1, "in [0, 1]"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")


# ---------------------------------------------------------------------------
# Spearman rank correlation
# ---------------------------------------------------------------------------

def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks down each column of values, (n,) or (n, k), with ties
    replaced by the group's average rank; NaNs rank last, each on its own."""
    n = len(values)
    order = np.argsort(values, axis=0, kind="stable")
    ordered = np.take_along_axis(values, order, axis=0)
    # flat positions, column after column, of the first and last (inclusive)
    # sorted value of each run of equal values; every column starts a run
    new_run = np.ones(ordered.shape, dtype=bool)
    new_run[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(new_run.T)
    ends = np.append(starts[1:], new_run.size) - 1
    by_order = np.repeat(0.5 * (starts % n + ends % n) + 1.0, ends - starts + 1)
    ranks = np.empty(values.shape, dtype=np.float64)
    np.put_along_axis(ranks, order, by_order.reshape(new_run.T.shape).T, axis=0)
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

    def top(self, k: int) -> tuple[int, ...]:
        return tuple(sensor_id for sensor_id, _ in self.entries[:k])


def rank_drift_sensors(trajs: list[SensorTrajectory]) -> DriftSensorRanking:
    """Score each sensor by the per-engine mean of |spearman_rho(series, cycle)|.

    Ties in score break toward the smaller sensor id.
    """
    if not trajs:
        raise AdaptationError("need at least one trajectory to rank sensors")
    sensors = slice(sensor_column(1), sensor_column(N_SENSORS) + 1)
    scores = np.zeros(N_SENSORS, dtype=np.float64)
    for traj in trajs:
        # centered ranks of the cycle index, then of each sensor: multiples
        # of 1/2, so every sum of their products is exact in any order, and
        # the scores equal spearman_rho's bit for bit
        mid = (traj.length + 1) / 2.0
        centered = np.column_stack((np.arange(1.0, traj.length + 1) - mid,
                                    _average_ranks(traj.channels[:, sensors]) - mid))
        gram = centered.T @ centered
        cross, variances, cycle_variance = gram[0, 1:], np.diag(gram)[1:], gram[0, 0]
        rho = np.zeros(N_SENSORS)
        varies = variances != 0.0
        rho[varies] = cross[varies] / np.sqrt(variances[varies] * cycle_variance)
        scores += np.abs(rho)
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


def make_threshold(
    sensor_series,
    rng: np.random.Generator,
    sensor_id: int = 0,
    config: AdaptationConfig = AdaptationConfig(),
) -> ThresholdSpec:
    """Place a threshold inside the baseline-to-tail span of one series.

    Baseline is the mean of the first 10 cycles, tail the mean of the last 5;
    the fraction is drawn uniformly from the config's fraction_low..fraction_high.
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
    fraction = float(rng.uniform(config.fraction_low, config.fraction_high))
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
    thresholds: list[ThresholdSpec] | tuple[ThresholdSpec, ...],
    donors: list[SensorTrajectory],
    rng: np.random.Generator,
    config: AdaptationConfig = AdaptationConfig(),
) -> AdaptedRun:
    """Scan a run for threshold crossings and splice in recalibration events.

    At each crossing, if the reset budget is not exhausted, the drift
    sensors restart at the next cycle: either re-seeded near baseline with
    noise and re-drifted along the run's own early-life trend, or replaced
    by a scaled early-life slice of a donor engine. Non-drift channels are
    never touched. The final segment keeps its crossing (if any) and runs
    to the end of the trajectory. The drift sensors are the thresholds'
    sensor ids, in order.
    """
    specs = tuple(thresholds)
    if not specs:
        raise AdaptationError(f"engine {traj.engine_id}: empty drift sensor set")

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
        if len(resets) >= config.max_resets or crossing >= length:
            segments.append(Segment(start=start, end=length, crossing=crossing))
            break
        segments.append(Segment(start=start, end=crossing, crossing=crossing))
        reset_row = crossing  # 0-based row of cycle crossing+1
        remaining = length - crossing
        # stitch a donor's early life, unless the draw says noise, there is
        # no donor, or the drawn donor is too short
        if (rng.uniform() >= config.noise_reset_prob and donors
                and (donor := donors[int(rng.integers(len(donors)))]).length >= remaining):
            kind = STITCH_RESET
            factor = float(rng.uniform(config.stitch_low, config.stitch_high))
            for spec in specs:
                col = sensor_column(spec.sensor_id)
                channels[reset_row:, col] = donor.channels[:remaining, col] * factor
        else:
            kind = NOISE_RESET
            for spec in specs:
                col = sensor_column(spec.sensor_id)
                sigma = config.noise_sigma_frac * abs(spec.tail - spec.baseline)
                trend = traj.channels[:remaining, col]
                noise = rng.normal(0.0, sigma, size=remaining)
                channels[reset_row:, col] = trend - trend[0] + spec.baseline + noise
        resets.append(ResetEvent(cycle=crossing + 1, kind=kind))
        start = crossing + 1

    return AdaptedRun(
        engine_id=traj.engine_id,
        drift_sensors=tuple(spec.sensor_id for spec in specs),
        thresholds=specs,
        segments=tuple(segments),
        channels=channels,
        reset_events=tuple(resets),
    )


# ---------------------------------------------------------------------------
# Dataset-level adaptation
# ---------------------------------------------------------------------------

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
    selected = rank_drift_sensors(trajs).top(config.top_k)

    runs = []
    for traj in trajs:
        rng = derive_rng(seed, traj.engine_id)
        thresholds = []
        for sensor_id in selected:
            try:
                thresholds.append(make_threshold(traj.sensor(sensor_id), rng, sensor_id, config))
            except DegenerateSpanError:
                continue  # sensor uninformative for this run
        if not thresholds:
            raise AdaptationError(
                f"engine {traj.engine_id}: all selected sensors have degenerate spans"
            )
        donors = [d for d in trajs if d.engine_id != traj.engine_id]
        runs.append(synthesize_resets(traj, thresholds, donors, rng, config))
    return AdaptedDataset(
        split_tag=split_tag, runs=runs, seed=seed, config=config, drift_sensors=selected
    )


def subset_runs(dataset: AdaptedDataset, engine_ids) -> AdaptedDataset:
    wanted = set(engine_ids)
    return replace(dataset, runs=[r for r in dataset.runs if r.engine_id in wanted])


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------

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


def _run_rows(run: AdaptedRun) -> bytes:
    """One run's CSV rows, each ending in "\n", as UTF-8."""
    row = "%d,%d,%d,%s,%s," + float_row_format(N_CHANNELS) + "\n"
    reset_cycles = {ev.cycle: ev.kind for ev in run.reset_events}
    rows = zip(run.segment_ids().tolist(), run.channels.tolist())
    lines = []
    for cycle, (seg_id, values) in enumerate(rows, start=1):
        kind = reset_cycles.get(cycle, "")
        lines.append(row % (run.engine_id, cycle, seg_id, "1" if kind else "0", kind, *values))
    return "".join(lines).encode("utf-8")


def _serialize(dataset: AdaptedDataset, meta: bytes, csv_file=None) -> str:
    """SHA-256 of ``meta`` (the sidecar's bytes) followed by the CSV's bytes.

    The CSV is formatted one run at a time; each run's bytes are hashed, and
    written to the binary ``csv_file`` when one is given, before the next
    run is formatted. So the bytes written are the bytes hashed, and memory
    holds one run's text, not the file's.
    """
    digest = hashlib.sha256(meta)
    for chunk in chain([_CSV_HEADER], map(_run_rows, dataset.runs)):
        digest.update(chunk)
        if csv_file is not None:
            csv_file.write(chunk)
    return digest.hexdigest()


def _meta_bytes(dataset: AdaptedDataset) -> bytes:
    """The sidecar's bytes: canonical metadata JSON and a newline."""
    return (canonical_json(_metadata_dict(dataset)) + "\n").encode("utf-8")


def dataset_digest(dataset: AdaptedDataset) -> str:
    """Content hash of the canonical serialization (metadata + CSV)."""
    return _serialize(dataset, _meta_bytes(dataset))


def _mirror_rows(run: AdaptedRun) -> np.ndarray:
    """One run's channels as little-endian float64 rows, a copy only when
    they are not already."""
    return np.ascontiguousarray(run.channels, dtype="<f8")


def _write_mirror(dataset: AdaptedDataset, digest: str, f) -> None:
    """The binary mirror of the channel matrix: a magic line, a JSON header
    line (the dataset digest, rows, columns and the payload's sha256), then
    every run's rows. The payload is hashed, then written, one run at a time."""
    payload = hashlib.sha256()
    for run in dataset.runs:
        payload.update(_mirror_rows(run))
    header = {"dataset_digest": digest, "rows": sum(run.length for run in dataset.runs),
              "columns": N_CHANNELS, "payload_sha256": payload.hexdigest()}
    f.write(_MIRROR_MAGIC + canonical_json(header).encode("utf-8") + b"\n")
    for run in dataset.runs:
        f.write(_mirror_rows(run))


def write_adapted_dataset(dataset: AdaptedDataset, out_dir: str | Path) -> dict:
    """Write canonical CSV + metadata sidecar + binary channel mirror;
    returns paths and digest.

    The CSV and the sidecar define the dataset and its digest; the mirror
    only spares ``read_adapted_dataset`` the CSV parse. All three files are
    written under temporary names in ``out_dir`` and moved into place once
    complete, so a failure part-way leaves any earlier files as they were.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / ADAPTED_CSV_NAME
    meta_path = out_dir / ADAPTED_META_NAME
    mirror_path = out_dir / ADAPTED_MIRROR_NAME
    meta = _meta_bytes(dataset)
    staged = {path: out_dir / f".{path.name}.{os.urandom(8).hex()}.tmp"
              for path in (csv_path, meta_path, mirror_path)}
    try:
        with open(staged[csv_path], "xb") as f:
            digest = _serialize(dataset, meta, f)
        with open(staged[meta_path], "xb") as f:
            f.write(meta)
        with open(staged[mirror_path], "xb") as f:
            _write_mirror(dataset, digest, f)
        for path, tmp in staged.items():
            os.replace(tmp, path)
    finally:
        for tmp in staged.values():
            tmp.unlink(missing_ok=True)
    return {"csv": str(csv_path), "metadata": str(meta_path), "digest": digest}


def _read_mirror(path: Path, digest: str) -> np.ndarray | None:
    """The (rows, columns) channel matrix of the mirror at ``path``, or None
    when there is no mirror, it was written for another dataset digest, or
    its payload is not the one its header hashes (a truncated or edited file)."""
    try:
        with open(path, "rb") as f:
            if f.readline() != _MIRROR_MAGIC:
                return None
            header = json.loads(f.readline())
            shape = (header["rows"], header["columns"])
            size = 8 * shape[0] * shape[1]
            if (header["dataset_digest"] != digest or shape[1] != N_CHANNELS
                    or os.fstat(f.fileno()).st_size - f.tell() != size):
                return None
            channels = np.fromfile(f, dtype="<f8", count=size // 8)
    except (OSError, ValueError, KeyError, TypeError):
        return None
    if hashlib.sha256(channels).hexdigest() != header["payload_sha256"]:
        return None
    return channels.astype(np.float64, copy=False).reshape(shape)


def _parse_csv(path: Path) -> np.ndarray:
    """Every column of the adapted CSV at ``path`` but the reset_kind text
    (column 4): engine_id, cycle, segment_id, reset_flag, then the channels."""
    with open(path, encoding="utf-8") as f:
        if f.readline() != _CSV_HEADER.decode("utf-8"):
            raise ValueError(f"{path}: the header line is not the adapted-dataset header")
        with warnings.catch_warnings():
            # a file of the header alone is refused below, not warned about
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(f, delimiter=",", usecols=[0, 1, 2, 3, *range(5, 5 + N_CHANNELS)],
                               ndmin=2)
    if not len(table):
        raise ValueError(f"{path}: no rows after the header")
    return table


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


def read_adapted_dataset(out_dir: str | Path, expected_digest: str | None = None
                         ) -> AdaptedDataset:
    """The dataset ``write_adapted_dataset`` wrote to ``out_dir``.

    The sidecar's bytes and then the CSV's, hashed as they are read, give
    the dataset digest. The channels come from the binary mirror when it
    was written for that digest and its payload is intact; otherwise (a
    directory without a mirror, or a CSV edited after the write) from
    parsing the CSV, whose key columns must agree with the metadata. When
    ``expected_digest`` is given, a dataset of another digest raises
    ValueError.
    """
    out_dir = Path(out_dir)
    meta_path, csv_path = out_dir / ADAPTED_META_NAME, out_dir / ADAPTED_CSV_NAME
    meta_bytes = meta_path.read_bytes()
    try:
        meta = json.loads(meta_bytes.decode("utf-8"))
    except ValueError as exc:  # a JSONDecodeError or UnicodeDecodeError
        raise ValueError(f"{meta_path} is malformed: {type(exc).__name__}: {exc}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{meta_path} is malformed: not a JSON object")
    if meta.get("format") != "driftcal-adapted v1":
        raise ValueError(f"unsupported adapted-dataset format: {meta.get('format')!r}")
    digest = sha256_file(csv_path, prefix=meta_bytes)

    table = None
    all_channels = _read_mirror(out_dir / ADAPTED_MIRROR_NAME, digest)
    if all_channels is None:
        table = _parse_csv(csv_path)
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

    try:
        runs, stop = [], 0
        for entry in meta["runs"]:
            engine_id = entry["engine_id"]
            if table is None:  # the mirror holds the runs in the metadata's order
                start, stop = stop, stop + entry["length"]
            elif engine_id not in blocks:
                raise ValueError(f"engine {engine_id}: no rows in {ADAPTED_CSV_NAME}")
            else:
                start, stop = blocks[engine_id]
            channels = all_channels[start:stop]
            if len(channels) != entry["length"]:
                raise ValueError(
                    f"engine {engine_id}: {'CSV' if table is not None else ADAPTED_MIRROR_NAME} "
                    f"has {len(channels)} cycles, metadata says {entry['length']}"
                )
            run = AdaptedRun(
                engine_id=engine_id,
                drift_sensors=tuple(entry["drift_sensors"]),
                thresholds=tuple(ThresholdSpec(**t) for t in entry["thresholds"]),
                segments=tuple(
                    Segment(start=s[0], end=s[1], crossing=s[2]) for s in entry["segments"]
                ),
                channels=channels,
                reset_events=tuple(
                    ResetEvent(cycle=e[0], kind=e[1]) for e in entry["reset_events"]
                ),
            )
            if table is not None:
                _check_key_columns(run, table[start:stop])
            runs.append(run)
        dataset = AdaptedDataset(
            split_tag=meta["split_tag"],
            runs=runs,
            seed=meta["seed"],
            config=AdaptationConfig(**meta["config"]),
            drift_sensors=tuple(meta["drift_sensors"]),
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"{meta_path} is malformed: {type(exc).__name__}: {exc}") from exc
    if expected_digest is not None and digest != expected_digest:
        raise ValueError(f"{csv_path} and {meta_path.name} hash to dataset digest {digest}, "
                         f"not the expected {expected_digest}")
    return dataset
