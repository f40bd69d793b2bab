"""Readers, writers, and schema checks for C-MAPSS-format trajectory files.

The on-disk format is whitespace-separated numeric text with 26 columns per
row: engine id, cycle, 3 operating settings, 21 sensor channels. Rows are
grouped per engine and each engine's cycles must run 1..L with no gaps.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .util import float_row_format, fmt_float

N_SETTINGS = 3
N_SENSORS = 21
N_CHANNELS = N_SETTINGS + N_SENSORS
N_COLUMNS = 2 + N_CHANNELS

CHANNEL_NAMES: tuple[str, ...] = tuple(
    [f"op_setting_{i}" for i in range(1, N_SETTINGS + 1)]
    + [f"sensor_{i}" for i in range(1, N_SENSORS + 1)]
)
COLUMN_NAMES: tuple[str, ...] = ("engine_id", "cycle") + CHANNEL_NAMES


class SchemaError(ValueError):
    """Input violates the 26-column trajectory schema."""


@dataclass(frozen=True)
class SensorTrajectory:
    """One engine's run: row t-1 holds the channel vector for cycle t."""

    engine_id: int
    channels: np.ndarray  # (length, 24) float64
    channel_names: tuple[str, ...] = field(default=CHANNEL_NAMES, repr=False)

    def __post_init__(self):
        if self.channels.ndim != 2 or self.channels.shape[1] != N_CHANNELS:
            raise SchemaError(
                f"engine {self.engine_id}: expected (length, {N_CHANNELS}) channels, "
                f"got {self.channels.shape}"
            )
        if self.channels.shape[0] < 2:
            raise SchemaError(f"engine {self.engine_id}: trajectory shorter than 2 cycles")

    @property
    def length(self) -> int:
        return self.channels.shape[0]

    def sensor(self, sensor_id: int) -> np.ndarray:
        """Series for sensor_1..sensor_21 by 1-based sensor id."""
        if not 1 <= sensor_id <= N_SENSORS:
            raise ValueError(f"sensor_id must be in 1..{N_SENSORS}, got {sensor_id}")
        return self.channels[:, N_SETTINGS + sensor_id - 1]


def sensor_column(sensor_id: int) -> int:
    """Channel-matrix column index for a 1-based sensor id."""
    if not 1 <= sensor_id <= N_SENSORS:
        raise ValueError(f"sensor_id must be in 1..{N_SENSORS}, got {sensor_id}")
    return N_SETTINGS + sensor_id - 1


def _as_lines(text) -> list[str]:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    if isinstance(text, str):
        return text.splitlines()
    if isinstance(text, io.IOBase):
        return _as_lines(text.read())
    return [str(line) for line in text]


def parse_trajectories(text) -> list[SensorTrajectory]:
    """Parse C-MAPSS text into trajectories, in first-appearance engine order.

    Accepts a str, bytes, open file, or iterable of lines. Spaces and tabs
    both separate columns; blank lines are ignored.
    """
    per_engine: dict[int, list[tuple[int, list[float]]]] = {}
    for lineno, line in enumerate(_as_lines(text), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != N_COLUMNS:
            raise SchemaError(f"line {lineno}: expected {N_COLUMNS} columns, got {len(parts)}")
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise SchemaError(f"line {lineno}: non-numeric value ({exc})") from None
        engine_f, cycle_f = values[0], values[1]
        if engine_f != int(engine_f) or engine_f < 1:
            raise SchemaError(f"line {lineno}: engine_id must be a positive integer, got {parts[0]}")
        if cycle_f != int(cycle_f) or cycle_f < 1:
            raise SchemaError(f"line {lineno}: cycle must be a positive integer, got {parts[1]}")
        per_engine.setdefault(int(engine_f), []).append((int(cycle_f), values[2:]))

    trajectories = []
    for engine_id, rows in per_engine.items():
        rows.sort(key=lambda r: r[0])
        cycles = [c for c, _ in rows]
        if cycles != list(range(1, len(cycles) + 1)):
            raise SchemaError(
                f"engine {engine_id}: cycles are not contiguous 1..{len(cycles)} "
                f"(first mismatch near cycle {next(c for i, c in enumerate(cycles) if c != i + 1)})"
            )
        channels = np.array([vals for _, vals in rows], dtype=np.float64)
        trajectories.append(SensorTrajectory(engine_id=engine_id, channels=channels))
    return trajectories


def load_trajectories(path: str | Path) -> list[SensorTrajectory]:
    with open(path, "r", encoding="utf-8") as f:
        return parse_trajectories(f.read())


def serialize_trajectories(trajs: list[SensorTrajectory]) -> str:
    """Back to 26-column text. Values round-trip bit-for-bit through parse."""
    row = "%d %d " + float_row_format(N_CHANNELS, " ")
    lines = [
        row % (traj.engine_id, cycle, *values)
        for traj in trajs
        for cycle, values in enumerate(traj.channels.tolist(), start=1)
    ]
    return "\n".join(lines) + "\n"


def trajectories_to_csv(trajs: list[SensorTrajectory]) -> str:
    """Normalized CSV dump with a header naming all 26 columns."""
    lines = [",".join(COLUMN_NAMES)]
    for traj in trajs:
        for t in range(traj.length):
            fields = [str(traj.engine_id), str(t + 1)]
            fields.extend(fmt_float(v) for v in traj.channels[t])
            lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


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
