"""Readers, writers, and schema checks for C-MAPSS-format trajectory files.

The on-disk format is whitespace-separated numeric text with 26 columns per
row: engine id, cycle, 3 operating settings, 21 sensor channels. Rows are
grouped per engine and each engine's cycles must run 1..L with no gaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .util import float_row_format

N_SETTINGS = 3
N_SENSORS = 21
N_CHANNELS = N_SETTINGS + N_SENSORS
N_COLUMNS = 2 + N_CHANNELS

CHANNEL_NAMES: tuple[str, ...] = tuple(
    [f"op_setting_{i}" for i in range(1, N_SETTINGS + 1)]
    + [f"sensor_{i}" for i in range(1, N_SENSORS + 1)]
)


class SchemaError(ValueError):
    """Input violates the 26-column trajectory schema."""


@dataclass(frozen=True)
class SensorTrajectory:
    """One engine's run: row t-1 holds the channel vector for cycle t."""

    engine_id: int
    channels: np.ndarray  # (length, 24) float64

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
        return self.channels[:, sensor_column(sensor_id)]


def sensor_column(sensor_id: int) -> int:
    """Channel-matrix column index for a 1-based sensor id."""
    if not 1 <= sensor_id <= N_SENSORS:
        raise ValueError(f"sensor_id must be in 1..{N_SENSORS}, got {sensor_id}")
    return N_SETTINGS + sensor_id - 1


def _scan_lines(lines: list[str]) -> np.ndarray:
    """Line-by-line parse and schema check; the first bad line raises a
    SchemaError that names it. Returns the (rows, 26) values."""
    rows = []
    for lineno, line in enumerate(lines, start=1):
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
        rows.append(values)
    return np.array(rows, dtype=np.float64).reshape(-1, N_COLUMNS)


def _numeric_table(lines: list[str]) -> np.ndarray:
    """(rows, 26) values of the non-blank lines, schema-checked.

    One np.loadtxt call parses every line. Only when it fails, or an
    engine_id or cycle is not a positive integer, does the line scan run, to
    name the first bad line.
    """
    try:
        table = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return _scan_lines(lines)
    ids = table[:, :2]
    if table.shape[1] != N_COLUMNS or not (
        np.all(np.isfinite(ids)) and np.all(ids == np.trunc(ids)) and np.all(ids >= 1)
    ):
        return _scan_lines(lines)
    return table


def parse_trajectories(text: str | bytes) -> list[SensorTrajectory]:
    """Parse C-MAPSS text (str, or UTF-8 bytes) into trajectories, in
    first-appearance engine order. Spaces and tabs both separate columns;
    blank lines are ignored.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = text.splitlines()
    if not any(line.strip() for line in lines):
        return []
    table = _numeric_table(lines)
    _, first_row, inverse = np.unique(table[:, 0], return_index=True, return_inverse=True)
    # rows by the engine's first row (first-appearance order), then by cycle;
    # lexsort is stable, so repeated cycles keep their file order
    order = np.lexsort((table[:, 1], first_row[inverse]))
    engine_col, cycles = table[order, 0], table[order, 1]
    channels = table[order, 2:]
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
