"""Readers, writers, and schema checks for C-MAPSS-format trajectory files.

The on-disk format is whitespace-separated numeric text with 26 columns per
row: engine id, cycle, 3 operating settings, 21 sensor channels. Rows are
grouped per engine and each engine's cycles must run 1..L with no gaps.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .util import float_row_format

N_SETTINGS = 3
N_SENSORS = 21
N_CHANNELS = N_SETTINGS + N_SENSORS
N_COLUMNS = 2 + N_CHANNELS
BLOCK_SIZE = 1 << 20  # characters (bytes, for bytes input) of text split into lines at a time

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


def _ids_are_positive_integers(table: np.ndarray) -> bool:
    """The table has 26 columns and every engine_id and cycle is a positive integer."""
    ids = table[:, :2]
    return table.shape[1] == N_COLUMNS and bool(
        np.all(np.isfinite(ids)) and np.all(ids == np.trunc(ids)) and np.all(ids >= 1)
    )


def _blocks(text: str | bytes, newline: str | bytes) -> Iterator[str | bytes]:
    """text in blocks of about BLOCK_SIZE, each cut just after a newline."""
    start = 0
    while start < len(text):
        stop = text.find(newline, start + BLOCK_SIZE - 1) + 1 or len(text)
        yield text[start:stop]
        start = stop


def _parse_blocks(blocks: Iterable[str], whole: Callable[[], str]) -> list[SensorTrajectory]:
    """Trajectories from text given as blocks that each end just after a
    "\n", so that splitting every block splits the lines as the whole text
    splits; ``whole()`` gives the entire text.

    One np.loadtxt call parses every line, one block's lines at a time. Only
    when it fails, or an engine_id or cycle is not a positive integer, does
    the line scan of ``whole()`` run, to name the first bad line.
    """
    blocks = iter(blocks)
    try:
        first = next((block for block in blocks if not block.isspace()), None)
        if first is None:
            return []
        lines = (line for block in chain([first], blocks) for line in block.splitlines())
        table = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:  # a line loadtxt cannot read, or bytes that are not UTF-8
        table = None
    if table is None or not _ids_are_positive_integers(table):
        table = _scan_lines(whole().splitlines())
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


def parse_trajectories(text: str | bytes) -> list[SensorTrajectory]:
    """Parse C-MAPSS text (str, or UTF-8 bytes) into trajectories, in
    first-appearance engine order. Spaces and tabs both separate columns;
    blank lines are ignored.

    The text is split into lines a block at a time; bytes are decoded a
    block at a time too (a b"\n" never falls inside a UTF-8 sequence).
    """
    if isinstance(text, bytes):
        return _parse_blocks((block.decode("utf-8") for block in _blocks(text, b"\n")),
                             lambda: text.decode("utf-8"))
    return _parse_blocks(_blocks(text, "\n"), lambda: text)


def load_trajectories(path: str | Path) -> list[SensorTrajectory]:
    """Parse a C-MAPSS file, read a block at a time."""
    with open(path, "r", encoding="utf-8") as f:
        blocks = iter(lambda: f.read(BLOCK_SIZE) + f.readline(), "")
        return _parse_blocks(blocks, lambda: Path(path).read_text(encoding="utf-8"))


def serialize_trajectories(trajs: list[SensorTrajectory]) -> str:
    """Back to 26-column text. Values round-trip bit-for-bit through parse."""
    row = "%d %d " + float_row_format(N_CHANNELS, " ")
    lines = [
        row % (traj.engine_id, cycle, *values)
        for traj in trajs
        for cycle, values in enumerate(traj.channels.tolist(), start=1)
    ]
    return "\n".join(lines) + "\n"
