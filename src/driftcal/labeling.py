"""Ground-truth TTD labels, sliding windows, engine-level splits, and
train-statistics-only standardization."""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .adaptation import AdaptedRun

STD_FLOOR = 1e-8
WINDOW_CHUNK = 1024  # windows gathered at a time when reading a whole set (7.9 MB of 40 x 24)


def window_chunks(n: int, chunk: int = WINDOW_CHUNK) -> list[slice]:
    """Row slices of ``chunk`` windows covering n in order; a tail under
    chunk // 2 joins the slice before. Per-slice products equal one
    product over all n bit for bit while each takes the same OpenBLAS kernel,
    never for a one-row slice (a dot product): the tail rule avoids those."""
    starts = range(0, max(n - chunk // 2 + 1, 1), chunk)
    return [slice(lo, hi) for lo, hi in zip(starts, [*starts[1:], n])]


def compute_ttd(run: AdaptedRun) -> np.ndarray:
    """Cycles until the next threshold crossing, for every cycle of an
    adapted run: an int64 array of shape (length,), >= 0.

    Within a segment crossing at c: c - t before the crossing, 0 at and
    after it. A crossing-free final segment counts down to 0 at the run's
    last cycle.
    """
    values = np.zeros(run.length, dtype=np.int64)
    for seg in run.segments:
        stop = seg.end if seg.crossing is None else seg.crossing
        values[seg.start - 1 : seg.end] = np.maximum(stop - np.arange(seg.start, seg.end + 1), 0)
    return values


# One window of a Windows set, as indexing and iteration give it
Window = namedtuple("Window", "features label engine_id end_cycle")
PER_WINDOW = ("start", "label", "engine_id", "end_cycle")


@dataclass(frozen=True)
class Windows:
    """Sliding windows over one channel matrix, in order.

    Window i is rows ``start[i] .. start[i] + w - 1`` of ``channels``; it
    ends at cycle ``end_cycle[i]`` of engine ``engine_id[i]`` and is
    labelled with the TTD at that cycle, stored as a float: the target every
    fit reads (``Window.label`` gives it as an int). No window is copied
    until ``take`` gathers a batch.
    """

    channels: np.ndarray  # (rows, d) float64
    w: int
    start: np.ndarray  # (n,) int64
    label: np.ndarray  # (n,) float64, whole numbers of cycles
    engine_id: np.ndarray  # (n,) int64, as is end_cycle
    end_cycle: np.ndarray

    def __len__(self) -> int:
        return len(self.start)

    @property
    def shape(self) -> tuple[int, int]:
        """(w, d) of every window."""
        return self.w, self.channels.shape[1]

    @cached_property
    def _by_start(self) -> np.ndarray:
        """(rows - w + 1, w, d) read-only view: entry r is the window starting at row r."""
        return sliding_window_view(self.channels, self.shape)[:, 0]

    def take(self, idx) -> np.ndarray:
        """Contiguous (k, w, d) copy of the windows an index array or slice selects."""
        return self._by_start[self.start[idx]]

    def subset(self, keep) -> Windows:
        """The windows a mask or index array selects, over the same channels."""
        return replace(self, **{name: getattr(self, name)[keep] for name in PER_WINDOW})

    def __getitem__(self, i: int) -> Window:
        """Window i, its features a read-only view of the channel matrix."""
        features = self.channels[self.start[i] : self.start[i] + self.w]
        features.flags.writeable = False
        return Window(features, *(int(getattr(self, name)[i]) for name in PER_WINDOW[1:]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def window_runs(runs, w: int = 40, stride: int = 1, allow_cross_reset: bool = True) -> Windows:
    """Windows ending at cycles w, w+stride, ... up to each run's length,
    run after run, over the runs' channels stacked in order.

    With allow_cross_reset=False, windows reaching back into an earlier
    segment are dropped. The first kept window with a non-finite cell
    raises ValueError.
    """
    if w < 1 or stride < 1:
        raise ValueError(f"w and stride must be >= 1, got w={w} stride={stride}")
    columns, offset = [], 0
    for run in runs:
        ends = np.arange(w, run.length + 1, stride)
        seg_ids = run.segment_ids()
        if not allow_cross_reset:
            ends = ends[seg_ids[ends - w] == seg_ids[ends - 1]]
        # n_bad[t]: non-finite rows among the first t cycles
        n_bad = np.concatenate(([0], np.cumsum(~np.isfinite(run.channels).all(axis=1))))
        bad = n_bad[ends] > n_bad[ends - w]
        if bad.any():
            cycle = ends[bad.argmax()]
            raise ValueError(f"engine {run.engine_id}: non-finite features at cycle {cycle}")
        columns.append((offset + ends - w, compute_ttd(run)[ends - 1],
                        np.full(len(ends), run.engine_id), ends))
        offset += run.length
    dtypes = (np.int64, np.float64, np.int64, np.int64)  # float labels are the fits' targets
    per_window = (np.concatenate(c).astype(t, copy=False) for c, t in zip(zip(*columns), dtypes))
    return Windows(np.concatenate([run.channels for run in runs]), w, *per_window)


@dataclass(frozen=True)
class SplitAssignment:
    train_engines: tuple[int, ...]
    val_engines: tuple[int, ...]


def split_engines(ids, fraction: float = 0.75, seed: int = 0) -> SplitAssignment:
    """Seeded engine-level split; round-half-up on fraction * n."""
    ids = sorted(set(int(i) for i in ids))
    if len(ids) < 2:
        raise ValueError(f"need at least 2 engines to split, got {len(ids)}")
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    n_train = int(math.floor(fraction * len(ids) + 0.5))
    if n_train == 0 or n_train == len(ids):
        raise ValueError(
            f"fraction {fraction} leaves an empty side for {len(ids)} engines"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ids))
    shuffled = [ids[i] for i in perm]
    return SplitAssignment(
        train_engines=tuple(sorted(shuffled[:n_train])),
        val_engines=tuple(sorted(shuffled[n_train:])),
    )


@dataclass(frozen=True)
class Standardizer:
    """Per-channel mean/std fitted on training windows only."""

    mean: np.ndarray  # (d,)
    std: np.ndarray  # (d,), floored at STD_FLOOR

    def transform(self, features: np.ndarray) -> np.ndarray:
        out = np.subtract(features, self.mean)  # divided in place: one copy of the features
        out /= self.std
        return out


def _carry_sum(total: np.ndarray | None, cells: np.ndarray) -> np.ndarray:
    """total plus the column sums of cells, added row by row after it.

    total is added into cells' first row in place (``total + row`` and
    ``row + total`` are the same float), so cells is overwritten.
    """
    if total is not None:
        cells[0] += total
    return np.add.reduce(cells, axis=0)


def fit_standardizer(train: Windows) -> Standardizer:
    """Statistics over all window cells per channel: numpy's mean and std
    over the (n * w, d) stack of the windows, computed chunk by chunk.

    numpy sums the rows of a stack of more than one column in order, so
    sums that carry their running total into the next chunk equal the
    whole-stack sums bit for bit. This relies on d >= 2 (the schema has 24
    channels): numpy sums a single column pairwise.
    """
    if not train:
        raise ValueError("cannot fit a standardizer on an empty window set")
    chunks = window_chunks(len(train))
    n_cells, d = len(train) * train.w, train.shape[1]
    first = train.channels[train.start[0]]
    total, squares, varies = None, None, np.zeros(d, dtype=bool)
    for rows in chunks:
        cells = train.take(rows).reshape(-1, d)
        varies |= (cells != first).any(axis=0)
        total = _carry_sum(total, cells)
    mean = total / n_cells
    for rows in chunks:
        cells = train.take(rows).reshape(-1, d)
        cells -= mean
        squares = _carry_sum(squares, np.square(cells, out=cells))
    std = np.maximum(np.sqrt(squares / n_cells), STD_FLOOR)
    # exactly-constant channels transform to exactly zero, not mean-roundoff/1e-8
    mean[~varies] = first[~varies]
    return Standardizer(mean=mean, std=std)
