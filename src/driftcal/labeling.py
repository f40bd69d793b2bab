"""Ground-truth TTD labels, sliding windows, engine-level splits, and
train-statistics-only standardization."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adaptation import AdaptedRun

STD_FLOOR = 1e-8


@dataclass(frozen=True)
class TtdSeries:
    """Cycles until the next threshold crossing, one value per cycle."""

    engine_id: int
    values: np.ndarray  # (length,) int64, >= 0


def compute_ttd(run: AdaptedRun) -> TtdSeries:
    """Label every cycle of an adapted run.

    Within a segment crossing at c: c - t before the crossing, 0 at and
    after it. A crossing-free final segment counts down to 0 at the run's
    last cycle.
    """
    values = np.zeros(run.length, dtype=np.int64)
    for seg in run.segments:
        if seg.crossing is None:
            for t in range(seg.start, seg.end + 1):
                values[t - 1] = seg.end - t
        else:
            for t in range(seg.start, seg.end + 1):
                values[t - 1] = max(seg.crossing - t, 0)
    return TtdSeries(engine_id=run.engine_id, values=values)


@dataclass(frozen=True)
class LabeledWindow:
    features: np.ndarray  # (w, d) float64
    label: int
    engine_id: int
    segment_id: int
    end_cycle: int


def iter_windows(
    run: AdaptedRun,
    ttd: TtdSeries,
    w: int = 40,
    stride: int = 1,
    allow_cross_reset: bool = True,
):
    """Yield windows ending at cycles w, w+stride, ... up to the run length.

    With allow_cross_reset=False, windows reaching back into an earlier
    segment are dropped.
    """
    if w < 1 or stride < 1:
        raise ValueError(f"w and stride must be >= 1, got w={w} stride={stride}")
    seg_ids = run.segment_ids()
    for end in range(w, run.length + 1, stride):
        start = end - w + 1
        segment_id = int(seg_ids[end - 1])
        if not allow_cross_reset and seg_ids[start - 1] != segment_id:
            continue
        features = run.channels[start - 1 : end]
        if not np.all(np.isfinite(features)):
            raise ValueError(f"engine {run.engine_id}: non-finite features at cycle {end}")
        yield LabeledWindow(
            features=features.copy(),
            label=int(ttd.values[end - 1]),
            engine_id=run.engine_id,
            segment_id=segment_id,
            end_cycle=end,
        )


def make_windows(run, ttd, w: int = 40, stride: int = 1, allow_cross_reset: bool = True):
    return list(iter_windows(run, ttd, w=w, stride=stride, allow_cross_reset=allow_cross_reset))


@dataclass(frozen=True)
class SplitAssignment:
    train_engines: tuple[int, ...]
    val_engines: tuple[int, ...]
    fraction: float
    seed: int


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
        fraction=fraction,
        seed=seed,
    )


@dataclass(frozen=True)
class Standardizer:
    """Per-channel mean/std fitted on training windows only."""

    mean: np.ndarray  # (d,)
    std: np.ndarray  # (d,), floored at STD_FLOOR

    @property
    def n_channels(self) -> int:
        return self.mean.shape[0]

    def transform(self, features: np.ndarray) -> np.ndarray:
        return (features - self.mean) / self.std


def fit_standardizer(train_windows) -> Standardizer:
    """Statistics over all window cells per channel."""
    if not train_windows:
        raise ValueError("cannot fit a standardizer on an empty window set")
    stacked = np.concatenate([win.features for win in train_windows], axis=0)
    mean = stacked.mean(axis=0)
    std = np.maximum(stacked.std(axis=0), STD_FLOOR)
    # exactly-constant channels transform to exactly zero, not mean-roundoff/1e-8
    constant = stacked.min(axis=0) == stacked.max(axis=0)
    mean[constant] = stacked[0, constant]
    return Standardizer(mean=mean, std=std)


def apply_standardizer(std: Standardizer, windows) -> list[LabeledWindow]:
    """Transformed copies; the input windows and stats are untouched."""
    return [
        LabeledWindow(
            features=std.transform(win.features),
            label=win.label,
            engine_id=win.engine_id,
            segment_id=win.segment_id,
            end_cycle=win.end_cycle,
        )
        for win in windows
    ]
