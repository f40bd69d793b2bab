"""Output checks. A failed check marks its operation failed.

The references here do not use driftcal's code paths: time-to-drift labels
and policy replays are derived from the adapted runs' segments alone, and
digests and window counts are pinned per seed in ``pins.json`` (written by
``pin.py``). A run whose seed has no pin checks a pinned seed's outputs
instead, once and outside the passes (``pinned_reference``).

Every check reports under the label of the operation whose output it checks.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PINS = json.loads((Path(__file__).with_name("pins.json")).read_text(encoding="utf-8"))

# R^2 on a handful of validation engines is too noisy to be a floor: with the
# default workload's 5 validation engines, seed 10 gives -0.09 for a linear
# model that still beats the naive forecast by 16%.
MIN_ENGINES_FOR_R2 = 20


@dataclass(frozen=True)
class Run:
    engine_id: int
    length: int
    segments: tuple[tuple[int, int, int | None], ...]  # (start, end, crossing)


def runs_of(dataset) -> list[Run]:
    return [
        Run(r.engine_id, r.length, tuple((s.start, s.end, s.crossing) for s in r.segments))
        for r in dataset.runs
    ]


def runs_of_meta(meta: dict) -> list[Run]:
    """Runs from the adapted dataset's metadata file."""
    return [
        Run(r["engine_id"], r["length"], tuple(tuple(s) for s in r["segments"]))
        for r in meta["runs"]
    ]


def _ttd(run: Run) -> np.ndarray:
    values = np.zeros(run.length, dtype=np.int64)
    for start, end, crossing in run.segments:
        t = np.arange(start, end + 1)
        values[start - 1 : end] = end - t if crossing is None else np.maximum(crossing - t, 0)
    return values


def window_labels(runs: list[Run], split, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Labels of every stride-1 window (ends w..length) on each side of the split."""
    sides = []
    for engines in split:
        wanted = set(engines)
        parts = [_ttd(r)[w - 1 :] for r in runs if r.engine_id in wanted and r.length >= w]
        sides.append(np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64))
    return sides[0], sides[1]


def naive_mae(labels) -> float:
    """MAE on validation windows of forecasting the median training label."""
    train, val = labels
    return float(np.mean(np.abs(val - np.median(train))))


def _pin(workload: str, seed: int) -> dict | None:
    return PINS.get(workload, {}).get(str(seed))


def has_pin(workload: str, seed: int) -> bool:
    return _pin(workload, seed) is not None


def pinned_reference(p, label: str, workload: str, seed: int, got: dict) -> None:
    """Digest and window counts built for a pinned seed against its pin."""
    want = _pin(workload, seed)
    p.check(label, got == want, f"seed {seed}: {got} != pinned {want}")


def dataset_digest(p, label: str, workload: str, seed: int, digest: str) -> None:
    pin = _pin(workload, seed)
    p.counts["digest"] = digest
    p.counts["pinned"] = pin is not None
    if pin is not None:
        p.check(label, digest == pin["digest"],
                f"adapted digest {digest[:12]} != pinned {pin['digest'][:12]}")


def windows(p, label: str, workload: str, seed: int, labels, n_train: int | None,
            val_labels, train_labels=None) -> None:
    """Window counts against the segment-derived labels and the pin; label
    multisets where the program exposes them."""
    want_train, want_val = labels
    p.counts.update(train_windows=n_train, val_windows=len(val_labels))
    p.quality["val_mae_naive"] = naive_mae(labels)
    p.check(label, n_train == len(want_train) and len(val_labels) == len(want_val),
            f"windows {n_train}/{len(val_labels)} != {len(want_train)}/{len(want_val)} "
            "expected from the run lengths")
    pin = _pin(workload, seed)
    if pin is not None:
        p.check(label, (n_train, len(val_labels)) == (pin["train_windows"], pin["val_windows"]),
                f"windows {n_train}/{len(val_labels)} != pinned "
                f"{pin['train_windows']}/{pin['val_windows']}")
    for got, want in ((train_labels, want_train), (val_labels, want_val)):
        if got is not None and len(got) == len(want):
            p.check(label, np.array_equal(np.sort(np.asarray(got, dtype=np.float64)),
                                          np.sort(want.astype(np.float64))),
                    "window labels differ from time-to-drift derived from the segments")


def forecast(p, label: str, kind: str, mae: float, r2, yhat, labels, n_val_engines: int) -> None:
    yhat = np.asarray(yhat, dtype=np.float64)
    p.check(label, bool(np.all(np.isfinite(yhat))) and bool(np.all(yhat >= 0.0)),
            f"{kind}: non-finite or negative point forecasts")
    if kind != "linear":
        return
    naive = naive_mae(labels)
    p.check(label, mae < naive, f"linear MAE {mae:.3f} not below the naive {naive:.3f}")
    if n_val_engines >= MIN_ENGINES_FOR_R2:
        p.check(label, r2 is not None and r2 > 0.0, f"linear validation R^2 {r2} <= 0")


def scores(p, label: str, values) -> None:
    arr = np.fromiter(values, dtype=np.float64)
    p.check(label, bool(np.all(np.isfinite(arr))), "non-finite decision scores")


def quantiles(p, label: str, q: np.ndarray) -> None:
    ok = bool(np.all(np.isfinite(q))) and bool(np.all(np.diff(q, axis=1) >= 0.0))
    p.check(label, ok, "quantile forecasts non-finite or not ordered q10 <= q50 <= q90")


def fixed_period(runs: list[Run], train_engines) -> int:
    """Median training segment length: the fixed policy's default period."""
    wanted = set(train_engines)
    lengths = [e - s + 1 for r in runs if r.engine_id in wanted for s, e, _ in r.segments]
    return max(1, int(np.median(lengths)))


def _replay(runs: list[Run], val_engines, period: int | None) -> tuple[int, int]:
    """(n_cal, n_vio) of the reactive policy (period None) or the fixed one,
    segment by segment: a crossing on or before the trigger cycle is a
    violation, otherwise the segment ends in a preventive calibration."""
    wanted = set(val_engines)
    n_cal = n_vio = 0
    for run in runs:
        if run.engine_id not in wanted:
            continue
        for start, end, crossing in run.segments:
            trigger = math.inf if period is None else start + period - 1
            if crossing is not None and crossing <= trigger:
                n_cal += 1
                n_vio += 1
            elif trigger <= end:
                n_cal += 1
    return n_cal, n_vio


def policy_table(p, label_of, table: dict, runs, val_engines, period: int, costs,
                 capped: bool) -> None:
    """``label_of(kind)`` is the operation that produced the policy's row."""
    c_cal, c_vio = costs
    for kind in ("reactive", "fixed", "predictive", "quantile"):
        p.check(label_of(kind), kind in table, f"policy {kind} missing from the table")
    for kind, (n_cal, n_vio, cost) in table.items():
        p.check(label_of(kind), abs(cost - (c_cal * n_cal + c_vio * n_vio)) < 1e-9,
                f"{kind}: cost {cost} != c_cal*n_cal + c_vio*n_vio")
    expected = {"reactive": _replay(runs, val_engines, None)}
    if not capped:  # capacity defers fixed-period calibrations
        expected["fixed"] = _replay(runs, val_engines, period)
    for kind, want in expected.items():
        if kind in table:
            p.check(label_of(kind), table[kind][:2] == want,
                    f"{kind}: (n_cal, n_vio) {table[kind][:2]} != replay {want}")


def perfect_foresight(p, label: str, n_cal: int, n_vio: int, runs, val_engines) -> None:
    wanted = set(val_engines)
    crossings = sum(1 for r in runs if r.engine_id in wanted
                    for _, _, c in r.segments if c is not None)
    p.check(label, (n_cal, n_vio) == (crossings, 0),
            f"oracle scorer gave (n_cal, n_vio) ({n_cal}, {n_vio}) != ({crossings}, 0)")


# ---------------------------------------------------------------------------
# Command-line outputs
# ---------------------------------------------------------------------------

def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))


def read_table(path: Path, key: str = "model") -> dict[str, dict]:
    return {row[key]: row for row in _rows(path)}


def read_column(path: Path, column: str) -> list[str]:
    return [row[column] for row in _rows(path)]


def trained_windows(printed: str) -> int | None:
    match = re.search(r"trained \w+ on (\d+) windows", printed)
    return int(match.group(1)) if match else None
