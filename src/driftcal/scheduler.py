"""Replay adapted runs under calibration policies and count outcomes.

Every drift segment is an independent job. Its trigger cycles are the
cycles before its ground-truth crossing (through its last cycle when it
has none) at which the policy wants to calibrate: for the fixed policy
every cycle from ``start + period - 1`` on, for the predictive and
quantile policies every cycle from the scorer's ``start_cycle`` on whose
score is <= the margin. The replay sweeps, in ascending order, the cycles
at which some job triggers or crosses. At each one, every open job that
crosses scores one violation plus one corrective calibration; then the
open jobs that trigger there are granted, and each granted job closes with
a preventive calibration (the adapted data's next segment is the
post-reset trajectory). Both action kinds count toward n_cal.

Capacity changes only which triggers are granted: without it, all of
them; with capacity K, the most urgent K per planning window. A job not
granted stays open and asks again at its next trigger cycle.

The scorer must score every cycle from its ``start_cycle`` up to each
segment's crossing, including cycles after the segment's trigger fires.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .adaptation import AdaptedDataset, Segment
from .labeling import compute_ttd

POLICY_KINDS = ("reactive", "fixed", "predictive", "quantile")

EVENT_PREVENTIVE = "preventive_cal"
EVENT_VIOLATION = "violation"
EVENT_CORRECTIVE = "corrective_cal"


class SimulationError(ValueError):
    """The replay hit an unusable input (e.g. a missing score)."""


@dataclass(frozen=True)
class PolicySpec:
    kind: str
    margin: int = 5  # predictive/quantile lead time m
    period: int | None = None  # fixed-policy interval P
    quantile_level: float = 0.1

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.margin < 0:
            raise ValueError(f"margin must be >= 0, got {self.margin}")
        if self.kind == "fixed":
            if self.period is None or self.period < 1:
                raise ValueError(f"fixed policy needs period >= 1, got {self.period}")


@dataclass(frozen=True)
class CostSpec:
    c_cal: float = 1.0
    c_vio: float = 5.0

    def __post_init__(self):
        if self.c_cal < 0 or self.c_vio < 0:
            raise ValueError("costs must be >= 0")


@dataclass(frozen=True)
class CapacitySpec:
    k: int
    window_width: int = 10

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"capacity K must be >= 1, got {self.k}")
        if self.window_width < 1:
            raise ValueError(f"window_width must be >= 1, got {self.window_width}")


@dataclass(frozen=True)
class SimEvent:
    engine_id: int
    cycle: int
    event: str
    score: float | None = None  # trigger score; None for reactive/fixed/corrective


@dataclass
class PolicyOutcome:
    policy: str
    n_cal: int
    n_vio: int
    cost: float
    events: list[SimEvent] = field(default_factory=list)


def total_cost(n_cal: int, n_vio: int, costs: CostSpec) -> float:
    if n_cal < 0 or n_vio < 0:
        raise ValueError("counts must be >= 0")
    return costs.c_cal * n_cal + costs.c_vio * n_vio


def rank_by_urgency(candidates, k: int):
    """Candidates are (instrument id, score, ...) tuples. Smallest scores
    first, ties broken by ascending instrument id; returns the first
    min(k, n) candidates."""
    if k < 1:
        raise ValueError(f"K must be >= 1, got {k}")
    ordered = sorted(candidates, key=lambda c: (c[1], c[0]))
    return ordered[:k]


@dataclass(frozen=True)
class CycleScorer:
    """Decision scores keyed by (engine_id, cycle).

    Scores exist from ``start_cycle`` onward (forecasters need a full
    window); before that, policies simply cannot trigger. ``simulate``
    reads every cycle from ``start_cycle`` up to each segment's crossing
    (through the segment's last cycle when it has none), also after the
    segment's trigger fires; a missing score raises SimulationError.
    """

    scores: dict[tuple[int, int], float]
    start_cycle: int = 1

    def __call__(self, engine_id: int, cycle: int) -> float:
        key = (engine_id, cycle)
        if key not in self.scores:
            raise SimulationError(f"no score for engine {engine_id} at cycle {cycle}")
        return self.scores[key]


def oracle_scorer(dataset: AdaptedDataset) -> CycleScorer:
    """Ground-truth cycles-to-next-crossing; +inf where no crossing remains.

    The +inf convention keeps perfect foresight from calibrating in
    crossing-free final segments, where countdown labels measure distance
    to the end of the run rather than real drift.
    """
    scores: dict[tuple[int, int], float] = {}
    for run in dataset.runs:
        ttd = compute_ttd(run).values
        for seg in run.segments:
            cycles = np.arange(seg.start, seg.end + 1)
            last = 0 if seg.crossing is None else seg.crossing
            values = np.where(cycles > last, math.inf, ttd[seg.start - 1 : seg.end])
            scores.update(zip([(run.engine_id, t) for t in cycles.tolist()], values.tolist()))
    return CycleScorer(scores=scores, start_cycle=1)


def _trigger_cycles(engine_id: int, seg: Segment, scorer: CycleScorer | None, policy: PolicySpec):
    """(cycle, score) at each of the segment's trigger cycles (module docstring)."""
    last = seg.end if seg.crossing is None else seg.crossing - 1
    if policy.kind == "fixed":  # ranks with score 0.0
        return [(t, 0.0) for t in range(seg.start + policy.period - 1, last + 1)]
    if policy.kind == "reactive":
        return []
    first = max(seg.start, scorer.start_cycle)
    scored = [(t, scorer(engine_id, t)) for t in range(first, last + 1)]
    return [(t, score) for t, score in scored if score <= policy.margin]


def simulate(
    dataset: AdaptedDataset,
    scorer: CycleScorer | None,
    policy: PolicySpec,
    costs: CostSpec = CostSpec(),
    capacity: CapacitySpec | None = None,
) -> PolicyOutcome:
    """Replay every run in the dataset under one policy, as segment jobs
    numbered in ``dataset.runs`` order; a run's segments do not overlap, so
    at every cycle job order is run order. Only preventive calibrations are
    capacity-limited."""
    if policy.kind in ("predictive", "quantile") and scorer is None:
        raise SimulationError(f"{policy.kind} policy requires a scorer")
    engines: list[int] = []  # engine id of each job
    # cycle -> (jobs crossing there, (job, score) of each job triggering there)
    agenda: defaultdict[int, tuple[list, list]] = defaultdict(lambda: ([], []))
    for run in dataset.runs:
        for seg in run.segments:
            job = len(engines)
            engines.append(run.engine_id)
            if seg.crossing is not None:
                agenda[seg.crossing][0].append(job)
            for t, score in _trigger_cycles(run.engine_id, seg, scorer, policy):
                agenda[t][1].append((job, score))
    closed: set[int] = set()
    events: list[SimEvent] = []
    window_id, budget = None, 0
    for t in sorted(agenda):
        crossing, triggering = agenda[t]
        for job in crossing:
            if job not in closed:
                closed.add(job)
                events += [SimEvent(engines[job], t, EVENT_VIOLATION),
                           SimEvent(engines[job], t, EVENT_CORRECTIVE)]
        due = [(job, score) for job, score in triggering if job not in closed]
        if capacity is not None and due:
            if (t - 1) // capacity.window_width != window_id:
                window_id, budget = (t - 1) // capacity.window_width, capacity.k
            k = min(budget, len(due))
            ranked = [(engines[job], score, job) for job, score in due]
            granted = {job for *_, job in rank_by_urgency(ranked, k)} if k else set()
            budget -= k
            due = [(job, score) for job, score in due if job in granted]
        for job, score in due:
            closed.add(job)
            logged = None if policy.kind == "fixed" else score
            events.append(SimEvent(engines[job], t, EVENT_PREVENTIVE, logged))

    n_vio = sum(ev.event == EVENT_VIOLATION for ev in events)
    n_cal = len(events) - n_vio
    return PolicyOutcome(policy=policy.kind, n_cal=n_cal, n_vio=n_vio,
                         cost=total_cost(n_cal, n_vio, costs), events=events)


def median_segment_length(dataset: AdaptedDataset) -> int:
    """Median drift-segment length in cycles; the default fixed period."""
    lengths = [seg.end - seg.start + 1 for run in dataset.runs for seg in run.segments]
    if not lengths:
        raise ValueError("dataset has no segments")
    return max(1, int(np.median(lengths)))
