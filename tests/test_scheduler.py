import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from driftcal.adaptation import AdaptedDataset, AdaptationConfig, AdaptedRun, Segment
from driftcal.cmapss_io import N_CHANNELS
from driftcal.scheduler import (
    POLICY_KINDS,
    CapacitySpec,
    CostSpec,
    CycleScorer,
    PolicySpec,
    SimulationError,
    median_segment_length,
    oracle_scorer,
    rank_by_urgency,
    simulate,
    total_cost,
)

from oracles import oracle_segment_replay, oracle_simulate


def _dataset(runs):
    return AdaptedDataset(
        split_tag="synthetic", runs=runs, seed=0, config=AdaptationConfig(), drift_sensors=(1,)
    )


def _run(engine_id, segments, length):
    return AdaptedRun(
        engine_id=engine_id,
        drift_sensors=(1,),
        thresholds=(),
        segments=tuple(segments),
        channels=np.zeros((length, N_CHANNELS)),
        reset_events=(),
    )


@pytest.fixture
def toy_dataset():
    """Three runs with a mix of crossing and crossing-free segments."""
    return _dataset(
        [
            _run(1, [Segment(1, 30, 30), Segment(31, 80, 70), Segment(81, 100, None)], 100),
            _run(2, [Segment(1, 50, 45), Segment(51, 90, 88)], 90),
            _run(3, [Segment(1, 60, None)], 60),
        ]
    )


def _crossing_segments(dataset):
    return sum(1 for run in dataset.runs for seg in run.segments if seg.crossing is not None)


# ---------------------------------------------------------------------------
# total_cost fixtures from the published policy tables
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "n_cal,n_vio,expected",
    [
        (289, 289, 1734.0),
        (417, 289, 1862.0),
        (743, 90, 1193.0),
        (2386, 26, 2516.0),
        (9075, 13, 9140.0),
        (9284, 11, 9339.0),
        (0, 0, 0.0),
    ],
)
def test_total_cost_reproduces_published_rows(n_cal, n_vio, expected):
    assert total_cost(n_cal, n_vio, CostSpec(c_cal=1.0, c_vio=5.0)) == expected


def test_total_cost_rejects_negative_counts():
    with pytest.raises(ValueError):
        total_cost(-1, 0, CostSpec())


# ---------------------------------------------------------------------------
# rank_by_urgency
# ---------------------------------------------------------------------------

def test_rank_smallest_scores_first():
    assert rank_by_urgency([("A", 5.0), ("B", 2.0), ("C", 9.0)], 2) == [("B", 2.0), ("A", 5.0)]


def test_rank_k_at_least_n_returns_all():
    cands = [("A", 3.0), ("B", 1.0)]
    assert rank_by_urgency(cands, 10) == [("B", 1.0), ("A", 3.0)]


def test_rank_tie_break_by_id():
    assert rank_by_urgency([("B", 3.0), ("A", 3.0)], 1) == [("A", 3.0)]


# ---------------------------------------------------------------------------
# reactive / fixed semantics
# ---------------------------------------------------------------------------

def test_reactive_identity(toy_dataset):
    outcome = simulate(toy_dataset, None, PolicySpec(kind="reactive"))
    v = _crossing_segments(toy_dataset)
    assert outcome.n_cal == outcome.n_vio == v
    assert outcome.cost == total_cost(v, v, CostSpec())


def test_fixed_policy_restores_and_counts(toy_dataset):
    outcome = simulate(toy_dataset, None, PolicySpec(kind="fixed", period=20))
    # engine 3 (60 crossing-free cycles) alone gets 3 periodic calibrations
    assert outcome.n_cal > outcome.n_vio
    assert outcome.cost == total_cost(outcome.n_cal, outcome.n_vio, CostSpec())
    # a fixed trigger before the first crossing prevents that violation
    assert outcome.n_vio < _crossing_segments(toy_dataset)


def test_fixed_policy_requires_period():
    with pytest.raises(ValueError):
        PolicySpec(kind="fixed")


# ---------------------------------------------------------------------------
# predictive / quantile semantics
# ---------------------------------------------------------------------------

def test_perfect_foresight_zero_violations(toy_dataset):
    scorer = oracle_scorer(toy_dataset)
    outcome = simulate(toy_dataset, scorer, PolicySpec(kind="predictive", margin=1))
    assert outcome.n_vio == 0
    assert outcome.n_cal == _crossing_segments(toy_dataset)
    # independent per-segment replay agrees
    cal, vio = oracle_segment_replay(toy_dataset, scorer, margin=1)
    assert (outcome.n_cal, outcome.n_vio) == (cal, vio)


def test_perfect_foresight_on_adapted_dataset(small_dataset):
    scorer = oracle_scorer(small_dataset)
    outcome = simulate(small_dataset, scorer, PolicySpec(kind="predictive", margin=1))
    assert outcome.n_vio == 0
    assert outcome.n_cal == _crossing_segments(small_dataset)


def test_margin_zero_cannot_prevent(toy_dataset):
    # the crossing is checked before the trigger, so score 0 arrives too late
    scorer = oracle_scorer(toy_dataset)
    outcome = simulate(toy_dataset, scorer, PolicySpec(kind="predictive", margin=0))
    assert outcome.n_vio == _crossing_segments(toy_dataset)


def test_margin_monotonicity(small_dataset):
    scorer = oracle_scorer(small_dataset)
    # add pessimistic noise so margins matter
    rng = np.random.default_rng(0)
    noisy = CycleScorer(
        scores={k: v + float(rng.integers(0, 6)) for k, v in scorer.scores.items()},
        start_cycle=1,
    )
    last = None
    for margin in (0, 1, 2, 4, 8, 16):
        outcome = simulate(small_dataset, noisy, PolicySpec(kind="predictive", margin=margin))
        if last is not None:
            assert outcome.n_vio <= last
        last = outcome.n_vio


def test_quantile_conservatism(toy_dataset):
    base = oracle_scorer(toy_dataset)
    point = CycleScorer({k: v + 3 for k, v in base.scores.items()}, start_cycle=1)
    q10 = CycleScorer({k: v + 1 for k, v in base.scores.items()}, start_cycle=1)
    m = 5
    vio_point = simulate(toy_dataset, point, PolicySpec(kind="predictive", margin=m)).n_vio
    vio_q10 = simulate(toy_dataset, q10, PolicySpec(kind="quantile", margin=m)).n_vio
    assert vio_q10 <= vio_point


def test_missing_score_names_engine_and_cycle(toy_dataset):
    scorer = CycleScorer(scores={}, start_cycle=1)
    with pytest.raises(SimulationError, match=r"engine 1 at cycle 1"):
        simulate(toy_dataset, scorer, PolicySpec(kind="predictive", margin=5))


def test_scores_not_required_before_start_cycle(toy_dataset):
    # scores only exist from cycle 40 on; earlier cycles must not error
    scorer = oracle_scorer(toy_dataset)
    late = CycleScorer(
        scores={k: v for k, v in scorer.scores.items() if k[1] >= 40}, start_cycle=40
    )
    outcome = simulate(toy_dataset, late, PolicySpec(kind="predictive", margin=1))
    # engine 1 crossing at 30 is now unavoidable; engine 2 at 45 is preventable
    assert outcome.n_vio == 1


def test_missing_score_after_trigger_names_engine_and_cycle(toy_dataset):
    # engine 2 triggers at cycle 1, yet the replay reads its scores up to
    # the crossing at 45
    scores = dict(oracle_scorer(toy_dataset).scores)
    del scores[(2, 30)]
    with pytest.raises(SimulationError, match=r"engine 2 at cycle 30"):
        simulate(toy_dataset, CycleScorer(scores, start_cycle=1),
                 PolicySpec(kind="predictive", margin=50))


def test_predictive_requires_scorer(toy_dataset):
    with pytest.raises(SimulationError):
        simulate(toy_dataset, None, PolicySpec(kind="predictive", margin=5))


def test_cost_identity_holds_everywhere(toy_dataset):
    scorer = oracle_scorer(toy_dataset)
    costs = CostSpec(c_cal=2.0, c_vio=7.0)
    for policy in (
        PolicySpec(kind="reactive"),
        PolicySpec(kind="fixed", period=15),
        PolicySpec(kind="predictive", margin=3),
    ):
        outcome = simulate(toy_dataset, scorer, policy, costs)
        assert outcome.cost == total_cost(outcome.n_cal, outcome.n_vio, costs)
        assert outcome.n_vio <= _crossing_segments(toy_dataset)


def test_event_log_structure(toy_dataset):
    scorer = oracle_scorer(toy_dataset)
    outcome = simulate(toy_dataset, scorer, PolicySpec(kind="predictive", margin=1))
    kinds = {ev.event for ev in outcome.events}
    assert kinds == {"preventive_cal"}
    assert all(ev.score is not None and ev.score <= 1 for ev in outcome.events)
    reactive = simulate(toy_dataset, None, PolicySpec(kind="reactive"))
    assert {ev.event for ev in reactive.events} == {"violation", "corrective_cal"}
    assert all(ev.score is None for ev in reactive.events)
    # ordered by cycle
    cycles = [ev.cycle for ev in reactive.events]
    assert cycles == sorted(cycles)


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------

def test_capacity_bounds_preventive_calibrations_per_window():
    # many runs all trigger immediately: capacity must spread them out
    runs = [_run(e, [Segment(1, 50, 40)], 50) for e in range(1, 7)]
    dataset = _dataset(runs)
    scorer = oracle_scorer(dataset)
    cap = CapacitySpec(k=2, window_width=10)
    outcome = simulate(
        dataset, scorer, PolicySpec(kind="predictive", margin=50), capacity=cap
    )
    per_window: dict[int, int] = {}
    for ev in outcome.events:
        if ev.event == "preventive_cal":
            per_window[(ev.cycle - 1) // 10] = per_window.get((ev.cycle - 1) // 10, 0) + 1
    assert per_window and max(per_window.values()) <= 2
    assert outcome.n_vio == 0  # deferred runs are serviced in later windows


def test_capacity_defers_by_urgency():
    runs = [
        _run(1, [Segment(1, 50, 20)], 50),
        _run(2, [Segment(1, 50, 12)], 50),
    ]
    dataset = _dataset(runs)
    scorer = oracle_scorer(dataset)
    cap = CapacitySpec(k=1, window_width=100)
    outcome = simulate(
        dataset, scorer, PolicySpec(kind="predictive", margin=50), capacity=cap
    )
    serviced = [ev for ev in outcome.events if ev.event == "preventive_cal"]
    # the most urgent run (earlier crossing) is serviced; the other violates
    assert serviced[0].engine_id == 2
    assert outcome.n_vio == 1


def test_median_segment_length(toy_dataset):
    lengths = sorted(
        seg.end - seg.start + 1 for run in toy_dataset.runs for seg in run.segments
    )
    assert median_segment_length(toy_dataset) == int(np.median(lengths))


# ---------------------------------------------------------------------------
# segment jobs against the global-clock replay
# ---------------------------------------------------------------------------

SCORES = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 4.5, 5.0, 7.0, 9.0, math.inf])


@st.composite
def replay_cases(draw):
    """Runs in shuffled engine order with crossing-free middle segments and
    crossings on a segment's first cycle; a scorer with ties, inf scores
    and a late start; any policy, with or without capacity."""
    n_runs = draw(st.integers(1, 8))
    start_cycle = draw(st.integers(1, 25))
    runs, scores = [], {}
    for engine_id in draw(st.permutations(range(1, n_runs + 1))):
        segments, start = [], 1
        for n in draw(st.lists(st.integers(1, 15), min_size=1, max_size=4)):
            end = start + n - 1
            segments.append(Segment(start, end, draw(st.none() | st.integers(start, end))))
            start = end + 1
        runs.append(_run(engine_id, segments, start - 1))
        cycles = range(start_cycle, start)
        values = draw(st.lists(SCORES, min_size=len(cycles), max_size=len(cycles)))
        scores.update({(engine_id, t): v for t, v in zip(cycles, values)})
    kind = draw(st.sampled_from(POLICY_KINDS))
    policy = PolicySpec(kind=kind, margin=draw(st.integers(0, 7)),
                        period=draw(st.integers(1, 39)) if kind == "fixed" else None)
    capacity = draw(st.none() | st.builds(CapacitySpec, k=st.integers(1, 3),
                                          window_width=st.integers(1, 14)))
    return _dataset(runs), CycleScorer(scores, start_cycle=start_cycle), policy, capacity


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(replay_cases())
def test_segment_jobs_equal_global_clock_replay(case):
    dataset, scorer, policy, capacity = case
    costs = CostSpec(c_cal=1.0, c_vio=5.0)
    got = simulate(dataset, scorer, policy, costs, capacity)
    want = oracle_simulate(dataset, scorer, policy, costs, capacity)
    assert got.events == want.events
    assert (got.n_cal, got.n_vio, got.cost) == (want.n_cal, want.n_vio, want.cost)
