"""Acceptance suite: every shipped criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion. Criterion 9 needs the real FD001 train file and is skipped
when it is not supplied.
"""

import time

import numpy as np
import pytest

from driftcal.adaptation import (
    AdaptationConfig,
    adapt_dataset,
    dataset_digest,
    rank_drift_sensors,
    spearman_rho,
)
from driftcal.cmapss_io import load_trajectories
from driftcal.labeling import split_engines
from driftcal.models import TrainConfig, save_model, train_attention
from driftcal.models.attention import attention_loss_and_grads, init_attention_params
from driftcal.models.quantile import init_quantile_params, quantile_loss_and_grads
from driftcal.pipeline import (
    evaluate_forecaster,
    forecast_scorer,
    label_and_window,
    train_forecaster,
    validation_subset,
)
from driftcal.scheduler import CostSpec, PolicySpec, oracle_scorer, simulate, total_cost
from driftcal.synthetic import synthetic_trajectories

from conftest import fd001_train_path
from oracles import (
    central_difference_gradients,
    fit_quantile_constants,
    flatten_params,
    max_relative_error,
    oracle_segment_replay,
    oracle_spearman,
    oracle_ttd_labels,
    unflatten_params,
)


def _record(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {status} - {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc}{suffix}"


# ---------------------------------------------------------------------------
# 1. cost-identity fixtures
# ---------------------------------------------------------------------------

def test_criterion_01_cost_identities():
    costs = CostSpec(c_cal=1.0, c_vio=5.0)
    fixtures = [
        (289, 289, 1734.0),
        (417, 289, 1862.0),
        (743, 90, 1193.0),
        (2386, 26, 2516.0),
        (9075, 13, 9140.0),
        (9284, 11, 9339.0),
    ]
    ok = all(total_cost(cal, vio, costs) == expected for cal, vio, expected in fixtures)
    _record(1, "total_cost reproduces all published policy-table rows exactly", ok)


# ---------------------------------------------------------------------------
# 2. perfect foresight
# ---------------------------------------------------------------------------

def test_criterion_02_perfect_foresight(default_dataset):
    start = time.perf_counter()
    scorer = oracle_scorer(default_dataset)
    outcome = simulate(default_dataset, scorer, PolicySpec(kind="predictive", margin=1))
    crossings = sum(
        1 for run in default_dataset.runs for seg in run.segments if seg.crossing is not None
    )
    oracle_cal, oracle_vio = oracle_segment_replay(default_dataset, scorer, margin=1)
    elapsed = time.perf_counter() - start
    ok = (
        outcome.n_vio == 0
        and outcome.n_cal == crossings
        and (outcome.n_cal, outcome.n_vio) == (oracle_cal, oracle_vio)
        and elapsed < 10.0
    )
    _record(
        2,
        "oracle scorer with m=1 prevents every crossing (vs brute-force replay)",
        ok,
        f"n_cal={outcome.n_cal} crossings={crossings} {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. TTD label oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_03_ttd_oracle_equivalence():
    start = time.perf_counter()
    from driftcal.labeling import compute_ttd

    n_runs = 0
    exact = True
    for seed in range(10):
        trajs = synthetic_trajectories(n_engines=20, seed=600 + seed, length_range=(60, 110))
        dataset = adapt_dataset(trajs, AdaptationConfig(), seed=seed)
        for run in dataset.runs:
            n_runs += 1
            if not np.array_equal(compute_ttd(run), oracle_ttd_labels(run)):
                exact = False
    elapsed = time.perf_counter() - start
    ok = exact and n_runs >= 200 and elapsed < 10.0
    _record(
        3,
        "TTD labels equal the forward-scan oracle at every cycle",
        ok,
        f"{n_runs} runs {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. Spearman oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_04_spearman_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    for i in range(1000):
        n = int(rng.integers(2, 9))
        if i % 3 == 0:
            a = rng.integers(0, 5, size=n).astype(float)  # ties
        else:
            a = rng.normal(size=n)
        b = rng.normal(size=n) if i % 2 else rng.integers(0, 4, size=n).astype(float)
        worst = max(worst, abs(spearman_rho(a, b) - oracle_spearman(a, b)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    _record(
        4,
        "spearman_rho matches rank-then-Pearson oracle on 1000 random pairs",
        ok,
        f"max |diff|={worst:.2e} {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. gradient checks
# ---------------------------------------------------------------------------

def test_criterion_05_gradient_checks():
    start = time.perf_counter()
    rng = np.random.default_rng(55)

    att_params = init_attention_params(rng, 3, 8, 2, 1)
    X = rng.normal(size=(4, 6, 3))
    y = rng.normal(loc=5.0, scale=3.0, size=4)
    _, analytic = attention_loss_and_grads(X, y, att_params, 2, "mean", 1.0)

    def att_loss(flat):
        loss, _ = attention_loss_and_grads(
            X, y, unflatten_params(flat, att_params), 2, "mean", 1.0
        )
        return loss

    att_err = max_relative_error(
        flatten_params(analytic),
        central_difference_gradients(att_loss, flatten_params(att_params), step=1e-5),
    )

    q_params = init_quantile_params(rng, 6, 8)
    Xq = rng.normal(size=(8, 6))
    yq = rng.normal(loc=5.0, scale=4.0, size=8)
    _, q_analytic = quantile_loss_and_grads(Xq, yq, q_params)

    def q_loss(flat):
        loss, _ = quantile_loss_and_grads(Xq, yq, unflatten_params(flat, q_params))
        return loss

    q_err = max_relative_error(
        flatten_params(q_analytic),
        central_difference_gradients(q_loss, flatten_params(q_params), step=1e-5),
    )

    elapsed = time.perf_counter() - start
    ok = att_err <= 1e-4 and q_err <= 1e-4 and elapsed < 60.0
    _record(
        5,
        "attention and quantile analytic gradients match central differences",
        ok,
        f"attention={att_err:.2e} quantile={q_err:.2e} {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. quantile optimality
# ---------------------------------------------------------------------------

def test_criterion_06_quantile_optimality():
    start = time.perf_counter()
    labels = np.arange(1.0, 101.0)
    constants = fit_quantile_constants(labels, (0.1, 0.5, 0.9))
    targets = [np.quantile(labels, q) for q in (0.1, 0.5, 0.9)]
    deviations = [abs(c - t) for c, t in zip(constants, targets)]
    elapsed = time.perf_counter() - start
    ok = all(d <= 2.0 for d in deviations) and elapsed < 60.0
    _record(
        6,
        "constant-only pinball training lands within +/-2 of empirical quantiles",
        ok,
        "constants=" + ",".join(f"{c:.2f}" for c in constants) + f" {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 7. leak-freedom and determinism
# ---------------------------------------------------------------------------

def test_criterion_07_leak_freedom_and_determinism(tmp_path):
    start = time.perf_counter()
    ids = list(range(1, 101))
    disjoint = True
    for seed in range(100):
        split = split_engines(ids, fraction=0.75, seed=seed)
        if set(split.train_engines) & set(split.val_engines):
            disjoint = False
        if sorted(split.train_engines + split.val_engines) != ids:
            disjoint = False

    trajs = synthetic_trajectories(n_engines=6, seed=77, length_range=(80, 120))
    dig_a = dataset_digest(adapt_dataset(trajs, AdaptationConfig(), seed=7))
    dig_b = dataset_digest(adapt_dataset(trajs, AdaptationConfig(), seed=7))

    dataset = adapt_dataset(trajs, AdaptationConfig(), seed=7)
    bundle = label_and_window(dataset, w=30, seed=7)
    cfg = TrainConfig(
        max_epochs=2, batch_size=64, base_lr=3e-4, warmup_steps=10, patience=6,
        seed=7, d_model=16, heads=2, layers=1,
    )
    model_a, _ = train_attention(bundle.train_std, bundle.val_std, cfg)
    model_b, _ = train_attention(bundle.train_std, bundle.val_std, cfg)
    save_model(model_a, tmp_path / "a.bin")
    save_model(model_b, tmp_path / "b.bin")
    identical = (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    elapsed = time.perf_counter() - start
    ok = disjoint and dig_a == dig_b and identical and elapsed < 30.0
    _record(
        7,
        "splits stay disjoint over 100 seeds; adapt digest and attention model "
        "files reproduce byte-identically",
        ok,
        f"{elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 8. policy trend (seed-dependent, majority of 3)
# ---------------------------------------------------------------------------

def test_criterion_08_policy_trend():
    start = time.perf_counter()
    seeds = (31, 32, 33)
    passes = []
    details = []
    for seed in seeds:
        trajs = synthetic_trajectories(n_engines=20, seed=seed)
        dataset = adapt_dataset(trajs, AdaptationConfig(), seed=seed)
        bundle = label_and_window(dataset, seed=seed)
        val = validation_subset(dataset, bundle.split)

        linear, _ = train_forecaster("linear", bundle, TrainConfig(seed=seed))
        qcfg = TrainConfig(max_epochs=25, base_lr=5e-3, patience=6, seed=seed)
        quantile, _ = train_forecaster("quantile", bundle, qcfg)

        reactive = simulate(val, None, PolicySpec(kind="reactive"))
        predictive = simulate(
            val, forecast_scorer(linear, val), PolicySpec(kind="predictive", margin=5)
        )
        quantile_out = simulate(
            val,
            forecast_scorer(quantile, val, use_quantile=True),
            PolicySpec(kind="quantile", margin=5),
        )
        seed_ok = (
            predictive.cost < reactive.cost and quantile_out.n_vio <= predictive.n_vio
        )
        passes.append(seed_ok)
        details.append(
            f"seed {seed}: react={reactive.cost:g} pred={predictive.cost:g} "
            f"vio(q10)={quantile_out.n_vio} vio(pred)={predictive.n_vio}"
        )
    elapsed = time.perf_counter() - start
    ok = sum(passes) >= 2
    _record(
        8,
        "predictive beats reactive on cost and q10 triggers cut violations "
        "(majority of 3 seeds)",
        ok,
        "; ".join(details) + f" {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 9. real-data sensor ranking (only with FD001 supplied)
# ---------------------------------------------------------------------------

def test_criterion_09_fd001_sensor_ranking():
    path = fd001_train_path()
    if path is None:
        print("\nACCEPTANCE 09 SKIP - FD001 not supplied; "
              "set DRIFTCAL_CMAPSS_DIR to run the real-data ranking check")
        pytest.skip("train_FD001.txt not supplied")
    start = time.perf_counter()
    trajs = load_trajectories(path)
    ranking = rank_drift_sensors(trajs)
    top5 = set(ranking.top(5))
    hits = top5 & {11, 4, 12}
    elapsed = time.perf_counter() - start
    ok = len(hits) >= 2 and elapsed < 120.0
    _record(
        9,
        "FD001 top-5 drift sensors include at least two of {11, 4, 12}",
        ok,
        f"top5={sorted(top5)} {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 10. attention vs linear on the synthetic dataset (majority of 3)
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_10_attention_vs_linear():
    start = time.perf_counter()
    seeds = (101, 202, 303)
    passes = []
    details = []
    for seed in seeds:
        trajs = synthetic_trajectories(n_engines=20, seed=seed)
        dataset = adapt_dataset(trajs, AdaptationConfig(), seed=seed)
        bundle = label_and_window(dataset, seed=seed)

        linear, _ = train_forecaster("linear", bundle, TrainConfig(seed=seed))
        linear_rep, _, _ = evaluate_forecaster(linear, bundle.val_raw)

        att_cfg = TrainConfig(max_epochs=15, patience=6, seed=seed)
        attention, _ = train_forecaster("attention", bundle, att_cfg)
        att_rep, _, _ = evaluate_forecaster(attention, bundle.val_raw)

        seed_ok = (
            att_rep.r2 is not None
            and linear_rep.r2 is not None
            and att_rep.r2 > linear_rep.r2 - 0.05
            and att_rep.r2 > 0.0
            and linear_rep.r2 > 0.0
        )
        passes.append(seed_ok)
        details.append(f"seed {seed}: attention={att_rep.r2:.3f} linear={linear_rep.r2:.3f}")
    elapsed = time.perf_counter() - start
    ok = sum(passes) >= 2
    _record(
        10,
        "attention validation R2 within 0.05 of (or above) linear, both positive "
        "(majority of 3 seeds)",
        ok,
        "; ".join(details) + f" {elapsed:.0f}s",
    )
