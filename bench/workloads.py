"""The three benchmark workloads: how their inputs are built from the seed,
and the pipeline each one drives through driftcal's public functions.

Every pipeline call is one operation of a ``Pass``: it is timed as a stage,
the memory high-water mark is read after it, and the checks in ``checks.py``
mark it failed when its output is wrong. The checks run outside the timed
calls.

driftcal modules are imported inside the pipeline functions, after set-up
has (re)imported the package, and their functions are looked up on the
module at call time so the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

WINDOW = 40
MARGIN = 5
COST_CAL = 1.0
COST_VIO = 5.0
COSTS = (COST_CAL, COST_VIO)
CAPACITY_K = 2
CAPACITY_WINDOW = 10
POLICIES = ("reactive", "fixed", "predictive", "quantile")


@dataclass(frozen=True)
class Spec:
    """One workload: fleet shape and the fixed epoch budget of each
    mini-batch fit (patience equals the budget, so no fit stops early and a
    numerics change cannot change how much work is done)."""

    name: str
    engines: int
    length_range: tuple[int, int]
    quantile_epochs: int
    attention_epochs: int  # 0: attention is not trained in this workload


SPECS = {
    # The CLI default fleet; attention training and forward dominate.
    "default": Spec("default", 20, (200, 300), quantile_epochs=12, attention_epochs=2),
    # About the size of C-MAPSS FD004, handed over as C-MAPSS text; the data
    # layers dominate. Attention is left out: full-batch validation forwards
    # on ~12.7k windows would not fit in the machine's memory.
    "fleet250": Spec("fleet250", 250, (130, 360), quantile_epochs=8, attention_epochs=0),
    # Through the command line: every command re-reads adapted.csv.
    "cli": Spec("cli", 100, (130, 360), quantile_epochs=8, attention_epochs=0),
}


def cpu_s() -> float:
    """User plus system CPU time of this process, all threads."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def maxrss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class PassAborted(Exception):
    """An operation raised; the rest of the pass cannot run."""


class Pass:
    """One timed run of a workload pipeline."""

    def __init__(self):
        self.stage_s: dict[str, float] = {}
        self.stage_cpu_s: dict[str, float] = {}
        self.hwm_mb: dict[str, float] = {}
        self.ops: list[str] = []
        self.failures: dict[str, str] = {}  # op label -> its first failure reason
        self.quality: dict[str, float] = {}  # deterministic outputs
        self.counts: dict[str, object] = {}  # window counts, policy counts, digest
        self.tracer = None  # set for the traced pass

    def op(self, label: str, fn, *args, **kwargs):
        """Run one operation; ``label`` is ``stage`` or ``stage:detail``."""
        stage = label.split(":")[0]
        self.ops.append(label)
        start, cpu_start = time.perf_counter(), cpu_s()
        try:
            with self.tracer.span(f"op:{label}") if self.tracer else contextlib.nullcontext():
                return fn(*args, **kwargs)
        except Exception as exc:  # any raise is a failed operation; stop the pass
            self.failures.setdefault(label, f"{type(exc).__name__}: {exc}")
            raise PassAborted(label) from exc
        finally:
            self.stage_s[stage] = self.stage_s.get(stage, 0.0) + time.perf_counter() - start
            self.stage_cpu_s[stage] = self.stage_cpu_s.get(stage, 0.0) + cpu_s() - cpu_start
            self.hwm_mb[stage] = maxrss_mb()

    def check(self, label: str, ok: bool, reason: str) -> None:
        """Mark operation ``label`` failed unless ``ok``."""
        if label not in self.ops:
            raise ValueError(f"check on {label!r}, which is not an operation of this pass")
        if not ok:
            self.failures.setdefault(label, reason)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def pipeline_s(self) -> float:
        return sum(self.stage_s.values())


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def build_inputs(spec: Spec, seed: int, scratch: Path):
    """The generated inputs handed to the program (the same seed gives the
    same inputs), and the seconds spent generating trajectories."""
    from driftcal import cmapss_io, synthetic

    if spec.name == "cli":
        ini = scratch / "workload.ini"
        lo, hi = spec.length_range
        ini.write_text(
            "[run]\nsplit = synthetic\n"
            f"[synthetic]\nengines = {spec.engines}\nmin_length = {lo}\nmax_length = {hi}\n"
            f"[train]\nmax_epochs = {spec.quantile_epochs}\npatience = {spec.quantile_epochs}\n",
            encoding="utf-8",
        )
        return ini, 0.0  # the adapt command generates the fleet
    start = time.perf_counter()
    trajs = synthetic.synthetic_trajectories(
        n_engines=spec.engines, seed=seed, length_range=spec.length_range
    )
    generate_s = time.perf_counter() - start
    if spec.name == "fleet250":
        return cmapss_io.serialize_trajectories(trajs), generate_s
    return trajs, generate_s


# ---------------------------------------------------------------------------
# Library workloads: default and fleet250
# ---------------------------------------------------------------------------

def run_library(p: Pass, spec: Spec, seed: int, inputs, scratch: Path) -> None:
    from driftcal import adaptation, cmapss_io

    if spec.name == "fleet250":
        trajs = p.op("parse", cmapss_io.parse_trajectories, inputs)
    else:
        trajs = inputs
    dataset = p.op("adapt", adaptation.adapt_dataset, trajs, adaptation.AdaptationConfig(),
                   seed=seed, split_tag="synthetic")
    if spec.name == "fleet250":
        out = Path(tempfile.mkdtemp(dir=scratch))
        try:
            written = p.op("write", adaptation.write_adapted_dataset, dataset, out)
            dataset = p.op("read", adaptation.read_adapted_dataset, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        digest = p.op("digest", adaptation.dataset_digest, dataset)
        p.check("digest", digest == written["digest"],
                "digest of the re-read dataset differs from the written one")
    else:
        digest = p.op("digest", adaptation.dataset_digest, dataset)
    checks.dataset_digest(p, "digest", spec.name, seed, digest)
    _model_and_schedule(p, spec, seed, dataset)


def _model_and_schedule(p: Pass, spec: Spec, seed: int, dataset) -> None:
    from driftcal import pipeline, scheduler
    from driftcal.models import TrainConfig, predict

    runs = checks.runs_of(dataset)
    bundle = p.op("window", pipeline.label_and_window, dataset, w=WINDOW, seed=seed)
    split = (bundle.split.train_engines, bundle.split.val_engines)
    labels = checks.window_labels(runs, split, WINDOW)
    checks.windows(p, "window", spec.name, seed, labels, n_train=len(bundle.train_raw),
                   val_labels=[win.label for win in bundle.val_raw],
                   train_labels=[win.label for win in bundle.train_raw])

    models = {"linear": p.op("fit_linear", pipeline.train_forecaster, "linear", bundle,
                             TrainConfig(seed=seed))[0]}
    qcfg = TrainConfig(max_epochs=spec.quantile_epochs, patience=spec.quantile_epochs, seed=seed)
    models["quantile"] = p.op("fit_quantile", pipeline.train_forecaster, "quantile", bundle, qcfg)[0]
    if spec.attention_epochs:
        acfg = TrainConfig(max_epochs=spec.attention_epochs, patience=spec.attention_epochs,
                           seed=seed)
        models["attention"] = p.op("fit_attention", pipeline.train_forecaster, "attention",
                                   bundle, acfg)[0]
    point = "attention" if "attention" in models else "linear"

    for kind, model in models.items():
        label = f"evaluate:{kind}"
        report, _, yhat = p.op(label, pipeline.evaluate_forecaster, model, bundle.val_raw)
        checks.forecast(p, label, kind, report.mae, report.r2, yhat, labels, len(split[1]))
        p.quality[f"val_mae_{kind}"] = report.mae
    p.quality["val_mae_point"] = p.quality[f"val_mae_{point}"]

    val = pipeline.validation_subset(dataset, bundle.split)
    point_scorer = p.op("score:point", pipeline.forecast_scorer, models[point], val)
    q_scorer = p.op("score:quantile", pipeline.forecast_scorer, models["quantile"], val,
                    use_quantile=True)
    X_val = np.stack([win.features for win in bundle.val_raw])
    checks.scores(p, "score:point", point_scorer.scores.values())
    checks.scores(p, "score:quantile", q_scorer.scores.values())
    checks.quantiles(p, "score:quantile", predict.predict_quantiles_batch(models["quantile"], X_val))
    del X_val

    period = checks.fixed_period(runs, split[0])
    costs = scheduler.CostSpec(c_cal=COST_CAL, c_vio=COST_VIO)
    scorers = {"predictive": point_scorer, "quantile": q_scorer}
    for capacity in (None, scheduler.CapacitySpec(k=CAPACITY_K, window_width=CAPACITY_WINDOW)):
        suffix = "" if capacity is None else f":k{capacity.k}"
        table = {}
        for kind in POLICIES:
            policy = scheduler.PolicySpec(kind=kind, margin=MARGIN,
                                          period=period if kind == "fixed" else None)
            outcome = p.op(f"simulate:{kind}{suffix}", scheduler.simulate, val,
                           scorers.get(kind), policy, costs, capacity)
            table[kind] = (outcome.n_cal, outcome.n_vio, outcome.cost)
        checks.policy_table(p, lambda kind: f"simulate:{kind}{suffix}", table, runs, split[1],
                            period, COSTS, capped=capacity is not None)
        if capacity is None:
            _record_policies(p, table)
    oracle = p.op("simulate:oracle_scorer", scheduler.oracle_scorer, val)
    outcome = p.op("simulate:oracle", scheduler.simulate, val, oracle,
                   scheduler.PolicySpec(kind="predictive", margin=MARGIN), costs)
    checks.perfect_foresight(p, "simulate:oracle", outcome.n_cal, outcome.n_vio, runs, split[1])


def _record_policies(p: Pass, table: dict) -> None:
    for kind, (n_cal, n_vio, cost) in table.items():
        p.counts.update({f"n_cal.{kind}": n_cal, f"n_vio.{kind}": n_vio})
        p.quality[f"cost_{kind}"] = cost


# ---------------------------------------------------------------------------
# Command-line workload
# ---------------------------------------------------------------------------

class CommandFailed(RuntimeError):
    pass


def _command(argv: list[str]) -> str:
    """Run one driftcal command in-process; returns what it printed."""
    from driftcal import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise CommandFailed(f"driftcal {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def run_cli(p: Pass, spec: Spec, seed: int, ini: Path, scratch: Path) -> None:
    out = Path(tempfile.mkdtemp(dir=scratch))
    try:
        _cli_commands(p, spec, seed, ini, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _cli_commands(p: Pass, spec: Spec, seed: int, ini: Path, out: Path) -> None:
    from driftcal import adaptation, labeling
    from driftcal.models import base, predict

    common = ["--config", str(ini), "--seed", str(seed), "--window", str(WINDOW),
              "--out", str(out)]
    p.op("adapt", _command, ["adapt", *common])
    manifest = json.loads((out / "adapt_manifest.json").read_text(encoding="utf-8"))
    checks.dataset_digest(p, "adapt", spec.name, seed, manifest["dataset_digest"])
    meta = json.loads((out / "adapted_meta.json").read_text(encoding="utf-8"))
    runs = checks.runs_of_meta(meta)
    split = labeling.split_engines([r.engine_id for r in runs], fraction=0.75, seed=seed)
    split = (split.train_engines, split.val_engines)
    labels = checks.window_labels(runs, split, WINDOW)

    printed = p.op("train_linear", _command, ["train", "--model", "linear", *common])
    p.op("train_quantile", _command, ["train", "--model", "quantile", *common])
    train_windows = checks.trained_windows(printed)
    p.op("evaluate", _command, ["evaluate", *common])
    metrics = checks.read_table(out / "metrics.csv")
    checks.windows(p, "evaluate", spec.name, seed, labels, n_train=train_windows,
                   val_labels=[float(v) for v in
                               checks.read_column(out / "scatter_linear.csv", "true_ttd")])
    for kind in ("linear", "quantile"):
        row = metrics.get(kind)
        if row is None:
            p.check("evaluate", False, f"metrics.csv has no {kind} row")
            continue
        yhat = [float(v) for v in checks.read_column(out / f"scatter_{kind}.csv", "predicted_ttd")]
        r2 = None if row["r2"] == "nan" else float(row["r2"])
        checks.forecast(p, "evaluate", kind, float(row["mae"]), r2, yhat, labels, len(split[1]))
        p.quality[f"val_mae_{kind}"] = float(row["mae"])
    p.quality["val_mae_point"] = p.quality.get("val_mae_linear", float("nan"))

    period = checks.fixed_period(runs, split[0])
    for label, extra in (("simulate", []), ("simulate_k2", ["--capacity-k", str(CAPACITY_K)])):
        p.op(label, _command, ["simulate", "--model", "linear", "--margin", str(MARGIN),
                               "--cost-cal", str(COST_CAL), "--cost-vio", str(COST_VIO),
                               *extra, *common])
        table = {
            kind: (int(row["n_cal"]), int(row["n_vio"]), float(row["cost"]))
            for kind, row in checks.read_table(out / "policy_table.csv", key="policy").items()
        }
        checks.policy_table(p, lambda kind: label, table, runs, split[1], period, COSTS,
                            capped=bool(extra))
        if not extra:
            _record_policies(p, table)
        for kind in POLICIES:
            checks.scores(p, label, (float(v) for v in checks.read_column(
                out / f"events_{kind}.csv", "score") if v != ""))
    p.op("report", _command, ["report", *common])
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    p.check("report", not report["warnings"] and len(report["sections"]) == 4,
            f"report.json: {len(report['sections'])} sections, warnings {report['warnings']}")

    # Quantile ordering on the validation windows, with the saved model.
    dataset = adaptation.read_adapted_dataset(out)
    model = base.load_model(out / "model_quantile.bin")
    X_val = np.concatenate([
        np.lib.stride_tricks.sliding_window_view(run.channels, (WINDOW, run.channels.shape[1]))[:, 0]
        for run in dataset.runs if run.engine_id in set(split[1])
    ])
    checks.quantiles(p, "train_quantile", predict.predict_quantiles_batch(model, X_val))


def run_pass(p: Pass, spec: Spec, seed: int, inputs, scratch: Path) -> None:
    if spec.name == "cli":
        run_cli(p, spec, seed, inputs, scratch)
    else:
        run_library(p, spec, seed, inputs, scratch)
