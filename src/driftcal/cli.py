"""Command-line front end: adapt -> train -> evaluate -> simulate -> report.

Configuration comes from an INI-style file (section headers, key = value)
with every key overridable by the CLI flag of the same name. All output
CSVs carry a comment line with the seed and config digest so any artifact
can be re-derived exactly.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .adaptation import (
    AdaptationConfig,
    adapt_dataset,
    read_adapted_dataset,
    write_adapted_dataset,
)
from .cmapss_io import load_trajectories
from .labeling import split_engines
from .models import (
    NonFiniteError,
    TrainConfig,
    TrainingDivergedError,
    load_model,
    save_model,
)
from .pipeline import (
    evaluate_forecaster,
    forecast_scorer,
    label_and_window,
    train_forecaster,
    training_subset,
    validation_subset,
)
from .scheduler import (
    POLICY_KINDS,
    CapacitySpec,
    CostSpec,
    PolicySpec,
    median_segment_length,
    oracle_scorer,
    simulate,
)
from .synthetic import synthetic_trajectories
from .util import canonical_json, fmt_float, read_csv, sha256_bytes, sha256_file, write_csv

MODEL_KINDS = ("linear", "quantile", "attention")
SPLIT_TAGS = ("FD001", "FD002", "FD003", "FD004", "synthetic")


@dataclass
class RunConfig:
    # [run]
    data_dir: str = "data"
    split: str = "synthetic"
    seed: int = 0
    out: str = "out"
    # [adapt]
    top_k: int = 3
    max_resets: int = 3
    fraction_low: float = 0.55
    fraction_high: float = 0.80
    noise_sigma_frac: float = 0.02
    stitch_low: float = 0.95
    stitch_high: float = 1.05
    noise_reset_prob: float = 0.5
    # [window]
    window: int = 40
    stride: int = 1
    train_fraction: float = 0.75
    allow_cross_reset: bool = True
    # [train]
    model: str = "attention"
    max_epochs: int = 40
    batch_size: int = 64
    base_lr: float = 3e-4
    warmup_steps: int = 100
    patience: int = 6
    weight_decay: float = 0.01
    smooth_l1_beta: float = 1.0
    d_model: int = 64
    heads: int = 4
    layers: int = 2
    pool: str = "mean"
    hidden_width: int = 64
    ridge: float = 1e-6
    # [policy]
    policies: str = "reactive,fixed,predictive,quantile"
    margin: int = 5
    period: int = 0  # 0 = median train segment length
    oracle_scorer: bool = False
    # [cost]
    cost_cal: float = 1.0
    cost_vio: float = 5.0
    # [capacity]
    capacity_k: int = 0  # 0 = unlimited
    capacity_window: int = 10
    # [synthetic]
    engines: int = 20
    min_length: int = 200
    max_length: int = 300
    # [output]
    svg: bool = False

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def digest(self) -> str:
        """Hash of the computation-relevant settings; filesystem locations
        (out, data_dir) are excluded so artifacts re-derive anywhere."""
        snapshot = {k: v for k, v in self.to_dict().items() if k not in ("out", "data_dir")}
        return sha256_bytes(canonical_json(snapshot).encode("utf-8"))

    def adaptation_config(self) -> AdaptationConfig:
        return AdaptationConfig(**{f.name: getattr(self, f.name) for f in fields(AdaptationConfig)})

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: getattr(self, f.name) for f in fields(TrainConfig)})


def load_config_file(path: str | Path) -> dict:
    """Flat key = value pairs from an INI file; section names are ignored
    (keys are globally unique)."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    values: dict[str, str] = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            if key in values:
                raise ValueError(f"duplicate config key {key!r} (sections share a namespace)")
            values[key] = value
    return values


def _coerce(value: str, target_type):
    if target_type is bool:
        lowered = value.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {value!r}")
    return target_type(value)


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    by_name = {f.name: f for f in fields(RunConfig)}
    if args.config:
        for key, raw in load_config_file(args.config).items():
            if key not in by_name:
                raise ValueError(f"unknown config key {key!r}")
            setattr(cfg, key, _coerce(raw, type(getattr(cfg, key))))
    for name in by_name:  # flags whose dest is a config field override the file
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    if cfg.split not in SPLIT_TAGS:
        raise ValueError(f"split must be one of {SPLIT_TAGS}, got {cfg.split!r}")
    if cfg.model not in MODEL_KINDS:
        raise ValueError(f"model must be one of {MODEL_KINDS}, got {cfg.model!r}")
    for name in ("capacity_k", "period", "margin"):  # checked before any data is read
        if getattr(cfg, name) < 0:
            raise ValueError(f"{name} must be >= 0, got {getattr(cfg, name)}")
    return cfg


def _preamble(cfg: RunConfig) -> list[str]:
    return [f"seed={cfg.seed} config={cfg.digest()}"]


def _load_raw_trajectories(cfg: RunConfig):
    if cfg.split == "synthetic":
        return synthetic_trajectories(
            n_engines=cfg.engines,
            seed=cfg.seed,
            length_range=(cfg.min_length, cfg.max_length),
        )
    path = Path(cfg.data_dir) / f"train_{cfg.split}.txt"
    if not path.exists():
        raise FileNotFoundError(f"raw split file not found: {path}")
    return load_trajectories(path)


def _load_bundle(cfg: RunConfig):
    return label_and_window(
        read_adapted_dataset(cfg.out),
        w=cfg.window,
        stride=cfg.stride,
        train_fraction=cfg.train_fraction,
        seed=cfg.seed,
        allow_cross_reset=cfg.allow_cross_reset,
    )


def _model_path(cfg: RunConfig, kind: str) -> Path:
    return Path(cfg.out) / f"model_{kind}.bin"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_adapt(cfg: RunConfig) -> int:
    trajs = _load_raw_trajectories(cfg)
    dataset = adapt_dataset(
        trajs, cfg.adaptation_config(), seed=cfg.seed, split_tag=cfg.split
    )
    result = write_adapted_dataset(dataset, cfg.out)
    manifest = {
        "seed": cfg.seed,
        "config_digest": cfg.digest(),
        "dataset_digest": result["digest"],
        "split": cfg.split,
        "n_runs": len(dataset.runs),
        "drift_sensors": list(dataset.drift_sensors),
    }
    (Path(cfg.out) / "adapt_manifest.json").write_text(
        canonical_json(manifest) + "\n", encoding="utf-8"
    )
    print(f"adapted {len(dataset.runs)} runs (split {cfg.split})")
    print(f"drift sensors: {list(dataset.drift_sensors)}")
    print(f"digest: {result['digest']}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    train_cfg = cfg.train_config()  # rejects bad settings before any data is read
    bundle = _load_bundle(cfg)
    model, logs = train_forecaster(cfg.model, bundle, train_cfg, ridge=cfg.ridge)
    path = _model_path(cfg, cfg.model)
    save_model(model, path, extra_header={"seed": cfg.seed, "config_digest": cfg.digest()})
    metric_name = {"linear": "none", "quantile": "pinball", "attention": "mae"}[cfg.model]
    write_csv(
        Path(cfg.out) / f"train_log_{cfg.model}.csv",
        ["epoch", "train_loss", "val_metric", "lr"],
        (
            [str(log.epoch), fmt_float(log.train_loss), fmt_float(log.val_metric), fmt_float(log.lr)]
            for log in logs
        ),
        preamble=_preamble(cfg) + [f"val_metric={metric_name}"],
    )
    print(f"trained {cfg.model} on {len(bundle.train_std)} windows "
          f"({len(logs)} epochs); saved {path}")
    return 0


def _scatter_svg(y: np.ndarray, yhat: np.ndarray, path: Path, title: str) -> None:
    """Minimal scatter plot: axes, identity line, points."""
    size, margin = 480, 50
    lo = 0.0
    hi = max(float(y.max()), float(yhat.max()), 1.0) * 1.05
    scale = (size - 2 * margin) / (hi - lo)

    def sx(v):
        return margin + (v - lo) * scale

    def sy(v):
        return size - margin - (v - lo) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">',
        f'<text x="{size / 2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{size - margin}" x2="{size - margin}" y2="{size - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{size - margin}" stroke="black"/>',
        f'<line x1="{sx(lo):.1f}" y1="{sy(lo):.1f}" x2="{sx(hi):.1f}" y2="{sy(hi):.1f}" '
        'stroke="gray" stroke-dasharray="4"/>',
        f'<text x="{size / 2:.0f}" y="{size - 12}" text-anchor="middle" font-size="12">true TTD</text>',
        f'<text x="14" y="{size / 2:.0f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {size / 2:.0f})">predicted TTD</text>',
    ]
    for yt, yp in zip(y, yhat):
        parts.append(f'<circle cx="{sx(yt):.1f}" cy="{sy(yp):.1f}" r="1.5" fill="steelblue" fill-opacity="0.5"/>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


def cmd_evaluate(cfg: RunConfig) -> int:
    bundle = _load_bundle(cfg)
    rows = []
    found = []
    for kind in MODEL_KINDS:
        path = _model_path(cfg, kind)
        if not path.exists():
            continue
        model = load_model(path)
        report, y, yhat = evaluate_forecaster(model, bundle.val_raw)
        rows.append(
            [kind, fmt_float(report.mae), fmt_float(report.rmse),
             "nan" if report.r2 is None else fmt_float(report.r2), str(report.n)]
        )
        write_csv(
            Path(cfg.out) / f"scatter_{kind}.csv",
            ["true_ttd", "predicted_ttd"],
            ([fmt_float(a), fmt_float(b)] for a, b in zip(y, yhat)),
            preamble=_preamble(cfg),
        )
        if cfg.svg:
            _scatter_svg(y, yhat, Path(cfg.out) / f"scatter_{kind}.svg",
                         f"{kind} forecaster ({cfg.split})")
        found.append(kind)
        print(f"{kind}: mae={report.mae:.3f} rmse={report.rmse:.3f} "
              f"r2={'nan' if report.r2 is None else f'{report.r2:.3f}'} n={report.n}")
    if not rows:
        raise FileNotFoundError(f"no model_*.bin files under {cfg.out}; run train first")
    write_csv(
        Path(cfg.out) / "metrics.csv",
        ["model", "mae", "rmse", "r2", "n"],
        rows,
        preamble=_preamble(cfg),
    )
    print(f"evaluated {len(found)} model(s) on {len(bundle.val_raw)} validation windows")
    return 0


def cmd_simulate(cfg: RunConfig) -> int:
    dataset = read_adapted_dataset(cfg.out)
    split = split_engines([run.engine_id for run in dataset.runs],
                          fraction=cfg.train_fraction, seed=cfg.seed)
    val = validation_subset(dataset, split)
    train = training_subset(dataset, split)
    kinds = [k.strip() for k in cfg.policies.split(",") if k.strip()]
    costs = CostSpec(c_cal=cfg.cost_cal, c_vio=cfg.cost_vio)
    capacity = None
    if cfg.capacity_k > 0:
        capacity = CapacitySpec(k=cfg.capacity_k, window_width=cfg.capacity_window)
    period = cfg.period if cfg.period > 0 else median_segment_length(train)

    point_scorer = None
    quantile_scorer = None
    if "predictive" in kinds:
        if cfg.oracle_scorer:
            point_scorer = oracle_scorer(val)
        else:
            point_scorer = forecast_scorer(load_model(_model_path(cfg, cfg.model)), val)
    if "quantile" in kinds:
        qpath = _model_path(cfg, "quantile")
        if not qpath.exists():
            raise FileNotFoundError(
                f"quantile policy requires a trained quantile model ({qpath} missing)"
            )
        quantile_scorer = forecast_scorer(load_model(qpath), val, use_quantile=True)

    rows = []
    for kind in kinds:
        policy = PolicySpec(kind=kind, margin=cfg.margin,
                            period=period if kind == "fixed" else None)
        scorer = {"predictive": point_scorer, "quantile": quantile_scorer}.get(kind)
        outcome = simulate(val, scorer, policy, costs, capacity)
        rows.append([kind, str(outcome.n_cal), str(outcome.n_vio), fmt_float(outcome.cost)])
        write_csv(
            Path(cfg.out) / f"events_{kind}.csv",
            ["engine_id", "cycle", "event", "score"],
            (
                [str(ev.engine_id), str(ev.cycle), ev.event,
                 "" if ev.score is None else fmt_float(ev.score)]
                for ev in outcome.events
            ),
            preamble=_preamble(cfg),
        )
        print(f"{kind}: cal={outcome.n_cal} viol={outcome.n_vio} cost={outcome.cost:g}")
    write_csv(
        Path(cfg.out) / "policy_table.csv",
        ["policy", "n_cal", "n_vio", "cost"],
        rows,
        preamble=_preamble(cfg),
    )
    print(f"simulated {len(kinds)} policies on {len(val.runs)} validation runs "
          f"(fixed period {period})")
    return 0


def cmd_report(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    sections: dict = {}
    warnings: list[str] = []
    digests: dict[str, str] = {}

    def note_file(name: str) -> Path | None:
        path = out / name
        if path.exists():
            digests[name] = sha256_file(path)
            return path
        return None

    meta_path = note_file("adapted_meta.json")
    note_file("adapted.csv")
    if meta_path:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        manifest_path = note_file("adapt_manifest.json")
        manifest = (
            json.loads(manifest_path.read_text(encoding="utf-8")) if manifest_path else {}
        )
        sections["adapt"] = {
            "split_tag": meta["split_tag"],
            "seed": meta["seed"],
            "n_runs": len(meta["runs"]),
            "drift_sensors": meta["drift_sensors"],
            "dataset_digest": manifest.get("dataset_digest"),
        }
    else:
        warnings.append("no adapted dataset found (run adapt)")

    trained = {}
    for kind in MODEL_KINDS:
        if note_file(f"model_{kind}.bin"):
            log_path = note_file(f"train_log_{kind}.csv")
            n_epochs = 0
            if log_path:
                _, rows = read_csv(log_path)
                n_epochs = len(rows)
            trained[kind] = {"epochs": n_epochs}
    if trained:
        sections["train"] = trained
    else:
        warnings.append("no trained models found (run train)")

    if note_file("metrics.csv"):
        header, rows = read_csv(out / "metrics.csv")
        sections["evaluate"] = [dict(zip(header, row)) for row in rows]
    else:
        warnings.append("no metrics found (run evaluate)")

    if note_file("policy_table.csv"):
        header, rows = read_csv(out / "policy_table.csv")
        sections["simulate"] = [dict(zip(header, row)) for row in rows]
        for kind in POLICY_KINDS:
            note_file(f"events_{kind}.csv")
    else:
        warnings.append("no policy table found (run simulate)")

    report = {
        "version": __version__,
        "config": cfg.to_dict(),
        "config_digest": cfg.digest(),
        "sections": sections,
        "digests": digests,
        "warnings": warnings,
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(f"report written to {out / 'report.json'} "
          f"({len(sections)} sections, {len(warnings)} warnings)")
    for w in warnings:
        print(f"  warning: {w}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftcal",
        description="Calibration-drift forecasting and scheduling pipeline",
    )
    parser.add_argument("--version", action="version", version=f"driftcal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in [
        ("adapt", "build the calibration surrogate from raw trajectories"),
        ("train", "train a forecaster on the adapted dataset"),
        ("evaluate", "compute validation metrics and scatter data"),
        ("simulate", "replay scheduling policies and tabulate costs"),
        ("report", "aggregate all outputs into a single summary"),
    ]:
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--data-dir", dest="data_dir", default=None)
        p.add_argument("--split", default=None, choices=SPLIT_TAGS)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--window", type=int, default=None)
        p.add_argument("--stride", type=int, default=None)
        p.add_argument("--model", default=None, choices=MODEL_KINDS)
        p.add_argument("--margin", type=int, default=None)
        p.add_argument("--period", type=int, default=None)
        p.add_argument("--capacity-k", dest="capacity_k", type=int, default=None)
        p.add_argument("--cost-cal", dest="cost_cal", type=float, default=None)
        p.add_argument("--cost-vio", dest="cost_vio", type=float, default=None)
        p.add_argument("--oracle-scorer", dest="oracle_scorer", action="store_true",
                       default=None)
        p.add_argument("--svg", action="store_true", default=None)
        p.add_argument("--out", default=None)
    return parser


COMMANDS = {
    "adapt": cmd_adapt,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "simulate": cmd_simulate,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        Path(cfg.out).mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg)
    except (ValueError, OSError, KeyError, TrainingDivergedError, NonFiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
