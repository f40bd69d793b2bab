"""Command-line front end: adapt -> train -> evaluate -> simulate -> report.

Configuration comes from an INI-style file (section headers, key = value)
with each key in FLAGS overridable by the CLI flag of the same name. All output
CSVs carry a comment line with the seed and config digest so any artifact
can be re-derived exactly.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .adaptation import (
    AdaptationConfig,
    AdaptedDataset,
    adapt_dataset,
    read_adapted_dataset,
    write_adapted_dataset,
)
from .cmapss_io import load_trajectories
from .labeling import split_engines, window_runs
from .models import (
    KINDS,
    NonFiniteError,
    TrainConfig,
    TrainingDivergedError,
    read_model,
    save_model,
)
from .models.threads import blas_kernel
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

SPLIT_TAGS = ("FD001", "FD002", "FD003", "FD004", "synthetic")
CHOICES = {"split": SPLIT_TAGS, "model": tuple(KINDS)}  # also the choices of their flags


@dataclass(frozen=True)
class RunConfig(TrainConfig, AdaptationConfig):
    """Every setting of a run: the fields below plus those of the training
    and adaptation configs it inherits (the [train] and [adapt] keys)."""

    # [run]
    data_dir: str = "data"
    split: str = "synthetic"
    out: str = "out"
    # [window]
    window: int = 40
    stride: int = 1
    train_fraction: float = 0.75
    allow_cross_reset: bool = True
    # [train]
    model: str = "attention"
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

    def __post_init__(self):
        """Both parents' checks, the costs' and the run's own, all before any data is read."""
        TrainConfig.__post_init__(self)
        AdaptationConfig.__post_init__(self)
        CostSpec(c_cal=self.cost_cal, c_vio=self.cost_vio)
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        for name, ok, rule in (
            ("window", self.window >= 1, ">= 1"),
            ("stride", self.stride >= 1, ">= 1"),
            ("train_fraction", 0 < self.train_fraction < 1, "in (0, 1)"),
            ("capacity_k", self.capacity_k >= 0, ">= 0"),
            ("capacity_window", self.capacity_window >= 1, ">= 1"),
            ("period", self.period >= 0, ">= 0"),
            ("margin", self.margin >= 0, ">= 0"),
            ("engines", self.engines >= 1, ">= 1"),
            ("min_length", self.min_length >= 20, ">= 20"),
            ("max_length", self.max_length >= self.min_length, f">= min_length = {self.min_length}"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")
        if not self.policy_kinds:
            raise ValueError(f"policies must name at least one of {POLICY_KINDS}")
        for kind in self.policy_kinds:
            if kind not in POLICY_KINDS:
                raise ValueError(f"unknown policy kind {kind!r}; expected one of {POLICY_KINDS}")

    @property
    def policy_kinds(self) -> list[str]:
        """The comma-separated ``policies``, in order."""
        return [k.strip() for k in self.policies.split(",") if k.strip()]

    def digest(self) -> str:
        """Hash of the computation-relevant settings; filesystem locations
        (out, data_dir) are excluded so artifacts re-derive anywhere."""
        snapshot = {k: v for k, v in asdict(self).items() if k not in ("out", "data_dir")}
        return sha256_bytes(canonical_json(snapshot).encode("utf-8"))


# The RunConfig fields that are also flags: --data-dir sets data_dir
FLAGS = ("data_dir", "split", "seed", "window", "stride", "model", "margin", "period",
         "capacity_k", "cost_cal", "cost_vio", "oracle_scorer", "svg", "out")
BOOLS = {"1": True, "0": False, "true": True, "false": False,
         "yes": True, "no": False, "on": True, "off": False}
TYPE_NAMES = {int: "an int", float: "a float", bool: f"one of {'/'.join(BOOLS)}"}


def _coerce(key: str, value, default):
    """A flag or INI value (text, or a bool flag's True) as the type of ``default``."""
    kind = type(default)
    try:
        return BOOLS[str(value).strip().lower()] if kind is bool else kind(value)
    except (KeyError, ValueError):
        raise ValueError(f"{key} must be {TYPE_NAMES[kind]}, got {value!r}") from None


def build_config(args: argparse.Namespace) -> RunConfig:
    """The defaults, overridden by the INI file (literal text, with no %
    interpolation), overridden by the flags."""
    defaults = {f.name: f.default for f in fields(RunConfig)}
    values = {}
    if args.config:
        # no default section: [DEFAULT] is read like any other, not copied into each
        ini = configparser.ConfigParser(interpolation=None, default_section="")
        try:
            if not ini.read(args.config, encoding="utf-8"):
                raise FileNotFoundError(f"config file not found: {args.config}")
        except configparser.Error as exc:  # its messages name the file, most the line
            raise ValueError(" ".join(str(exc).split())) from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{args.config}: {exc}") from None
        for section in ini.sections():
            for key, value in ini.items(section):
                if key not in defaults:
                    raise ValueError(f"unknown config key {key!r}")
                if key in values:
                    raise ValueError(f"duplicate config key {key!r} (sections share a namespace)")
                values[key] = _coerce(key, value, defaults[key])
    for name in FLAGS:
        if getattr(args, name) is not None:
            values[name] = _coerce(name, getattr(args, name), defaults[name])
    return RunConfig(**values)


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


def _manifest_digest(cfg: RunConfig) -> str | None:
    """The dataset digest adapt_manifest.json under cfg.out records; None
    for a directory without a manifest."""
    path = Path(cfg.out) / "adapt_manifest.json"
    return _json_fields(path, "dataset_digest")[0] if path.exists() else None


def _read_dataset(cfg: RunConfig) -> AdaptedDataset:
    """The adapted dataset under cfg.out, refused when it is not the one
    adapt_manifest.json records; a directory without a manifest is not checked."""
    return read_adapted_dataset(cfg.out, expected_digest=_manifest_digest(cfg))


def _json_fields(path: Path, *names: str) -> list:
    """The named fields of the JSON object in path; a file that is not
    such an object, or lacks a field, raises one ValueError naming it."""
    try:
        value = json.loads(path.read_text(encoding="utf-8"))
        return [value[name] for name in names]
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path} is malformed: {type(exc).__name__}: {exc}") from None


def _split_runs(cfg: RunConfig) -> tuple[AdaptedDataset, AdaptedDataset]:
    """The adapted dataset's training and validation runs under cfg's split."""
    dataset = _read_dataset(cfg)
    split = split_engines([run.engine_id for run in dataset.runs],
                          fraction=cfg.train_fraction, seed=cfg.seed)
    return training_subset(dataset, split), validation_subset(dataset, split)


def _model_path(cfg: RunConfig, kind: str) -> Path:
    return Path(cfg.out) / f"model_{kind}.bin"


def _load_model(cfg: RunConfig, path: Path, val: AdaptedDataset):
    """The model saved at path, refused when it was trained on another
    dataset than adapt_manifest.json records, or on an engine that cfg's
    split holds out for validation. A file without the header's
    dataset_digest or train_engines, or a directory without a manifest,
    skips that check."""
    model, header = read_model(path)
    trained_on, current = header.get("dataset_digest"), _manifest_digest(cfg)
    if trained_on is not None and current is not None and trained_on != current:
        raise ValueError(f"{path} was trained on dataset digest {trained_on}, not the "
                         f"{current} adapt_manifest.json records; retrain it")
    engines = header.get("train_engines", [])
    if not (isinstance(engines, list) and all(type(engine) is int for engine in engines)):
        raise ValueError(f"{path} is malformed: train_engines {engines!r} is not a list of ids")
    shared = sorted(set(engines) & {run.engine_id for run in val.runs})
    if shared:
        raise ValueError(f"{path} was trained at seed {header.get('seed')} on engine "
                         f"{shared[0]}, which seed {cfg.seed} holds out for validation; "
                         f"retrain it at seed {cfg.seed}")
    return model


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_adapt(cfg: RunConfig) -> int:
    trajs = _load_raw_trajectories(cfg)
    # a plain AdaptationConfig: the dataset's metadata records exactly its fields
    adaptation = AdaptationConfig(**{f.name: getattr(cfg, f.name)
                                     for f in fields(AdaptationConfig)})
    dataset = adapt_dataset(trajs, adaptation, seed=cfg.seed, split_tag=cfg.split)
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
    bundle = label_and_window(
        _read_dataset(cfg),
        w=cfg.window,
        stride=cfg.stride,
        train_fraction=cfg.train_fraction,
        seed=cfg.seed,
        allow_cross_reset=cfg.allow_cross_reset,
    )
    model, logs = train_forecaster(cfg.model, bundle, cfg)
    path = _model_path(cfg, cfg.model)
    # the OpenBLAS kernel the fit ran on: a model's bits can differ between kernels
    save_model(model, path, extra_header={"seed": cfg.seed, "config_digest": cfg.digest(),
                                          "blas_kernel": blas_kernel(),
                                          "dataset_digest": _manifest_digest(cfg),
                                          "train_engines": list(bundle.split.train_engines)})
    write_csv(
        Path(cfg.out) / f"train_log_{cfg.model}.csv",
        ["epoch", "train_loss", "val_metric", "lr"],
        (
            [str(log.epoch), fmt_float(log.train_loss), fmt_float(log.val_metric), fmt_float(log.lr)]
            for log in logs
        ),
        preamble=_preamble(cfg) + [f"val_metric={KINDS[cfg.model].val_metric}"],
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
    _, val = _split_runs(cfg)
    windows = window_runs(val.runs, w=cfg.window, stride=cfg.stride,
                          allow_cross_reset=cfg.allow_cross_reset)
    rows = []
    for kind in KINDS:
        path = _model_path(cfg, kind)
        if not path.exists():
            continue
        report, y, yhat = evaluate_forecaster(_load_model(cfg, path, val), windows)
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
    print(f"evaluated {len(rows)} model(s) on {len(windows)} validation windows")
    return 0


def cmd_simulate(cfg: RunConfig) -> int:
    train, val = _split_runs(cfg)
    kinds = cfg.policy_kinds
    costs = CostSpec(c_cal=cfg.cost_cal, c_vio=cfg.cost_vio)
    capacity = None
    if cfg.capacity_k > 0:
        capacity = CapacitySpec(k=cfg.capacity_k, window_width=cfg.capacity_window)
    period = cfg.period if cfg.period > 0 else median_segment_length(train)

    scorers = {}  # policy kind -> CycleScorer
    if "predictive" in kinds:
        if cfg.oracle_scorer:
            scorers["predictive"] = oracle_scorer(val)
        else:
            model = _load_model(cfg, _model_path(cfg, cfg.model), val)
            scorers["predictive"] = forecast_scorer(model, val)
    if "quantile" in kinds:
        qpath = _model_path(cfg, "quantile")
        if not qpath.exists():
            raise FileNotFoundError(
                f"quantile policy requires a trained quantile model ({qpath} missing)"
            )
        scorers["quantile"] = forecast_scorer(_load_model(cfg, qpath, val), val,
                                              use_quantile=True)

    rows = []
    for kind in kinds:
        policy = PolicySpec(kind=kind, margin=cfg.margin,
                            period=period if kind == "fixed" else None)
        outcome = simulate(val, scorers.get(kind), policy, costs, capacity)
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
        split_tag, seed, runs, drift_sensors = _json_fields(
            meta_path, "split_tag", "seed", "runs", "drift_sensors")
        if not isinstance(runs, list):
            raise ValueError(f"{meta_path} is malformed: runs {runs!r} is not a list")
        manifest_path = note_file("adapt_manifest.json")
        sections["adapt"] = {
            "split_tag": split_tag,
            "seed": seed,
            "n_runs": len(runs),
            "drift_sensors": drift_sensors,
            "dataset_digest":
                _json_fields(manifest_path, "dataset_digest")[0] if manifest_path else None,
        }
    else:
        warnings.append("no adapted dataset found (run adapt)")

    trained = {}
    for kind in KINDS:
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
        "config": asdict(cfg),
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

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is a ValueError, which main reports as one line."""
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        for field in FLAGS:
            flag = "--" + field.replace("_", "-")
            if isinstance(getattr(RunConfig, field), bool):
                p.add_argument(flag, action="store_true", default=None)
            else:
                p.add_argument(flag, choices=CHOICES.get(field))
    return parser


COMMANDS = {
    "adapt": cmd_adapt,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "simulate": cmd_simulate,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = build_config(args)
        Path(cfg.out).mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg)
    except (ValueError, OSError, KeyError, TrainingDivergedError, NonFiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
