"""End-to-end CLI runs on a small synthetic split."""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from driftcal.adaptation import AdaptationConfig, read_adapted_dataset
from driftcal.cli import RunConfig, build_config, build_parser, main
from driftcal.labeling import split_engines
from driftcal.models import (KINDS, NonFiniteError, TrainConfig, TrainingDivergedError,
                             load_model)
from driftcal.models.threads import blas_kernel
from driftcal.pipeline import evaluate_forecaster, label_and_window
from driftcal.util import fmt_float, read_csv, sha256_file

CONFIG = """\
[run]
split = synthetic
seed = 13

[synthetic]
engines = 8
min_length = 90
max_length = 130

[window]
window = 30

[train]
max_epochs = 6
batch_size = 64
base_lr = 0.005
warmup_steps = 20
hidden_width = 32
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "run.ini"
    cfg_path.write_text(CONFIG, encoding="utf-8")
    out = root / "out"
    args = ["--config", str(cfg_path), "--out", str(out)]
    assert main(["adapt"] + args) == 0
    assert main(["train", "--model", "linear"] + args) == 0
    assert main(["train", "--model", "quantile"] + args) == 0
    assert main(["evaluate", "--svg"] + args) == 0
    assert main(["simulate", "--model", "linear"] + args) == 0
    assert main(["report"] + args) == 0
    return root, out, args


def test_all_artifacts_present(workspace):
    _, out, _ = workspace
    for name in [
        "adapted.csv", "adapted_meta.json", "adapt_manifest.json",
        "model_linear.bin", "model_quantile.bin",
        "train_log_linear.csv", "train_log_quantile.csv",
        "metrics.csv", "scatter_linear.csv", "scatter_linear.svg",
        "policy_table.csv", "events_reactive.csv", "events_predictive.csv",
        "report.json",
    ]:
        assert (out / name).exists(), name


def test_adapt_metadata_lists_top_k_drift_sensors(workspace):
    _, out, _ = workspace
    meta = json.loads((out / "adapted_meta.json").read_text())
    assert len(meta["drift_sensors"]) == 3
    for run in meta["runs"]:
        assert len(run["drift_sensors"]) == 3


def test_adapt_digest_deterministic(workspace, tmp_path):
    root, out, _ = workspace
    cfg_path = root / "run.ini"
    out2 = tmp_path / "again"
    assert main(["adapt", "--config", str(cfg_path), "--out", str(out2)]) == 0
    a = json.loads((out / "adapt_manifest.json").read_text())
    b = json.loads((out2 / "adapt_manifest.json").read_text())
    assert a["dataset_digest"] == b["dataset_digest"]
    assert sha256_file(out / "adapted.csv") == sha256_file(out2 / "adapted.csv")


def test_metrics_csv_columns(workspace):
    _, out, _ = workspace
    header, rows = read_csv(out / "metrics.csv")
    assert header == ["model", "mae", "rmse", "r2", "n"]
    assert {row[0] for row in rows} == {"linear", "quantile"}
    for row in rows:
        float(row[1]), float(row[2]), float(row[3])  # parseable
        assert int(row[4]) > 0


def test_scatter_row_count_matches_metrics_n(workspace):
    _, out, _ = workspace
    header, metric_rows = read_csv(out / "metrics.csv")
    n = int(dict(zip([r[0] for r in metric_rows], metric_rows))["linear"][4])
    _, scatter = read_csv(out / "scatter_linear.csv")
    assert len(scatter) == n


def test_policy_table_identities(workspace):
    _, out, _ = workspace
    header, rows = read_csv(out / "policy_table.csv")
    assert header == ["policy", "n_cal", "n_vio", "cost"]
    table = {row[0]: (int(row[1]), int(row[2]), float(row[3])) for row in rows}
    cal, vio, cost = table["reactive"]
    assert cal == vio
    for name, (cal, vio, cost) in table.items():
        assert cost == pytest.approx(1.0 * cal + 5.0 * vio)


def test_every_csv_embeds_seed_and_config(workspace):
    _, out, _ = workspace
    for path in out.glob("*.csv"):
        if path.name == "adapted.csv":
            continue  # canonical dataset format; seed/config live in its sidecar
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first.startswith("# seed=13 config="), path
    meta = json.loads((out / "adapted_meta.json").read_text())
    assert meta["seed"] == 13 and "config" in meta
    manifest = json.loads((out / "adapt_manifest.json").read_text())
    assert manifest["seed"] == 13 and "config_digest" in manifest


def test_report_sections_and_digests(workspace):
    _, out, _ = workspace
    report = json.loads((out / "report.json").read_text())
    assert set(report["sections"]) == {"adapt", "train", "evaluate", "simulate"}
    assert report["warnings"] == []
    for name, digest in report["digests"].items():
        assert sha256_file(out / name) == digest
    assert report["config"]["seed"] == 13


def _with_runs(value):
    """An edit that sets a JSON object's runs to ``value``."""
    return lambda data: json.dumps({**json.loads(data), "runs": value}).encode("utf-8")


LIST = "TypeError: list indices must be integers or slices, not str"


@pytest.mark.parametrize(("name", "edit", "message"), [
    ("adapted_meta.json", lambda data: b"[1]", LIST),
    ("adapted_meta.json", lambda data: data[: len(data) // 2], "JSONDecodeError: .*"),
    ("adapted_meta.json", _with_runs(5), "runs 5 is not a list"),
    ("adapt_manifest.json", lambda data: b"[1]", LIST),
    ("adapt_manifest.json", lambda data: data[: len(data) // 2], "JSONDecodeError: .*")],
    ids=["metadata_list", "metadata_truncated", "metadata_runs_int", "manifest_list",
         "manifest_truncated"])
def test_report_names_a_malformed_json_file(workspace, tmp_path, capsys, name, edit, message):
    root, out, _ = workspace
    copy = tmp_path / "malformed"
    shutil.copytree(out, copy)
    path = copy / name
    path.write_bytes(edit(path.read_bytes()))
    capsys.readouterr()
    assert main(["report", "--config", str(root / "run.ini"), "--out", str(copy)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(f"error: {re.escape(str(path))} is malformed: {message}\n", err), err


def test_report_on_empty_dir(tmp_path):
    out = tmp_path / "empty"
    assert main(["report", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["sections"] == {}
    assert len(report["warnings"]) == 4


def test_simulate_with_oracle_scorer(workspace, tmp_path):
    root, out, _ = workspace
    cfg_path = root / "run.ini"
    assert main([
        "simulate", "--config", str(cfg_path), "--out", str(out),
        "--model", "linear", "--oracle-scorer", "--margin", "1",
    ]) == 0
    _, rows = read_csv(out / "policy_table.csv")
    table = {row[0]: (int(row[1]), int(row[2])) for row in rows}
    assert table["predictive"][1] == 0  # perfect foresight


def test_quantile_policy_without_model_errors(tmp_path):
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(CONFIG, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["adapt", "--config", str(cfg_path), "--out", str(out)]) == 0
    code = main(["simulate", "--config", str(cfg_path), "--out", str(out),
                 "--model", "linear"])
    assert code == 1  # quantile policy configured but no quantile model


def test_missing_split_file_errors(tmp_path):
    code = main(["adapt", "--split", "FD001", "--data-dir", str(tmp_path),
                 "--out", str(tmp_path / "o")])
    assert code == 1


def test_unknown_config_key_errors(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\nsplit = synthetic\nbogus_key = 1\n", encoding="utf-8")
    assert main(["adapt", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize(
    "exc",
    [TrainingDivergedError("loss diverged at epoch 3, step 41"),
     NonFiniteError("non-finite values in in_proj")],
)
def test_training_failure_prints_one_error_line(tmp_path, monkeypatch, capsys, exc):
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(CONFIG, encoding="utf-8")
    args = ["--config", str(cfg_path), "--out", str(tmp_path / "out")]
    assert main(["adapt"] + args) == 0

    def diverge(*_args, **_kwargs):
        raise exc

    monkeypatch.setattr("driftcal.cli.train_forecaster", diverge)
    capsys.readouterr()
    assert main(["train", "--model", "quantile"] + args) == 1
    err = capsys.readouterr().err
    assert err == f"error: {exc}\n"


def test_train_determinism_byte_identical_model(tmp_path):
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(CONFIG.replace("max_epochs = 6", "max_epochs = 2"), encoding="utf-8")
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert main(["adapt", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["train", "--model", "quantile", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        outs.append(out / "model_quantile.bin")
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("kind", ["linear", "quantile"])
def test_model_header_records_the_blas_kernel(workspace, kind):
    _, out, _ = workspace
    path = out / f"model_{kind}.bin"
    header = json.loads(path.read_bytes().split(b"\n", 2)[1])
    assert header["blas_kernel"] == blas_kernel()
    assert load_model(path).kind == kind  # the loader ignores the field


def test_train_log_has_one_row_per_epoch(workspace):
    _, out, _ = workspace
    _, rows = read_csv(out / "train_log_quantile.csv")
    assert len(rows) >= 1
    assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))


def _val_metric_line(path):
    return [line for line in path.read_text(encoding="utf-8").splitlines()
            if line.startswith("# val_metric=")]


@pytest.mark.parametrize(("kind", "metric"), [("linear", "none"), ("quantile", "pinball")])
def test_train_log_names_the_val_metric(workspace, kind, metric):
    _, out, _ = workspace
    assert _val_metric_line(out / f"train_log_{kind}.csv") == [f"# val_metric={metric}"]


def test_model_flag_offers_every_kind():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command in sub.choices.values():
        (model,) = [a for a in command._actions if a.dest == "model"]
        assert tuple(model.choices) == tuple(KINDS)


def test_model_file_of_unknown_kind_prints_one_error_line(workspace, tmp_path, capsys):
    root, out, _ = workspace
    copy = tmp_path / "bogus"
    shutil.copytree(out, copy)
    path = copy / "model_linear.bin"
    path.write_bytes(path.read_bytes().replace(b'"kind": "linear"', b'"kind": "bogus"', 1))
    capsys.readouterr()
    assert main(["evaluate", "--config", str(root / "run.ini"), "--out", str(copy)]) == 1
    assert capsys.readouterr().err == "error: unknown model kind 'bogus'\n"


def test_benchmark_file_split_roundtrip(tmp_path):
    # write a real-format train file and drive the FD001 code path with it
    from driftcal.cmapss_io import serialize_trajectories
    from driftcal.synthetic import synthetic_trajectories

    data_dir = tmp_path / "data"
    data_dir.mkdir()
    trajs = synthetic_trajectories(n_engines=5, seed=2, length_range=(80, 110))
    (data_dir / "train_FD001.txt").write_text(serialize_trajectories(trajs))
    out = tmp_path / "out"
    assert main(["adapt", "--split", "FD001", "--data-dir", str(data_dir),
                 "--seed", "2", "--out", str(out)]) == 0
    meta = json.loads((out / "adapted_meta.json").read_text())
    assert meta["split_tag"] == "FD001"
    assert len(meta["runs"]) == 5


def test_attention_cli_path(tmp_path):
    cfg_path = tmp_path / "tiny.ini"
    cfg_path.write_text(
        CONFIG.replace("max_epochs = 6", "max_epochs = 1")
        + "d_model = 8\nheads = 2\nlayers = 1\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    args = ["--config", str(cfg_path), "--out", str(out)]
    assert main(["adapt"] + args) == 0
    assert main(["train", "--model", "attention"] + args) == 0
    assert _val_metric_line(out / "train_log_attention.csv") == ["# val_metric=mae"]
    assert main(["evaluate"] + args) == 0
    assert main(["simulate", "--model", "attention",
                 "--config", str(cfg_path), "--out", str(out)]) == 1  # no quantile model
    cfg2 = tmp_path / "tiny2.ini"
    cfg2.write_text(cfg_path.read_text() + "\n[policy]\npolicies = reactive,predictive\n")
    assert main(["simulate", "--model", "attention", "--config", str(cfg2),
                 "--out", str(out)]) == 0
    _, rows = read_csv(out / "policy_table.csv")
    assert {r[0] for r in rows} == {"reactive", "predictive"}


@pytest.mark.parametrize("component", [TrainConfig, AdaptationConfig])
def test_component_configs_are_run_config_fields(component):
    run_defaults = {f.name: f.default for f in fields(RunConfig)}
    for f in fields(component):
        assert f.name in run_defaults, f.name
        assert run_defaults[f.name] == f.default, f.name


# (flag arguments, config key, value in the file, value the flag sets)
FLAG_OVERRIDES = [
    (["--data-dir", "flag_data"], "data_dir", "file_data", "flag_data"),
    (["--split", "FD003"], "split", "FD002", "FD003"),
    (["--seed", "21"], "seed", "5", 21),
    (["--window", "17"], "window", "25", 17),
    (["--stride", "3"], "stride", "2", 3),
    (["--model", "quantile"], "model", "linear", "quantile"),
    (["--margin", "9"], "margin", "2", 9),
    (["--period", "40"], "period", "30", 40),
    (["--capacity-k", "4"], "capacity_k", "2", 4),
    (["--cost-cal", "2.5"], "cost_cal", "1.5", 2.5),
    (["--cost-vio", "7.5"], "cost_vio", "6.5", 7.5),
    (["--oracle-scorer"], "oracle_scorer", "false", True),
    (["--svg"], "svg", "false", True),
    (["--out", "flag_out"], "out", "file_out", "flag_out"),
]


def test_override_table_covers_every_config_flag():
    dests = set(vars(build_parser().parse_args(["train"])))
    config_dests = dests & {f.name for f in fields(RunConfig)}
    assert {key for _, key, _, _ in FLAG_OVERRIDES} == config_dests


@pytest.mark.parametrize(("flag", "key", "file_value", "expected"), FLAG_OVERRIDES,
                         ids=[row[1] for row in FLAG_OVERRIDES])
def test_flag_overrides_config_file(tmp_path, flag, key, file_value, expected):
    ini = tmp_path / "c.ini"
    ini.write_text(f"[run]\n{key} = {file_value}\n", encoding="utf-8")
    from_file = build_config(build_parser().parse_args(["train", "--config", str(ini)]))
    assert getattr(from_file, key) != expected
    cfg = build_config(build_parser().parse_args(["train", "--config", str(ini), *flag]))
    assert getattr(cfg, key) == expected


@pytest.mark.parametrize(
    ("field", "value"),
    [("batch_size", 0), ("batch_size", -5), ("max_epochs", 0), ("heads", 0), ("d_model", 0),
     ("hidden_width", 0), ("layers", 0), ("layers", -1)],
)
def test_invalid_train_settings_print_one_error_line(workspace, tmp_path, capsys, field, value):
    _, out, _ = workspace
    kept = [line for line in CONFIG.splitlines() if not line.startswith(f"{field} =")]
    bad = tmp_path / "bad.ini"
    bad.write_text("\n".join(kept) + f"\n{field} = {value}\n", encoding="utf-8")  # in [train]
    capsys.readouterr()
    assert main(["train", "--model", "quantile", "--config", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {field} must be >= 1, got {value}\n"


@pytest.mark.parametrize(
    ("field", "value"),
    [("base_lr", "-1"), ("base_lr", "0"), ("base_lr", "nan"), ("base_lr", "inf"),
     ("weight_decay", "-0.01"), ("weight_decay", "nan"), ("weight_decay", "inf"),
     ("smooth_l1_beta", "0"), ("smooth_l1_beta", "-1"), ("smooth_l1_beta", "inf")],
)
def test_invalid_optimizer_settings_print_one_error_line(workspace, tmp_path, capsys, field,
                                                         value):
    _, out, _ = workspace
    kept = [line for line in CONFIG.splitlines() if not line.startswith(f"{field} =")]
    bad = tmp_path / "bad.ini"
    bad.write_text("\n".join(kept) + f"\n{field} = {value}\n", encoding="utf-8")  # in [train]
    capsys.readouterr()
    assert main(["train", "--model", "quantile", "--config", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    ("flag", "field", "value"),
    [("--capacity-k", "capacity_k", -3), ("--period", "period", -4), ("--margin", "margin", -1)],
)
def test_negative_schedule_settings_print_one_error_line(workspace, capsys, flag, field, value):
    root, out, _ = workspace
    capsys.readouterr()
    assert main(["simulate", "--model", "linear", flag, str(value),
                 "--config", str(root / "run.ini"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {field} must be >= 0, got {value}\n"


def test_simulate_reads_the_split_without_windowing(workspace, tmp_path, monkeypatch):
    root, out, _ = workspace

    def simulate_into(name):
        copy = tmp_path / name
        shutil.copytree(out, copy)
        (copy / "policy_table.csv").unlink()
        assert main(["simulate", "--model", "linear", "--config", str(root / "run.ini"),
                     "--out", str(copy)]) == 0
        return (copy / "policy_table.csv").read_bytes()

    def no_windowing(*_args, **_kwargs):
        raise AssertionError("simulate windowed the dataset")

    expected = simulate_into("plain")
    monkeypatch.setattr("driftcal.cli.label_and_window", no_windowing)
    monkeypatch.setattr("driftcal.pipeline.label_and_window", no_windowing)
    assert simulate_into("patched") == expected


# (test id, command and flags, config lines, the error line); each fails
# before any data is read
BAD_SETTINGS = [
    ("cost_cal", ["simulate"], "cost_cal = -1", "c_cal must be finite and >= 0, got -1.0"),
    ("cost_vio", ["simulate", "--cost-vio", "nan"], "",
     "c_vio must be finite and >= 0, got nan"),
    ("max_resets", ["adapt"], "max_resets = -2", "max_resets must be >= 0, got -2"),
    ("fraction_high", ["adapt"], "fraction_low = 1.5\nfraction_high = 2.5",
     "fraction_high must be in (0, 1), got 2.5"),
    ("fraction_low", ["adapt"], "fraction_low = 0.9\nfraction_high = 0.2",
     "fraction_low must be in (0, fraction_high = 0.2], got 0.9"),
    ("stitch_high", ["adapt"], "stitch_high = inf", "stitch_high must be finite and > 0, got inf"),
    ("stitch_low", ["adapt"], "stitch_low = 1.2",
     "stitch_low must be in (0, stitch_high = 1.05], got 1.2"),
    ("noise_sigma_frac", ["adapt"], "noise_sigma_frac = nan",
     "noise_sigma_frac must be finite and >= 0, got nan"),
    ("noise_reset_prob", ["adapt"], "noise_reset_prob = 7",
     "noise_reset_prob must be in [0, 1], got 7.0"),
    ("any_command", ["report"], "max_resets = -1", "max_resets must be >= 0, got -1"),
    ("top_k_zero", ["adapt"], "top_k = 0", "top_k must be in 1..21, got 0"),
    ("top_k_above_sensors", ["adapt"], "top_k = 22", "top_k must be in 1..21, got 22"),
    ("warmup_steps", ["train"], "warmup_steps = -1", "warmup_steps must be >= 0, got -1"),
    ("seed_train", ["train"], "seed = -1", "seed must be >= 0, got -1"),
    ("seed_adapt", ["adapt"], "seed = -1", "seed must be >= 0, got -1"),
    ("ridge_inf", ["train"], "ridge = inf", "ridge must be finite and >= 0, got inf"),
    ("ridge_nan", ["train", "--model", "linear"], "ridge = nan",
     "ridge must be finite and >= 0, got nan"),
    ("model", ["train"], "model = bogus",
     "model must be one of ('linear', 'quantile', 'attention'), got 'bogus'"),
    ("engines", ["train"], "engines = 0", "engines must be >= 1, got 0"),
    ("min_length", ["adapt"], "min_length = 10\nmax_length = 5",
     "min_length must be >= 20, got 10"),
    ("max_length", ["adapt"], "min_length = 40\nmax_length = 30",
     "max_length must be >= min_length = 40, got 30"),
    ("window", ["train", "--window", "0"], "", "window must be >= 1, got 0"),
    ("stride", ["evaluate", "--stride", "0"], "", "stride must be >= 1, got 0"),
    ("train_fraction_zero", ["train"], "train_fraction = 0",
     "train_fraction must be in (0, 1), got 0.0"),
    ("train_fraction_one", ["simulate"], "train_fraction = 1",
     "train_fraction must be in (0, 1), got 1.0"),
    ("capacity_window", ["simulate"], "capacity_window = 0", "capacity_window must be >= 1, got 0"),
    ("policies_empty", ["simulate"], "policies = ,",
     "policies must name at least one of ('reactive', 'fixed', 'predictive', 'quantile')"),
    ("policies_unknown", ["simulate"], "policies = reactive,bogus",
     "unknown policy kind 'bogus'; expected one of ('reactive', 'fixed', 'predictive', "
     "'quantile')"),
]


@pytest.mark.parametrize(("argv", "lines", "message"), [row[1:] for row in BAD_SETTINGS],
                         ids=[row[0] for row in BAD_SETTINGS])
def test_invalid_settings_print_one_error_line(tmp_path, capsys, argv, lines, message):
    bad = tmp_path / "bad.ini"
    keys = {line.split(" =")[0] for line in lines.splitlines()}
    kept = [line for line in CONFIG.splitlines() if line.split(" =")[0] not in keys]
    bad.write_text("\n".join(kept) + f"\n[extra]\n{lines}\n", encoding="utf-8")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([*argv, "--config", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()  # failed before any data was read or written


# (test id, command and flags, INI text or None, what the error line names;
# None names the INI file)
MALFORMED_INPUTS = [
    ("seed_flag", ["adapt", "--seed", "abc"], None, "seed must be an int, got 'abc'"),
    ("cost_cal_flag", ["simulate", "--cost-cal", "x"], None, "cost_cal must be a float, got 'x'"),
    ("split_choice", ["adapt", "--split", "bogus"], None, "--split"),
    ("unknown_flag", ["train", "--bogus", "1"], None, "--bogus"),
    ("no_command", [], None, "command"),
    ("max_epochs", ["train"], "[train]\nmax_epochs = 2.5\n", "max_epochs must be an int, got '2.5'"),
    ("svg", ["evaluate"], "[output]\nsvg = maybe\n", "svg must be one of "),
    ("no_section_header", ["adapt"], "seed = 3\n", None),
    ("key_twice", ["adapt"], "[run]\nseed = 1\nseed = 2\n", None),
    ("section_twice", ["adapt"], "[run]\nseed = 1\n[run]\nwindow = 30\n", None),
    ("line_without_equals", ["adapt"], "[run]\nseed = 1\ngarbage\n", None),
    ("default_and_section", ["adapt"], "[DEFAULT]\nseed = 1\n[run]\nseed = 2\n",
     "duplicate config key 'seed'"),
    ("not_utf8", ["adapt"], b"[run]\n\xff\xfe = 1\n", None),
]


@pytest.mark.parametrize(("argv", "ini", "names"), [row[1:] for row in MALFORMED_INPUTS],
                         ids=[row[0] for row in MALFORMED_INPUTS])
def test_malformed_input_prints_one_error_line(tmp_path, capsys, argv, ini, names):
    path = tmp_path / "bad.ini"
    if ini is not None:
        path.write_bytes(ini if isinstance(ini, bytes) else ini.encode("utf-8"))
        argv = [*argv, "--config", str(path)]
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([*argv, "--out", str(out)] if argv else []) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    assert (str(path) if names is None else names) in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("text", ["[DEFAULT]\nseed = 3\n",
                                  "[DEFAULT]\nseed = 3\n[run]\nwindow = 30\n[train]\nlayers = 1\n"],
                         ids=["alone", "with_two_sections"])
def test_default_section_keys_apply_once(tmp_path, text):
    ini = tmp_path / "c.ini"
    ini.write_text(text, encoding="utf-8")
    assert build_config(build_parser().parse_args(["report", "--config", str(ini)])).seed == 3


def test_ini_values_are_literal(tmp_path):
    ini = tmp_path / "percent.ini"
    ini.write_text("[run]\ndata_dir = /data/100%\nout = a%%b\n", encoding="utf-8")
    cfg = build_config(build_parser().parse_args(["adapt", "--config", str(ini)]))
    assert (cfg.data_dir, cfg.out) == ("/data/100%", "a%%b")


def test_entry_point_exit_codes(tmp_path):
    """python -m driftcal.cli runs sys.exit(main()), as the console script does."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "driftcal.cli", *argv], env=env,
                              capture_output=True, text=True)

    bad = run("adapt", "--seed", "abc", "--out", str(tmp_path / "out"))
    assert (bad.returncode, bad.stderr) == (1, "error: seed must be an int, got 'abc'\n")
    assert not (tmp_path / "out").exists()
    helped = run("--help")
    assert (helped.returncode, helped.stderr) == (0, "")
    assert helped.stdout.startswith("usage: driftcal")


@pytest.mark.parametrize(
    ("argv", "edit", "message"),
    [(["evaluate"], lambda meta: meta["config"].update(bogus=1),
      "TypeError: AdaptationConfig.__init__() got an unexpected keyword argument 'bogus'"),
     (["simulate", "--model", "linear"], lambda meta: meta["runs"][0]["segments"].insert(0, [1]),
      "IndexError: list index out of range")],
    ids=["config_key", "segment_entry"],
)
def test_malformed_metadata_prints_one_error_line(workspace, tmp_path, capsys, argv, edit,
                                                  message):
    root, out, _ = workspace
    copy = tmp_path / "malformed"
    shutil.copytree(out, copy)
    meta_path = copy / "adapted_meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    edit(meta)
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    capsys.readouterr()
    assert main([*argv, "--config", str(root / "run.ini"), "--out", str(copy)]) == 1
    assert capsys.readouterr().err == f"error: {meta_path} is malformed: {message}\n"


@pytest.mark.parametrize("command", ["train", "evaluate", "simulate"])
@pytest.mark.parametrize(("edit", "message"), [
    (lambda data: data[: len(data) // 2], "JSONDecodeError: .*"),
    (lambda data: b"\xff" + data,
     "UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte")],
    ids=["truncated", "not_utf8"])
def test_an_undecodable_metadata_file_prints_one_error_line(workspace, tmp_path, capsys, command,
                                                            edit, message):
    root, out, _ = workspace
    copy = tmp_path / "undecodable"
    shutil.copytree(out, copy)
    meta_path = copy / "adapted_meta.json"
    meta_path.write_bytes(edit(meta_path.read_bytes()))
    capsys.readouterr()
    assert main([command, "--model", "linear", "--config", str(root / "run.ini"),
                 "--out", str(copy)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(f"error: {re.escape(str(meta_path))} is malformed: {message}\n", err), err


def _with_header(header: bytes):
    """An edit that replaces a model file's JSON header line."""
    def edit(data: bytes) -> bytes:
        magic, _, blob = data.split(b"\n", 2)
        return b"\n".join([magic, header, blob])
    return edit


def _with_one_channel_standardizer(field: str):
    """An edit that keeps one channel of the header's standardizer ``field``,
    which would broadcast over all channels."""
    def edit(data: bytes) -> bytes:
        magic, header, blob = data.split(b"\n", 2)
        fields = json.loads(header)
        del fields["standardizer"][field][1:]
        return b"\n".join([magic, json.dumps(fields).encode("utf-8"), blob])
    return edit


def _with_header_field(name: str, value):
    """An edit that sets a model header's field ``name`` to ``value``, or
    drops the field for None."""
    def edit(data: bytes) -> bytes:
        magic, header, blob = data.split(b"\n", 2)
        fields = json.loads(header)
        fields[name] = value
        if value is None:
            del fields[name]
        return b"\n".join([magic, json.dumps(fields).encode("utf-8"), blob])
    return edit


def _with_train_engines(value):
    """An edit that sets the header's train_engines to ``value``, or drops
    the field for None."""
    return _with_header_field("train_engines", value)


@pytest.mark.parametrize(
    ("name", "edit", "message"),
    [("model_linear.bin", _with_header(b"[1]"),
      " is malformed: TypeError: list indices must be integers or slices, not str"),
     ("model_linear.bin", _with_header(b'{"kind": "linear"}'), " is malformed: KeyError: 'params'"),
     ("model_linear.bin", lambda data: data[:-4],
      r" is malformed: ValueError: \d+ parameter bytes, expected \d+"),
     ("model_linear.bin", lambda data: data + bytes(4),
      r" is malformed: ValueError: \d+ parameter bytes, expected \d+"),
     ("model_linear.bin", lambda data: data.replace(b"model v2", b"model v1", 1),
      r": not a 'driftcal-model v2' file \(magic 'driftcal-model v1'\); retrain it"),
     ("model_linear.bin", _with_one_channel_standardizer("mean"),
      r" is malformed: ValueError: standardizer mean of shape \(1,\), expected \(\d+,\)"),
     ("model_linear.bin", _with_one_channel_standardizer("std"),
      r" is malformed: ValueError: standardizer std of shape \(1,\), expected \(\d+,\)"),
     ("model_linear.bin", _with_train_engines(5),
      r" is malformed: train_engines 5 is not a list of ids"),
     ("model_linear.bin", _with_train_engines([1, "2"]),
      r" is malformed: train_engines \[1, '2'\] is not a list of ids"),
     ("adapted_meta.json", lambda data: b"[1]", " is malformed: not a JSON object")],
    ids=["header_list", "header_no_params", "truncated", "extra_bytes", "v1_magic",
         "standardizer_mean", "standardizer_std", "train_engines_int", "train_engines_mixed",
         "metadata_list"],
)
def test_malformed_file_prints_one_error_line(workspace, tmp_path, capsys, name, edit, message):
    root, out, _ = workspace
    copy = tmp_path / "malformed"
    shutil.copytree(out, copy)
    path = copy / name
    path.write_bytes(edit(path.read_bytes()))
    capsys.readouterr()
    assert main(["evaluate", "--config", str(root / "run.ini"), "--out", str(copy)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(f"error: {re.escape(str(path))}{message}\n", err), err


def test_evaluate_windows_only_the_validation_runs(workspace, tmp_path, monkeypatch):
    root, out, _ = workspace
    copy = tmp_path / "evaluated"
    shutil.copytree(out, copy)
    for name in ("metrics.csv", "scatter_linear.csv", "scatter_quantile.csv"):
        (copy / name).unlink()

    def no_windowing(*_args, **_kwargs):
        raise AssertionError("evaluate windowed the whole dataset")

    monkeypatch.setattr("driftcal.cli.label_and_window", no_windowing)
    monkeypatch.setattr("driftcal.pipeline.label_and_window", no_windowing)
    assert main(["evaluate", "--svg", "--config", str(root / "run.ini"), "--out", str(copy)]) == 0
    monkeypatch.undo()

    # the validation windows of the whole-dataset bundle, in one batch
    bundle = label_and_window(read_adapted_dataset(out), w=30, seed=13)
    for kind in ("linear", "quantile"):
        _, y, yhat = evaluate_forecaster(load_model(out / f"model_{kind}.bin"), bundle.val_raw)
        _, rows = read_csv(copy / f"scatter_{kind}.csv")
        assert rows == [[fmt_float(a), fmt_float(b)] for a, b in zip(y, yhat)]
    assert (copy / "metrics.csv").read_bytes() == (out / "metrics.csv").read_bytes()


def test_simulate_rejects_a_non_finite_validation_cell(workspace, tmp_path, capsys):
    root, out, _ = workspace
    copy = tmp_path / "nan"
    shutil.copytree(out, copy)
    meta = json.loads((copy / "adapted_meta.json").read_text(encoding="utf-8"))
    engines = [run["engine_id"] for run in meta["runs"]]
    engine = split_engines(engines, fraction=0.75, seed=13).val_engines[0]
    cycle = 50  # past the first window end (w = 30), so the first bad window ends here
    lines = (copy / "adapted.csv").read_text(encoding="utf-8").splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith(f"{engine},{cycle},"))
    cells = lines[row].split(",")
    cells[5] = "nan"  # the first channel, op_setting_1
    lines[row] = ",".join(cells)
    (copy / "adapted.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (copy / "adapt_manifest.json").unlink()  # else the edit is refused as another dataset
    capsys.readouterr()
    assert main(["simulate", "--model", "linear", "--config", str(root / "run.ini"),
                 "--out", str(copy)]) == 1
    assert capsys.readouterr().err == (
        f"error: engine {engine}: non-finite features at cycle {cycle}\n")


def test_evaluate_after_adapt_parses_no_csv(workspace, tmp_path, monkeypatch):
    """evaluate reads the channels from the binary mirror adapt wrote."""
    root, out, _ = workspace
    copy = tmp_path / "mirrored"
    shutil.copytree(out, copy)
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(a) or loadtxt(*a, **k))
    args = ["evaluate", "--svg", "--config", str(root / "run.ini"), "--out", str(copy)]
    assert main(args) == 0
    assert calls == []
    assert (copy / "metrics.csv").read_bytes() == (out / "metrics.csv").read_bytes()
    (copy / "adapted_channels.bin").unlink()  # a directory from before the mirror
    assert main(args) == 0
    assert len(calls) == 1
    assert (copy / "metrics.csv").read_bytes() == (out / "metrics.csv").read_bytes()


@pytest.mark.parametrize(("edit", "message"), [
    (lambda text: text.split("\n", 1)[0] + "\n", "no rows after the header"),
    (lambda text: text.replace("cycle,segment_id", "segment_id,cycle", 1),
     "the header line is not the adapted-dataset header")],
    ids=["header_only", "swapped_columns"])
def test_a_csv_without_rows_or_with_another_header_prints_one_error_line(
        workspace, tmp_path, capsys, edit, message):
    root, out, _ = workspace
    copy = tmp_path / "bad_csv"
    shutil.copytree(out, copy)
    path = copy / "adapted.csv"
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    capsys.readouterr()
    assert main(["train", "--model", "linear", "--config", str(root / "run.ini"),
                 "--out", str(copy)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("command", ["train", "evaluate", "simulate"])
def test_a_dataset_the_manifest_does_not_record_is_refused(workspace, tmp_path, capsys,
                                                           command):
    """A channel edited after adapt: the files still read, but their digest
    is not the manifest's."""
    root, out, _ = workspace
    copy = tmp_path / "edited"
    shutil.copytree(out, copy)
    path = copy / "adapted.csv"
    header, first, rest = path.read_text(encoding="utf-8").split("\n", 2)
    cells = first.split(",")
    cells[5] = "0.5"  # the first channel of the first row
    path.write_text("\n".join([header, ",".join(cells), rest]), encoding="utf-8")
    recorded = json.loads((copy / "adapt_manifest.json").read_text())["dataset_digest"]
    actual = sha256_file(path, prefix=(copy / "adapted_meta.json").read_bytes())
    assert actual != recorded
    capsys.readouterr()
    assert main([command, "--model", "linear", "--config", str(root / "run.ini"),
                 "--out", str(copy)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path} and adapted_meta.json hash to dataset digest {actual}, "
        f"not the expected {recorded}\n")


@pytest.mark.parametrize(("text", "message"), [
    ("{", "JSONDecodeError: Expecting property name enclosed in double quotes: line 1 column 2 "
          "(char 1)"),
    ("{}", "KeyError: 'dataset_digest'"),
    ("[1]", "TypeError: list indices must be integers or slices, not str")],
    ids=["truncated", "no_digest", "list"])
def test_a_malformed_manifest_prints_one_error_line(workspace, tmp_path, capsys, text, message):
    root, out, _ = workspace
    copy = tmp_path / "manifest"
    shutil.copytree(out, copy)
    path = copy / "adapt_manifest.json"
    path.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(["evaluate", "--config", str(root / "run.ini"), "--out", str(copy)]) == 1
    assert capsys.readouterr().err == f"error: {path} is malformed: {message}\n"


def test_unknown_policy_fails_before_any_replay(workspace, tmp_path, capsys):
    root, out, _ = workspace
    copy = tmp_path / "bogus"
    shutil.copytree(out, copy)
    before = {path.name: path.read_bytes() for path in copy.iterdir()}
    bad = tmp_path / "bogus.ini"
    bad.write_text(CONFIG + "\n[policy]\npolicies = reactive,bogus\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["simulate", "--model", "linear", "--config", str(bad), "--out", str(copy)]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 1 and captured.out == ""
    assert {path.name: path.read_bytes() for path in copy.iterdir()} == before
    assert "events_reactive.csv" in before


@pytest.fixture(scope="module")
def trained_at_seed_7(workspace, tmp_path_factory):
    """A copy of the workspace whose two models were retrained at seed 7."""
    root, out, _ = workspace
    copy = tmp_path_factory.mktemp("seed_7") / "out"
    shutil.copytree(out, copy)
    for kind in ("linear", "quantile"):
        assert main(["train", "--model", kind, "--seed", "7", "--config", str(root / "run.ini"),
                     "--out", str(copy)]) == 0
    return root, copy


@pytest.mark.parametrize("command", ["evaluate", "simulate"])
def test_a_model_trained_on_a_validation_engine_is_refused(trained_at_seed_7, capsys, command):
    root, out = trained_at_seed_7
    engines = [run.engine_id for run in read_adapted_dataset(out).runs]
    train = split_engines(engines, fraction=0.75, seed=7).train_engines
    val = split_engines(engines, fraction=0.75, seed=8).val_engines
    shared = [engine for engine in train if engine in val]
    assert shared  # the two splits overlap, so seed 8 would score training engines
    assert json.loads((out / "model_linear.bin").read_bytes().split(b"\n")[1])[
        "train_engines"] == list(train)
    args = [command, "--model", "linear", "--config", str(root / "run.ini"), "--out", str(out)]
    capsys.readouterr()
    assert main([*args, "--seed", "8"]) == 1
    assert capsys.readouterr().err == (
        f"error: {out / 'model_linear.bin'} was trained at seed 7 on engine {shared[0]}, "
        f"which seed 8 holds out for validation; retrain it at seed 8\n")
    assert main([*args, "--seed", "7"]) == 0


def test_a_model_without_train_engines_loads_as_before(trained_at_seed_7, tmp_path):
    root, out = trained_at_seed_7
    copy = tmp_path / "old_header"
    shutil.copytree(out, copy)
    for kind in ("linear", "quantile"):
        path = copy / f"model_{kind}.bin"
        path.write_bytes(_with_train_engines(None)(path.read_bytes()))
    args = ["--seed", "8", "--config", str(root / "run.ini"), "--out", str(copy)]
    assert main(["evaluate", *args]) == 0
    assert main(["simulate", "--model", "linear", *args]) == 0


@pytest.fixture(scope="module")
def readapted(workspace, tmp_path_factory):
    """A copy of the workspace adapted again with another reset probability
    (so another dataset digest, over the same engines and split), keeping
    the models trained on the first dataset; and its config file."""
    root, out, _ = workspace
    copy = tmp_path_factory.mktemp("readapted") / "out"
    shutil.copytree(out, copy)
    ini = root / "readapt.ini"
    ini.write_text(CONFIG + "\n[adapt]\nnoise_reset_prob = 0.25\n", encoding="utf-8")
    assert main(["adapt", "--config", str(ini), "--out", str(copy)]) == 0
    return copy, ini


@pytest.mark.parametrize("command", ["evaluate", "simulate"])
def test_a_model_trained_on_another_dataset_is_refused(workspace, readapted, capsys, command):
    _, out, _ = workspace
    copy, ini = readapted
    trained_on = json.loads((out / "adapt_manifest.json").read_text())["dataset_digest"]
    current = json.loads((copy / "adapt_manifest.json").read_text())["dataset_digest"]
    assert trained_on != current
    path = copy / "model_linear.bin"
    assert json.loads(path.read_bytes().split(b"\n")[1])["dataset_digest"] == trained_on
    capsys.readouterr()
    assert main([command, "--model", "linear", "--config", str(ini), "--out", str(copy)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path} was trained on dataset digest {trained_on}, not the {current} "
        f"adapt_manifest.json records; retrain it\n")


def test_a_model_without_a_dataset_digest_or_a_dir_without_a_manifest_loads_as_before(
        readapted, tmp_path):
    copy, ini = readapted
    legacy_model, no_manifest = tmp_path / "legacy_model", tmp_path / "no_manifest"
    for target in (legacy_model, no_manifest):
        shutil.copytree(copy, target)
    for kind in ("linear", "quantile"):
        path = legacy_model / f"model_{kind}.bin"
        path.write_bytes(_with_header_field("dataset_digest", None)(path.read_bytes()))
    (no_manifest / "adapt_manifest.json").unlink()
    for target in (legacy_model, no_manifest):
        args = ["--config", str(ini), "--out", str(target)]
        assert main(["evaluate", *args]) == 0
        assert main(["simulate", "--model", "linear", *args]) == 0
