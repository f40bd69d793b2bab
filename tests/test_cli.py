"""End-to-end CLI runs on a small synthetic split."""

import json
import shutil
from dataclasses import fields

import pytest

from driftcal.adaptation import AdaptationConfig
from driftcal.cli import RunConfig, build_config, build_parser, main
from driftcal.models import NonFiniteError, TrainConfig, TrainingDivergedError
from driftcal.util import read_csv, sha256_file

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


def test_train_log_has_one_row_per_epoch(workspace):
    _, out, _ = workspace
    _, rows = read_csv(out / "train_log_quantile.csv")
    assert len(rows) >= 1
    assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))


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
     ("hidden_width", 0)],
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
     ("smooth_l1_beta", "0"), ("smooth_l1_beta", "-1")],
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
