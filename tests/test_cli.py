import json
import os

import numpy as np
import pytest

from conftest import tiny_config
from eshopsim import cli, tcn
from eshopsim.config import ConfigError, ExperimentConfig, config_hash, load_config, save_config
from eshopsim.dataset import DataError


def test_default_config_round_trip(tmp_path):
    cfg = ExperimentConfig()
    path = tmp_path / "cfg.json"
    save_config(path, cfg)
    loaded = load_config(path)
    assert loaded.to_dict() == cfg.to_dict()
    assert config_hash(loaded) == config_hash(cfg)


def test_config_hash_ignores_output_dir():
    a = ExperimentConfig(output_dir="runs/a")
    b = ExperimentConfig(output_dir="runs/b")
    assert config_hash(a) == config_hash(b)
    c = ExperimentConfig(master_seed=2)
    assert config_hash(c) != config_hash(a)


def test_config_hash_coerces_declared_types():
    # 16 and 16.0 are one duration; a run directory must accept either spelling
    ints = ExperimentConfig.from_dict(
        {"scenario": {"duration_s": 16, "speeds_mps": [25, 31]}, "signaling": {"guard_ms": 200}}
    )
    floats = ExperimentConfig.from_dict(
        {
            "scenario": {"duration_s": 16.0, "speeds_mps": [25.0, 31.0]},
            "signaling": {"guard_ms": 200.0},
        }
    )
    assert config_hash(ints) == config_hash(floats)
    assert isinstance(ints.scenario.duration_s, float)
    # and an int field written as an integral float is that int
    as_float = ExperimentConfig.from_dict({"model": {"dilations": [1.0, 2.0]}})
    assert as_float.model.dilations == (1, 2) and isinstance(as_float.model.dilations[0], int)
    as_int = ExperimentConfig.from_dict({"model": {"dilations": [1, 2]}})
    assert config_hash(as_float) == config_hash(as_int)
    with pytest.raises(ConfigError, match="not an integer"):
        ExperimentConfig.from_dict({"scenario": {"num_ues": 2.5}})


def test_config_refuses_ttt_mismatch():
    # the TTT is the HCP block's; the signaling bounds are checked against it
    ok = ExperimentConfig.from_dict({"hcp": {"ttt_ms": 160}, "signaling": {"d_prep_max_ms": 120}})
    assert ok.hcp.ttt_ms == 160
    with pytest.raises(ConfigError, match="guard_ms"):
        ExperimentConfig.from_dict({"hcp": {"ttt_ms": 160}, "signaling": {"guard_ms": 120}})
    with pytest.raises(ConfigError, match="d_prep_max_ms"):
        ExperimentConfig.from_dict({"hcp": {"ttt_ms": 40}, "signaling": {"d_prep_max_ms": 60}})
    with pytest.raises(ConfigError, match="unknown keys"):
        ExperimentConfig.from_dict({"hcp": {"ttt_ms": 160}, "signaling": {"ttt_ms": 40}})


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"scenario": {"num_ues": 3, "bogus": 1}}))
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(path)
    path.write_text(json.dumps({"not_a_block": {}}))
    with pytest.raises(ConfigError, match="top-level"):
        load_config(path)
    path.write_text("{ not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)


def test_main_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": {"num_ues": 0}}))
    assert cli.main(["simulate", "--config", str(bad)]) == 2
    # build-dataset before simulate: missing logs -> data error
    out = tmp_path / "run"
    cfgfile = tmp_path / "cfg.json"
    save_config(cfgfile, tiny_config(out))
    assert cli.main(["build-dataset", "--config", str(cfgfile)]) == 3
    assert cli.main(["report", str(tmp_path / "nowhere")]) == 3
    # a log of another schema is a data error, not a crash
    assert cli.main(["simulate", "--config", str(cfgfile)]) == 0
    reports = out / "reports.csv"
    good = reports.read_text()
    reports.write_text(good.replace("report-log/2", "report-log/1", 1))
    assert cli.main(["build-dataset", "--config", str(cfgfile)]) == 3
    reports.write_text(good)
    # an event log whose UE opens with an A3 or ABORT (no T0), or an unknown kind
    for first in ("ue000,A3,40,0,1", "ue000,ABORT,40,0,1", "ue000,HO,40,0,1"):
        (out / "events.csv").write_text(
            "# schema=event-log/1\nue_id,kind,t_ms,serving,target\n" + first + "\n"
        )
        assert cli.main(["build-dataset", "--config", str(cfgfile)]) == 3


def _run_pipeline(out_dir, cfg=None):
    cfg = cfg or tiny_config(out_dir)
    assert cli.cmd_simulate(cfg)["a3_count"] > 0
    cli.cmd_build_dataset(cfg, quiet=True)
    cli.cmd_train(cfg)
    cli.cmd_eval(cfg)
    cli.cmd_eshop(cfg, oracle=True)
    return cfg


def test_full_pipeline_artifacts(tmp_path):
    out = tmp_path / "run"
    cfg = _run_pipeline(out)
    paths = cli._paths(str(out))
    for key in ("reports", "events", "model", "history", "metrics", "predictions", "comparison", "cdf", "summary"):
        assert os.path.exists(paths[key]), key
    with open(paths["summary"]) as fh:
        summary = json.load(fh)
    assert summary["schema_version"] == cli.SUMMARY_SCHEMA
    assert summary["config_hash"] == config_hash(cfg)
    assert summary["simulate"]["a3_count"] >= summary["simulate"]["cmd_count"]
    assert summary["eval"]["test"]["n"] > 0
    assert summary["eshop"]["n_compared"] > 0
    # k=3, dilations (1, 2, 4), W=16: receptive field 15 < W, so no tap is dead
    _, header = tcn.load_model(paths["model"])
    shape = {"receptive_field": 15, "window_len": 16, "live_param_count": header["param_count"]}
    for key, value in shape.items():
        assert header["extra"][key] == summary["train"][key] == value
    # oracle-fed countdown never wastes a preparation
    assert summary["eshop"]["wasted_rate"] == 0.0
    with open(paths["metrics"]) as fh:
        metrics = json.load(fh)
    assert metrics["metrics"]["rmse_s"] >= 0.0


def test_eval_matches_library_evaluate(tmp_path):
    from eshopsim.dataset import WindowBank, read_dataset

    out = tmp_path / "run"
    cfg = _run_pipeline(out)
    paths = cli._paths(str(out))
    params, _ = tcn.load_model(paths["model"])
    bundle = read_dataset(paths["dataset"])
    bank = WindowBank.labeled(bundle.splits["test"], bundle.meta.window_len, dtype=np.float32)
    rep = tcn.evaluate(params, bank)
    with open(paths["metrics"]) as fh:
        stored = json.load(fh)["metrics"]
    assert stored["rmse_s"] == rep.rmse_s
    assert stored["r2"] == rep.r2


def test_cdf_file_is_monotone(tmp_path):
    out = tmp_path / "run"
    _run_pipeline(out)
    rows = []
    with open(cli._paths(str(out))["cdf"]) as fh:
        fh.readline()
        fh.readline()
        for line in fh:
            x, p = line.strip().split(",")
            rows.append((float(x), float(p)))
    xs = [r[0] for r in rows]
    ps = [r[1] for r in rows]
    assert xs == sorted(xs)
    assert ps == sorted(ps)
    assert ps[-1] == 1.0


def _artifact_bytes(run_dir):
    """Every file of a run directory except the wall-clock timings.json."""
    return {
        str(p.relative_to(run_dir)): p.read_bytes()
        for p in sorted(run_dir.rglob("*"))
        if p.is_file() and p.name != "timings.json"
    }


def test_pipeline_outputs_are_deterministic(tmp_path):
    runs = []
    for name in ("a", "b"):
        cfg = _run_pipeline(tmp_path / name)
        cli.cmd_eshop(cfg)
        runs.append(_artifact_bytes(tmp_path / name))
    assert {"reports.csv", "events.csv", "dataset/train.npz", "dataset/meta.json"} <= set(runs[0])
    assert runs[0] == runs[1]


def test_los_flag_changes_channel(tmp_path):
    cfg = tiny_config(tmp_path / "los")
    cli.cmd_simulate(cfg)
    cfg_n = tiny_config(tmp_path / "nlos")
    cfg_n.channel.los_mode = "nlos"
    cli.cmd_simulate(cfg_n)
    a = (tmp_path / "los" / "reports.csv").read_text().splitlines()[2]
    b = (tmp_path / "nlos" / "reports.csv").read_text().splitlines()[2]
    assert a != b


def test_report_merges_runs(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    _run_pipeline(out1)
    # identical config, second run dir
    cfg2 = tiny_config(out2)
    _run_pipeline(out2, cfg2)
    report = tmp_path / "report.csv"
    result = cli.cmd_report([str(out1), str(out2)], str(report))
    assert result["groups"] == ["los"]
    lines = report.read_text().splitlines()
    assert lines[0].startswith("# schema=consolidated-report/1")
    header = lines[1].split(",")
    assert header == ["metric", "los_mean", "los_std"]
    for line in lines[2:]:
        name, mean, std = line.split(",")
        if std:
            assert float(std) == 0.0  # identical runs -> zero spread


def test_report_rejects_schema_mismatch(tmp_path):
    out = tmp_path / "run"
    _run_pipeline(out)
    summary = json.loads((out / "summary.json").read_text())
    summary["schema_version"] = "run-summary/999"
    (out / "summary.json").write_text(json.dumps(summary))
    with pytest.raises(DataError, match="schema"):
        cli.cmd_report([str(out)], str(tmp_path / "r.csv"))


def test_summary_refuses_mixed_configs(tmp_path):
    out = tmp_path / "run"
    _run_pipeline(out)
    before = _artifact_bytes(out)
    other = tiny_config(out, master_seed=99)
    commands = (cli.cmd_simulate, cli.cmd_build_dataset, cli.cmd_train, cli.cmd_eval, cli.cmd_eshop)
    for command in commands:
        with pytest.raises(DataError, match="different configuration"):
            command(other)
        assert _artifact_bytes(out) == before  # refused before writing anything


def test_eshop_refuses_model_of_another_config(tmp_path):
    out = tmp_path / "run"
    cfg = _run_pipeline(out)
    _run_pipeline(tmp_path / "other", tiny_config(tmp_path / "other", master_seed=99))
    (out / "model.tcn").write_bytes((tmp_path / "other" / "model.tcn").read_bytes())
    before = _artifact_bytes(out)
    with pytest.raises(DataError, match="different configuration"):
        cli.cmd_eshop(cfg)
    assert _artifact_bytes(out) == before
