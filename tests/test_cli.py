import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import eshopsim
from conftest import TINY, artifact_bytes, make_config, series_of_runs, tiny_config
from eshopsim import cli, tcn
from eshopsim.channel import ChannelParams
from eshopsim.config import ConfigError, ExperimentConfig, config_hash, load_config
from eshopsim.dataset import (
    DataError,
    DatasetConfig,
    build_dataset,
    read_dataset,
    standardized_rows,
    write_dataset,
)
from eshopsim.seeds import derive_seed
from eshopsim.simulate import read_event_log, read_report_log, run_scenario


def leaves(doc, prefix=""):
    """(dotted key, value) of each settable value of a configuration document."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


def test_default_config_round_trip(tmp_path):
    cfg = ExperimentConfig()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    loaded = load_config(path)
    assert loaded.to_dict() == cfg.to_dict()
    assert config_hash(loaded) == config_hash(cfg)


def test_readme_config_lists_every_key():
    # the Configuration section's example lists every key, at its default
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    example = re.search(r"## Configuration.*?```json\n(.*?)```", readme, re.S).group(1)
    doc = json.loads(example)
    assert [key for key, _ in leaves(doc)] == [key for key, _ in leaves(ExperimentConfig().to_dict())]
    assert ExperimentConfig.from_dict(doc) == ExperimentConfig()


def test_config_hash_ignores_output_dir():
    a = ExperimentConfig(output_dir="runs/a")
    b = ExperimentConfig(output_dir="runs/b")
    assert config_hash(a) == config_hash(b)
    c = ExperimentConfig(master_seed=2)
    assert config_hash(c) != config_hash(a)


def test_config_hash_is_pinned():
    # a change that moves these hashes invalidates every run directory made
    # before it; it must edit them here and say so
    assert config_hash(ExperimentConfig()) == "c5619f9bc0f1b9c9"
    assert config_hash(make_config("runs/x", 501, "los", 20, 16.0, 3)) == "c55053b9f3957a83"
    assert config_hash(make_config("runs/x", 501, "nlos", 20, 16.0, 3)) == "109e7bc2e4ac0665"


# the values make_config sets: the experiment's size, mode, seed and output
SIZED = {"scenario.num_ues", "scenario.duration_s", "train.epochs", "channel.los_mode", "master_seed", "output_dir"}


def test_the_experiment_is_the_default_configuration():
    # make_config changes only the sized values of the default, and
    # tiny_config restates none of the default's values
    default = dict(leaves(ExperimentConfig().to_dict()))
    for mode in ("los", "nlos"):
        made = dict(leaves(make_config("runs/x", 501, mode, 20, 16.0, 3).to_dict()))
        assert made.keys() == default.keys()
        assert {k for k in made if made[k] != default[k]} <= SIZED
    tiny = dict(leaves(ExperimentConfig.from_dict(TINY).to_dict()))
    assert [k for k, _ in leaves(TINY) if tiny[k] == default[k]] == []


def test_settable_config_values_are_listed():
    # every settable value of the experiment; a new knob must edit this list
    assert [key for key, _ in leaves(ExperimentConfig().to_dict())] == [
        "scenario.speeds_mps", "scenario.duration_s", "scenario.num_ues",
        "channel.los_mode", "channel.shadow_sigma_los_db", "channel.shadow_sigma_nlos_db",
        "channel.decorrelation_distance_m",
        "hcp.ttt_ms", "hcp.hysteresis_db", "hcp.offset_db",
        "dataset.window_len", "dataset.horizon_s", "dataset.split_ratios",
        "train.epochs", "train.patience", "train.seed",
        "output_dir", "master_seed",
    ]


def test_config_hash_coerces_declared_types():
    # 16 and 16.0 are one duration; a run directory must accept either spelling
    ints = ExperimentConfig.from_dict(
        {
            "scenario": {"duration_s": 16, "speeds_mps": [25, 31]},
            "hcp": {"offset_db": 3},
        }
    )
    floats = ExperimentConfig.from_dict(
        {
            "scenario": {"duration_s": 16.0, "speeds_mps": [25.0, 31.0]},
            "hcp": {"offset_db": 3.0},
        }
    )
    assert config_hash(ints) == config_hash(floats)
    assert isinstance(ints.scenario.duration_s, float)
    # and an int field written as an integral float is that int
    as_float = ExperimentConfig.from_dict({"dataset": {"window_len": 32.0}})
    assert as_float.dataset.window_len == 32 and isinstance(as_float.dataset.window_len, int)
    as_int = ExperimentConfig.from_dict({"dataset": {"window_len": 32}})
    assert config_hash(as_float) == config_hash(as_int)
    with pytest.raises(ConfigError, match="not an integer"):
        ExperimentConfig.from_dict({"scenario": {"num_ues": 2.5}})


def test_config_refuses_ttt_mismatch():
    # the TTT is the HCP block's: the preparation latency fits inside it and
    # the 200 ms guard outlasts it
    ok = ExperimentConfig.from_dict({"hcp": {"ttt_ms": 160}})
    assert ok.hcp.ttt_ms == 160
    with pytest.raises(ConfigError, match="ttt_ms"):
        ExperimentConfig.from_dict({"hcp": {"ttt_ms": 200}})
    with pytest.raises(ConfigError, match=r"unknown top-level keys in config: \['signaling'\]"):
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
    # ratios that sum to 1 with a negative one would leave val and test empty
    path.write_text(json.dumps({"dataset": {"split_ratios": [1.2, -0.1, -0.1]}}))
    with pytest.raises(ConfigError, match="non-negative"):
        load_config(path)
    # removed settings (the A5 event, fields with one legal value or no reader,
    # switches no run turned on): a file that still sets one is refused
    removed = [
        ("hcp", "event_type", "A3"),
        ("hcp", "a5_threshold1_dbm", -100.0),
        ("channel", "fc_ghz", 28.0),
        ("channel", "bandwidth_mhz", 100.0),
        ("model", "output_dim", 1),
        ("train", "lr_decay_factor", 1.0),
        ("train", "lr_decay_patience", 0),
        ("scenario", "seed", None),
        # the fixed site: beam grid, transmit power, fading switch, Adam constants
        ("channel", "beam_grid", {}),
        ("channel", "tx_power_per_ssb_dbm", 30.0),
        ("channel", "fast_fading_enabled", True),
        ("train", "beta1", 0.9),
        ("train", "beta2", 0.999),
        ("train", "eps", 1e-8),
        # values no run varies: the paper TCN (the whole model block), the
        # circle radii, the fading sigma and the preparation timeline
        ("model", "kernel_size", 11),
        ("scenario", "radius_min_m", 40.0),
        ("scenario", "radius_max_m", 60.0),
        ("channel", "fast_fading_sigma_db", 2.0),
        ("signaling", "d_prep_min_ms", 15.0),
        ("signaling", "d_prep_max_ms", 35.0),
        ("signaling", "guard_ms", 200.0),
        # the model has one precision, tcn.DTYPE
        ("train", "dtype", "float32"),
        # values no run varies: Adam's step size, the batch and the model's
        # trigger rule (tcn._Adam.ALPHA, tcn.BATCH_SIZE, controller.MODEL_RULE)
        ("train", "learning_rate", 1e-3),
        ("train", "batch_size", 64),
        ("signaling", "trigger_threshold_ms", 40.0),
        ("signaling", "consecutive_required", 2),
    ]
    for block, key, value in removed:
        path.write_text(json.dumps({block: {key: value}, "output_dir": str(tmp_path / "run")}))
        assert cli.main(["simulate", "--config", str(path)]) == 2, key
    assert not (tmp_path / "run").exists()


def _model_headers(blob: bytes):
    """The model file's JSON header, and a function that swaps in another."""
    hlen = int.from_bytes(blob[4:8], "little")

    def with_header(header) -> bytes:
        text = json.dumps(header, sort_keys=True).encode("utf-8")
        return blob[:4] + len(text).to_bytes(4, "little") + text + blob[8 + hlen :]

    return json.loads(blob[8 : 8 + hlen]), with_header


def test_main_exit_codes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where a null output_dir would have written
    out = tmp_path / "run"
    bad = tmp_path / "bad.json"
    # out of range, a mode that is no string, a boolean or a string where a
    # number goes, a number that is not finite (json.dumps writes the raw NaN
    # and Infinity tokens) and an output directory that is no string
    for block in (
        {"scenario": {"num_ues": 0}}, {"train": {"patience": -1}}, {"channel": {"los_mode": 1}},
        {"master_seed": True}, {"scenario": {"num_ues": True}},
        {"hcp": {"hysteresis_db": True}}, {"train": {"epochs": True}},
        {"dataset": {"horizon_s": math.nan}}, {"scenario": {"duration_s": math.nan}},
        {"hcp": {"offset_db": math.inf}}, {"channel": {"shadow_sigma_los_db": math.nan}},
        {"output_dir": None}, {"master_seed": "1"},
        {"dataset": {"split_ratios": [1.2, -0.1, -0.1]}},
    ):
        bad.write_text(json.dumps({"output_dir": str(out), **block}))
        for command in ("simulate", "build-dataset"):
            assert cli.main([command, "--config", str(bad)]) == 2, block
    assert not out.exists() and sorted(os.listdir(tmp_path)) == ["bad.json"]
    # eval scores the test split only, and the mode is set in the config only
    for argv in (["eval", "--split", "val"], ["simulate", "--los", "nlos"]):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(out)])
        assert exc.value.code == 2
    assert not out.exists()
    # build-dataset before simulate: missing logs -> data error
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(tiny_config(out).to_dict()))
    assert cli.main(["build-dataset", "--config", str(cfgfile)]) == 3
    assert cli.main(["report", str(tmp_path / "nowhere")]) == 3
    # a log of another schema is a data error, not a crash
    assert cli.main(["simulate", "--config", str(cfgfile)]) == 0
    reports = out / "reports.csv"
    good = reports.read_text()
    # a log headed report-log/2, as a run directory made before the
    # per-cell best-beam log is, is refused too
    stale = good.replace("report-log/3", "report-log/2", 1)
    assert stale != good
    reports.write_text(stale)
    assert cli.main(["build-dataset", "--config", str(cfgfile)]) == 3
    reports.write_text(good)
    # an event log whose UE opens with an A3 or ABORT (no T0), or an unknown kind
    events = out / "events.csv"
    good_events = events.read_text()
    for first in ("ue000,A3,40,0,1", "ue000,ABORT,40,0,1", "ue000,HO,40,0,1"):
        events.write_text("# schema=event-log/1\nue_id,kind,t_ms,serving,target\n" + first + "\n")
        assert cli.main(["build-dataset", "--config", str(cfgfile)]) == 3
    events.write_text(good_events)
    for command in ("build-dataset", "train"):
        assert cli.main([command, "--config", str(cfgfile)]) == 0
    # a model file cut short
    model = out / "model.tcn"
    good_model = model.read_bytes()
    model.write_bytes(good_model[:-10])
    for command in ("eval", "eshop"):
        assert cli.main([command, "--config", str(cfgfile)]) == 3
    # a model header without its parameter count or its model configuration,
    # or not a JSON object
    header, with_header = _model_headers(good_model)
    lacking = [{k: v for k, v in header.items() if k != key} for key in ("param_count", "config")]
    # or whose extra is not an object, or names no configuration
    unbound = {k: v for k, v in header["extra"].items() if k != "config_hash"}
    # or whose parameter count is no non-negative integer, or not its config's
    count = header["param_count"]
    miscounted = [
        {**header, "param_count": value}
        for value in (None, str(count), count + 0.5, float(count), True, -1, count - 1, count + 1)
    ]
    for broken in (*lacking, [], {**header, "extra": []}, {**header, "extra": unbound}, *miscounted):
        model.write_bytes(with_header(broken))
        for command in ("eval", "eshop"):
            assert cli.main([command, "--config", str(cfgfile)]) == 3
    model.write_bytes(good_model)
    # a summary.json cut short or not an object: every command refuses before writing
    summary = out / "summary.json"
    good_summary = summary.read_text()
    report = tmp_path / "report.csv"
    for text in (good_summary[: len(good_summary) // 2], "[]"):
        summary.write_text(text)
        before = artifact_bytes(out)
        for command in ("simulate", "build-dataset", "train", "eval", "eshop"):
            assert cli.main([command, "--config", str(cfgfile)]) == 3
        assert cli.main(["report", str(out), "--out-file", str(report)]) == 3
        assert artifact_bytes(out) == before and not report.exists()
    summary.write_text(good_summary)
    # half a dataset meta.json, one without a field, one of the older schema
    # that still lists the cell ids, and fields of the wrong type or range
    meta = out / "dataset" / "meta.json"
    good_meta = meta.read_text()
    doc = json.loads(good_meta)
    older = {**doc, "schema_version": "dataset/2", "cell_ids": [0, 1, 2]}
    std = doc["rsrp_std"]
    mistyped = [
        {**doc, **fields} for fields in (
            {"window_len": "16"}, {"window_len": 16.5}, {"window_len": 0},
            {"rsrp_std": [math.nan, *std[1:]]}, {"rsrp_std": [0.0, *std[1:]]},
            {"rsrp_std": [-1.0, *std[1:]]}, {"rsrp_mean": "-80"}, {"rsrp_std": std * 2},
        )
    ]
    del doc["rsrp_std"]
    texts = [good_meta[: len(good_meta) // 2], json.dumps(doc), json.dumps(older)]
    for text in texts + [json.dumps(d) for d in mistyped]:
        meta.write_text(text)
        before = artifact_bytes(out)
        for command in ("train", "eshop"):
            assert cli.main([command, "--config", str(cfgfile)]) == 3, text
        assert artifact_bytes(out) == before
    # a meta.json that binds only some of the split files
    doc = json.loads(good_meta)
    del doc["file_sha256"]["test.npz"]
    meta.write_text(json.dumps(doc))
    before = artifact_bytes(out)
    for command in (["train"], ["eval"], ["eshop"], ["eshop", "--oracle"]):
        assert cli.main([*command, "--config", str(cfgfile)]) == 3, command
    assert artifact_bytes(out) == before
    meta.write_text(good_meta)
    # simulate runs in one process: --parallel is no command's option
    for command in ("simulate", "train"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(cfgfile), "--parallel", "2"])
        assert exc.value.code == 2


def _data_row(lines, kind):
    """Index of the first data row of an event kind."""
    return next(i for i, line in enumerate(lines) if i > 1 and line.split(",")[1] == kind)


def _with_cells(cells, kind="A3", shift=-1):
    """Corruption: the row ``shift`` after the first ``kind`` event gets
    ``cells(serving, target)``; by default the T0 of the first A3 episode."""

    def corrupt(lines):
        i = _data_row(lines, kind) + shift
        *head, serving, target = lines[i].split(",")
        lines[i] = ",".join([*head, *cells(serving, target)])

    return corrupt


def _move_first_abort_to_end(lines):
    """Moves a UE's first T0/ABORT pair after that UE's last event."""
    i = _data_row(lines, "ABORT")
    ue = lines[i].split(",")[0]
    pair = lines[i - 1 : i + 1]
    del lines[i - 1 : i + 1]
    last = max(j for j, line in enumerate(lines) if line.startswith(ue + ","))
    lines[last + 1 : last + 1] = pair


def _set_cell(lines, i, col, value):
    """Corruption: cell ``col`` of line ``i`` becomes ``value(cell)``."""
    cells = lines[i].split(",")
    cells[col] = value(cells[col])
    lines[i] = ",".join(cells)


def _first_a3_episode_before_zero(lines):
    """Moves the first T0/A3/CMD episode ahead of its UE's first event, at
    -80, -40 and -20 ms."""
    i = _data_row(lines, "A3")
    episode = lines[i - 1 : i + 2]
    del lines[i - 1 : i + 2]
    ue = episode[0].split(",")[0]
    first = next(j for j, line in enumerate(lines) if j > 1 and line.startswith(ue + ","))
    for j, t_ms in enumerate(("-80", "-40", "-20")):
        _set_cell(episode, j, 2, lambda v: t_ms)
    lines[first:first] = episode


def _duplicate(lines, i):
    lines.insert(i, lines[i])


def _foreign_hash(lines):
    lines[0] = re.sub(r"config_hash=\w+", "config_hash=0123456789abcdef", lines[0])


# (log file, corruption of its lines): each must exit 3 before anything is written
_CORRUPT_LOGS = {
    "cell_out_of_range": ("events.csv", _with_cells(lambda s, t: ("7", t))),
    "serving_is_target": ("events.csv", _with_cells(lambda s, t: (s, s))),
    "a3_other_target": ("events.csv", _with_cells(lambda s, t: (s, str(3 - int(s) - int(t))), shift=0)),
    "cmd_other_cells": ("events.csv", _with_cells(lambda s, t: (t, s), kind="CMD", shift=0)),
    "events_back_in_time": ("events.csv", _move_first_abort_to_end),
    "cmd_without_a3": ("events.csv", lambda ls: _duplicate(ls, _data_row(ls, "CMD"))),
    "t0_while_open": ("events.csv", lambda ls: _duplicate(ls, _data_row(ls, "T0"))),
    "t0_while_a3_waits": ("events.csv", lambda ls: ls.pop(_data_row(ls, "CMD"))),
    "events_foreign_hash": ("events.csv", _foreign_hash),
    "reports_swapped": ("reports.csv", lambda ls: ls.insert(2, ls.pop(3))),
    "reports_duplicated": ("reports.csv", lambda ls: _duplicate(ls, 3)),
    "reports_foreign_hash": ("reports.csv", _foreign_hash),
    "reports_non_finite": ("reports.csv", lambda ls: _set_cell(ls, 3, 5, lambda v: "nan")),
    "reports_fractional_time": ("reports.csv", lambda ls: _set_cell(ls, 3, 0, lambda v: v + ".5")),
    "reports_float_time": ("reports.csv", lambda ls: _set_cell(ls, 3, 0, lambda v: v + ".0")),
    "reports_non_finite_time": ("reports.csv", lambda ls: _set_cell(ls, 3, 0, lambda v: "nan")),
    "reports_not_a_number": ("reports.csv", lambda ls: _set_cell(ls, 3, 5, lambda v: v + "x")),
    "reports_beam_too_high": ("reports.csv", lambda ls: _set_cell(ls, 3, 2, lambda v: "12")),
    "reports_beam_negative": ("reports.csv", lambda ls: _set_cell(ls, 3, 4, lambda v: "-1")),
    "reports_beam_fractional": ("reports.csv", lambda ls: _set_cell(ls, 3, 6, lambda v: "3.5")),
    "reports_beam_not_a_number": ("reports.csv", lambda ls: _set_cell(ls, 3, 2, lambda v: "x")),
    "reports_short_row": ("reports.csv", lambda ls: ls.__setitem__(3, ls[3].rsplit(",", 1)[0])),
    # the bulk parser skips blank lines, and "#" lines unless told otherwise
    "reports_blank_line": ("reports.csv", lambda ls: ls.insert(3, "")),
    "reports_comment_line": ("reports.csv", lambda ls: ls.insert(3, "#x")),
    "events_infinite_time": (
        "events.csv", lambda ls: _set_cell(ls, _data_row(ls, "T0"), 2, lambda v: "inf")
    ),
    "events_fractional_t0": (
        "events.csv", lambda ls: _set_cell(ls, _data_row(ls, "T0"), 2, lambda v: v + ".5")
    ),
    # an episode before the trace starts, and a T0 between two report instants
    "events_before_zero": ("events.csv", _first_a3_episode_before_zero),
    "events_t0_off_the_report_grid": (
        "events.csv", lambda ls: _set_cell(ls, _data_row(ls, "T0"), 2, lambda v: str(int(v) + 20))
    ),
}


@pytest.fixture(scope="module")
def built_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("built") / "run"
    cfg = tiny_config(out)
    cli.cmd_simulate(cfg)
    cli.cmd_build_dataset(cfg, quiet=True)
    return out


@pytest.mark.parametrize("case", sorted(_CORRUPT_LOGS))
def test_corrupt_logs_exit_3(tmp_path, built_run, case):
    out = tmp_path / "run"
    shutil.copytree(built_run, out)
    name, corrupt = _CORRUPT_LOGS[case]
    lines = (out / name).read_text().splitlines()
    corrupt(lines)
    (out / name).write_text("\n".join(lines) + "\n")
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(tiny_config(out).to_dict()))
    commands = [["build-dataset"]]
    if name == "events.csv":  # eshop reads the event log, not the report log
        commands.append(["eshop", "--oracle"])
    before = artifact_bytes(out)
    for command in commands:
        assert cli.main([*command, "--config", str(cfgfile)]) == 3, command
        assert artifact_bytes(out) == before


def test_eval_survives_truncated_timings(tmp_path):
    # timings.json is outside the determinism guarantee: a copy cut short
    # must not fail the command that appends to it
    out = tmp_path / "run"
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(tiny_config(out).to_dict()))
    for command in ("simulate", "build-dataset", "train"):
        assert cli.main([command, "--config", str(cfgfile)]) == 0
    timings = out / "timings.json"
    timings.write_text(timings.read_text()[:20])
    assert cli.main(["eval", "--config", str(cfgfile)]) == 0
    assert (out / "metrics.json").exists()
    assert list(json.loads(timings.read_text())) == ["eval"]


def test_build_dataset_refuses_unreconciled_counts_before_writing(tmp_path, built_run, monkeypatch):
    out = tmp_path / "run"
    shutil.copytree(built_run, out)
    build = cli.build_dataset

    def miscounted(*args, **kwargs):  # one kept row more than the raw rows hold
        bundle = build(*args, **kwargs)
        return replace(bundle, meta=replace(bundle.meta, kept_count=bundle.meta.kept_count + 1))

    monkeypatch.setattr(cli, "build_dataset", miscounted)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(tiny_config(out).to_dict()))
    before = artifact_bytes(out)
    assert cli.main(["build-dataset", "--config", str(cfgfile)]) == 3
    assert artifact_bytes(out) == before


def test_eshop_oracle_keeps_the_model_wall_time(tmp_path):
    out = tmp_path / "run"
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(tiny_config(out).to_dict()))
    for command in (["simulate"], ["build-dataset"], ["train"], ["eshop"], ["eshop", "--oracle"]):
        assert cli.main([*command, "--config", str(cfgfile)]) == 0
    timings = json.loads((out / "timings.json").read_text())
    assert {"eshop", "eshop-oracle"} <= set(timings)
    assert all(timings[key] > 0.0 for key in ("eshop", "eshop-oracle"))


def _run_pipeline(out_dir, cfg=None):
    cfg = cfg or tiny_config(out_dir)
    assert cli.cmd_simulate(cfg)["a3_count"] > 0
    cli.cmd_build_dataset(cfg, quiet=True)
    cli.cmd_train(cfg)
    cli.cmd_eval(cfg)
    cli.cmd_eshop(cfg, oracle=True)
    return cfg


def test_eshop_inference_stops_at_the_last_replayed_a3(tmp_path, monkeypatch):
    # the model path infers each UE only up to the report of its last A3 of a
    # commanded episode; a run that infers every report writes the same bytes
    out = tmp_path / "run"
    cfg = _run_pipeline(out)
    payload = cli.cmd_eshop(cfg)
    names = ("comparison.csv", "cdf.csv", "summary.json")
    written = {name: (out / name).read_bytes() for name in names}

    bundle = read_dataset(out / "dataset")
    episodes = read_event_log(out / "events.csv")[1]
    traces = {}  # UE -> (features, segments, reports up to the last replayed A3)
    for table in bundle.splits.values():
        for ue in map(str, np.unique(table.ue_ids)):
            rows = table.ue_ids == ue
            replayed = [
                ep for ep in episodes.get(ue, []) if not ep.aborted and ep.command_ms is not None
            ]
            n = int(np.sum(table.t_ms[rows] <= max(ep.a3_ms for ep in replayed))) if replayed else 0
            features = standardized_rows(table.best_rsrp[rows], table.best_beams[rows], bundle.meta)
            traces[ue] = (features, table.segments[rows], n)

    infer, calls = cli.infer_countdown, []

    def whole_trace(params, rows, segments, window_len):
        ue = sorted(traces)[len(calls)]
        features, segs, n = traces[ue]
        calls.append(len(rows))
        assert rows.tobytes() == features[:n].tobytes() and np.array_equal(segments, segs[:n])
        return infer(params, features, segs, window_len)

    monkeypatch.setattr(cli, "infer_countdown", whole_trace)
    assert cli.cmd_eshop(cfg) == payload
    assert {name: (out / name).read_bytes() for name in names} == written
    assert calls == [traces[ue][2] for ue in sorted(traces)]
    assert sum(calls) < sum(len(f) for f, _, _ in traces.values())


def test_eshop_skips_an_episode_commanded_past_the_trace(tmp_path):
    # the event grammar accepts a CMD after the UE's last report, where no RSRP
    # is known: eshop counts that episode in n_skipped_trace_gap and compares
    # the others
    out = tmp_path / "run"
    cfg = _run_pipeline(out)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(cfg.to_dict()))

    def compared_ids():
        return [row.split(",")[0] for row in (out / "comparison.csv").read_text().splitlines()[2:]]

    events = out / "events.csv"
    lines = events.read_text().splitlines()
    last = {row.split(",")[0]: i for i, row in enumerate(lines[2:], 2)}  # UE -> its last event
    ue, i = next((ue, i) for ue, i in sorted(last.items()) if lines[i].split(",")[1] == "CMD")
    episode_id = f"{ue}:{len(read_event_log(events)[1][ue]) - 1}"
    before = {}
    for oracle in (False, True):
        before[oracle] = cli.cmd_eshop(cfg, oracle=oracle)
        assert episode_id in compared_ids()
    cells = lines[i].split(",")
    cells[2] = str(int(cfg.scenario.duration_s * 1000) + 40)  # one period after the last report
    lines[i] = ",".join(cells)
    events.write_text("\n".join(lines) + "\n")
    for oracle, flags in ((False, []), (True, ["--oracle"])):
        assert cli.main(["eshop", "--config", str(cfgfile), *flags]) == 0
        payload = json.loads((out / "summary.json").read_text())["eshop"]
        assert payload["oracle"] is oracle
        assert payload["n_skipped_trace_gap"] == before[oracle]["n_skipped_trace_gap"] + 1
        n = before[oracle]["n_compared"] - 1
        assert payload["n_compared"] == payload["entry_rule"]["n_compared"] == n
        assert episode_id not in compared_ids() and len(compared_ids()) == n


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
    # the paper TCN (k=11, dilations 1..64) at W=16: receptive field 1271; a
    # tap p of a 32x32 block of dilation d >= 2 is dead when d*p >= 16
    _, header = tcn.load_model(paths["model"])
    dead = 32 * 32 * sum(11 - min(11, -(-16 // d)) for d in (2, 4, 8, 16, 32, 64))
    live = header["param_count"] - dead
    shape = {"receptive_field": 1271, "window_len": 16, "live_param_count": live}
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
    bank = WindowBank.labeled(bundle.splits["test"], bundle.meta, dtype=np.float32)
    rep = tcn.compute_metrics(np.asarray(bank.y, dtype=np.float64), tcn.predict(params, bank))
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


def test_pipeline_outputs_are_deterministic(tmp_path):
    runs = []
    for name in ("a", "b"):
        cfg = _run_pipeline(tmp_path / name)
        cli.cmd_eshop(cfg)
        runs.append(artifact_bytes(tmp_path / name))
    assert {"reports.csv", "events.csv", "dataset/train.npz", "dataset/meta.json"} <= set(runs[0])
    assert runs[0] == runs[1]


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the program runs BLAS on one thread whatever the environment says;
    # unpinned, 2 threads train other bits already at 3 UEs, 4 s and one epoch
    cfg = make_config(str(tmp_path), 501, "los", 3, 4.0, 1)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg.to_dict()))
    code = (
        "import sys; from eshopsim import cli\n"
        "for cmd in ('simulate', 'build-dataset', 'train', 'eval', 'eshop'):\n"
        "    assert cli.main([cmd, '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
    )
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(Path(eshopsim.__file__).resolve().parents[1]),
               "OPENBLAS_NUM_THREADS": threads}
        run_dir = tmp_path / threads
        subprocess.run([sys.executable, "-c", code, str(tmp_path / "cfg.json"), str(run_dir)],
                       env=env, capture_output=True, check=True)
        runs.append(artifact_bytes(run_dir))
    assert {"model.tcn", "history.csv", "predictions.csv", "summary.json"} <= set(runs[0])
    assert runs[0] == runs[1]


def test_dataset_from_the_log_equals_the_dataset_from_memory(tmp_path):
    # the report log carries every bit build-dataset reads of the traces
    cfg = tiny_config(tmp_path / "run")
    cli.cmd_simulate(cfg)
    cli.cmd_build_dataset(cfg, quiet=True)
    runs = run_scenario(cfg.scenario, cfg.channel, cfg.hcp, cfg.master_seed)
    bundle = build_dataset(
        series_of_runs(runs),
        cfg.dataset,
        split_seed=derive_seed(cfg.master_seed, "split"),
        config_hash=config_hash(cfg),
        master_seed=cfg.master_seed,
    )
    write_dataset(tmp_path / "memory", bundle)
    from_log = artifact_bytes(tmp_path / "run" / "dataset")
    assert sorted(from_log) == ["meta.json", "test.npz", "train.npz", "val.npz"]
    assert artifact_bytes(tmp_path / "memory") == from_log


def test_simulate_runs_in_one_process(tmp_path):
    # cmd_simulate keeps its parallel keyword for callers that pass 0; any
    # value that asks for more than one process is refused before a write
    cfg = tiny_config(tmp_path / "run")
    with pytest.raises(ValueError, match="one process"):
        cli.cmd_simulate(cfg, parallel=2)
    assert not (tmp_path / "run").exists()
    assert cli.cmd_simulate(cfg, parallel=1) == cli.cmd_simulate(cfg, parallel=0)


def test_simulate_takes_a_duration_of_whole_milliseconds(tmp_path):
    # 8.04 s is 8040 ms, though 8.04 * 1000 is 8039.999999999999 in binary
    cfg = tiny_config(tmp_path / "run")
    cfg.scenario.duration_s = 8.04
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(cfg.to_dict()))
    assert cli.main(["simulate", "--config", str(cfgfile)]) == 0
    _, per_ue = read_report_log(tmp_path / "run" / "reports.csv")
    assert len(per_ue) == cfg.scenario.num_ues
    assert all(rec["times_ms"][-1] == 8040 for rec in per_ue.values())


def test_los_flag_changes_channel(tmp_path):
    cfg = tiny_config(tmp_path / "los")
    cli.cmd_simulate(cfg)
    cfg_n = tiny_config(tmp_path / "nlos")
    cfg_n.channel.los_mode = "nlos"
    cli.cmd_simulate(cfg_n)
    a = (tmp_path / "los" / "reports.csv").read_text().splitlines()[2]
    b = (tmp_path / "nlos" / "reports.csv").read_text().splitlines()[2]
    assert a != b


def test_an_nlos_run_at_the_los_sigma_gives_the_los_events(tmp_path):
    # the LoS/NLoS axis is the shadowing sigma: the path loss, in which the
    # modes differ too, is the same for the co-sited cells and cancels in the A3 gap
    def events(name, **channel):
        cfg = make_config(str(tmp_path / name), 501, "los", 6, 14.0, 1)
        cfg.channel = ChannelParams(**channel)
        cli.cmd_simulate(cfg)
        return (tmp_path / name / "events.csv").read_text().splitlines()[1:]  # below the header line

    los = events("los")
    assert len(los) > 1
    sigma = ChannelParams().shadow_sigma_los_db
    assert events("nlos-at-los-sigma", los_mode="nlos", shadow_sigma_nlos_db=sigma) == los
    assert events("nlos", los_mode="nlos") != los


def test_report_merges_runs(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    # identical config, second run dir; report reads the model's eshop section
    for cfg in (tiny_config(out1), tiny_config(out2)):
        cli.cmd_eshop(_run_pipeline(cfg.output_dir, cfg))
    report = tmp_path / "report.csv"
    result = cli.cmd_report([str(out1), str(out2)], str(report))
    assert result["groups"] == ["los"]
    lines = report.read_text().splitlines()
    assert lines[0].startswith("# schema=consolidated-report/2")
    header = lines[1].split(",")
    assert header == ["metric", "los_mean", "los_std"]
    for line in lines[2:]:
        name, mean, std = line.split(",")
        if std:
            assert float(std) == 0.0  # identical runs -> zero spread


def test_report_text_of_hand_made_summaries(tmp_path):
    # two groups; the second LoS run has no eshop section and both LoS runs a
    # null mape_pct, so that row is left out; the NLoS eval section is no object;
    # the std is the sample std, left empty where one run has the metric
    def evaluation(evs, mae, rmse_s):
        return {"test": {"evs": evs, "mape_pct": None, "mae": mae, "rmse_s": rmse_s, "r2": 0.5}}

    def eshop(advance, wasted, fallback):
        return {"mean_advance_ms": advance, "wasted_rate": wasted, "fallback_rate": fallback}

    summaries = {
        "r1": {"los_mode": "los", "eval": evaluation(0.5, 0.25, 1.0), "eshop": eshop(20.0, 0.0, 0.5)},
        "r2": {"los_mode": "los", "eval": evaluation(0.75, 0.5, 2.0)},
        "r3": {"los_mode": "nlos", "eval": [], "eshop": eshop(10.0, 0.25, 1.0)},
    }
    for name, doc in summaries.items():
        (tmp_path / name).mkdir()
        (tmp_path / name / "summary.json").write_text(
            json.dumps({"schema_version": cli.SUMMARY_SCHEMA, **doc})
        )
    report = tmp_path / "report.csv"
    result = cli.cmd_report([str(tmp_path / name) for name in summaries], str(report))
    assert result["groups"] == ["los", "nlos"]
    assert report.read_bytes() == (
        "# schema=consolidated-report/2\n"
        "metric,los_mean,los_std,nlos_mean,nlos_std\r\n"
        "evs,0.625,0.1767766952966369,,\r\n"
        "mae,0.375,0.1767766952966369,,\r\n"
        "rmse_s,1.5,0.7071067811865476,,\r\n"
        "r2,0.5,0.0,,\r\n"
        "mean_advance_ms,20.0,,10.0,\r\n"
        "wasted_rate,0.0,,0.25,\r\n"
        "fallback_rate,0.5,,1.0,\r\n"
    ).encode()
    assert result["metrics"] == [line.split(",")[0] for line in report.read_text().splitlines()[2:]]


def test_report_refuses_an_oracle_eshop_section(tmp_path):
    # eshop --oracle writes the same section, flagged; report reads the model's
    # numbers only, so a run whose last eshop was the oracle's is refused
    run_dirs = []
    for name, oracle in (("model", False), ("oracle", True)):
        (tmp_path / name).mkdir()
        doc = {"schema_version": cli.SUMMARY_SCHEMA, "los_mode": "los",
               "eshop": {"oracle": oracle, "mean_advance_ms": 20.0, "fallback_rate": 0.0}}
        (tmp_path / name / "summary.json").write_text(json.dumps(doc))
        run_dirs.append(str(tmp_path / name))
    report = tmp_path / "report.csv"
    assert cli.cmd_report(run_dirs[:1], str(report))["metrics"] == ["mean_advance_ms", "fallback_rate"]
    report.unlink()
    with pytest.raises(DataError, match=re.escape(str(tmp_path / "oracle" / "summary.json"))):
        cli.cmd_report(run_dirs, str(report))
    assert cli.main(["report", *run_dirs, "--out-file", str(report)]) == 3
    assert not report.exists()


@pytest.mark.parametrize("value", ["0.5", True, [0.5], {"mean": 0.5}])
def test_report_refuses_a_non_numeric_metric(tmp_path, value):
    run = tmp_path / "run"
    run.mkdir()
    doc = {"schema_version": cli.SUMMARY_SCHEMA, "los_mode": "los",
           "eval": {"test": {"r2": value, "mae": 0.5}}}
    (run / "summary.json").write_text(json.dumps(doc))
    report = tmp_path / "report.csv"
    with pytest.raises(DataError, match="r2"):
        cli.cmd_report([str(run)], str(report))
    assert cli.main(["report", str(run), "--out-file", str(report)]) == 3
    assert not report.exists()


@pytest.mark.parametrize("modes", [[["los"]], ["los", 1]])
def test_report_refuses_a_mode_that_is_no_string(tmp_path, modes):
    # a list cannot name a group; an int beside "los" cannot be sorted with it
    run_dirs = []
    for i, mode in enumerate(modes):
        run = tmp_path / f"run{i}"
        run.mkdir()
        doc = {"schema_version": cli.SUMMARY_SCHEMA, "los_mode": mode,
               "eval": {"test": {"mae": 0.5}}}
        (run / "summary.json").write_text(json.dumps(doc))
        run_dirs.append(str(run))
    report = tmp_path / "report.csv"
    assert cli.main(["report", *run_dirs, "--out-file", str(report)]) == 3
    assert not report.exists()


def test_report_reads_a_null_metric_as_empty(tmp_path):
    run = tmp_path / "run"
    run.mkdir()
    doc = {"schema_version": cli.SUMMARY_SCHEMA, "los_mode": "los",
           "eval": {"test": {"r2": None, "mae": 1}}}
    (run / "summary.json").write_text(json.dumps(doc))
    report = tmp_path / "report.csv"
    assert cli.cmd_report([str(run)], str(report))["metrics"] == ["mae"]
    assert report.read_text().splitlines()[2:] == ["mae,1.0,"]  # one run: no std


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
    before = artifact_bytes(out)
    other = tiny_config(out, master_seed=99)
    commands = (cli.cmd_simulate, cli.cmd_build_dataset, cli.cmd_train, cli.cmd_eval, cli.cmd_eshop)
    for command in commands:
        with pytest.raises(DataError, match="different configuration"):
            command(other)
        assert artifact_bytes(out) == before  # refused before writing anything


def test_eshop_refuses_model_of_another_config(tmp_path):
    out = tmp_path / "run"
    cfg = _run_pipeline(out)
    _run_pipeline(tmp_path / "other", tiny_config(tmp_path / "other", master_seed=99))
    (out / "model.tcn").write_bytes((tmp_path / "other" / "model.tcn").read_bytes())
    before = artifact_bytes(out)
    with pytest.raises(DataError, match="different configuration"):
        cli.cmd_eshop(cfg)
    assert artifact_bytes(out) == before


def test_commands_refuse_dataset_of_another_config(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = _run_pipeline(out)
    other = tiny_config(tmp_path / "other")
    other.dataset = DatasetConfig(window_len=32, horizon_s=8.0)
    cli.cmd_simulate(other)
    cli.cmd_build_dataset(other, quiet=True)
    shutil.rmtree(out / "dataset")
    shutil.copytree(tmp_path / "other" / "dataset", out / "dataset")
    before = artifact_bytes(out)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(cfg.to_dict()))
    for command in (["train"], ["eval"], ["eshop"], ["eshop", "--oracle"]):
        assert cli.main([*command, "--config", str(cfgfile)]) == 3
        assert "different configuration" in capsys.readouterr().err
        assert artifact_bytes(out) == before  # refused before writing anything


def test_eshop_needs_no_report_log(tmp_path):
    # eshop replays the traces stored in the dataset: the report log is read
    # by build-dataset only
    with_log, without_log = tmp_path / "with", tmp_path / "without"
    _run_pipeline(with_log)
    shutil.copytree(with_log, without_log)
    (without_log / "reports.csv").unlink()
    for oracle in (False, True):
        results = []
        for run_dir in (with_log, without_log):
            payload = cli.cmd_eshop(tiny_config(run_dir), oracle=oracle)
            summary = json.loads((run_dir / "summary.json").read_text())
            assert summary["eshop"] == payload
            files = {name: (run_dir / name).read_bytes() for name in ("comparison.csv", "cdf.csv")}
            results.append((payload, files))
        assert results[0] == results[1]
    assert not (without_log / "reports.csv").exists()
