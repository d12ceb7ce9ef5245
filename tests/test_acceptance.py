"""End-to-end acceptance of the countdown at quick size.

LoS and NLoS runs of the experiment configuration (``scripts/run_experiment.py
--quick``: 8 UEs x 14 s, the paper TCN at W = 96, 3 epochs) with a fixed
seed, each made twice. The oracle is the training label over the whole
trace, so it never falls back; a perfect predictor of the stored labels
reproduces it episode by episode; no model beats it; the entry rule falls
back only after an early aborted T0; and a run is byte-deterministic.
"""

import csv
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import artifact_bytes, make_config
from eshopsim import cli
from eshopsim.artifacts import read_table
from eshopsim.controller import GUARD_MS
from eshopsim.simulate import read_event_log

SEED = 11
MODES = ("los", "nlos")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(mode, copy) -> (config, model eshop payload, oracle eshop payload)."""
    out = {}
    for mode in MODES:
        for copy in ("a", "b"):
            run_dir = tmp_path_factory.mktemp(f"{mode}_{copy}")
            cfg = make_config(str(run_dir), SEED, mode, 8, 14.0, 3)
            cli.cmd_simulate(cfg)
            cli.cmd_build_dataset(cfg, quiet=True)
            cli.cmd_train(cfg)
            cli.cmd_eval(cfg)
            out[mode, copy] = (cfg, cli.cmd_eshop(cfg), cli.cmd_eshop(cfg, oracle=True))
    return out


@pytest.mark.parametrize("mode", MODES)
def test_oracle_never_falls_back(runs, mode):
    _, _, oracle = runs[mode, "a"]
    assert oracle["n_compared"] > 0
    assert oracle["fallback_rate"] == 0.0 and oracle["wasted_rate"] == 0.0
    assert oracle["mean_advance_ms"] == oracle["mean_d_prep_ms"]


@pytest.mark.parametrize("mode", MODES)
def test_model_no_better_than_oracle(runs, mode):
    _, model, oracle = runs[mode, "a"]
    assert model["n_compared"] == oracle["n_compared"]
    assert model["fallback_rate"] >= oracle["fallback_rate"]
    assert model["mean_advance_ms"] <= oracle["mean_advance_ms"]


@pytest.mark.parametrize("mode", MODES)
def test_entry_rule_replays_the_compared_episodes_under_both_countdowns(runs, mode):
    # the rule reads only the episodes, so eshop and eshop --oracle give it
    # alike; its advance is at most the oracle's, which is every d_prep
    _, model, oracle = runs[mode, "a"]
    assert model["entry_rule"] == oracle["entry_rule"]
    rule = oracle["entry_rule"]
    assert rule["n_compared"] == oracle["n_compared"]
    assert rule["fallback_rate"] == rule["wasted_rate"]
    assert rule["mean_advance_ms"] <= oracle["mean_advance_ms"]


@pytest.mark.parametrize("mode", MODES)
def test_entry_rule_falls_back_only_after_an_early_aborted_t0(runs, mode):
    # on the compared episodes, the rule falls back exactly where an aborted
    # T0 after the last command precedes the A3 by more than GUARD_MS + d_prep
    cfg, _, oracle = runs[mode, "a"]
    run_dir = Path(cfg.output_dir)
    _, episodes = read_event_log(run_dir / "events.csv")
    with read_table(run_dir / "comparison.csv", "ho-comparison/2") as (_, header, data):
        compared = [dict(zip(header, row)) for row in csv.reader(data)]
    early_aborts = 0
    prev = {}  # UE -> the command of its last compared episode
    for row in compared:
        ue = row["episode_id"].split(":")[0]
        a3, d_prep = float(row["a3_ms"]), float(row["d_prep_ms"])
        prev_cmd = prev.get(ue, -np.inf)
        early_aborts += any(
            e.aborted and prev_cmd < e.t0_ms and a3 - e.t0_ms > GUARD_MS + d_prep
            for e in episodes[ue]
        )
        prev[ue] = float(row["legacy_cmd_ms"])
    assert len(compared) == oracle["n_compared"]
    assert oracle["entry_rule"]["fallback_rate"] == early_aborts / len(compared)


@pytest.mark.parametrize("mode", MODES)
def test_run_is_byte_deterministic(runs, mode):
    a, b = (Path(runs[mode, copy][0].output_dir) for copy in ("a", "b"))
    assert artifact_bytes(a) == artifact_bytes(b)


def _perfect_label_predictor(cfg):
    """Stands in for ``oracle_countdown``: returns the stored dataset label of
    each report of the UE, excluded rows at +inf."""
    by_ue = {}
    table = cli._read_dataset(cfg)[0].rows
    for ue in np.unique(table.ue_ids):
        rows = table.ue_ids == ue
        by_ue[str(ue)] = (table.t_ms[rows], table.labels[rows])

    def predict(times, episodes, horizon_s):
        if not episodes:
            return np.full(len(times), np.inf)
        t_ms, labels = by_ue[episodes[0].ue_id]
        assert np.array_equal(t_ms, times)
        return np.where(np.isnan(labels), np.inf, labels)

    return predict


@pytest.mark.parametrize("mode", MODES)
def test_perfect_label_predictor_reproduces_oracle(runs, mode, tmp_path, monkeypatch):
    cfg, _, oracle = runs[mode, "a"]
    run_dir = tmp_path / "run"
    shutil.copytree(cfg.output_dir, run_dir)
    cfg = replace(cfg, output_dir=str(run_dir))
    oracle_rows = (run_dir / "comparison.csv").read_bytes()
    monkeypatch.setattr(cli, "oracle_countdown", _perfect_label_predictor(cfg))
    assert cli.cmd_eshop(cfg, oracle=True) == oracle
    assert (run_dir / "comparison.csv").read_bytes() == oracle_rows
