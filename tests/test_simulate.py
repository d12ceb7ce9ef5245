import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eshopsim
import oracles
from conftest import set_hcp, widen_shadowing
from eshopsim import scenario, simulate
from eshopsim.artifacts import read_table
from eshopsim.channel import ChannelParams, ChannelState
from eshopsim.events import A3EventEngine, a3_entry, episodes_from_events
from eshopsim.scenario import REPORT_PERIOD_MS, ScenarioConfig
from eshopsim.simulate import (
    EVENT_LOG_SCHEMA,
    UeRun,
    read_event_log,
    read_report_log,
    run_scenario,
    run_ue,
    write_event_log,
    write_report_log,
)
from oracles import run_ue_per_report


def _small_run(los_mode="los"):
    with pytest.MonkeyPatch.context() as mp:
        widen_shadowing(mp)
        return run_scenario(ScenarioConfig(num_ues=2, duration_s=14.0), ChannelParams(los_mode), master_seed=11)


def test_run_ue_report_stream_shape(wide_shadowing):
    run = run_ue(0, ScenarioConfig(num_ues=1, duration_s=5.0), ChannelParams(), master_seed=1)
    assert run.times_ms.size == 126  # 0..5000 inclusive, 40 ms apart
    assert np.all(np.diff(run.times_ms) == REPORT_PERIOD_MS)
    assert run.best_beams.shape == run.best_rsrp.shape == (126, 3)
    assert run.best_beams.dtype == np.int64
    assert np.all((run.best_beams >= 0) & (run.best_beams < 12))
    assert np.isfinite(run.best_rsrp).all()


@pytest.mark.parametrize("los_mode", ["los", "nlos"])
@pytest.mark.parametrize("seed", [3, 17, 2024])
def test_run_ue_equals_per_report_loop(wide_shadowing, los_mode, seed):
    # the bulk position, channel, filter and reduction passes keep every bit
    # of the loop that samples, filters, reduces and steps one report at a time
    args = (1, ScenarioConfig(num_ues=2, duration_s=12.0), ChannelParams(los_mode), seed)
    got, want = run_ue(*args), run_ue_per_report(*args)
    assert np.array_equal(got.times_ms, want.times_ms)
    assert np.array_equal(got.best_beams.view(np.int64), want.best_beams.view(np.int64))
    assert np.array_equal(got.best_rsrp.view(np.int64), want.best_rsrp.view(np.int64))
    assert got.events == want.events
    assert any(ev.kind == "A3" for ev in got.events)


@settings(max_examples=30)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    los_mode=st.sampled_from(["los", "nlos"]),
    offset_db=st.floats(min_value=-1.0, max_value=6.0),
    hysteresis_db=st.sampled_from([0.0, 1.0]),
    ttt_ms=st.sampled_from([40, 80, 160, 320]),
    duration_s=st.floats(min_value=1.0, max_value=12.0),  # 8.04 s is 8040 ms, not 8039.999...
)
def test_run_ue_steps_where_the_per_report_loop_acts(
    seed, los_mode, offset_db, hysteresis_db, ttt_ms, duration_s
):
    # stepping the engine only where it can act keeps the events and every
    # bit of the loop that steps each report
    args = (0, ScenarioConfig(num_ues=1, duration_s=duration_s), ChannelParams(los_mode), seed)
    with pytest.MonkeyPatch.context() as mp:
        widen_shadowing(mp)
        set_hcp(mp, ttt_ms=ttt_ms, hysteresis_db=hysteresis_db, offset_db=offset_db)
        got, want = run_ue(*args), run_ue_per_report(*args)
    assert np.array_equal(got.times_ms, want.times_ms)
    assert np.array_equal(got.best_beams.view(np.int64), want.best_beams.view(np.int64))
    assert np.array_equal(got.best_rsrp.view(np.int64), want.best_rsrp.view(np.int64))
    assert got.events == want.events


def _equal_to_the_per_report_loop(monkeypatch, seed, duration_s, **hcp) -> UeRun:
    """``run_ue`` and ``run_ue_per_report`` on one UE: the same bits and
    events, and ``run_ue`` steps exactly the reports the loop steps that
    ``oracles.quiet`` does not call quiet. Runs at the wide shadowing, with
    no hysteresis unless ``hcp`` sets it."""
    stepped = []  # (report time, quiet) of each engine step
    step = A3EventEngine.step

    def recording(engine, report):
        best = report.best_rsrp
        s = engine.serving_cell
        entry = a3_entry(max(best[c] for c in range(3) if c != s), best[s])
        stepped.append((report.t_ms, oracles.quiet(engine, entry)))
        return step(engine, report)

    monkeypatch.setattr(A3EventEngine, "step", recording)
    widen_shadowing(monkeypatch)
    set_hcp(monkeypatch, **{"hysteresis_db": 0.0, **hcp})
    args = (0, ScenarioConfig(num_ues=1, duration_s=duration_s), ChannelParams(), seed)
    got = run_ue(*args)
    got_steps, stepped[:] = list(stepped), []
    want = run_ue_per_report(*args)
    assert np.array_equal(got.times_ms, want.times_ms)
    assert np.array_equal(got.best_beams.view(np.int64), want.best_beams.view(np.int64))
    assert np.array_equal(got.best_rsrp.view(np.int64), want.best_rsrp.view(np.int64))
    assert got.events == want.events
    assert got_steps == [(t, False) for t, quiet in stepped if not quiet]
    return got


@pytest.mark.parametrize(
    "ttt_ms, seed, offset_db, speed_mps", [(40, 4, 1.0, 25.0), (320, 0, -1.0, 31.0)], ids=["40-4-1.0", "320-0--1.0"]
)
def test_run_ue_applies_a_command_due_at_a_report_instant(monkeypatch, ttt_ms, seed, offset_db, speed_mps):
    # a preparation of exactly one report period puts every command on a
    # report instant, where the new serving cell may arm a T0 at once
    monkeypatch.setattr(scenario, "SPEED_MPS", speed_mps)
    for module in (simulate, oracles):
        monkeypatch.setattr(module, "D_PREP_MIN_MS", 40.0)
        monkeypatch.setattr(module, "D_PREP_MAX_MS", 40.0)
    run = _equal_to_the_per_report_loop(monkeypatch, seed, 12.0, ttt_ms=ttt_ms, offset_db=offset_db)
    commands = [ev.t_ms for ev in run.events if ev.kind == "CMD"]
    assert commands and set(commands) <= set(run.times_ms.tolist())
    assert any(ev.kind == "T0" and ev.t_ms in commands for ev in run.events)


@pytest.mark.parametrize("prep_ms", [None, 80.0])
@pytest.mark.parametrize("ttt_ms", [40, 320])
def test_run_ue_never_applies_a_command_due_after_the_last_report(monkeypatch, ttt_ms, prep_ms):
    # an A3 at the last report; or, with a preparation of two report periods,
    # an A3 one report before it
    if prep_ms is not None:
        for module in (simulate, oracles):
            monkeypatch.setattr(module, "D_PREP_MIN_MS", prep_ms)
            monkeypatch.setattr(module, "D_PREP_MAX_MS", prep_ms)
    events = _equal_to_the_per_report_loop(monkeypatch, 0, 12.0, ttt_ms=ttt_ms).events
    a3_ms = next(ev.t_ms for ev in events if ev.kind == "A3")
    end_ms = a3_ms + (REPORT_PERIOD_MS if prep_ms else 0)
    run = _equal_to_the_per_report_loop(monkeypatch, 0, end_ms / 1000.0, ttt_ms=ttt_ms)
    assert run.times_ms[-1] == end_ms
    assert (run.events[-1].kind, run.events[-1].t_ms) == ("A3", a3_ms)


@pytest.mark.parametrize("ttt_ms", [40, 320])
def test_run_ue_ends_where_the_serving_cell_never_enters_again(monkeypatch, ttt_ms):
    # after the last command the new serving cell's A3 entry never holds
    run = _equal_to_the_per_report_loop(monkeypatch, 1, 12.0, ttt_ms=ttt_ms)
    assert run.events[-1].kind == "CMD"
    # the first serving cell's entry never holds at all
    assert _equal_to_the_per_report_loop(monkeypatch, 1, 12.0, ttt_ms=ttt_ms, offset_db=60.0).events == []


def test_run_ue_refuses_a_non_finite_frame(monkeypatch, wide_shadowing):
    sample = ChannelState.sample

    def with_nan(self, positions):
        raw = sample(self, positions)
        raw[0, 1, 5] = np.nan  # the filter carries it to every later frame
        return raw

    monkeypatch.setattr(ChannelState, "sample", with_nan)
    with pytest.raises(ValueError, match="report values must be finite"):
        run_ue(0, ScenarioConfig(num_ues=1, duration_s=4.0), ChannelParams(), 1)


def test_cli_import_leaves_the_process_pool_unloaded():
    code = (
        "import sys, eshopsim.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(eshopsim.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_run_ue_deterministic(wide_shadowing):
    sc = ScenarioConfig(num_ues=1, duration_s=8.0)
    a = run_ue(0, sc, ChannelParams(), master_seed=4)
    b = run_ue(0, sc, ChannelParams(), master_seed=4)
    assert np.array_equal(a.best_beams, b.best_beams)
    assert np.array_equal(a.best_rsrp, b.best_rsrp)
    assert a.events == b.events


def test_full_revolution_crosses_three_borders(wide_shadowing):
    # one revolution must produce at least one handover per cell border
    run = run_ue(0, ScenarioConfig(num_ues=1, duration_s=17.0), ChannelParams(), master_seed=2)
    a3_count = sum(1 for e in run.events if e.kind == "A3")
    assert a3_count >= 3
    # and the serving cell visits all three cells across the commands
    served = {e.target for e in run.events if e.kind == "CMD"} | {
        episodes_from_events(run.events)[0].serving_cell
    }
    assert served == {0, 1, 2}


def test_commands_fall_inside_prep_window():
    for run in _small_run():
        for ep in episodes_from_events(run.events):
            if not ep.aborted and ep.command_ms is not None:
                d = ep.command_ms - ep.a3_ms
                assert 15.0 <= d <= 35.0


def test_serving_switches_at_command():
    run = _small_run()[0]
    cmd_events = [e for e in run.events if e.kind == "CMD"]
    assert cmd_events, "expected at least one handover"
    for ev in cmd_events:
        assert ev.serving != ev.target


def test_log_round_trip(tmp_path):
    runs = _small_run()
    rp = tmp_path / "reports.csv"
    ep = tmp_path / "events.csv"
    write_report_log(rp, runs, "deadbeef", 11)
    write_event_log(ep, runs, "deadbeef", 11)
    report_fields, reports = read_report_log(rp)
    event_fields, episodes = read_event_log(ep)
    assert report_fields["config_hash"] == event_fields["config_hash"] == "deadbeef"
    with read_table(ep, EVENT_LOG_SCHEMA) as (_, _, data):
        event_rows = list(csv.reader(data))
    for run in runs:
        got = reports[run.ue_id]
        assert np.array_equal(got["times_ms"], run.times_ms)
        assert got["best_beams"].dtype == np.int64
        assert np.array_equal(got["best_beams"], run.best_beams)
        # repr round-trips exactly
        assert np.array_equal(got["best_rsrp"].view(np.int64), run.best_rsrp.view(np.int64))
        got_ev = [row[1:] for row in event_rows if row[0] == run.ue_id]
        assert [(kind, float(t), int(s), int(tg)) for kind, t, s, tg in got_ev] == [
            (e.kind, float(e.t_ms), e.serving, e.target) for e in run.events
        ]
        # the log's episodes are the grammar's episodes of the engine's events
        assert episodes[run.ue_id] == episodes_from_events(run.events)


@settings(max_examples=60)
@given(
    n_reports=st.integers(min_value=1, max_value=6),
    exponent=st.integers(min_value=-300, max_value=300),
    decimals=st.integers(min_value=0, max_value=17),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_report_log_keeps_the_reduced_series_bit_for_bit(
    tmp_path_factory, n_reports, exponent, decimals, seed
):
    # mantissas in (-10, 10) of both signs, rounded to few decimals, scaled
    # to magnitudes from 1e-300 to 1e300
    rng = np.random.Generator(np.random.PCG64(seed))
    times = np.arange(n_reports, dtype=np.int64) * REPORT_PERIOD_MS
    runs = [
        UeRun(f"ue{i:03d}", times, beams, rsrp, [])
        for i, (beams, rsrp) in enumerate(zip(
            rng.integers(0, 12, size=(2, n_reports, 3)),
            rng.uniform(-10.0, 10.0, size=(2, n_reports, 3)).round(decimals) * 10.0**exponent,
        ))
    ]
    rp = tmp_path_factory.mktemp("log") / "reports.csv"
    write_report_log(rp, runs, "deadbeef", 11)
    _, reports = read_report_log(rp)
    assert list(reports) == [run.ue_id for run in runs]
    for run in runs:
        got = reports[run.ue_id]
        assert np.array_equal(got["times_ms"], run.times_ms)
        assert np.array_equal(got["best_beams"].view(np.int64), run.best_beams.view(np.int64))
        assert np.array_equal(got["best_rsrp"].view(np.int64), run.best_rsrp.view(np.int64))


def test_report_log_groups_interleaved_ues_in_order_of_first_appearance(tmp_path):
    a, b = _small_run()
    rp = tmp_path / "reports.csv"
    write_report_log(rp, [b, a], "deadbeef", 11)
    with open(rp, newline="") as fh:
        head = [fh.readline(), fh.readline()]
        rows = fh.read().splitlines(keepends=True)
    n = len(b.times_ms)
    interleaved = [row for pair in zip(rows[:n], rows[n:]) for row in pair]
    rp.write_text("".join(head + interleaved), newline="")
    _, reports = read_report_log(rp)
    assert list(reports) == [b.ue_id, a.ue_id]
    for run in (a, b):
        got = reports[run.ue_id]
        assert np.array_equal(got["times_ms"], run.times_ms)
        assert np.array_equal(got["best_beams"], run.best_beams)
        assert np.array_equal(got["best_rsrp"].view(np.int64), run.best_rsrp.view(np.int64))


def test_report_log_refuses_a_ue_id_too_wide_to_parse(tmp_path):
    run = _small_run()[0]
    run.ue_id = "ue" + "0" * 14  # fills the parsed column, so it could be cut short
    rp = tmp_path / "reports.csv"
    write_report_log(rp, [run], "deadbeef", 11)
    with pytest.raises(ValueError, match="malformed"):
        read_report_log(rp)


def test_los_and_nlos_logs_differ(tmp_path):
    los = _small_run()
    nlos = _small_run(los_mode="nlos")
    assert not np.array_equal(los[0].best_rsrp, nlos[0].best_rsrp)
    # NLoS mean level sits well below LoS at identical geometry
    assert nlos[0].best_rsrp.mean() < los[0].best_rsrp.mean() - 5.0

