import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import set_hcp
from eshopsim import events
from eshopsim.channel import MeasurementReport, N_CELLS, N_SSB, reduce_series
from eshopsim.events import A3EventEngine, a3_entry, episodes_from_events
from oracles import drive_engine, quiet, random_trace, scan_events

CELLS = (0, 1, 2)


@pytest.fixture
def no_hysteresis(monkeypatch):
    """The engine examples below are written at a 3 dB margin."""
    set_hcp(monkeypatch, hysteresis_db=0.0)


def test_a3_entry_examples(monkeypatch):
    # the margin is offset + hysteresis: 4 dB with the 1 dB hysteresis
    assert (events.OFFSET_DB, events.HYSTERESIS_DB) == (3.0, 1.0)
    assert a3_entry(-79.9, -84.0) is True
    assert a3_entry(-80.0, -84.0) is False  # strict at the boundary
    set_hcp(monkeypatch, hysteresis_db=0.0)
    assert a3_entry(-80.0, -84.0) is True
    assert a3_entry(-81.0, -84.0) is False


def test_hcp_validation():
    # the handover control parameters take values a cell configures: the
    # TTT a positive multiple of the report period, the hysteresis 0 or 1 dB
    assert events.TTT_MS > 0 and events.TTT_MS % events.REPORT_PERIOD_MS == 0
    assert events.HYSTERESIS_DB in (0.0, 1.0)
    assert events.OFFSET_DB >= 0.0


def test_step_t0_then_a3(no_hysteresis):
    engine = A3EventEngine("ue", serving_cell=0)
    t0 = engine.step(MeasurementReport(1000, [-84.0, -80.0, -95.0]))
    assert [(e.kind, e.t_ms) for e in t0] == [("T0", 1000)]
    evs = engine.step(MeasurementReport(1040, [-84.0, -80.0, -95.0]))
    assert [(e.kind, e.t_ms) for e in evs] == [("A3", 1040)]
    rec = episodes_from_events(t0 + evs)[-1]
    assert rec.a3_ms - rec.t0_ms == 40 and not rec.aborted


def test_step_abort_when_condition_lost(no_hysteresis):
    engine = A3EventEngine("ue", serving_cell=0)
    t0 = engine.step(MeasurementReport(1000, [-84.0, -80.0, -95.0]))
    evs = engine.step(MeasurementReport(1040, [-84.0, -83.9, -95.0]))
    assert [(e.kind, e.t_ms) for e in evs] == [("ABORT", 1040)]
    assert episodes_from_events(t0 + evs)[-1].aborted
    assert all(e.kind != "A3" for e in evs)


def test_step_candidate_switch_aborts_and_rearms(no_hysteresis):
    engine = A3EventEngine("ue", serving_cell=0)
    engine.step(MeasurementReport(1000, [-84.0, -80.0, -95.0]))
    evs = engine.step(MeasurementReport(1040, [-84.0, -80.0, -75.0]))
    assert [(e.kind, e.target) for e in evs] == [("ABORT", 1), ("T0", 2)]


@pytest.mark.parametrize("serving", CELLS)
def test_step_tie_between_neighbors_goes_to_the_lower_cell(no_hysteresis, serving):
    best = [-80.0] * 3
    best[serving] = -84.0
    engine = A3EventEngine("ue", serving_cell=serving)
    evs = engine.step(MeasurementReport(0, best))
    assert [(e.kind, e.target) for e in evs] == [("T0", min(set(CELLS) - {serving}))]


@given(
    seed=st.integers(0, 2**32 - 1),
    tie_to=st.lists(st.sampled_from([None, *CELLS]), min_size=2, max_size=12),
    serving0=st.sampled_from(CELLS),
    hys=st.sampled_from([0.0, 1.0]),
)
def test_step_targets_the_argmax_neighbor(seed, tie_to, serving0, hys):
    """Events of step over random (3, 12) frames reduced by ``reduce_series``,
    some forced to tie two cells, equal those of a reference that takes the
    strongest neighbor with np.argmax."""
    # a 1 dB grid and cells shifted by up to 8 dB: the A3 entry both holds and fails
    rng = np.random.Generator(np.random.PCG64(seed))
    n = len(tie_to)
    frames = rng.integers(-92, -88, (n, N_CELLS, N_SSB)) + rng.integers(0, 9, (n, N_CELLS, 1))
    frames = frames.astype(np.float64)
    for i, c in enumerate(tie_to):
        if c is not None:  # cell c + 1 copies cell c's beams
            frames[i, (c + 1) % N_CELLS] = frames[i, c]
    with pytest.MonkeyPatch.context() as mp:
        set_hcp(mp, hysteresis_db=hys)
        engine = A3EventEngine("ue", serving_cell=serving0)
        serving, armed, got, want = serving0, None, [], []
        for i, (frame, cell_best) in enumerate(zip(frames, reduce_series(frames)[1])):
            t = 40 * i
            evs = engine.step(MeasurementReport(t, cell_best))
            got += [(e.kind, e.t_ms, e.serving, e.target) for e in evs]
            if engine.pending is not None:
                engine.apply_handover(t)
            best = frame.max(axis=1)
            nb = [c for c in CELLS if c != serving]
            n_star = nb[int(np.argmax(best[nb]))]
            entry = best[n_star] > best[serving] + events.OFFSET_DB + events.HYSTERESIS_DB
            if armed is not None and not (entry and n_star == armed):
                want.append(("ABORT", t, serving, armed))
                armed = None
            if armed is not None:  # TTT is one report: the A3, then the command at once
                want.append(("A3", t, serving, armed))
                serving, armed = armed, None
            elif entry:
                want.append(("T0", t, serving, n_star))
                armed = n_star
    assert got == want


def test_step_rejects_out_of_order():
    engine = A3EventEngine("ue", serving_cell=0)
    engine.step(MeasurementReport(1000, [-84.0, -90.0, -95.0]))
    with pytest.raises(ValueError):
        engine.step(MeasurementReport(1000, [-84.0, -90.0, -95.0]))


def test_apply_handover_switches_roles(no_hysteresis):
    engine = A3EventEngine("ue", serving_cell=0)
    engine.step(MeasurementReport(0, [-84.0, -80.0, -95.0]))
    engine.step(MeasurementReport(40, [-84.0, -80.0, -95.0]))
    ev = engine.apply_handover(engine.pending.t_ms + 20.0)
    assert ev.kind == "CMD" and ev.serving == 0 and ev.target == 1
    assert engine.serving_cell == 1
    # old serving is now a neighbor and must not instantly re-trigger
    evs = engine.step(MeasurementReport(80, [-84.0, -80.0, -95.0]))
    assert evs == []


def test_apply_handover_rejects_bad_records(no_hysteresis):
    engine = A3EventEngine("ue", serving_cell=0)
    engine.step(MeasurementReport(1000, [-84.0, -80.0, -95.0]))
    engine.step(MeasurementReport(1040, [-84.0, -83.9, -95.0]))  # aborted: no A3 waits
    with pytest.raises(ValueError):
        engine.apply_handover(1060.0)
    engine.step(MeasurementReport(1080, [-84.0, -80.0, -95.0]))
    engine.step(MeasurementReport(1120, [-84.0, -80.0, -95.0]))  # A3 at 1120
    with pytest.raises(ValueError):
        engine.apply_handover(1110.0)


def test_no_second_t0_while_command_pending(no_hysteresis):
    engine = A3EventEngine("ue", serving_cell=0)
    engine.step(MeasurementReport(0, [-84.0, -80.0, -95.0]))
    engine.step(MeasurementReport(40, [-84.0, -80.0, -95.0]))
    assert engine.pending is not None
    evs = engine.step(MeasurementReport(80, [-84.0, -70.0, -95.0]))
    assert evs == []


def test_ttt_longer_than_one_report(monkeypatch):
    set_hcp(monkeypatch, ttt_ms=120, hysteresis_db=0.0)
    engine = A3EventEngine("ue", serving_cell=0)
    best = [-84.0, -80.0, -95.0]
    out = []
    for i in range(5):
        out += engine.step(MeasurementReport(i * 40, best))
    assert [(e.kind, e.t_ms) for e in out] == [("T0", 0), ("A3", 120)]


def test_hysteresis_delays_t0_on_a_ramp(monkeypatch):
    # neighbor ramps up 0.5 dB per report through the margin
    def first_t0(hys):
        set_hcp(monkeypatch, hysteresis_db=hys)
        engine = A3EventEngine("ue", serving_cell=0)
        for i in range(40):
            mn = -90.0 + 0.5 * i
            evs = engine.step(MeasurementReport(i * 40, [-84.0, mn, -120.0]))
            for e in evs:
                if e.kind == "T0":
                    return e.t_ms
        return None

    assert first_t0(1.0) > first_t0(0.0)


def test_engine_matches_reference_scanner(monkeypatch):
    rng = np.random.Generator(np.random.PCG64(77))
    for trial in range(200):
        times, best = random_trace(rng, n_reports=300)
        set_hcp(
            monkeypatch,
            ttt_ms=int(rng.choice([40, 80, 120, 160])),
            hysteresis_db=float(rng.choice([0.0, 1.0])),
        )
        serving0 = CELLS[int(np.argmax(best[0]))]
        d_preps = list(rng.uniform(15.0, 35.0, size=64))
        got, _hoevents = drive_engine(times, best, serving0, list(d_preps))
        want = scan_events(times, best, CELLS, serving0, list(d_preps))
        assert got == want, f"trial {trial} diverged"


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    ttt_ms=st.sampled_from([40, 80, 120, 160]),
    hysteresis_db=st.sampled_from([0.0, 1.0]),
    offset_db=st.floats(min_value=-1.0, max_value=6.0),
)
def test_quiet_reports_change_nothing(seed, ttt_ms, hysteresis_db, offset_db):
    # every report the quiet test passes over: step emits nothing and keeps
    # the serving cell, the armed T0 and the waiting A3
    rng = np.random.Generator(np.random.PCG64(seed))
    times, best = random_trace(rng, n_reports=300)
    quiet_count = 0
    with pytest.MonkeyPatch.context() as mp:
        set_hcp(mp, ttt_ms=ttt_ms, hysteresis_db=hysteresis_db, offset_db=offset_db)
        engine = A3EventEngine("ue", int(np.argmax(best[0])))
        command_ms = None
        for t, frame in zip(times.tolist(), best.tolist()):
            if command_ms is not None and command_ms <= t:
                engine.apply_handover(command_ms)
                command_ms = None
            s = engine.serving_cell
            entry = a3_entry(max(frame[c] for c in CELLS if c != s), frame[s])
            is_quiet = quiet(engine, entry)
            before = (engine.serving_cell, engine.armed, engine.pending)
            events = engine.step(MeasurementReport(t, frame))
            if is_quiet:
                quiet_count += 1
                assert events == []
                after = (engine.serving_cell, engine.armed, engine.pending)
                assert all(a is b for a, b in zip(after, before))
            for ev in events:
                if ev.kind == "A3":  # a command up to five reports later
                    command_ms = ev.t_ms + float(rng.uniform(15.0, 200.0))
    assert quiet_count > 0


def test_event_stream_grammar_on_random_traces():
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(50):
        times, best = random_trace(rng, n_reports=400)
        serving0 = CELLS[int(np.argmax(best[0]))]
        d_preps = list(rng.uniform(15.0, 35.0, size=64))
        evs, hoevents = drive_engine(times, best, serving0, d_preps)
        armed = False
        for kind, t, serving, target in evs:
            if kind == "T0":
                assert not armed
                armed = True
            elif kind == "A3":
                assert armed  # no A3 without a preceding un-aborted T0
                armed = False
            elif kind == "ABORT":
                assert armed
                armed = False
        for ep in episodes_from_events(hoevents):
            if not ep.aborted:
                assert ep.a3_ms - ep.t0_ms == events.TTT_MS
