import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from eshopsim.config import ConfigError, ExperimentConfig
from eshopsim.channel import ChannelParams
from eshopsim.controller import (
    ENTRY_RULE,
    GUARD_MS,
    MODEL_RULE,
    SignalingConfig,
    degradation_stats,
    entry_countdown,
    infer_countdown,
    oracle_countdown,
    eshop_timeline,
    serving_rsrp_at,
    simulate_eshop,
    HoComparison,
)
from eshopsim.dataset import DatasetMeta, N_FEATURES, standardized_rows
from eshopsim.events import EVENT_CMD, HcpConfig, HoEventRecord, episodes_from_events
from eshopsim.scenario import REPORT_PERIOD_MS, ScenarioConfig
from eshopsim.simulate import D_PREP_MAX_MS, run_scenario
from eshopsim.tcn import TcnModelConfig, init_params
from oracles import StreamingCountdown, first_trigger_scan


def _ep(t0=1960, ue="ue000", target=1):
    return HoEventRecord(ue, 0, target, t0, a3_ms=t0 + 40)


def test_signaling_config_validation():
    # the TTT is checked against the guard where the TTT lives
    with pytest.raises(ConfigError):
        ExperimentConfig(hcp=HcpConfig(ttt_ms=200))  # not shorter than the guard


def test_preparation_fits_inside_every_ttt():
    # HcpConfig keeps the TTT at one report period or more, so a preparation
    # latency of at most one period always completes inside it
    assert D_PREP_MAX_MS <= REPORT_PERIOD_MS
    with pytest.raises(ValueError):
        HcpConfig(ttt_ms=REPORT_PERIOD_MS // 2)


def test_decide_preparation_examples():
    cfg = MODEL_RULE  # threshold 40 ms, 2 consecutive
    # only one prediction at/below 0.04 in the window: no trigger
    tl = eshop_timeline(_ep(t0=40), np.array([0, 40, 80]), np.array([0.30, 0.08, 0.03]), 25.0, cfg)
    assert tl.trigger_ms is None and tl.fellback
    tl = eshop_timeline(_ep(t0=0), np.array([0, 40]), np.array([0.039, 0.020]), 25.0, cfg)
    assert tl.trigger_ms == 40.0 and not tl.fellback
    # float32 predictions compare in float64: float32(0.1) lies above 0.1
    preds = np.full(2, 0.1, dtype=np.float32)
    cfg = SignalingConfig(trigger_threshold_ms=100.0, consecutive_required=2)
    assert eshop_timeline(_ep(t0=0), np.array([0, 40]), preds, 25.0, cfg).trigger_ms is None
    preds = np.full(2, 0.1)
    assert eshop_timeline(_ep(t0=0), np.array([0, 40]), preds, 25.0, cfg).trigger_ms == 40.0


@pytest.mark.parametrize("k", [1, 2, 4, 5, 8])
def test_consecutive_required_triggers_at_kth_in_window_report(k):
    cfg = SignalingConfig(trigger_threshold_ms=40.0, consecutive_required=k)
    times = np.arange(0, 2120, 40)
    ep = _ep(t0=1960)  # A3 at 2000
    tl = eshop_timeline(ep, times, np.zeros(len(times)), 25.0, cfg)
    assert tl.trigger_ms == 40.0 * (k - 1)
    window_start = 2000 - 40 * k + 20  # k reports in (window_start, A3]
    tl = eshop_timeline(
        ep, times, np.zeros(len(times)), 25.0, cfg, window_start_ms=window_start
    )
    assert tl.trigger_ms == 2000.0
    tl = eshop_timeline(
        ep, times, np.zeros(len(times)), 25.0, cfg, window_start_ms=window_start + 40
    )
    assert tl.trigger_ms is None and tl.fellback


def test_trigger_matches_report_scan_randomized():
    rng = np.random.Generator(np.random.PCG64(21))
    times = np.arange(0, 4000, 40)
    fired = 0
    for _ in range(300):
        k = int(rng.integers(1, 5))
        cfg = SignalingConfig(consecutive_required=k, trigger_threshold_ms=40.0)
        preds = np.where(rng.random(len(times)) < 0.7, rng.uniform(0.0, 0.06, len(times)), 9.9)
        preds = preds.astype(rng.choice([np.float32, np.float64]))
        ep = _ep(t0=int(rng.integers(5, 95)) * 40)
        window_start = float(rng.choice([-np.inf, rng.uniform(0.0, ep.a3_ms)]))
        tl = eshop_timeline(ep, times, preds, 25.0, cfg, window_start_ms=window_start)
        want = first_trigger_scan(times, preds, window_start, ep.a3_ms, 0.04, k)
        assert tl.trigger_ms == want
        fired += want is not None
    assert 50 < fired < 300


def test_decide_preparation_single_outstanding():
    # one preparation per episode: the first qualifying report starts it, and
    # later qualifying reports (or a broken run) do not move it
    cfg = MODEL_RULE
    times = np.arange(0, 240, 40)
    preds = np.array([0.03, 0.02, 0.01, 9.9, 0.0, 0.0])
    tl = eshop_timeline(_ep(t0=160), times, preds, 25.0, cfg)
    assert tl.trigger_ms == 40.0


def test_simulate_legacy_timeline():
    # with no trigger the episode keeps the legacy timeline: command at A3 + d_prep
    times = np.arange(0, 2120, 40)
    tl = eshop_timeline(_ep(t0=1960), times, np.full(len(times), np.inf), 25.0, MODEL_RULE)
    assert tl.command_ms == 2025.0 and tl.fellback and not tl.wasted
    with pytest.raises(ValueError):
        eshop_timeline(HoEventRecord("ue", 0, 1, 100, aborted=True), times, times, 25.0, MODEL_RULE)


@given(
    rule=st.one_of(
        st.sampled_from([MODEL_RULE, ENTRY_RULE]),
        st.builds(SignalingConfig, st.sampled_from([0.0, 40.0, 120.0, 200.0, 1e9]),
                  st.integers(1, 4)),
    ),
    t0=st.integers(0, 60),
    ttt=st.sampled_from([1, 2, 4]),
    d_prep=st.floats(15.0, 35.0),
    window_start=st.one_of(st.just(-np.inf), st.floats(-100.0, 2800.0)),
    data=st.data(),
)
@settings(max_examples=200)
def test_command_lies_between_a3_and_a3_plus_d_prep(rule, t0, ttt, d_prep, window_start, data):
    # the A3 gates every command and no trigger comes after the A3, so an
    # early command is never later than the legacy one: simulate_eshop's
    # skip test reads only the legacy command
    times = np.arange(0, 4000, 40)
    ep = HoEventRecord("ue", 0, 1, 40 * t0, a3_ms=40 * (t0 + ttt))
    values = st.sampled_from([0.0, 0.02, 0.04, 0.041, 0.12, 0.2, np.inf])  # thresholds' edges
    preds = data.draw(hnp.arrays(np.float64, len(times), elements=values))
    tl = eshop_timeline(ep, times, preds, d_prep, rule, window_start_ms=window_start)
    assert ep.a3_ms <= tl.command_ms <= ep.a3_ms + d_prep
    if tl.fellback:
        assert tl.command_ms == ep.a3_ms + d_prep


def _countdown_trace(t0=1960, horizon_end=2120):
    times = np.arange(0, horizon_end, 40)
    eps = [_ep(t0=t0)]
    return times, oracle_countdown(times, eps, horizon_s=8.0)


def test_simulate_eshop_perfect_prediction():
    times, preds = _countdown_trace()
    ep = _ep(t0=1960)
    tl = eshop_timeline(ep, times, preds, d_prep_ms=35.0, cfg=MODEL_RULE)
    assert tl.trigger_ms == 1960.0  # trigger exactly at T0
    # preparation is done at 1995, inside the TTT window, so the command goes
    # out at the UE's A3 report and the whole preparation latency is saved
    assert tl.command_ms == 2000.0
    assert not tl.wasted and not tl.fellback


def test_simulate_eshop_late_trigger():
    times = np.arange(0, 2120, 40)
    ep = _ep(t0=1960)
    # predictions only drop at the A3 instant itself
    preds = np.full(times.shape, 9.9)
    preds[times >= 1960] = 0.02
    tl = eshop_timeline(ep, times, preds, d_prep_ms=30.0, cfg=MODEL_RULE)
    assert tl.trigger_ms == 2000.0
    assert tl.command_ms == 2030.0  # max(a3, prep done)
    assert not tl.fellback


def test_simulate_eshop_no_trigger_falls_back():
    times = np.arange(0, 2120, 40)
    ep = _ep(t0=1960)
    preds = np.full(times.shape, 9.9)
    tl = eshop_timeline(ep, times, preds, d_prep_ms=20.0, cfg=MODEL_RULE)
    assert tl.trigger_ms is None
    assert tl.fellback and not tl.wasted
    assert tl.command_ms == 2020.0


def test_simulate_eshop_wasted_preparation():
    times = np.arange(0, 4000, 40)
    ep = _ep(t0=3000)
    preds = np.full(times.shape, 9.9)
    preds[(times >= 1000) & (times <= 1080)] = 0.01  # spurious early dip
    tl = eshop_timeline(ep, times, preds, d_prep_ms=20.0, cfg=MODEL_RULE)
    assert tl.wasted and tl.fellback
    assert tl.trigger_ms == 1040.0
    assert tl.command_ms == 3060.0  # falls back to legacy timing


def test_oracle_countdown_values():
    times = np.array([0, 40, 80, 120, 160, 200])
    eps = [
        HoEventRecord("ue", 0, 1, 40, aborted=True),
        HoEventRecord("ue", 0, 1, 120, a3_ms=160, command_ms=180.0),
    ]
    preds = oracle_countdown(times, eps, horizon_s=8.0)
    # the training label with exclusions at +inf: up to the aborted T0 the
    # countdown points at it (no predictor can see the abort coming), then at
    # the real fulfillment, and after T0 there is no same-segment T0
    assert preds.tolist() == [np.inf, np.inf, 0.04, 0.0, np.inf, np.inf]
    assert oracle_countdown(times, eps, horizon_s=0.03).tolist() == [np.inf] * 3 + [0.0] + [np.inf] * 2


def test_entry_countdown_is_zero_at_every_t0():
    times = np.arange(0, 2000, 40)
    episodes = [
        HoEventRecord("ue", 0, 1, 200, aborted=True),
        HoEventRecord("ue", 0, 2, 400, a3_ms=440, command_ms=465.5),
        HoEventRecord("ue", 2, 1, 5000, a3_ms=5040),  # beyond the trace
    ]
    got = entry_countdown(times, episodes)
    assert got.shape == times.shape
    assert np.flatnonzero(got == 0.0).tolist() == [5, 10]
    assert np.isinf(np.delete(got, [5, 10])).all()


@pytest.mark.parametrize("ttt_ms", [40, 80, 160])
@pytest.mark.parametrize("los_mode", ["los", "nlos"])
def test_entry_rule_equals_the_oracle_but_after_an_early_aborted_t0(los_mode, ttt_ms):
    # The regime: every TTT outlasts every preparation latency, and the A3
    # gates the command. Then preparing at the first T0 after the last
    # command gives the oracle's timeline (command at the A3, nothing
    # wasted), except where an aborted T0 precedes the A3 by more than the
    # guard plus d_prep: that preparation expires, and the episode falls back.
    assert D_PREP_MAX_MS < REPORT_PERIOD_MS  # the shortest TTT
    cfg = ExperimentConfig(hcp=HcpConfig(ttt_ms=ttt_ms))
    runs = run_scenario(
        ScenarioConfig(num_ues=20, duration_s=16.0), ChannelParams(los_mode=los_mode), cfg.hcp, master_seed=501
    )
    same = parted = 0
    for run in runs:
        episodes = episodes_from_events(run.events)
        times, rsrp = run.times_ms, run.best_rsrp
        oracle = oracle_countdown(times, episodes, cfg.dataset.horizon_s)
        want = simulate_eshop(episodes, times, rsrp, oracle, MODEL_RULE)
        got = simulate_eshop(episodes, times, rsrp, entry_countdown(times, episodes), ENTRY_RULE)
        assert len(want) == sum(not ep.aborted and ep.command_ms is not None for ep in episodes)
        assert [c.episode_id for c in got] == [c.episode_id for c in want]
        prev_cmds = [-np.inf] + [c.legacy_cmd_ms for c in want[:-1]]
        for w, g, prev_cmd in zip(want, got, prev_cmds):
            early_abort = any(
                e.aborted and prev_cmd < e.t0_ms and g.a3_ms - e.t0_ms > GUARD_MS + g.d_prep_ms
                for e in episodes
            )
            if early_abort:
                parted += 1
                assert (g.eshop_cmd_ms, g.wasted, g.fellback) == (g.legacy_cmd_ms, True, True)
            else:
                same += 1
                assert (g.eshop_cmd_ms, g.wasted, g.fellback) == (w.eshop_cmd_ms, w.wasted, w.fellback)
            assert (w.eshop_cmd_ms, w.wasted, w.fellback) == (w.a3_ms, False, False)
    assert same > 0 and parted > 0, (same, parted)


def _replay_trace(n=100):
    times = np.arange(0, 40 * n, 40)
    rsrp = np.stack([-80.0 - 0.1 * np.arange(n), np.full(n, -90.0), np.full(n, -95.0)], axis=1)
    return times, rsrp


def test_replay_skips_aborted_commandless_and_past_trace_episodes():
    times, rsrp = _replay_trace()  # last report at 3960
    episodes = [
        HoEventRecord("ue", 0, 1, 200, aborted=True),
        HoEventRecord("ue", 0, 1, 400, a3_ms=440, command_ms=465.0),
        HoEventRecord("ue", 1, 2, 1000, a3_ms=1040),  # no command
        HoEventRecord("ue", 1, 2, 2000, a3_ms=2040, command_ms=2070.0),
        HoEventRecord("ue", 2, 0, 3920, a3_ms=3960, command_ms=3985.0),  # after the last report
    ]
    got = simulate_eshop(episodes, times, rsrp, np.zeros(len(times)), ENTRY_RULE)
    assert [c.episode_id for c in got] == ["ue:1", "ue:3"]
    assert [c.d_prep_ms for c in got] == [25.0, 30.0]
    assert [c.legacy_cmd_ms for c in got] == [465.0, 2070.0]
    # RSRP of the serving cell, linearly interpolated between the reports
    assert got[0].rsrp_a3_dbm == pytest.approx(-81.1)
    assert got[0].rsrp_legacy_cmd_dbm == pytest.approx(-81.1625)
    assert got[1].rsrp_a3_dbm == -90.0 == got[1].rsrp_legacy_cmd_dbm
    assert simulate_eshop(episodes[:1], times, rsrp, np.zeros(len(times)), ENTRY_RULE) == []


def test_replay_ignores_a_trigger_before_the_previous_command():
    # the countdown hits 0 only before the first command; the second episode's
    # window starts at that command, so it falls back
    times, rsrp = _replay_trace()
    episodes = [
        HoEventRecord("ue", 0, 1, 400, a3_ms=440, command_ms=465.0),
        HoEventRecord("ue", 1, 0, 520, a3_ms=560, command_ms=580.0),
    ]
    preds = np.where((400 <= times) & (times <= 440), 0.0, np.inf)
    first, second = simulate_eshop(episodes, times, rsrp, preds, ENTRY_RULE)
    assert (first.eshop_cmd_ms, first.fellback) == (440.0, False)
    assert (second.eshop_cmd_ms, second.fellback, second.wasted) == (580.0, True, False)
    # a countdown that stops at the report of the last A3, as inference does
    (first,) = simulate_eshop(episodes[:1], times, rsrp, preds[:12], ENTRY_RULE)
    assert first.eshop_cmd_ms == 440.0


def test_replay_of_the_oracle_countdown_never_falls_back():
    cfg = ExperimentConfig()
    runs = run_scenario(ScenarioConfig(num_ues=6, duration_s=16.0), ChannelParams(), cfg.hcp, 501)
    run = next(r for r in runs if any(e.kind == EVENT_CMD for e in r.events))
    episodes = episodes_from_events(run.events)
    oracle = oracle_countdown(run.times_ms, episodes, cfg.dataset.horizon_s)
    got = simulate_eshop(episodes, run.times_ms, run.best_rsrp, oracle, MODEL_RULE)
    assert got
    for c in got:
        assert c.episode_id.startswith(f"{run.ue_id}:")
        assert not c.fellback and not c.wasted
        assert c.advance_ms == c.d_prep_ms and c.eshop_cmd_ms == c.a3_ms
        assert c.rsrp_eshop_cmd_dbm == c.rsrp_a3_dbm
    stats = degradation_stats(got)
    assert stats.fallback_rate == 0.0 and stats.mean_advance_ms == stats.mean_d_prep_ms


def test_streaming_equals_batch_inference():
    cfg = TcnModelConfig(
        in_channels=N_FEATURES,
        kernel_size=3,
        dilations=(1, 2),
        hidden_channels=6,
        dense_sizes=(6,),
        seed=11,
    )
    params = init_params(cfg, np.float32)
    rng = np.random.Generator(np.random.PCG64(4))
    n = 50
    rows = rng.normal(size=(n, N_FEATURES))
    segments = np.zeros(n, dtype=int)
    segments[23:] = 1  # one command boundary
    batch = infer_countdown(params, rows, segments, window_len=8)
    stream = StreamingCountdown(params, window_len=8)
    got = []
    for i in range(n):
        if i == 23:
            stream.on_command()
        got.append(stream.push(rows[i]))
    assert np.array_equal(np.asarray(got), batch)


def test_streaming_causality_under_truncation():
    cfg = TcnModelConfig(
        in_channels=N_FEATURES, kernel_size=3, dilations=(1,), hidden_channels=4, dense_sizes=(4,), seed=2
    )
    params = init_params(cfg, np.float32)
    rng = np.random.Generator(np.random.PCG64(9))
    rows = rng.normal(size=(30, N_FEATURES))
    segs = np.zeros(30, dtype=int)
    full = infer_countdown(params, rows, segs, window_len=6)
    prefix = infer_countdown(params, rows[:20], segs[:20], window_len=6)
    assert np.array_equal(full[:20], prefix)


PAPER_TCN = TcnModelConfig(in_channels=N_FEATURES, seed=5)  # k=11, dilations 1..64, hidden 32


def _paper_trace(n=150, boundary=40):
    rng = np.random.Generator(np.random.PCG64(12))
    rows = rng.normal(size=(n, N_FEATURES))
    segments = np.zeros(n, dtype=int)
    segments[boundary:] = 1
    return rows, segments


def test_streaming_equals_batch_inference_paper_tcn():
    # at W=96, 27% of the parameters are dead taps and most block positions
    # are pruned; the second segment outgrows the window
    params = init_params(PAPER_TCN, np.float32)
    rows, segments = _paper_trace()
    batch = infer_countdown(params, rows, segments, window_len=96)
    stream = StreamingCountdown(params, window_len=96)
    got = []
    for i in range(len(rows)):
        if i and segments[i] != segments[i - 1]:
            stream.on_command()
        got.append(stream.push(rows[i]))
    assert np.array_equal(np.asarray(got), batch)


def test_streaming_causality_under_truncation_paper_tcn():
    params = init_params(PAPER_TCN, np.float32)
    rows, segments = _paper_trace()
    full = infer_countdown(params, rows, segments, window_len=96)
    prefix = infer_countdown(params, rows[:140], segments[:140], window_len=96)
    assert np.array_equal(full[:140], prefix)
    assert len(np.unique(full)) > 100  # the model is not constant on this trace


def test_streaming_equals_batch_inference_across_predict_chunks():
    # 1,200 reports make five chunks of the offline path (4 x CHUNK_WINDOWS
    # = 256, then 176); the command boundaries fall inside the second chunk,
    # on the edge of the third, and inside the fourth
    params = init_params(PAPER_TCN, np.float32)
    rng = np.random.Generator(np.random.PCG64(13))
    n = 1200
    rows = rng.normal(size=(n, N_FEATURES))
    segments = np.searchsorted([300, 512, 1000], np.arange(n), side="right")
    batch = infer_countdown(params, rows, segments, window_len=96)
    stream = StreamingCountdown(params, window_len=96)
    got = []
    for i in range(n):
        if i and segments[i] != segments[i - 1]:
            stream.on_command()
        got.append(stream.push(rows[i]))
    assert np.array_equal(np.asarray(got), batch)


def test_standardized_rows_uses_meta_stats():
    meta = DatasetMeta(horizon_s=8.0, window_len=64, rsrp_mean=(-80.0, -80.0, -80.0), rsrp_std=(2.0, 2.0, 2.0))
    rsrp = np.array([[-78.0, -82.0, -80.0]])
    beams = np.array([[0, 3, 11]])
    rows = standardized_rows(rsrp, beams, meta)
    assert rows.shape == (1, N_FEATURES)
    assert rows[0, 0] == 1.0 and rows[0, 13] == -1.0 and rows[0, 26] == 0.0
    assert rows[0, 1] == 1.0 and rows[0, 14 + 3] == 1.0 and rows[0, 27 + 11] == 1.0


def test_serving_rsrp_interpolation():
    times = np.array([0, 40, 80])
    vals = np.array([-80.0, -84.0, -88.0])
    assert serving_rsrp_at(times, vals, 20.0) == -82.0
    assert serving_rsrp_at(times, vals, 40.0) == -84.0
    with pytest.raises(ValueError):
        serving_rsrp_at(times, vals, 100.0)


def _comparison(i, advance, wasted=False, fellback=False, rsrp_a3=-85.0):
    return HoComparison(
        episode_id=f"ue:{i}",
        t0_ms=1000,
        a3_ms=1040,
        d_prep_ms=25.0,
        legacy_cmd_ms=1065.0,
        eshop_cmd_ms=1065.0 - advance,
        advance_ms=advance,
        rsrp_a3_dbm=rsrp_a3,
        rsrp_legacy_cmd_dbm=-85.0,
        rsrp_eshop_cmd_dbm=-85.0 + advance / 25.0,
        wasted=wasted,
        fellback=fellback,
    )


def test_degradation_stats_stationary_trace_gives_zero_delta():
    comps = [_comparison(i, advance=0.0) for i in range(5)]  # -85 dBm at A3 and at the command
    stats = degradation_stats(comps)
    assert np.all(stats.cdf_delta_rsrp_db == 0.0)
    assert stats.cdf_cumulative_prob[-1] == 1.0
    assert np.all(np.diff(stats.cdf_cumulative_prob) > 0)


def test_degradation_stats_aggregates():
    comps = [  # 2 dB above the command's at the A3
        _comparison(0, 25.0, rsrp_a3=-83.0),
        _comparison(1, 15.0, rsrp_a3=-83.0),
        _comparison(2, 0.0, wasted=True, fellback=True, rsrp_a3=-83.0),
    ]
    stats = degradation_stats(comps)
    assert stats.mean_advance_ms == pytest.approx((25.0 + 15.0) / 3.0)
    assert stats.wasted_rate == pytest.approx(1.0 / 3.0)
    assert stats.fallback_rate == pytest.approx(1.0 / 3.0)
    assert np.all(stats.cdf_delta_rsrp_db == 2.0)
    # CDF is non-decreasing and ends at exactly 1
    assert np.all(np.diff(stats.cdf_cumulative_prob) >= 0)
    assert stats.cdf_cumulative_prob[-1] == 1.0
