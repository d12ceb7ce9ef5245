import numpy as np
import pytest

from eshopsim.config import ConfigError, ExperimentConfig
from eshopsim.controller import (
    CountdownState,
    SignalingConfig,
    StreamingCountdown,
    decide_preparation,
    degradation_stats,
    infer_countdown,
    oracle_countdown,
    serving_rsrp_at,
    simulate_eshop,
    simulate_legacy,
    HoComparison,
)
from eshopsim.dataset import DatasetMeta, N_FEATURES, standardized_rows
from eshopsim.events import HoEventRecord
from eshopsim.tcn import TcnModelConfig, init_params


def _ep(t0=1960, ue="ue000", target=1):
    return HoEventRecord(ue, 0, target, t0, a3_ms=t0 + 40)


def test_signaling_config_validation():
    with pytest.raises(ValueError):
        SignalingConfig(d_prep_min_ms=0.0)
    with pytest.raises(ValueError):
        SignalingConfig(d_prep_min_ms=30.0, d_prep_max_ms=20.0)
    # the bounds against the TTT are checked where the TTT lives
    with pytest.raises(ConfigError):
        ExperimentConfig(signaling=SignalingConfig(d_prep_max_ms=45.0))  # exceeds TTT
    with pytest.raises(ConfigError):
        ExperimentConfig(signaling=SignalingConfig(guard_ms=40.0))


def test_decide_preparation_examples():
    cfg = SignalingConfig()  # threshold 40 ms, 2 consecutive
    st = CountdownState()
    fired = [decide_preparation(st, p, i * 40.0, cfg) for i, p in enumerate([0.30, 0.08, 0.03])]
    assert fired == [False, False, False]  # only one prediction at/below 0.04
    st2 = CountdownState()
    fired2 = [decide_preparation(st2, p, i * 40.0, cfg) for i, p in enumerate([0.039, 0.020])]
    assert fired2 == [False, True]


@pytest.mark.parametrize("k", [1, 2, 4, 5, 8])
def test_consecutive_required_triggers_at_kth_in_window_report(k):
    cfg = SignalingConfig(consecutive_required=k)
    st = CountdownState()
    fired = [decide_preparation(st, 0.0, i * 40.0, cfg) for i in range(k + 1)]
    assert fired == [False] * (k - 1) + [True, True]
    times = np.arange(0, 2120, 40)
    ep = _ep(t0=1960)  # A3 at 2000
    window_start = 2000 - 40 * k + 20  # k reports in (window_start, A3]
    tl = simulate_eshop(
        ep, times, np.zeros(len(times)), 25.0, cfg, window_start_ms=window_start
    )
    assert tl.trigger_ms == 2000.0
    tl = simulate_eshop(
        ep, times, np.zeros(len(times)), 25.0, cfg, window_start_ms=window_start + 40
    )
    assert tl.trigger_ms is None and tl.fellback


def test_decide_preparation_single_outstanding():
    cfg = SignalingConfig()
    st = CountdownState()
    decide_preparation(st, 0.03, 0.0, cfg)
    assert decide_preparation(st, 0.02, 40.0, cfg) is True
    st.prepared = True
    assert decide_preparation(st, 0.01, 80.0, cfg) is False


def test_simulate_legacy_timeline():
    timeline = simulate_legacy(_ep(t0=1960), d_prep_ms=25.0)
    assert timeline.prep_start_ms == 2000.0
    assert timeline.command_ms == 2025.0
    with pytest.raises(ValueError):
        simulate_legacy(HoEventRecord("ue", 0, 1, 100, aborted=True), 25.0)


def _countdown_trace(t0=1960, horizon_end=2120):
    times = np.arange(0, horizon_end, 40)
    eps = [_ep(t0=t0)]
    return times, oracle_countdown(times, eps)


def test_simulate_eshop_perfect_prediction():
    times, preds = _countdown_trace()
    ep = _ep(t0=1960)
    tl = simulate_eshop(ep, times, preds, d_prep_ms=35.0, cfg=SignalingConfig())
    assert tl.trigger_ms == 1960.0  # trigger exactly at T0
    assert tl.prep_done_ms == 1995.0  # inside the TTT window
    assert tl.command_ms == 2000.0  # gated by the UE report
    assert not tl.wasted and not tl.fellback
    legacy = simulate_legacy(ep, 25.0)
    assert legacy.command_ms - tl.command_ms == 25.0


def test_simulate_eshop_late_trigger():
    times = np.arange(0, 2120, 40)
    ep = _ep(t0=1960)
    # predictions only drop at the A3 instant itself
    preds = np.full(times.shape, 9.9)
    preds[times >= 1960] = 0.02
    tl = simulate_eshop(ep, times, preds, d_prep_ms=30.0, cfg=SignalingConfig())
    assert tl.trigger_ms == 2000.0
    assert tl.command_ms == 2030.0  # max(a3, prep done)
    assert not tl.fellback


def test_simulate_eshop_no_trigger_falls_back():
    times = np.arange(0, 2120, 40)
    ep = _ep(t0=1960)
    preds = np.full(times.shape, 9.9)
    tl = simulate_eshop(ep, times, preds, d_prep_ms=20.0, cfg=SignalingConfig())
    assert tl.trigger_ms is None
    assert tl.fellback and not tl.wasted
    assert tl.command_ms == 2020.0


def test_simulate_eshop_wasted_preparation():
    times = np.arange(0, 4000, 40)
    ep = _ep(t0=3000)
    preds = np.full(times.shape, 9.9)
    preds[(times >= 1000) & (times <= 1080)] = 0.01  # spurious early dip
    tl = simulate_eshop(ep, times, preds, d_prep_ms=20.0, cfg=SignalingConfig())
    assert tl.wasted and tl.fellback
    assert tl.trigger_ms == 1040.0
    assert tl.command_ms == 3060.0  # falls back to legacy timing


def test_oracle_countdown_values():
    times = np.array([0, 40, 80, 120, 160])
    eps = [
        HoEventRecord("ue", 0, 1, 40, aborted=True),
        HoEventRecord("ue", 0, 1, 120, a3_ms=160, command_ms=180.0),
    ]
    preds = oracle_countdown(times, eps)
    # aborted T0 is skipped; countdown points at the real fulfillment
    assert np.allclose(preds[:4], [0.120, 0.080, 0.040, 0.0])
    assert preds[4] == np.inf


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
    # 1,200 reports make three batches of the offline path (512, 512, 176);
    # the command boundaries fall inside the first batch, on the edge to the
    # second, and inside the second
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
    meta = DatasetMeta(rsrp_mean=(-80.0, -80.0, -80.0), rsrp_std=(2.0, 2.0, 2.0))
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


def _comparison(i, advance, wasted=False, fellback=False):
    return HoComparison(
        episode_id=f"ue:{i}",
        ue_id="ue",
        t0_ms=1000,
        a3_ms=1040,
        d_prep_ms=25.0,
        legacy_cmd_ms=1065.0,
        eshop_cmd_ms=1065.0 - advance,
        advance_ms=advance,
        rsrp_legacy_cmd_dbm=-85.0,
        rsrp_eshop_cmd_dbm=-85.0 + advance / 25.0,
        wasted=wasted,
        fellback=fellback,
    )


def test_degradation_stats_stationary_trace_gives_zero_delta():
    comps = [_comparison(i, advance=0.0) for i in range(5)]
    samples = {c.episode_id: (-85.0, -85.0) for c in comps}
    stats = degradation_stats(comps, samples)
    assert np.all(stats.cdf_delta_rsrp_db == 0.0)
    assert stats.cdf_cumulative_prob[-1] == 1.0
    assert np.all(np.diff(stats.cdf_cumulative_prob) > 0)


def test_degradation_stats_aggregates():
    comps = [
        _comparison(0, 25.0),
        _comparison(1, 15.0),
        _comparison(2, 0.0, wasted=True, fellback=True),
    ]
    samples = {c.episode_id: (-84.0, -86.0) for c in comps}
    stats = degradation_stats(comps, samples)
    assert stats.mean_advance_ms == pytest.approx((25.0 + 15.0) / 3.0)
    assert stats.wasted_rate == pytest.approx(1.0 / 3.0)
    assert stats.fallback_rate == pytest.approx(1.0 / 3.0)
    assert np.all(stats.cdf_delta_rsrp_db == 2.0)
    # CDF is non-decreasing and ends at exactly 1
    assert np.all(np.diff(stats.cdf_cumulative_prob) >= 0)
    assert stats.cdf_cumulative_prob[-1] == 1.0
