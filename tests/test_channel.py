import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import widen_shadowing
from eshopsim import channel, scenario
from eshopsim.channel import (
    BEAM_AZ_OFFSETS_DEG,
    BEAM_EL_TILTS_DEG,
    FAST_FADING_SIGMA_DB,
    PEAK_GAIN_DBI,
    TX_POWER_PER_SSB_DBM,
    BeamGrid,
    ChannelParams,
    ChannelState,
    L3_FILTER_COEFF,
    L3FilterState,
    MeasurementReport,
    N_SSB,
    make_report,
    path_loss,
    wrap_angle_deg,
)
from eshopsim.scenario import (
    SECTOR_BORESIGHTS_DEG,
    ScenarioConfig,
    bearings_from_bs,
    position_at,
    spawn_trajectory,
)
from oracles import PerReportChannel, PerReportL3Filter, broadcast_gains_dbi

# frozen via an independent high-precision evaluation of
# 32.4 + 21*log10(50) + 20*log10(28)
PL_LOS_50M_28GHZ = 97.02153071790078

# frozen via an independent high-precision evaluation (Python decimal, 60
# digits, sine by its Taylor series) of 32.4 + 21*log10(d) + 20*log10(28)
# with d = 8.5 / sin(7 deg), the 3D distance at which a 1.5 m UE sits on the
# -7 deg tilt of a 10 m high site
PL_LOS_ON_TILT_28GHZ = 100.05717416971923


# cell 0 (boresight 90 deg), beam 4: middle azimuth column, tilt -7 deg
CELL0_BEAM4 = (90.0, -7.0)


def _gain(az, el, cell=0, beam=4):
    return BeamGrid().gains_dbi(az, el)[cell, beam]


def test_gain_on_boresight_is_peak():
    assert _gain(*CELL0_BEAM4) == 14.0


def test_gain_at_half_beamwidth_is_minus_3db():
    assert _gain(90.0 + 20.0, -7.0) == pytest.approx(14.0 - 3.0, abs=1e-12)
    assert _gain(90.0, -7.0 + 7.0) == pytest.approx(14.0 - 3.0, abs=1e-12)


def test_gain_far_sidelobe_clamped():
    assert _gain(270.0, -7.0) == 14.0 - 30.0


def test_gain_wraps_angles():
    # cell 2 (boresight 330 deg), beam 5: azimuth 330 + 40 wraps to 10 deg;
    # seen from 350 deg it is 20 deg off, like cell 0 beam 4 seen from 110
    assert _gain(350.0, -7.0, cell=2, beam=5) == pytest.approx(
        _gain(110.0, -7.0), abs=1e-12
    )
    assert wrap_angle_deg(190.0) == -170.0
    assert wrap_angle_deg(180.0) == 180.0


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_gains_equal_the_broadcast_grid_bit_for_bit(seed):
    # random directions, and directions exactly 0, +-180 and 360 degrees off
    # a beam's azimuth or tilt, where the wrap meets its edges; every azimuth
    # with every elevation, and one direction alone
    rng = np.random.Generator(np.random.PCG64(seed))
    edges = [0.0, 180.0, -180.0, 360.0]
    beam_az = np.add.outer(SECTOR_BORESIGHTS_DEG, BEAM_AZ_OFFSETS_DEG).ravel() % 360.0
    az, el = np.meshgrid(
        np.concatenate([rng.uniform(-720.0, 720.0, 40), np.add.outer(beam_az, edges).ravel()]),
        np.concatenate([rng.uniform(-200.0, 200.0, 40), np.add.outer(BEAM_EL_TILTS_DEG, edges).ravel()]),
    )
    for a, e in ((az, el), (az[0, 0], el[0, 0])):
        got, want = BeamGrid().gains_dbi(a, e), broadcast_gains_dbi(a, e)
        assert got.shape == want.shape == (*np.shape(a), 3, 12)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_beam_grid_has_12_static_beams():
    # beam_id = elevation tier * 3 + azimuth column: each beam peaks on its boresight
    grid = BeamGrid()
    for ci, boresight in enumerate(SECTOR_BORESIGHTS_DEG):
        for ei, el in enumerate(BEAM_EL_TILTS_DEG):
            for ai, az_off in enumerate(BEAM_AZ_OFFSETS_DEG):
                gains = grid.gains_dbi(boresight + az_off, el)
                assert gains.shape == (3, N_SSB)
                assert np.argmax(gains[ci]) == ei * 3 + ai
                assert gains[ci, ei * 3 + ai] == PEAK_GAIN_DBI


def test_pathloss_los_frozen_value():
    assert path_loss(50.0, los=True) == pytest.approx(PL_LOS_50M_28GHZ, abs=1e-9)


def test_pathloss_slope_21db_per_decade():
    assert path_loss(100.0, los=True) - path_loss(10.0, los=True) == pytest.approx(
        21.0, abs=1e-9
    )


@given(st.floats(min_value=1.0, max_value=500.0))
def test_pathloss_nlos_never_below_los(d):
    assert path_loss(d, los=False) >= path_loss(d, los=True)


def test_pathloss_rejects_close_range():
    with pytest.raises(ValueError):
        path_loss(0.5, los=True)


def _shadow_along(positions, seed=9):
    """Shadowing (N, 3) of a fresh LoS channel along ``positions``: its L1
    RSRP with the geometry and the fast fading (replayed from the seed's
    stream, 3 shadow then 36 fading draws per report) taken out."""
    positions = np.asarray(positions, dtype=float)
    raw = ChannelState(ChannelParams(), np.random.Generator(np.random.PCG64(seed))).sample(positions)
    draws = np.random.Generator(np.random.PCG64(seed)).standard_normal((len(positions), 39))
    fading = FAST_FADING_SIGMA_DB * draws[:, 3:].reshape(-1, 3, N_SSB)
    az, el, d3d = bearings_from_bs(positions)
    pl = np.array([path_loss(d, los=True) for d in d3d])
    geometry = TX_POWER_PER_SSB_DBM + BeamGrid().gains_dbi(az, el) - pl[:, None, None]
    return (geometry + fading - raw)[:, :, 0]


def test_shadow_zero_distance_keeps_value(wide_shadowing):
    pos = [50.0, 10.0, 1.5]
    shadow = _shadow_along([pos, pos, pos])
    initial = channel.SHADOW_SIGMA_DB["los"] * np.random.Generator(np.random.PCG64(9)).standard_normal(3)
    assert shadow == pytest.approx(np.tile(initial, (3, 1)), abs=1e-9)


def test_shadow_long_distance_forgets(wide_shadowing):
    # reports 1 km apart (100 decorrelation distances): independent draws
    # whose empirical stddev matches sigma
    vals = _shadow_along([[50.0 + 1000.0 * i, 0.0, 1.5] for i in range(4000)]).ravel()
    assert abs(vals.mean()) < 0.25
    assert vals.std() == pytest.approx(channel.SHADOW_SIGMA_DB["los"], rel=0.05)


def test_shadow_stationary_stddev_monte_carlo(rng, wide_shadowing):
    sigma = channel.SHADOW_SIGMA_DB["los"]  # 4 dB, decorrelation 10 m
    n = 1_000_000
    rho = math.exp(-1.0 / channel.DECORRELATION_DISTANCE_M)
    c = math.sqrt(1.0 - rho * rho) * sigma
    noise = rng.standard_normal(n)
    vals = np.empty(n)
    s = 0.0
    for i in range(n):
        s = rho * s + c * noise[i]
        vals[i] = s
    assert vals[1000:].std() == pytest.approx(sigma, rel=0.02)


def _sample_without_shadow(pos, seed=9):
    """L1 RSRP of a fresh channel, its initial shadowing added back and its
    fast fading, drawn after the three shadow draws, taken out."""
    chan = ChannelState(ChannelParams(), np.random.Generator(np.random.PCG64(seed)))
    draws = np.random.Generator(np.random.PCG64(seed))
    shadow = channel.SHADOW_SIGMA_DB["los"] * draws.standard_normal(3)
    fading = FAST_FADING_SIGMA_DB * draws.standard_normal((3, N_SSB))
    return chan.sample(np.asarray(pos)[None])[0] + shadow[:, None] - fading


def test_rsrp_composition_identity():
    # UE on the azimuth of cell 0's beam 3 (az offset -40 from 90 deg => 50 deg)
    rad = math.radians(50.0)
    pos = np.array([50.0 * math.cos(rad), 50.0 * math.sin(rad), 1.5])
    d3d = math.sqrt(50.0**2 + 8.5**2)
    el = math.degrees(math.atan2(-8.5, 50.0))
    expected_gain = 14.0 - 12.0 * ((el - (-7.0)) / 14.0) ** 2  # tier 1 tilts -7 deg
    expected = 30.0 + expected_gain - path_loss(d3d, los=True)
    assert _sample_without_shadow(pos)[0, 3] == pytest.approx(expected, abs=1e-12)


def test_rsrp_frozen_composition():
    # tx 30 dBm + full 14 dBi gain - LoS pathloss: a UE on the boresight of
    # cell 0's beam 4 (azimuth 90 deg, tilt -7 deg)
    rad = math.radians(90.0)
    ground = 8.5 / math.tan(math.radians(7.0))
    pos = np.array([ground * math.cos(rad), ground * math.sin(rad), 1.5])
    val = _sample_without_shadow(pos)[0, 4]
    assert val == pytest.approx(30.0 + 14.0 - PL_LOS_ON_TILT_28GHZ, abs=1e-9)
    assert val == pytest.approx(-56.05717416971923, abs=1e-9)


def test_rsrp_monotone_with_distance():
    near = _sample_without_shadow(np.array([40.0, 0.0, 1.5]))
    far = _sample_without_shadow(np.array([60.0, 0.0, 1.5]))
    assert far[0, 3] < near[0, 3]


def test_l3_filter_recurrence():
    assert L3_FILTER_COEFF == 0.5
    f = L3FilterState()
    assert f.update([-100.0, -90.0]).tolist() == [-100.0, -95.0]


def test_l3_filter_converges_geometrically():
    out = L3FilterState().update([-100.0] + [-80.0] * 40)
    assert out[-1] == pytest.approx(-80.0, abs=1e-9)


@given(st.lists(st.floats(min_value=-120.0, max_value=-40.0), min_size=1, max_size=30))
def test_l3_filter_stays_within_observed_range(samples):
    out = L3FilterState().update(samples)
    assert min(samples) - 1e-9 <= out.min() and out.max() <= max(samples) + 1e-9


@given(st.integers(min_value=1, max_value=12), st.sampled_from(["los", "nlos"]),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_trace_passes_equal_per_report_calls(n, los_mode, seed):
    # one channel and one filter call over a trace keep every bit of the
    # per-report reference (shadowing memory, draw order, filter recurrence)
    params = ChannelParams(los_mode=los_mode)
    rng = np.random.Generator(np.random.PCG64(seed))
    positions = np.column_stack([rng.uniform(-60.0, 60.0, (n, 2)), np.full(n, 1.5)])
    with pytest.MonkeyPatch.context() as mp:
        widen_shadowing(mp)
        raw = ChannelState(params, np.random.Generator(np.random.PCG64(seed))).sample(positions)
        ref_chan = PerReportChannel(params, np.random.Generator(np.random.PCG64(seed)))
        raw_ref = np.array([ref_chan.sample(pos) for pos in positions])
    assert np.array_equal(raw.view(np.int64), raw_ref.view(np.int64))
    ref_filt = PerReportL3Filter()
    l3_ref = np.array([ref_filt.update(frame) for frame in raw_ref])
    assert np.array_equal(L3FilterState().update(raw).view(np.int64), l3_ref.view(np.int64))


def test_make_report_snapshot():
    best = np.array([-100.0, -90.5, -80.25])
    report = make_report(40, best)
    assert report.best_rsrp.shape == (3,)
    assert np.array_equal(report.best_rsrp, best)
    report.best_rsrp[0] = 0.0  # snapshot must be a copy
    assert best[0] == -100.0


def test_make_report_validation():
    # one value per cell, finite, on the 40 ms report grid
    for shape in [(), (2,), (4,), (1, 3), (3, 1), (3, N_SSB)]:
        with pytest.raises(ValueError, match="cell values"):
            make_report(40, np.zeros(shape))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            MeasurementReport(40, [-80.0, bad, -90.0])
    for t_ms in (1, 20, 30, 41, -20):
        with pytest.raises(ValueError, match="grid"):
            make_report(t_ms, np.zeros(3))


def test_rsrp_periodic_along_circle():
    # impairments off: the geometry repeats exactly after one revolution
    traj = spawn_trajectory(5, ScenarioConfig(duration_s=60.0))
    period_ms = 2.0 * math.pi * traj.radius_m / scenario.SPEED_MPS * 1000.0
    for t in (0.0, 1234.0, 5000.0):
        a, b = map(_sample_without_shadow, position_at(traj, [t, t + period_ms]))
        assert np.max(np.abs(a - b)) < 1e-6


def test_channel_state_deterministic(wide_shadowing):
    params = ChannelParams()
    pos = np.array([50.0, 10.0, 1.5])
    a = ChannelState(params, np.random.Generator(np.random.PCG64(9)))
    b = ChannelState(params, np.random.Generator(np.random.PCG64(9)))
    trace = np.tile(pos, (5, 1))
    assert np.array_equal(a.sample(trace), b.sample(trace))


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(los_mode="urban")
    nlos = ChannelParams(los_mode="NLOS")
    assert nlos.los_mode == "nlos" and not nlos.los
