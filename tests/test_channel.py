import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eshopsim.channel import (
    Beam,
    BeamGrid,
    BeamGridConfig,
    ChannelParams,
    ChannelState,
    L3FilterState,
    MeasurementReport,
    N_SSB,
    beam_gain,
    make_report,
    path_loss,
    rsrp_l1,
    shadow_step,
    wrap_angle_deg,
)
from eshopsim.scenario import SiteLayout, position_at, spawn_trajectory, ScenarioConfig

# frozen via an independent high-precision evaluation of
# 32.4 + 21*log10(50) + 20*log10(28)
PL_LOS_50M_28GHZ = 97.02153071790078


def _beam(az=0.0, el=0.0):
    return Beam(
        beam_id=0,
        boresight_az_deg=az,
        boresight_el_deg=el,
        az_3db_deg=40.0,
        el_3db_deg=14.0,
        peak_gain_dbi=14.0,
    )


def test_gain_on_boresight_is_peak():
    assert beam_gain(_beam(), 0.0, 0.0) == 14.0


def test_gain_at_half_beamwidth_is_minus_3db():
    assert beam_gain(_beam(), 20.0, 0.0) == pytest.approx(14.0 - 3.0, abs=1e-12)
    assert beam_gain(_beam(), 0.0, 7.0) == pytest.approx(14.0 - 3.0, abs=1e-12)


def test_gain_far_sidelobe_clamped():
    assert beam_gain(_beam(), 180.0, 0.0) == 14.0 - 30.0


def test_gain_wraps_angles():
    assert beam_gain(_beam(az=350.0), 10.0, 0.0) == pytest.approx(
        beam_gain(_beam(az=0.0), 20.0, 0.0), abs=1e-12
    )
    assert wrap_angle_deg(190.0) == -170.0
    assert wrap_angle_deg(180.0) == 180.0


def test_beam_grid_has_12_static_beams(layout):
    grid = BeamGrid(layout)
    for cell_id in layout.cell_ids:
        beams = grid.cells[cell_id]
        assert len(beams) == N_SSB
        assert [b.beam_id for b in beams] == list(range(N_SSB))


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


def test_shadow_zero_distance_keeps_value(rng):
    params = ChannelParams()
    assert shadow_step(3.7, 0.0, params, rng) == 3.7


def test_shadow_long_distance_forgets(rng):
    params = ChannelParams()
    # many independent far jumps: empirical stddev matches sigma
    vals = np.array([shadow_step(50.0, 1e6, params, rng) for _ in range(4000)])
    assert abs(vals.mean()) < 0.25
    assert vals.std() == pytest.approx(params.shadow_sigma_db, rel=0.05)


def test_shadow_stationary_stddev_monte_carlo(rng):
    params = ChannelParams()  # sigma 4 dB, decorrelation 10 m
    n = 1_000_000
    rho = math.exp(-1.0 / params.decorrelation_distance_m)
    c = math.sqrt(1.0 - rho * rho) * params.shadow_sigma_db
    noise = rng.standard_normal(n)
    vals = np.empty(n)
    s = 0.0
    for i in range(n):
        s = rho * s + c * noise[i]
        vals[i] = s
    assert vals[1000:].std() == pytest.approx(params.shadow_sigma_db, rel=0.02)


def test_rsrp_composition_identity(layout):
    grid = BeamGrid(layout)
    params = ChannelParams(fast_fading_enabled=False)
    # UE on the boresight of cell 0's beam 3 (az offset -40 from 90 deg => 50 deg)
    beam = grid.cells[0][3]
    rad = math.radians(beam.boresight_az_deg)
    pos = np.array([50.0 * math.cos(rad), 50.0 * math.sin(rad), 1.5])
    az, el, d3d = 0, 0, math.sqrt(50.0**2 + 8.5**2)
    val = rsrp_l1(pos, 0, 3, layout, grid, params)
    expected_gain = beam_gain(beam, beam.boresight_az_deg, math.degrees(math.atan2(-8.5, 50.0)))
    expected = 30.0 + expected_gain - path_loss(d3d, los=True)
    assert val == pytest.approx(expected, abs=1e-12)


def test_rsrp_frozen_composition(layout):
    # tx 30 dBm + full 14 dBi gain - LoS pathloss at exactly 50 m
    grid = BeamGrid(layout)
    params = ChannelParams(fast_fading_enabled=False)
    val = 30.0 + 14.0 - path_loss(50.0, los=True)
    assert val == pytest.approx(30.0 + 14.0 - PL_LOS_50M_28GHZ, abs=1e-9)
    assert val == pytest.approx(-53.02153071790078, abs=1e-9)


def test_rsrp_monotone_with_distance(layout):
    grid = BeamGrid(layout)
    params = ChannelParams(fast_fading_enabled=False)
    near = rsrp_l1(np.array([40.0, 0.0, 1.5]), 0, 3, layout, grid, params)
    far = rsrp_l1(np.array([60.0, 0.0, 1.5]), 0, 3, layout, grid, params)
    assert far < near


def test_l3_filter_recurrence():
    f = L3FilterState(a=0.5)
    assert f.update(-100.0) == -100.0
    assert f.update(-90.0) == -95.0


def test_l3_filter_identity_coefficient():
    f = L3FilterState(a=1.0)
    f.update(-100.0)
    assert f.update(-42.0) == -42.0


def test_l3_filter_converges_geometrically():
    f = L3FilterState(a=0.5)
    f.update(-100.0)
    for _ in range(40):
        f.update(-80.0)
    assert f.value == pytest.approx(-80.0, abs=1e-9)


@given(st.lists(st.floats(min_value=-120.0, max_value=-40.0), min_size=1, max_size=30))
def test_l3_filter_stays_within_observed_range(samples):
    f = L3FilterState(a=0.5)
    for s in samples:
        out = f.update(s)
    assert min(samples) - 1e-9 <= float(out) <= max(samples) + 1e-9


def test_make_report_snapshot(layout):
    f = L3FilterState()
    vals = np.arange(36.0).reshape(3, 12) - 100.0
    f.update(vals)
    report = make_report(40, layout.cell_ids, f)
    assert report.rsrp_dbm.shape == (3, N_SSB)
    assert np.array_equal(report.rsrp_dbm, f.value)
    report.rsrp_dbm[0, 0] = 0.0  # snapshot must be a copy
    assert f.value[0, 0] == -100.0


def test_make_report_validation(layout):
    with pytest.raises(ValueError):
        make_report(40, layout.cell_ids, L3FilterState())
    f = L3FilterState()
    f.update(np.zeros((3, 12)))
    with pytest.raises(ValueError):
        make_report(30, layout.cell_ids, f)
    with pytest.raises(ValueError):
        MeasurementReport(40, layout.cell_ids, np.zeros((3, 5)))
    with pytest.raises(ValueError):
        MeasurementReport(40, layout.cell_ids, np.full((3, 12), np.nan))


def test_rsrp_periodic_along_circle(layout):
    # impairments off: the geometry repeats exactly after one revolution
    grid = BeamGrid(layout)
    params = ChannelParams(fast_fading_enabled=False)
    traj = spawn_trajectory(5, ScenarioConfig(duration_s=60.0), center_xy=(0.0, 0.0))
    period_ms = traj.period_s * 1000.0
    for t in (0.0, 1234.0, 5000.0):
        p0 = position_at(traj, t)
        p1 = position_at(traj, t + period_ms)
        for cell in layout.cell_ids:
            for beam in (0, 5, 11):
                a = rsrp_l1(p0, cell, beam, layout, grid, params)
                b = rsrp_l1(p1, cell, beam, layout, grid, params)
                assert abs(a - b) < 1e-6


def test_channel_state_deterministic(layout):
    grid = BeamGrid(layout)
    params = ChannelParams()
    pos = np.array([50.0, 10.0, 1.5])
    a = ChannelState(layout, grid, params, np.random.Generator(np.random.PCG64(9)))
    b = ChannelState(layout, grid, params, np.random.Generator(np.random.PCG64(9)))
    for _ in range(5):
        assert np.array_equal(a.sample(pos), b.sample(pos))


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(fc_ghz=3.5)
    with pytest.raises(ValueError):
        ChannelParams(los_mode="urban")
    with pytest.raises(ValueError):
        ChannelParams(decorrelation_distance_m=0.0)
    assert ChannelParams(los_mode="NLOS").shadow_sigma_db == 7.8
    with pytest.raises(ValueError):
        BeamGridConfig(az_offsets_deg=(0.0,))
