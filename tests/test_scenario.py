import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from eshopsim import scenario
from eshopsim.channel import ChannelParams
from eshopsim.scenario import (
    BS_POSITION,
    REPORT_PERIOD_MS,
    SECTOR_BORESIGHTS_DEG,
    ScenarioConfig,
    UeTrajectory,
    bearings_from_bs,
    position_at,
    row_norms,
    spawn_trajectory,
)
from eshopsim.simulate import run_ue
from oracles import bearing_from_bs, position_at_instant


def test_spawn_is_deterministic():
    sc = ScenarioConfig()
    a = spawn_trajectory(7, sc)
    b = spawn_trajectory(7, sc)
    assert a == b


def test_spawn_radius_bounds_and_separation():
    sc = ScenarioConfig()
    radii = np.asarray([spawn_trajectory(seed, sc).radius_m for seed in range(10_000)])
    assert radii.min() >= 40.0 and radii.max() <= 60.0
    # individual circles end up separated by up to tens of meters
    assert radii.max() - radii.min() > 15.0


def test_spawn_rejects_bad_scenarios():
    with pytest.raises(ValueError):
        ScenarioConfig(duration_s=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(num_ues=0)


def test_distinct_seeds_give_distinct_trajectories():
    sc = ScenarioConfig()
    pairs = [(spawn_trajectory(2 * i, sc), spawn_trajectory(2 * i + 1, sc)) for i in range(1000)]
    same = sum(
        a.radius_m == b.radius_m
        and a.start_angle_rad == b.start_angle_rad
        and a.direction == b.direction
        for a, b in pairs
    )
    assert same == 0


def _traj(radius=50.0, start=0.0, direction=1, duration=120.0):
    return UeTrajectory(radius_m=radius, start_angle_rad=start, direction=direction, duration_s=duration)


def test_position_identity_at_t0():
    t = _traj(start=0.3)
    (p,) = position_at(t, [0.0])
    assert p[0] == pytest.approx(50.0 * math.cos(0.3), abs=1e-12)
    assert p[1] == pytest.approx(50.0 * math.sin(0.3), abs=1e-12)
    assert p[2] == 1.5


def test_position_antipodal_at_half_period():
    t = _traj(start=0.0)
    half_period_ms = math.pi * t.radius_m / scenario.SPEED_MPS * 1000.0
    (p,) = position_at(t, [half_period_ms])
    assert p[0] == pytest.approx(-50.0, abs=1e-9)
    assert p[1] == pytest.approx(0.0, abs=1e-9)


def test_full_revolution_period():
    assert scenario.SPEED_MPS == 25.0
    t = _traj(radius=50.0)
    period_s = 2.0 * math.pi * 50.0 / 25.0
    p0, p1 = position_at(t, [0.0, period_s * 1000.0])
    assert np.allclose(p0, p1, atol=1e-9)


def test_position_rejects_out_of_range():
    t = _traj(duration=10.0)
    for bad in (-1.0, 10_001.0, math.nan):
        with pytest.raises(ValueError):
            position_at(t, [0.0, bad, 40.0])


@given(
    st.floats(min_value=0.0, max_value=60_000.0),
    st.floats(min_value=40.0, max_value=60.0),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
    st.sampled_from([1, -1]),
)
def test_positions_stay_on_circle(t_ms, radius, start, direction):
    t = _traj(radius=radius, start=start, direction=direction, duration=60.0)
    (p,) = position_at(t, [t_ms])
    assert math.hypot(p[0], p[1]) == pytest.approx(radius, abs=1e-9)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    duration_s=st.one_of(st.just(8.04), st.floats(min_value=0.01, max_value=30.0)),
    outside_ms=st.one_of(st.floats(max_value=-1e-9), st.integers(min_value=1, max_value=40)),
)
def test_positions_on_the_report_grid_equal_the_per_instant_reference(
    seed, duration_s, outside_ms
):
    # the trace is the per-instant positions bit for bit, on the grid that
    # ends on the duration (8.04 s is 8040 ms, not 8039.999...)
    traj = spawn_trajectory(seed, ScenarioConfig(duration_s=duration_s))
    times = range(0, traj.duration_ms + 1, REPORT_PERIOD_MS)
    want = np.array([position_at_instant(traj, t) for t in times])
    assert np.array_equal(position_at(traj, times).view(np.int64), want.view(np.int64))
    # a time before the start or after the end is refused
    late = outside_ms if outside_ms < 0 else traj.duration_ms + outside_ms
    with pytest.raises(ValueError):
        position_at_instant(traj, late)
    with pytest.raises(ValueError, match="outside"):
        position_at(traj, [*times, late])


def test_arc_length_between_reports(monkeypatch):
    # the UE moves SPEED_MPS times one report period along its circle
    for speed, expected in ((None, 1.0), (31.0, 1.24)):
        if speed is not None:
            monkeypatch.setattr(scenario, "SPEED_MPS", speed)
        t = _traj()
        p0, p1 = position_at(t, [0.0, REPORT_PERIOD_MS])
        arc = t.radius_m * (math.atan2(p1[1], p1[0]) - math.atan2(p0[1], p0[0]))
        assert arc == pytest.approx(expected, abs=1e-12)


def _bearing(pos):
    """``bearings_from_bs`` of a one-position trace."""
    (az,), (el,), (d3d,) = bearings_from_bs(np.asarray(pos, dtype=float)[None])
    return az, el, d3d


def test_bearing_hand_trigonometry():
    # UE due east at 50 m ground distance
    az, el, d3d = _bearing(np.array([50.0, 0.0, 1.5]))
    assert az == pytest.approx(0.0, abs=1e-12)
    assert el == pytest.approx(math.degrees(math.atan2(1.5 - 10.0, 50.0)), abs=1e-12)
    assert el == pytest.approx(-9.64805, abs=1e-4)
    assert d3d == pytest.approx(math.sqrt(50.0**2 + 8.5**2), abs=1e-12)


def test_bearing_on_boresight_ray():
    for boresight in SECTOR_BORESIGHTS_DEG:
        rad = math.radians(boresight)
        pos = np.array([50.0 * math.cos(rad), 50.0 * math.sin(rad), 1.5])
        az, _, _ = _bearing(pos)
        assert az == pytest.approx(boresight % 360.0, abs=1e-9)


def test_bearing_elevation_sign_flip():
    _, below, _ = _bearing(np.array([30.0, 0.0, 1.5]))
    _, above, _ = _bearing(np.array([30.0, 0.0, 20.0]))
    assert below < 0.0 < above


def test_bearing_rejects_coincident_points():
    with pytest.raises(ValueError):
        _bearing(np.asarray(BS_POSITION))


@given(hnp.arrays(
    np.float64,
    st.tuples(st.integers(min_value=0, max_value=40), st.just(3)),
    elements=st.floats(min_value=-1e150, max_value=1e150),
))
def test_row_norms_equal_per_row_dot(v):
    # the batched matmul takes the BLAS dot of each row, bit for bit
    want = np.array([math.sqrt(row.dot(row)) for row in v], dtype=float)
    assert np.array_equal(row_norms(v).view(np.int64), want.view(np.int64))


_COORD = st.one_of(st.just(0.0), st.floats(min_value=-200.0, max_value=200.0))
_HEIGHT = st.one_of(st.floats(min_value=0.0, max_value=5.0), st.floats(min_value=15.0, max_value=30.0))


@given(st.lists(st.tuples(_COORD, _COORD, _HEIGHT), min_size=1, max_size=30))
def test_bearings_equal_per_position_reference(positions):
    # the trace's geometry is the per-position reference's, bit for bit,
    # straight above or below the BS included
    want = [bearing_from_bs(np.array(p)) for p in positions]
    got = bearings_from_bs(np.array(positions, dtype=float).reshape(-1, 3))
    assert [tuple(v) for v in zip(*got)] == want


def test_bearings_straight_above_and_below():
    az, el, d3d = bearings_from_bs(np.array([[0.0, 0.0, 1.5], [0.0, 0.0, 25.0]]))
    assert az == [0.0, 0.0] and el == [-90.0, 90.0] and d3d == [8.5, 15.0]
    with pytest.raises(ValueError, match="coincides"):
        bearings_from_bs(np.array([[50.0, 0.0, 1.5], BS_POSITION]))


def test_report_grid():
    # reports at 0, 40, 80, ... up to and including the duration
    grid = run_ue(0, ScenarioConfig(num_ues=1, duration_s=1.0), ChannelParams(), master_seed=1).times_ms
    assert grid[0] == 0 and grid[-1] == 1000
    assert np.all(np.diff(grid) == REPORT_PERIOD_MS)
