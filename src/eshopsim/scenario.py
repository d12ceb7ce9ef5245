"""Site geometry and deterministic circular UE mobility.

A single base station carries three 120-degree sectors. Every UE rides its
own randomized circle around the site, so a single run sweeps all three cell
borders; the randomized radius, phase and direction separate individual
trajectories by up to tens of meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

REPORT_PERIOD_MS = 40  # measurement reporting
BS_HEIGHT_M = 10.0
UE_HEIGHT_M = 1.5
SECTOR_BORESIGHTS_DEG = (90.0, 210.0, 330.0)  # cells 0-2; azimuth 0 deg points east, CCW
BS_POSITION = (0.0, 0.0, BS_HEIGHT_M)
RADIUS_MIN_M = 40.0  # UE circle radii are drawn uniformly from this range
RADIUS_MAX_M = 60.0
SPEED_MPS = 25.0  # every UE's speed along its circle


@dataclass(frozen=True)
class UeTrajectory:
    """Closed-form circular path around the site at ``SPEED_MPS``: radius, phase, direction."""

    radius_m: float
    start_angle_rad: float
    direction: int  # +1 counter-clockwise, -1 clockwise
    duration_s: float

    @property
    def duration_ms(self) -> int:  # the one duration: the report grid ends on it
        return int(round(self.duration_s * 1000.0))


@dataclass
class ScenarioConfig:
    """Mobility scenario block: run length and UE count."""

    duration_s: float = 20.0
    num_ues: int = 10

    def __post_init__(self) -> None:
        if self.duration_s <= 0.0:
            raise ValueError("duration must be positive")
        if self.num_ues < 1:
            raise ValueError("need at least one UE")


def spawn_trajectory(seed: int, scenario: ScenarioConfig) -> UeTrajectory:
    """Draw a randomized circular trajectory.

    Draw order (fixed for reproducibility): radius, start angle, direction.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    radius = float(rng.uniform(RADIUS_MIN_M, RADIUS_MAX_M))
    start_angle = float(rng.uniform(0.0, 2.0 * math.pi))
    direction = 1 if int(rng.integers(0, 2)) == 1 else -1
    return UeTrajectory(
        radius_m=radius,
        start_angle_rad=start_angle,
        direction=direction,
        duration_s=scenario.duration_s,
    )


def position_at(traj: UeTrajectory, times_ms) -> np.ndarray:
    """UE positions (x, y, z) on the circle at the instants ``times_ms`` (N,): a trace (N, 3)."""
    t_ms = np.asarray(times_ms, dtype=float)
    if not np.all((0.0 <= t_ms) & (t_ms <= traj.duration_ms)):
        raise ValueError(f"report times outside [0, {traj.duration_ms}] ms")
    omega = SPEED_MPS / traj.radius_m  # rad/s
    theta = traj.start_angle_rad + traj.direction * omega * (t_ms / 1000.0)
    r = traj.radius_m
    # libm per row: numpy's vectorized cos and sin differ in the last bit
    return np.array(
        [(BS_POSITION[0] + r * math.cos(a), BS_POSITION[1] + r * math.sin(a), UE_HEIGHT_M)
         for a in theta.tolist()]
    )


def row_norms(v: np.ndarray) -> np.ndarray:
    """Each row's length, bit for bit ``math.sqrt(v[i].dot(v[i]))``: a batched matmul
    takes the same BLAS dot per row, where einsum or ``(v * v).sum(1)`` round differently."""
    v = np.asarray(v, dtype=float)
    return np.sqrt((v[:, None, :] @ v[:, :, None]).reshape(len(v)))


def bearings_from_bs(positions: np.ndarray) -> tuple[list[float], list[float], list[float]]:
    """Azimuth [0, 360), elevation (negative below BS height) and 3D distance
    of each UE position of a trace (N, 3)."""
    d = np.asarray(positions, dtype=float) - np.asarray(BS_POSITION, dtype=float)
    d3d = row_norms(d)
    if np.any(d3d < 1e-12):
        raise ValueError("UE position coincides with the BS")
    az, el = [], []
    # libm per row: numpy's vectorized atan2 and hypot differ in the last bit
    for x, y, z in d.tolist():
        d2d = math.hypot(x, y)
        if d2d < 1e-12:
            az.append(0.0)
            el.append(90.0 if z > 0 else -90.0)
        else:
            az.append(math.degrees(math.atan2(y, x)) % 360.0)
            el.append(math.degrees(math.atan2(z, d2d)))
    return az, el, d3d.tolist()
