"""Per-beam RSRP synthesis: beam gain, UMi pathloss, correlated shadowing,
fast fading, and layer-3 filtering into 40 ms measurement reports.

Each cell transmits a static grid of 12 SSB wide beams (3 azimuth columns x 4
elevation tiers). L1 RSRP is composed from geometry plus impairments; the L3
exponential filter removes short-term variation before event evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from eshopsim.scenario import REPORT_PERIOD_MS, SECTOR_BORESIGHTS_DEG, bearings_from_bs, row_norms

FC_GHZ = 28.0
N_CELLS = 3  # a cell is its row index 0-2 in every (3, 12) array
N_SSB = 12
L3_FILTER_COEFF = 0.5  # settles within ~4 reports

TX_POWER_PER_SSB_DBM = 30.0
FAST_FADING_SIGMA_DB = 2.0  # i.i.d. per beam and sample

# one 12-beam grid tiles each 120-degree sector
BEAM_AZ_OFFSETS_DEG = (-40.0, 0.0, 40.0)  # from the sector boresight
BEAM_AZ_3DB_DEG = 40.0
BEAM_EL_TILTS_DEG = (-21.0, -7.0, 7.0, 21.0)
BEAM_EL_3DB_DEG = 14.0
PEAK_GAIN_DBI = 14.0
FRONT_BACK_LIMIT_DB = 30.0


class BeamGrid:
    """Static per-cell beam sets; beam_id = elevation_tier * 3 + azimuth_column."""

    def __init__(self):
        # the 9 distinct beam azimuths, cell by cell, and the 4 tilts: beam b
        # of cell c points at azimuth 3c + b % 3 and at tilt b // 3
        self._azimuths = (np.add.outer(SECTOR_BORESIGHTS_DEG, BEAM_AZ_OFFSETS_DEG) % 360.0).ravel()
        self._tilts = np.asarray(BEAM_EL_TILTS_DEG, dtype=float)
        beam = np.arange(N_SSB)
        self._az_index, self._el_index = 3 * np.arange(N_CELLS)[:, None] + beam % 3, beam // 3

    def gains_dbi(self, az_deg, el_deg) -> np.ndarray:
        """Beam gains toward (az, el) for all cells, shape (..., 3, 12) for
        directions of shape (...). The wrapped, scaled and squared offsets
        are taken once per distinct beam azimuth and tilt, then gathered per
        beam: the same IEEE operations per beam as on the (..., 3, 12) grid."""
        daz = wrap_angle_deg(np.asarray(az_deg, dtype=float)[..., None] - self._azimuths)
        del_ = wrap_angle_deg(np.asarray(el_deg, dtype=float)[..., None] - self._tilts)
        az_term, el_term = (daz / BEAM_AZ_3DB_DEG) ** 2, (del_ / BEAM_EL_3DB_DEG) ** 2
        atten = 12.0 * (az_term[..., self._az_index] + el_term[..., None, self._el_index])
        return PEAK_GAIN_DBI - np.minimum(atten, FRONT_BACK_LIMIT_DB)


def wrap_angle_deg(x):
    """Wrap angle differences to (-180, 180]."""
    return -((-np.asarray(x) + 180.0) % 360.0 - 180.0)


def path_loss(d3d_m: float, los: bool) -> float:
    """38.901 UMi street-canyon closed forms below the breakpoint distance, at
    the fixed 1.5 m UE height (where the NLoS height term vanishes).

    NLoS is clamped to be no smaller than LoS at the same distance.
    """
    if d3d_m < 1.0:
        raise ValueError("pathloss model needs d3d >= 1 m")
    pl_los = 32.4 + 21.0 * math.log10(d3d_m) + 20.0 * math.log10(FC_GHZ)
    if los:
        return pl_los
    pl_nlos = 22.4 + 35.3 * math.log10(d3d_m) + 21.3 * math.log10(FC_GHZ)
    return max(pl_los, pl_nlos)


@dataclass
class ChannelParams:
    """Channel configuration block."""

    los_mode: str = "los"  # "los" | "nlos"
    shadow_sigma_los_db: float = 2.0
    shadow_sigma_nlos_db: float = 3.0
    decorrelation_distance_m: float = 25.0

    def __post_init__(self) -> None:
        if not isinstance(self.los_mode, str) or self.los_mode.lower() not in ("los", "nlos"):
            raise ValueError("los_mode must be 'los' or 'nlos'")
        self.los_mode = self.los_mode.lower()
        if self.shadow_sigma_los_db <= 0.0 or self.shadow_sigma_nlos_db <= 0.0:
            raise ValueError("shadow sigmas must be positive")
        if self.decorrelation_distance_m <= 0.0:
            raise ValueError("decorrelation distance must be positive")

    @property
    def los(self) -> bool:
        return self.los_mode == "los"

    @property
    def shadow_sigma_db(self) -> float:
        return self.shadow_sigma_los_db if self.los else self.shadow_sigma_nlos_db


class ChannelState:
    """Per-UE stochastic channel: shadowing memory plus fading draws.

    Draw order per report is fixed: one shadowing innovation per cell (in row
    order), then the (3, 12) fast-fading block, keeping streams reproducible.
    Shadowing is Gauss-Markov over the distance moved, with stationary
    distribution N(0, sigma^2).
    """

    def __init__(self, params: ChannelParams, rng: np.random.Generator):
        self.grid = BeamGrid()
        self.params = params
        self.rng = rng

    def sample(self, positions: np.ndarray) -> np.ndarray:
        """Raw L1 RSRP of all 36 beams along a UE's whole position trace
        (N, 3), shape (N, 3, 12) dBm."""
        p = self.params
        positions = np.asarray(positions, dtype=float)
        n = len(positions)
        draws = self.rng.standard_normal((n, N_CELLS + N_CELLS * N_SSB))
        az, el, d3d = bearings_from_bs(positions)
        pl = np.array([path_loss(d, los=p.los) for d in d3d])
        sigma = p.shadow_sigma_db
        # the shadowing recurrence on Python floats: the IEEE operations of a row update
        moved = row_norms(np.diff(positions, axis=0)).tolist()
        innovations = draws[:, :N_CELLS].tolist()
        shadow = [[sigma * x for x in row] for row in innovations[:1]]  # stationary initialization
        for delta_d, innovation in zip(moved, innovations[1:]):
            rho = math.exp(-delta_d / p.decorrelation_distance_m)
            k = math.sqrt(1.0 - rho * rho) * sigma
            shadow.append([rho * s + k * x for s, x in zip(shadow[-1], innovation)])
        gains = self.grid.gains_dbi(az, el)
        rsrp = TX_POWER_PER_SSB_DBM + gains - pl[:, None, None] - np.reshape(shadow, (n, N_CELLS, 1))
        fading = draws[:, N_CELLS:].reshape(n, N_CELLS, N_SSB)
        return rsrp + FAST_FADING_SIGMA_DB * fading


class L3FilterState:
    """Exponential L3 filter F_n = (1-a) F_{n-1} + a M_n, a = ``L3_FILTER_COEFF``,
    seeded by the first sample."""

    def update(self, raw) -> np.ndarray:
        """Filters a UE's whole trace of samples (N, ...) in time order;
        returns the filtered values (N, ...)."""
        raw = np.asarray(raw, dtype=float)
        out = L3_FILTER_COEFF * raw  # each row then adds (1 - a) times the row before it
        out[:1] = raw[:1]
        rows = list(out.reshape(len(out), math.prod(raw.shape[1:])))  # views, also of scalars
        scaled, keep = np.empty(math.prod(raw.shape[1:])), 1.0 - L3_FILTER_COEFF
        for prev, row in zip(rows, rows[1:]):
            row += np.multiply(prev, keep, out=scaled)
        return out


def reduce_series(l3_rsrp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per cell of an (N, 3, 12) trace, its strongest beam (lowest on ties) and that RSRP."""
    return l3_rsrp.argmax(axis=2).astype(np.int64), l3_rsrp.max(axis=2)


@dataclass
class MeasurementReport:
    """40 ms snapshot of each cell's best-beam L3 RSRP."""

    t_ms: int
    best_rsrp: np.ndarray  # shape (3,), row = cell

    def __post_init__(self) -> None:
        self.best_rsrp = np.asarray(self.best_rsrp, dtype=float)
        if self.best_rsrp.shape != (N_CELLS,):
            raise ValueError(f"report must carry ({N_CELLS},) cell values")
        if not np.isfinite(self.best_rsrp).all():
            raise ValueError("report values must be finite")
        if self.t_ms % REPORT_PERIOD_MS != 0:
            raise ValueError(f"reports land on the {REPORT_PERIOD_MS} ms grid")


def make_report(t_ms: int, best_rsrp) -> MeasurementReport:
    """Snapshot one row of ``reduce_series``'s per-cell best RSRP into a timestamped report."""
    return MeasurementReport(t_ms=t_ms, best_rsrp=np.array(best_rsrp, dtype=float))
