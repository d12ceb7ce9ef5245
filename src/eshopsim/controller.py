"""Online early-preparation decision loop and the legacy-vs-early signaling
timeline comparison.

The network-side countdown predicts the remaining time to the next A3 entry
criterion fulfillment from the same 40 ms reports the UE sends. When the
countdown stays at or below the trigger threshold for the required number of
consecutive reports, preparation signaling starts; if it completes before the
UE's A3 report, the handover command goes out immediately at A3, saving the
whole preparation latency. A preparation that is never followed by an A3
within the guard window is counted as wasted and the episode falls back to
the legacy procedure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from eshopsim import tcn
from eshopsim.dataset import N_FEATURES, WindowBank
from eshopsim.events import HoEventRecord
from eshopsim.tcn import ModelParams, model_forward


@dataclass
class SignalingConfig:
    """Preparation-latency and trigger settings."""

    d_prep_min_ms: float = 15.0
    d_prep_max_ms: float = 35.0  # at most the TTT, hcp.ttt_ms
    guard_ms: float = 200.0  # longer than the TTT
    trigger_threshold_ms: float = 40.0
    consecutive_required: int = 2

    def __post_init__(self) -> None:
        if not (0.0 < self.d_prep_min_ms <= self.d_prep_max_ms):
            raise ValueError("preparation latency range must satisfy 0 < min <= max")
        if self.consecutive_required < 1:
            raise ValueError("need at least one triggering prediction")

    @property
    def trigger_threshold_s(self) -> float:
        return self.trigger_threshold_ms / 1000.0


@dataclass
class CountdownState:
    """The last ``consecutive_required`` predictions and the outstanding-preparation flag."""

    recent: list[float] = field(default_factory=list)
    prepared: bool = False


def decide_preparation(
    state: CountdownState, pred_tef_s: float, t_ms: float, cfg: SignalingConfig
) -> bool:
    """True when preparation should start at this report."""
    k = cfg.consecutive_required
    state.recent.append(float(pred_tef_s))
    if len(state.recent) > k:
        state.recent.pop(0)
    if state.prepared or len(state.recent) < k:
        return False
    return all(p <= cfg.trigger_threshold_s for p in state.recent)


@dataclass
class HoComparison:
    episode_id: str
    ue_id: str
    t0_ms: int
    a3_ms: int
    d_prep_ms: float
    legacy_cmd_ms: float
    eshop_cmd_ms: float
    advance_ms: float
    rsrp_legacy_cmd_dbm: float
    rsrp_eshop_cmd_dbm: float
    wasted: bool
    fellback: bool


@dataclass
class LegacyTimeline:
    prep_start_ms: float
    command_ms: float


@dataclass
class EshopTimeline:
    trigger_ms: float | None
    prep_start_ms: float | None
    prep_done_ms: float | None
    command_ms: float
    wasted: bool
    fellback: bool


def simulate_legacy(episode: HoEventRecord, d_prep_ms: float) -> LegacyTimeline:
    """Legacy preparation starts at the UE's A3 report."""
    if episode.aborted or episode.a3_ms is None:
        raise ValueError("cannot prepare an aborted episode")
    return LegacyTimeline(prep_start_ms=float(episode.a3_ms), command_ms=episode.a3_ms + d_prep_ms)


def simulate_eshop(
    episode: HoEventRecord,
    report_times_ms: np.ndarray,
    preds_tef_s: np.ndarray,
    d_prep_ms: float,
    cfg: SignalingConfig,
    window_start_ms: float = -np.inf,
) -> EshopTimeline:
    """Early-preparation timeline for one episode given the countdown trace.

    Only reports inside (window_start, a3] can trigger; the command is gated
    by the UE's A3 report, so it never precedes a3 even for early triggers.
    """
    if episode.aborted or episode.a3_ms is None:
        raise ValueError("cannot prepare an aborted episode")
    a3 = float(episode.a3_ms)
    state = CountdownState()
    trigger_ms: float | None = None
    for t, p in zip(report_times_ms, preds_tef_s):
        if not (window_start_ms < t <= a3):
            continue
        if decide_preparation(state, p, float(t), cfg):
            trigger_ms = float(t)
            state.prepared = True
            break
    if trigger_ms is None:
        # prediction missed the fulfillment; legacy fallback
        return EshopTimeline(
            trigger_ms=None,
            prep_start_ms=a3,
            prep_done_ms=a3 + d_prep_ms,
            command_ms=a3 + d_prep_ms,
            wasted=False,
            fellback=True,
        )
    prep_done = trigger_ms + d_prep_ms
    if a3 > prep_done + cfg.guard_ms:
        # prepared resources expired before the A3 arrived
        return EshopTimeline(
            trigger_ms=trigger_ms,
            prep_start_ms=trigger_ms,
            prep_done_ms=prep_done,
            command_ms=a3 + d_prep_ms,
            wasted=True,
            fellback=True,
        )
    return EshopTimeline(
        trigger_ms=trigger_ms,
        prep_start_ms=trigger_ms,
        prep_done_ms=prep_done,
        command_ms=max(a3, prep_done),
        wasted=False,
        fellback=False,
    )


def oracle_countdown(report_times_ms: np.ndarray, episodes: list[HoEventRecord]) -> np.ndarray:
    """Ground-truth countdown: seconds to the next non-aborted T0 (0 at T0)."""
    times = np.asarray(report_times_ms, dtype=float)
    t0s = np.asarray(
        sorted(ep.t0_ms for ep in episodes if not ep.aborted), dtype=float
    )
    out = np.full(times.shape, np.inf)
    if len(t0s):
        nxt = np.searchsorted(t0s, times, side="left")  # first T0 >= t
        has = nxt < len(t0s)
        out[has] = (t0s[nxt[has]] - times[has]) / 1000.0
    return out


# ---------------------------------------------------------------------------
# model-fed inference over recorded report streams
# ---------------------------------------------------------------------------


class StreamingCountdown:
    """Online per-report inference; reset at each handover command boundary."""

    def __init__(self, params: ModelParams, window_len: int):
        self.params = params
        self.window_len = window_len
        self._rows: list[np.ndarray] = []

    def on_command(self) -> None:
        """A handover command closes the segment; windows never cross it."""
        self._rows = []

    def push(self, row: np.ndarray) -> float:
        row = np.asarray(row, dtype=float)
        if row.shape != (N_FEATURES,):
            raise ValueError(f"feature row must have {N_FEATURES} entries")
        self._rows.append(row)
        if len(self._rows) > self.window_len:
            self._rows.pop(0)
        window = np.zeros((self.window_len, N_FEATURES))
        window[self.window_len - len(self._rows) :, :] = np.asarray(self._rows)
        return model_forward(self.params, window)


def infer_countdown(
    params: ModelParams,
    rows: np.ndarray,
    segments: np.ndarray,
    window_len: int,
) -> np.ndarray:
    """Offline inference over a recorded trace, one prediction per report.

    Windows are built exactly like the training windows (zero-padded, clipped
    at command boundaries) and go through the batched forward pass, which
    gives each window the bits of a single-window pass, so offline and online
    inference agree bit-exactly.
    """
    bank = WindowBank(rows, segments, np.arange(len(rows)), window_len, dtype=params.dtype)
    return tcn.predict(params, bank)


# ---------------------------------------------------------------------------
# degradation statistics
# ---------------------------------------------------------------------------


@dataclass
class DegradationStats:
    cdf_delta_rsrp_db: np.ndarray  # sorted ascending
    cdf_cumulative_prob: np.ndarray
    benefit_db: np.ndarray  # rsrp at early command minus rsrp at legacy command
    mean_advance_ms: float
    mean_d_prep_ms: float
    wasted_rate: float
    fallback_rate: float
    n_compared: int


def serving_rsrp_at(
    times_ms: np.ndarray, serving_best_dbm: np.ndarray, t_ms: float
) -> float:
    """Serving-cell best RSRP at an arbitrary instant, linearly interpolated
    between the 40 ms reports."""
    times = np.asarray(times_ms, dtype=float)
    if t_ms < times[0] or t_ms > times[-1]:
        raise ValueError("instant outside the recorded trace")
    return float(np.interp(t_ms, times, serving_best_dbm))


def degradation_stats(comparisons: list[HoComparison], rsrp_samples: dict[str, tuple[float, float]]) -> DegradationStats:
    """Aggregate per-episode comparisons.

    ``rsrp_samples`` maps episode_id -> (rsrp at a3, rsrp at a3 + d_prep) on
    the pre-handover serving cell.
    """
    if not comparisons:
        raise ValueError("no episodes to aggregate")
    deltas = np.asarray(
        [rsrp_samples[c.episode_id][0] - rsrp_samples[c.episode_id][1] for c in comparisons]
    )
    order = np.argsort(deltas, kind="stable")
    cdf_x = deltas[order]
    cdf_p = (np.arange(len(deltas)) + 1) / len(deltas)
    benefit = np.asarray([c.rsrp_eshop_cmd_dbm - c.rsrp_legacy_cmd_dbm for c in comparisons])
    return DegradationStats(
        cdf_delta_rsrp_db=cdf_x,
        cdf_cumulative_prob=cdf_p,
        benefit_db=benefit,
        mean_advance_ms=float(np.mean([c.advance_ms for c in comparisons])),
        mean_d_prep_ms=float(np.mean([c.d_prep_ms for c in comparisons])),
        wasted_rate=float(np.mean([c.wasted for c in comparisons])),
        fallback_rate=float(np.mean([c.fellback for c in comparisons])),
        n_compared=len(comparisons),
    )
