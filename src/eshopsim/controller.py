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

from dataclasses import dataclass

import numpy as np

from eshopsim import tcn
from eshopsim.dataset import WindowBank, label_tef
from eshopsim.events import HoEventRecord
from eshopsim.tcn import ModelParams


GUARD_MS = 200.0  # prepared resources expire this long after preparation; longer than events.TTT_MS


@dataclass(frozen=True)
class SignalingConfig:
    """Trigger rule of the early preparation: ``consecutive_required`` (k >= 1)
    countdowns in a row at or below the threshold."""

    trigger_threshold_ms: float
    consecutive_required: int


# the model's operating point: two countdowns in a row at or below one report period
MODEL_RULE = SignalingConfig(trigger_threshold_ms=40.0, consecutive_required=2)
# the entry rule: prepare at the first report whose countdown is 0 (a T0)
ENTRY_RULE = SignalingConfig(trigger_threshold_ms=0.0, consecutive_required=1)

model_forward = tcn.model_forward  # no caller: bound for ``perfbench/spans.py``'s wrapper


@dataclass
class HoComparison:
    episode_id: str
    t0_ms: int
    a3_ms: int
    d_prep_ms: float
    legacy_cmd_ms: float
    eshop_cmd_ms: float
    advance_ms: float
    rsrp_a3_dbm: float  # the serving cell's, as at both commands
    rsrp_legacy_cmd_dbm: float
    rsrp_eshop_cmd_dbm: float
    wasted: bool
    fellback: bool


@dataclass
class EshopTimeline:
    trigger_ms: float | None
    command_ms: float
    wasted: bool
    fellback: bool


def eshop_timeline(
    episode: HoEventRecord,
    report_times_ms: np.ndarray,
    preds_tef_s: np.ndarray,
    d_prep_ms: float,
    cfg: SignalingConfig,
    window_start_ms: float = -np.inf,
) -> EshopTimeline:
    """Early-preparation timeline for one episode given the countdown trace.

    Preparation starts at the first report of (window_start, a3] that closes a
    run of ``consecutive_required`` predictions at or below the threshold; the
    command is gated by the UE's A3 report, so it never precedes a3 even for
    early triggers. Legacy preparation starts at a3 itself, and no trigger
    comes after a3, so the command lies in [a3, a3 + d_prep].
    """
    if episode.aborted or episode.a3_ms is None:
        raise ValueError("cannot prepare an aborted episode")
    a3 = float(episode.a3_ms)
    times = np.asarray(report_times_ms)
    lo, hi = np.searchsorted(times, [window_start_ms, a3], side="right")
    k = cfg.consecutive_required
    below = np.asarray(preds_tef_s[lo:hi], dtype=np.float64) <= cfg.trigger_threshold_ms / 1000.0
    run_len = np.cumsum(np.concatenate(([0], below)))
    runs = np.flatnonzero(run_len[k:] - run_len[:-k] == k)  # first index of each full run
    if not len(runs):
        # prediction missed the fulfillment; legacy fallback
        return EshopTimeline(trigger_ms=None, command_ms=a3 + d_prep_ms, wasted=False, fellback=True)
    trigger_ms = float(times[lo + runs[0] + k - 1])
    prep_done = trigger_ms + d_prep_ms
    if a3 > prep_done + GUARD_MS:
        # prepared resources expired before the A3 arrived
        return EshopTimeline(trigger_ms, command_ms=a3 + d_prep_ms, wasted=True, fellback=True)
    return EshopTimeline(trigger_ms, command_ms=max(a3, prep_done), wasted=False, fellback=False)


def simulate_eshop(
    episodes: list[HoEventRecord],
    times_ms: np.ndarray,
    rsrp_dbm: np.ndarray,
    preds_tef_s: np.ndarray,
    cfg: SignalingConfig,
) -> list[HoComparison]:
    """Replays one UE: its episodes against a countdown over its first
    ``len(preds_tef_s)`` reports, each cell's RSRP in ``rsrp_dbm`` (N, 3).

    Aborted episodes, and those whose command is missing or falls after the
    last report, are skipped. Each other episode's trigger window starts at
    the previous command, and its ``d_prep`` is command - A3: the legacy
    command is the logged one, and the early one lies between the A3 and it,
    so every RSRP read is inside the trace.
    """
    comparisons = []
    prev_cmd = -np.inf
    for k, ep in enumerate(episodes):
        if ep.aborted or ep.command_ms is None or ep.command_ms > times_ms[-1]:
            continue
        d_prep = float(ep.command_ms) - float(ep.a3_ms)
        legacy_cmd = ep.a3_ms + d_prep
        timeline = eshop_timeline(
            ep, times_ms[: len(preds_tef_s)], preds_tef_s, d_prep, cfg, window_start_ms=prev_cmd
        )
        serving = rsrp_dbm[:, ep.serving_cell]
        comparisons.append(
            HoComparison(
                episode_id=f"{ep.ue_id}:{k}",
                t0_ms=ep.t0_ms,
                a3_ms=ep.a3_ms,
                d_prep_ms=d_prep,
                legacy_cmd_ms=legacy_cmd,
                eshop_cmd_ms=timeline.command_ms,
                advance_ms=legacy_cmd - timeline.command_ms,
                rsrp_a3_dbm=serving_rsrp_at(times_ms, serving, float(ep.a3_ms)),
                rsrp_legacy_cmd_dbm=serving_rsrp_at(times_ms, serving, legacy_cmd),
                rsrp_eshop_cmd_dbm=serving_rsrp_at(times_ms, serving, timeline.command_ms),
                wasted=timeline.wasted,
                fellback=timeline.fellback,
            )
        )
        prev_cmd = float(ep.command_ms)
    return comparisons


def oracle_countdown(
    report_times_ms: np.ndarray, episodes: list[HoEventRecord], horizon_s: float
) -> np.ndarray:
    """Ground-truth countdown: the training label ``label_tef`` over the whole
    trace, with every excluded sample at +inf (never triggers)."""
    labels, _ = label_tef(report_times_ms, episodes, horizon_s)
    return np.where(np.isnan(labels), np.inf, labels)


def entry_countdown(report_times_ms: np.ndarray, episodes: list[HoEventRecord]) -> np.ndarray:
    """The entry rule's countdown: 0 at the report of every T0, aborted ones
    included, and +inf elsewhere. It is causal: a T0 is known at its report."""
    return np.where(np.isin(report_times_ms, [ep.t0_ms for ep in episodes]), 0.0, np.inf)


# ---------------------------------------------------------------------------
# model-fed inference over recorded report streams
# ---------------------------------------------------------------------------


def infer_countdown(
    params: ModelParams,
    rows: np.ndarray,
    segments: np.ndarray,
    window_len: int,
) -> np.ndarray:
    """Offline inference over a recorded trace, one prediction per report.

    Windows are built exactly like the training windows (zero-padded, clipped
    at command boundaries). ``tcn.predict`` computes the rows a segment's
    windows share once per segment, the rest in 32-window GEMM tiles, and
    the head per window; a row's bits depend on no other row of its tile, so
    each prediction has the bits of the one-window pass at the report's place
    in its segment, which the streaming test oracle
    (``tests/oracles.StreamingCountdown``) runs one report at a time.
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


def degradation_stats(comparisons: list[HoComparison]) -> DegradationStats:
    """Aggregate per-episode comparisons; the CDF is of the serving cell's
    RSRP drop from the A3 report until the legacy command."""
    if not comparisons:
        raise ValueError("no episodes to aggregate")
    deltas = np.asarray([c.rsrp_a3_dbm - c.rsrp_legacy_cmd_dbm for c in comparisons])
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
