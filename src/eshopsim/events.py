"""3GPP measurement-event engine: A3/A5 entry evaluation, TTT arming and
abort, and serving-cell switching at handover command time.

Cell quality is the maximum over the cell's 12 beam L3 values. The A3
comparison target at every report is the strongest neighbor; the armed
candidate must stay the strongest neighbor and keep satisfying the entry
condition at every 40 ms report instant from T0 through T0+TTT, otherwise the
episode aborts (a candidate switch aborts and immediately re-arms).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from eshopsim.channel import MeasurementReport
from eshopsim.scenario import REPORT_PERIOD_MS

EVENT_T0 = "T0"
EVENT_A3 = "A3"
EVENT_ABORT = "ABORT"
EVENT_CMD = "CMD"


@dataclass
class HcpConfig:
    """Handover control parameters; HOM = offset + hysteresis."""

    event_type: str = "A3"
    ttt_ms: int = 40
    hysteresis_db: float = 0.0
    offset_db: float = 3.0
    a5_threshold1_dbm: float | None = None
    a5_threshold2_dbm: float | None = None

    def __post_init__(self) -> None:
        if self.event_type not in ("A3", "A5"):
            raise ValueError("event_type must be 'A3' or 'A5'")
        if self.ttt_ms <= 0 or self.ttt_ms % REPORT_PERIOD_MS != 0:
            raise ValueError("TTT must be a positive multiple of the 40 ms report period")
        if self.hysteresis_db not in (0.0, 1.0):
            raise ValueError("hysteresis is configured as 0 or 1 dB")
        if self.event_type == "A5" and (
            self.a5_threshold1_dbm is None or self.a5_threshold2_dbm is None
        ):
            raise ValueError("A5 requires both thresholds")

    @property
    def hom_db(self) -> float:
        return self.offset_db + self.hysteresis_db


@dataclass
class TttState:
    armed: bool = False
    armed_since_ms: int | None = None  # T0 candidate timestamp
    candidate_target_cell: int | None = None


@dataclass
class HoEventRecord:
    """One handover episode: T0, A3 (absent when aborted), command time."""

    ue_id: str
    serving_cell: int
    target_cell: int
    t0_ms: int
    a3_ms: int | None = None
    aborted: bool = False
    command_ms: float | None = None


@dataclass(frozen=True)
class HoEvent:
    ue_id: str
    kind: str  # T0 | A3 | ABORT | CMD
    t_ms: float
    serving: int
    target: int


def a3_entry(mn_dbm: float, mp_dbm: float, hcp: HcpConfig) -> bool:
    """A3 entry condition: neighbor exceeds serving by the HO margin (strict)."""
    return mn_dbm > mp_dbm + hcp.offset_db + hcp.hysteresis_db


def a5_entry(mp_dbm: float, mn_dbm: float, hcp: HcpConfig) -> bool:
    """A5 entry: serving below threshold1 and neighbor above threshold2."""
    if hcp.a5_threshold1_dbm is None or hcp.a5_threshold2_dbm is None:
        raise ValueError("A5 thresholds not configured")
    return (
        mp_dbm + hcp.hysteresis_db < hcp.a5_threshold1_dbm
        and mn_dbm - hcp.hysteresis_db > hcp.a5_threshold2_dbm
    )


class A3EventEngine:
    """Per-UE measurement-event state machine fed by 40 ms reports."""

    def __init__(self, ue_id: str, cell_ids: tuple[int, int, int], hcp: HcpConfig, serving_cell: int):
        if serving_cell not in cell_ids:
            raise ValueError("serving cell not in layout")
        self.ue_id = ue_id
        self.cell_ids = tuple(cell_ids)
        self.hcp = hcp
        self.serving_cell = serving_cell
        self.ttt = TttState()
        self.pending: HoEventRecord | None = None  # A3 reported, command not yet applied
        self.episodes: list[HoEventRecord] = []
        self._last_t_ms: int | None = None

    def _entry(self, mn: float, mp: float) -> bool:
        if self.hcp.event_type == "A5":
            return a5_entry(mp, mn, self.hcp)
        return a3_entry(mn, mp, self.hcp)

    def step(self, report: MeasurementReport) -> list[HoEvent]:
        """Advance the state machine by one report; returns emitted events."""
        t = report.t_ms
        if self._last_t_ms is not None and t <= self._last_t_ms:
            raise ValueError(f"report timestamps must increase ({t} after {self._last_t_ms})")
        self._last_t_ms = t

        best = report.rsrp_dbm.max(axis=1)  # per-cell best beam
        s_idx = self.cell_ids.index(self.serving_cell)
        serving_val = float(best[s_idx])
        nb_idx = [i for i in range(len(self.cell_ids)) if i != s_idx]
        nb_vals = best[nb_idx]
        strongest = nb_idx[int(np.argmax(nb_vals))]
        n_star = self.cell_ids[strongest]
        mn = float(best[strongest])
        entry = self._entry(mn, serving_val)

        events: list[HoEvent] = []
        if self.pending is not None:
            # A3 already reported; no arming until the command is applied
            return events

        if not self.ttt.armed:
            if entry:
                self._arm(t, n_star, events)
            return events

        cand = self.ttt.candidate_target_cell
        if entry and n_star == cand:
            if t >= self.ttt.armed_since_ms + self.hcp.ttt_ms:
                t0 = self.ttt.armed_since_ms
                record = HoEventRecord(
                    ue_id=self.ue_id,
                    serving_cell=self.serving_cell,
                    target_cell=cand,
                    t0_ms=t0,
                    a3_ms=t0 + self.hcp.ttt_ms,
                )
                self.episodes.append(record)
                self.pending = record
                self.ttt = TttState()
                events.append(
                    HoEvent(self.ue_id, EVENT_A3, record.a3_ms, self.serving_cell, cand)
                )
            return events

        # condition lost or the strongest neighbor changed: abort
        record = HoEventRecord(
            ue_id=self.ue_id,
            serving_cell=self.serving_cell,
            target_cell=cand,
            t0_ms=self.ttt.armed_since_ms,
            aborted=True,
        )
        self.episodes.append(record)
        self.ttt = TttState()
        events.append(HoEvent(self.ue_id, EVENT_ABORT, t, self.serving_cell, cand))
        if entry:
            # candidate switch: re-arm on the new strongest neighbor
            self._arm(t, n_star, events)
        return events

    def _arm(self, t: int, target: int, events: list[HoEvent]) -> None:
        self.ttt = TttState(armed=True, armed_since_ms=t, candidate_target_cell=target)
        events.append(HoEvent(self.ue_id, EVENT_T0, t, self.serving_cell, target))

    def apply_handover(self, record: HoEventRecord) -> HoEvent:
        """Switch serving to the target at command time; returns the CMD event."""
        if record.a3_ms is None or record.aborted:
            raise ValueError("cannot execute an aborted episode")
        if record.command_ms is None or record.command_ms < record.a3_ms:
            raise ValueError("command cannot precede the A3 report")
        old = self.serving_cell
        self.serving_cell = record.target_cell
        self.ttt = TttState()
        self.pending = None
        return HoEvent(self.ue_id, EVENT_CMD, record.command_ms, old, record.target_cell)
