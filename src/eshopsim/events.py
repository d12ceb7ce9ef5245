"""3GPP measurement-event engine: A3 entry evaluation, TTT arming and abort,
and serving-cell switching at handover command time.

Cell quality is the L3 RSRP of the cell's strongest beam (``channel.reduce_series``,
once per trace). The A3 comparison target at every report is the strongest
neighbor; the armed candidate must stay the strongest neighbor and keep satisfying
the entry condition at every 40 ms report instant from T0 through T0+TTT, otherwise
the episode aborts (a candidate switch aborts and immediately re-arms).

The engine emits events only; ``episodes_from_events`` is the one grammar
that turns a UE's events, in memory or read back from the log, into episodes.
A cell is its row index 0-2.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from eshopsim.channel import N_CELLS, MeasurementReport
from eshopsim.scenario import REPORT_PERIOD_MS

EVENT_T0 = "T0"
EVENT_A3 = "A3"
EVENT_ABORT = "ABORT"
EVENT_CMD = "CMD"


@dataclass
class HcpConfig:
    """Handover control parameters; HOM = offset + hysteresis."""

    ttt_ms: int = 40
    hysteresis_db: float = 1.0
    offset_db: float = 3.0

    def __post_init__(self) -> None:
        if self.ttt_ms <= 0 or self.ttt_ms % REPORT_PERIOD_MS != 0:
            raise ValueError("TTT must be a positive multiple of the 40 ms report period")
        if self.hysteresis_db not in (0.0, 1.0):
            raise ValueError("hysteresis is configured as 0 or 1 dB")


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


def a3_entry(mn_dbm, mp_dbm, hcp: HcpConfig):
    """A3 entry condition: neighbor exceeds serving by the HO margin (strict), also on arrays."""
    return mn_dbm > mp_dbm + hcp.offset_db + hcp.hysteresis_db


class A3EventEngine:
    """Per-UE measurement-event state machine fed by 40 ms reports."""

    def __init__(self, ue_id: str, hcp: HcpConfig, serving_cell: int):
        if serving_cell not in range(N_CELLS):
            raise ValueError("serving cell not in layout")
        self.ue_id = ue_id
        self.hcp = hcp
        self.serving_cell = serving_cell
        self.armed: HoEvent | None = None  # the T0 whose TTT runs, and its candidate
        self.pending: HoEvent | None = None  # the A3 that waits for its command
        self._last_t_ms: int | None = None

    def step(self, report: MeasurementReport) -> list[HoEvent]:
        """Advance the state machine by one report; returns emitted events."""
        t = report.t_ms
        if self._last_t_ms is not None and t <= self._last_t_ms:
            raise ValueError(f"report timestamps must increase ({t} after {self._last_t_ms})")
        self._last_t_ms = t

        best = report.best_rsrp.tolist()
        s = self.serving_cell
        # the strongest neighbor; max keeps the first of equals, the lower cell
        n_star = max((c for c in range(N_CELLS) if c != s), key=best.__getitem__)
        entry = a3_entry(best[n_star], best[s], self.hcp)

        if self.pending is not None:
            # A3 already reported; no arming until the command is applied
            return []
        events: list[HoEvent] = []
        t0 = self.armed
        if t0 is not None:
            if entry and n_star == t0.target:
                if t >= t0.t_ms + self.hcp.ttt_ms:
                    self.armed = None
                    a3_ms = t0.t_ms + self.hcp.ttt_ms
                    self.pending = HoEvent(self.ue_id, EVENT_A3, a3_ms, s, n_star)
                    events.append(self.pending)
                return events
            # condition lost or the strongest neighbor changed: abort
            self.armed = None
            events.append(HoEvent(self.ue_id, EVENT_ABORT, t, s, t0.target))
        if entry:
            # (re-)arm on the strongest neighbor
            self.armed = HoEvent(self.ue_id, EVENT_T0, t, s, n_star)
            events.append(self.armed)
        return events

    def apply_handover(self, command_ms: float) -> HoEvent:
        """Switch serving to the waiting A3's target at command time; returns the CMD event."""
        a3 = self.pending
        if a3 is None:
            raise ValueError("no A3 report waits for a command")
        if command_ms < a3.t_ms:
            raise ValueError("command cannot precede the A3 report")
        self.serving_cell = a3.target
        self.pending = None
        return HoEvent(self.ue_id, EVENT_CMD, command_ms, a3.serving, a3.target)


def episodes_from_events(events: Iterable[HoEvent]) -> list[HoEventRecord]:
    """The event grammar, applied to one UE's events in time order: a T0 opens
    an episode, the next A3 or ABORT closes it, and a CMD commands the A3
    that waits for it; no T0 comes while a T0 is armed or an A3 waits. When
    the events end, an armed T0 is dropped and a waiting A3 keeps no command.
    Anything else (a cell outside 0-2, serving equal to target, an event
    naming other cells than the episode it closes or commands, time going
    back or not finite, a T0, A3 or ABORT off the report instants 0, 40,
    80, ... ms, an unknown kind or an event out of turn) raises ValueError."""
    episodes: list[HoEventRecord] = []
    armed: HoEventRecord | None = None  # the open T0
    waiting: HoEventRecord | None = None  # the A3 without its command
    last_t = -math.inf
    cells = range(N_CELLS)
    for ev in events:
        if not last_t <= ev.t_ms < math.inf:
            raise ValueError(f"{ev.ue_id}: {ev.kind} at {ev.t_ms} ms is not finite or goes back")
        if ev.kind != EVENT_CMD and not (ev.t_ms >= 0 and ev.t_ms % REPORT_PERIOD_MS == 0):
            raise ValueError(f"{ev.ue_id}: {ev.kind} at {ev.t_ms} ms is not a report instant")
        last_t = ev.t_ms
        if ev.serving not in cells or ev.target not in cells or ev.serving == ev.target:
            raise ValueError(f"{ev.ue_id}: {ev.kind} at {ev.t_ms} ms names serving {ev.serving} "
                             f"and target {ev.target}, not two cells of 0-{N_CELLS - 1}")
        closes = {EVENT_A3: armed, EVENT_ABORT: armed, EVENT_CMD: waiting}.get(ev.kind)
        if closes and (ev.serving, ev.target) != (closes.serving_cell, closes.target_cell):
            raise ValueError(f"{ev.ue_id}: {ev.kind} at {ev.t_ms} ms names serving {ev.serving} "
                             f"and target {ev.target}, not those of its episode")
        if ev.kind == EVENT_T0 and armed is None and waiting is None:
            armed = HoEventRecord(ev.ue_id, ev.serving, ev.target, int(ev.t_ms))
        elif ev.kind in (EVENT_A3, EVENT_ABORT) and armed is not None:
            if ev.kind == EVENT_A3:
                armed.a3_ms, waiting = int(ev.t_ms), armed
            else:
                armed.aborted = True
            episodes.append(armed)
            armed = None
        elif ev.kind == EVENT_CMD and waiting is not None:
            waiting.command_ms = float(ev.t_ms)
            waiting = None
        else:
            raise ValueError(f"{ev.ue_id}: {ev.kind} at {ev.t_ms} ms is out of turn or unknown")
    return episodes
