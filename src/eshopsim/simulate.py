"""Per-UE simulation loop and the report / event log file formats.

Each UE gets independent sub-seeded streams for trajectory, channel and
preparation-latency draws. The channel and the L3 filter run once over
the UE's whole trace of 40 ms report instants; the event engine then steps
only the reports where it can act, and applies each handover command
(legacy-timed at A3 + d_prep) as the episode boundary.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from eshopsim.artifacts import read_table, write_table
from eshopsim.channel import (
    ChannelParams,
    ChannelState,
    L3FilterState,
    N_CELLS,
    N_SSB,
    make_report,
    reduce_series,
)
from eshopsim.events import (
    EVENT_A3,
    A3EventEngine,
    HoEvent,
    HoEventRecord,
    a3_entry,
    episodes_from_events,
)
from eshopsim.scenario import (
    REPORT_PERIOD_MS,
    ScenarioConfig,
    position_at,
    spawn_trajectory,
)
from eshopsim.seeds import derive_seed, rng_from

REPORT_LOG_SCHEMA = "report-log/3"
EVENT_LOG_SCHEMA = "event-log/1"
# the preparation latency of each handover, drawn uniformly; at most events.TTT_MS
D_PREP_MIN_MS = 15.0
D_PREP_MAX_MS = 35.0


@dataclass
class UeRun:
    """Everything one UE produced during its simulated lifetime."""

    ue_id: str
    times_ms: np.ndarray  # (N,) report instants
    best_beams: np.ndarray  # (N, 3) per cell its strongest beam, 0-11
    best_rsrp: np.ndarray  # (N, 3) that beam's L3 RSRP
    events: list[HoEvent]


def run_ue(ue_index: int, scenario: ScenarioConfig, channel_cfg: ChannelParams, master_seed: int) -> UeRun:
    """One UE's reports, per cell its best beam and that L3 RSRP, and its events.
    The engine steps every report while a T0 is armed; else the loop jumps to the
    first report at or after the waiting A3's command, or to the serving cell's next A3 entry."""
    ue_id = f"ue{ue_index:03d}"
    traj = spawn_trajectory(derive_seed(master_seed, "trajectory", ue_index), scenario)
    chan_rng = rng_from(master_seed, "channel", ue_index)
    prep_rng = rng_from(master_seed, "prep-latency", ue_index)

    times = range(0, traj.duration_ms + 1, REPORT_PERIOD_MS)
    positions = position_at(traj, times)
    # one channel and one filter pass over the whole trace
    l3_rsrp = L3FilterState().update(ChannelState(channel_cfg, chan_rng).sample(positions))
    if not np.isfinite(l3_rsrp).all():
        raise ValueError("report values must be finite")

    beams, best = reduce_series(l3_rsrp)  # the reduction every later step reads
    # per serving cell s: the reports where the strongest neighbor meets the A3 entry condition
    neighbors = [np.delete(best, s, axis=1).max(axis=1) for s in range(N_CELLS)]
    entries = [np.flatnonzero(a3_entry(nb, best[:, s])) for s, nb in enumerate(neighbors)]
    engine = A3EventEngine(ue_id, int(np.argmax(best[0])))
    command_ms: float | None = None  # drawn command time of the A3 that waits
    events: list[HoEvent] = []
    i = 0
    while i < len(times):
        if command_ms is not None:  # nothing happens until the first report at or after it
            i = bisect.bisect_left(times, command_ms, i)
            if i == len(times):
                break
            events.append(engine.apply_handover(command_ms))
            command_ms = None
        if engine.armed is None:  # nothing happens until the serving cell's next A3 entry
            entry = entries[engine.serving_cell]
            j = entry.searchsorted(i)
            if j == len(entry):
                break
            i = int(entry[j])
        new_events = engine.step(make_report(times[i], best[i]))
        for ev in new_events:
            if ev.kind == EVENT_A3:
                command_ms = ev.t_ms + float(prep_rng.uniform(D_PREP_MIN_MS, D_PREP_MAX_MS))
        events.extend(new_events)
        i += 1

    return UeRun(ue_id, np.asarray(times, dtype=np.int64), beams, best, events)


def run_scenario(scenario: ScenarioConfig, channel_cfg: ChannelParams, master_seed: int) -> list[UeRun]:
    """Run all UEs, in UE id order; each draws from its own sub-seeded streams."""
    runs = [run_ue(i, scenario, channel_cfg, master_seed) for i in range(scenario.num_ues)]
    return sorted(runs, key=lambda r: r.ue_id)


# ---------------------------------------------------------------------------
# log file IO
# ---------------------------------------------------------------------------


_CELL = np.dtype([("beam", np.int64), ("rsrp", np.float64)])
_REPORT_COLUMNS = ["t_ms", "ue_id"] + [f"c{c}_{x}" for c in range(N_CELLS) for x in _CELL.names]


def write_report_log(path, runs: list[UeRun], config_hash: str, master_seed: int) -> None:
    """One row per report: time, UE, then per cell its strongest beam and that
    beam's L3 RSRP, as ``run_ue`` reduced them."""
    def blocks():  # one per UE, so no column outgrows the UE's arrays
        for run in runs:
            cells = itertools.chain.from_iterable(zip(run.best_beams.T, run.best_rsrp.T))
            yield [run.times_ms, [run.ue_id] * len(run.times_ms), *cells]  # c0_beam, c0_rsrp, ...

    write_table(
        path, REPORT_LOG_SCHEMA, _REPORT_COLUMNS, blocks(),
        config_hash=config_hash, master_seed=master_seed,
    )


# the parsed UE id column is this wide; the writer's ids are "ue" + index
_UE_ID_WIDTH = 16
_REPORT_ROW = np.dtype([("t_ms", np.int64), ("ue_id", f"U{_UE_ID_WIDTH}"), ("cells", _CELL, N_CELLS)])


def read_report_log(path) -> tuple[dict[str, str], dict[str, dict]]:
    """The header fields, and per UE in order of first appearance: times_ms
    (N,), strictly increasing, best_beams (N, 3) in 0-11 and best_rsrp (N, 3)."""
    n_lines = 0

    def counted(lines):
        nonlocal n_lines
        for line in lines:
            n_lines += 1
            yield line

    rows = np.empty(0, dtype=_REPORT_ROW)
    with read_table(path, REPORT_LOG_SCHEMA) as (fields, columns, data):
        if columns != _REPORT_COLUMNS:
            raise ValueError("unexpected report log header")
        first = data.readline()
        if first:  # streamed: the parse holds no copy of the text
            # comments=None: a "#" line is a malformed row, not a comment.
            # Some numpy releases this package allows read "80.5" into an
            # integer field as 80 with only a DeprecationWarning; raised
            # as an error, it refuses the row
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                rows = np.loadtxt(
                    counted(itertools.chain([first], data)),
                    dtype=_REPORT_ROW, delimiter=",", comments=None, ndmin=1,
                )
    ue_ids = rows["ue_id"]
    # loadtxt skips blank lines, and cuts a UE id that fills the column short
    if len(rows) != n_lines or np.any(np.char.str_len(ue_ids) >= _UE_ID_WIDTH):
        raise ValueError("malformed report log row")
    beams, rsrp = rows["cells"]["beam"], rows["cells"]["rsrp"]
    if np.any((beams < 0) | (beams >= N_SSB)) or not np.isfinite(rsrp).all():
        raise ValueError("report beams must lie in 0-11 and report values be finite")
    ue_index: dict[str, int] = {}  # in order of first appearance
    group = [ue_index.setdefault(ue, len(ue_index)) for ue in ue_ids.tolist()]
    order = np.argsort(group, kind="stable")  # rows grouped by UE, each UE's in logged order
    per_ue = {}
    for ue, mine in zip(ue_index, np.split(order, np.cumsum(np.bincount(group))[:-1])):
        t = rows["t_ms"][mine]
        if np.any(np.diff(t) <= 0):
            raise ValueError(f"{ue}: report times must strictly increase")
        per_ue[ue] = {"times_ms": t, "best_beams": beams[mine], "best_rsrp": rsrp[mine]}
    return fields, per_ue


_EVENT_COLUMNS = ["ue_id", "kind", "t_ms", "serving", "target"]  # HoEvent's fields


def write_event_log(path, runs: list[UeRun], config_hash: str, master_seed: int) -> None:
    evs = [ev for run in runs for ev in run.events]
    columns = [[getattr(ev, name) for ev in evs] for name in _EVENT_COLUMNS]
    columns[2] = [int(t) if float(t).is_integer() else float(t) for t in columns[2]]
    write_table(
        path, EVENT_LOG_SCHEMA, _EVENT_COLUMNS, [columns],
        config_hash=config_hash, master_seed=master_seed,
    )


def read_event_log(path) -> tuple[dict[str, str], dict[str, list[HoEventRecord]]]:
    """The header fields, and per UE the episodes of its logged events."""
    events: dict[str, list[HoEvent]] = {}
    with read_table(path, EVENT_LOG_SCHEMA) as (fields, columns, data):
        if columns != _EVENT_COLUMNS:
            raise ValueError("unexpected event log header")
        for ue, kind, t_ms, serving, target in csv.reader(data):
            events.setdefault(ue, []).append(
                HoEvent(ue, kind, float(t_ms), int(serving), int(target))
            )
    return fields, {ue: episodes_from_events(evs) for ue, evs in events.items()}
