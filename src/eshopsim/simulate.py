"""Per-UE simulation loop and the raw report / event log file formats.

Each UE gets independent sub-seeded streams for trajectory, channel and
preparation-latency draws. The loop visits every 40 ms report instant,
samples the channel there, feeds the event engine, and applies each
handover command (legacy-timed at A3 + d_prep) as the episode boundary.
"""

from __future__ import annotations

from array import array
from concurrent.futures import ProcessPoolExecutor
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
)
from eshopsim.events import (
    EVENT_A3,
    A3EventEngine,
    HcpConfig,
    HoEvent,
    HoEventRecord,
    episodes_from_events,
)
from eshopsim.scenario import (
    REPORT_PERIOD_MS,
    ScenarioConfig,
    position_at,
    spawn_trajectory,
)
from eshopsim.seeds import derive_seed, rng_from

REPORT_LOG_SCHEMA = "report-log/2"
EVENT_LOG_SCHEMA = "event-log/1"
# the preparation latency of each handover, drawn uniformly; at most the TTT
D_PREP_MIN_MS = 15.0
D_PREP_MAX_MS = 35.0


@dataclass
class UeRun:
    """Everything one UE produced during its simulated lifetime."""

    ue_id: str
    times_ms: np.ndarray  # (N,) report instants
    l3_rsrp: np.ndarray  # (N, 3, 12) filtered beam values
    events: list[HoEvent]


def run_ue(
    ue_index: int,
    scenario: ScenarioConfig,
    channel_cfg: ChannelParams,
    hcp: HcpConfig,
    master_seed: int,
) -> UeRun:
    ue_id = f"ue{ue_index:03d}"
    traj = spawn_trajectory(derive_seed(master_seed, "trajectory", ue_index), scenario)
    chan_rng = rng_from(master_seed, "channel", ue_index)
    prep_rng = rng_from(master_seed, "prep-latency", ue_index)
    chan = ChannelState(channel_cfg, chan_rng)
    filt = L3FilterState()
    engine: A3EventEngine | None = None
    command_ms: float | None = None  # drawn command time of the A3 that waits

    times: list[int] = []
    l3_frames: list[np.ndarray] = []
    events: list[HoEvent] = []

    duration_ms = int(round(scenario.duration_s * 1000.0))
    for t in range(0, duration_ms + 1, REPORT_PERIOD_MS):
        pos = position_at(traj, t)
        raw = chan.sample(pos)
        l3 = filt.update(raw)
        report = make_report(t, filt)
        if engine is None:
            engine = A3EventEngine(ue_id, hcp, int(np.argmax(l3.max(axis=1))))
        if command_ms is not None and command_ms <= t:
            events.append(engine.apply_handover(command_ms))
            command_ms = None
        new_events = engine.step(report)
        for ev in new_events:
            if ev.kind == EVENT_A3:
                command_ms = ev.t_ms + float(prep_rng.uniform(D_PREP_MIN_MS, D_PREP_MAX_MS))
        events.extend(new_events)
        times.append(t)
        l3_frames.append(l3)

    return UeRun(
        ue_id=ue_id,
        times_ms=np.asarray(times, dtype=np.int64),
        l3_rsrp=np.stack(l3_frames),
        events=events,
    )


def _run_ue_args(args):  # ProcessPoolExecutor needs a top-level callable
    return run_ue(*args)


def run_scenario(
    scenario: ScenarioConfig,
    channel_cfg: ChannelParams,
    hcp: HcpConfig,
    master_seed: int,
    parallel: int = 0,
) -> list[UeRun]:
    """Run all UEs; parallel runs stay reproducible through per-UE sub-seeds."""
    argsets = [(i, scenario, channel_cfg, hcp, master_seed) for i in range(scenario.num_ues)]
    if parallel and parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            runs = list(pool.map(_run_ue_args, argsets))
    else:
        runs = [_run_ue_args(a) for a in argsets]
    runs.sort(key=lambda r: r.ue_id)
    return runs


# ---------------------------------------------------------------------------
# log file IO
# ---------------------------------------------------------------------------


_REPORT_COLUMNS = ["t_ms", "ue_id"] + [f"c{c}b{b}" for c in range(N_CELLS) for b in range(N_SSB)]


def write_report_log(path, runs: list[UeRun], config_hash: str, master_seed: int) -> None:
    """One row per report: time, UE, then the 3 x 12 beam values cell by cell."""
    rows = (
        [int(t), run.ue_id, *map(repr, frame.ravel().tolist())]
        for run in runs
        for t, frame in zip(run.times_ms, run.l3_rsrp)
    )
    write_table(
        path, REPORT_LOG_SCHEMA, _REPORT_COLUMNS, rows,
        config_hash=config_hash, master_seed=master_seed,
    )


def read_report_log(path) -> tuple[dict[str, str], dict[str, dict]]:
    """The header fields, and per UE: times (N,), strictly increasing, and
    l3_rsrp (N, 3, 12)."""
    acc: dict[str, tuple[array, array]] = {}
    with read_table(path, REPORT_LOG_SCHEMA) as (fields, columns, reader):
        if columns != _REPORT_COLUMNS:
            raise ValueError("unexpected report log header")
        for row in reader:
            if len(row) != len(columns):
                raise ValueError("malformed report log row")
            times, vals = acc.setdefault(row[1], (array("q"), array("d")))
            times.append(int(row[0]))
            vals.extend(map(float, row[2:]))  # a flat buffer holds no float objects
    per_ue = {}
    for ue, (times, vals) in acc.items():
        t = np.array(times, dtype=np.int64)
        if np.any(np.diff(t) <= 0):
            raise ValueError(f"{ue}: report times must strictly increase")
        rsrp = np.array(vals).reshape(len(t), N_CELLS, N_SSB)
        if not np.isfinite(rsrp).all():
            raise ValueError(f"{ue}: report values must be finite")
        per_ue[ue] = {"times_ms": t, "l3_rsrp": rsrp}
    return fields, per_ue


_EVENT_COLUMNS = ["ue_id", "kind", "t_ms", "serving", "target"]


def write_event_log(path, runs: list[UeRun], config_hash: str, master_seed: int) -> None:
    rows = (
        [
            ev.ue_id,
            ev.kind,
            int(ev.t_ms) if float(ev.t_ms).is_integer() else repr(float(ev.t_ms)),
            ev.serving,
            ev.target,
        ]
        for run in runs
        for ev in run.events
    )
    write_table(
        path, EVENT_LOG_SCHEMA, _EVENT_COLUMNS, rows,
        config_hash=config_hash, master_seed=master_seed,
    )


def read_event_log(path) -> tuple[dict[str, str], dict[str, list[HoEventRecord]]]:
    """The header fields, and per UE the episodes of its logged events."""
    events: dict[str, list[HoEvent]] = {}
    with read_table(path, EVENT_LOG_SCHEMA) as (fields, columns, reader):
        if columns != _EVENT_COLUMNS:
            raise ValueError("unexpected event log header")
        for ue, kind, t_ms, serving, target in reader:
            events.setdefault(ue, []).append(
                HoEvent(ue, kind, float(t_ms), int(serving), int(target))
            )
    return fields, {ue: episodes_from_events(evs) for ue, evs in events.items()}
