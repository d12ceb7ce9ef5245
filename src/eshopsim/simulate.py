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
    BeamGrid,
    ChannelParams,
    ChannelState,
    L3FilterState,
    N_SSB,
    make_report,
)
from eshopsim.events import A3EventEngine, HcpConfig, HoEvent, HoEventRecord
from eshopsim.scenario import (
    REPORT_PERIOD_MS,
    ScenarioConfig,
    SiteLayout,
    position_at,
    spawn_trajectory,
)
from eshopsim.seeds import derive_seed, rng_from

REPORT_LOG_SCHEMA = "report-log/2"
EVENT_LOG_SCHEMA = "event-log/1"


@dataclass
class UeRun:
    """Everything one UE produced during its simulated lifetime."""

    ue_id: str
    times_ms: np.ndarray  # (N,) report instants
    l3_rsrp: np.ndarray  # (N, 3, 12) filtered beam values
    events: list[HoEvent]
    episodes: list[HoEventRecord]
    cell_ids: tuple[int, int, int]


def run_ue(
    ue_index: int,
    scenario: ScenarioConfig,
    channel_cfg: ChannelParams,
    hcp: HcpConfig,
    layout: SiteLayout,
    master_seed: int,
    d_prep_min_ms: float = 15.0,
    d_prep_max_ms: float = 35.0,
) -> UeRun:
    ue_id = f"ue{ue_index:03d}"
    traj = spawn_trajectory(
        derive_seed(master_seed, "trajectory", ue_index),
        scenario,
        center_xy=layout.bs_position[:2],
    )
    grid = BeamGrid(layout, channel_cfg.beam_grid)
    chan_rng = rng_from(master_seed, "channel", ue_index)
    prep_rng = rng_from(master_seed, "prep-latency", ue_index)
    chan = ChannelState(layout, grid, channel_cfg, chan_rng)
    filt = L3FilterState()
    engine: A3EventEngine | None = None

    times: list[int] = []
    l3_frames: list[np.ndarray] = []
    events: list[HoEvent] = []

    duration_ms = int(round(scenario.duration_s * 1000.0))
    for t in range(0, duration_ms + 1, REPORT_PERIOD_MS):
        pos = position_at(traj, t, ue_height_m=layout.ue_height_m)
        raw = chan.sample(pos)
        l3 = filt.update(raw)
        report = make_report(t, layout.cell_ids, filt)
        if engine is None:
            serving0 = layout.cell_ids[int(np.argmax(l3.max(axis=1)))]
            engine = A3EventEngine(ue_id, layout.cell_ids, hcp, serving0)
        if engine.pending is not None and engine.pending.command_ms <= t:
            events.append(engine.apply_handover(engine.pending))
        new_events = engine.step(report)
        for ev in new_events:
            if ev.kind == "A3":
                rec = engine.episodes[-1]
                rec.command_ms = rec.a3_ms + float(
                    prep_rng.uniform(d_prep_min_ms, d_prep_max_ms)
                )
        events.extend(new_events)
        times.append(t)
        l3_frames.append(l3)

    return UeRun(
        ue_id=ue_id,
        times_ms=np.asarray(times, dtype=np.int64),
        l3_rsrp=np.stack(l3_frames),
        events=events,
        episodes=engine.episodes if engine is not None else [],
        cell_ids=layout.cell_ids,
    )


def _run_ue_args(args):  # ProcessPoolExecutor needs a top-level callable
    return run_ue(*args)


def run_scenario(
    scenario: ScenarioConfig,
    channel_cfg: ChannelParams,
    hcp: HcpConfig,
    layout: SiteLayout,
    master_seed: int,
    d_prep_min_ms: float = 15.0,
    d_prep_max_ms: float = 35.0,
    parallel: int = 0,
) -> list[UeRun]:
    """Run all UEs; parallel runs stay reproducible through per-UE sub-seeds."""
    argsets = [
        (i, scenario, channel_cfg, hcp, layout, master_seed, d_prep_min_ms, d_prep_max_ms)
        for i in range(scenario.num_ues)
    ]
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


def _report_columns(cell_ids) -> list[str]:
    return ["t_ms", "ue_id"] + [f"c{c}b{b}" for c in cell_ids for b in range(N_SSB)]


def write_report_log(path, runs: list[UeRun], config_hash: str, master_seed: int) -> None:
    """One row per report: time, UE, then the 3 x 12 beam values cell by cell."""
    rows = (
        [int(t), run.ue_id, *map(repr, frame.ravel().tolist())]
        for run in runs
        for t, frame in zip(run.times_ms, run.l3_rsrp)
    )
    columns = _report_columns(runs[0].cell_ids if runs else ())
    write_table(
        path, REPORT_LOG_SCHEMA, columns, rows, config_hash=config_hash, master_seed=master_seed
    )


def read_report_log(path) -> dict[str, dict]:
    """Returns per-UE dict: times (N,), l3_rsrp (N, 3, 12), cell_ids tuple."""
    acc: dict[str, tuple[array, array]] = {}
    with read_table(path, REPORT_LOG_SCHEMA) as (header, reader):
        cell_ids = tuple(int(name[1:].split("b")[0]) for name in header[2::N_SSB])
        if header != _report_columns(cell_ids):
            raise ValueError("unexpected report log header")
        for row in reader:
            if len(row) != len(header):
                raise ValueError("malformed report log row")
            times, vals = acc.setdefault(row[1], (array("q"), array("d")))
            times.append(int(row[0]))
            vals.extend(map(float, row[2:]))  # a flat buffer holds no float objects
    return {
        ue: {
            "times_ms": np.array(times, dtype=np.int64),
            "l3_rsrp": np.array(vals).reshape(len(times), len(cell_ids), N_SSB),
            "cell_ids": cell_ids,
        }
        for ue, (times, vals) in acc.items()
    }


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


def read_event_log(path) -> dict[str, list[HoEventRecord]]:
    """Per-UE handover episodes reconstructed from the event log."""
    out: dict[str, list[HoEventRecord]] = {}
    open_recs: dict[str, HoEventRecord] = {}  # the T0 each UE's next A3/ABORT closes
    with read_table(path, EVENT_LOG_SCHEMA) as (header, reader):
        if header != _EVENT_COLUMNS:
            raise ValueError("unexpected event log header")
        for ue, kind, t_s, serving_s, target_s in reader:
            t_ms, serving, target = float(t_s), int(serving_s), int(target_s)
            episodes = out.setdefault(ue, [])
            if kind == "T0":
                open_recs[ue] = HoEventRecord(
                    ue_id=ue, serving_cell=serving, target_cell=target, t0_ms=int(t_ms)
                )
            elif kind in ("A3", "ABORT"):
                rec = open_recs.pop(ue, None)
                if rec is None:
                    raise ValueError(f"{ue}: {kind} at {t_ms} ms without an open T0")
                if kind == "A3":
                    rec.a3_ms = int(t_ms)
                else:
                    rec.aborted = True
                episodes.append(rec)
            elif kind == "CMD":
                # command for the most recent non-aborted episode
                for rec in reversed(episodes):
                    if not rec.aborted and rec.command_ms is None:
                        rec.command_ms = t_ms
                        break
            else:
                raise ValueError(f"{ue}: unknown event kind {kind!r}")
    return out
