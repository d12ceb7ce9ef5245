"""Command-line front end: simulate, build-dataset, train, eval, eshop, report.

Every artifact records the configuration hash and master seed (the dataset
.npz files through their sha256 in meta.json); rerunning the pipeline with
the same configuration and seed in single-threaded mode reproduces every
artifact byte for byte (wall-clock timings live in a separate,
non-deterministic timings.json).

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from eshopsim.artifacts import write_table
from eshopsim.config import ConfigError, ExperimentConfig, config_hash, load_config
from eshopsim.controller import (
    HoComparison,
    degradation_stats,
    infer_countdown,
    oracle_countdown,
    serving_rsrp_at,
    simulate_eshop,
    simulate_legacy,
)
from eshopsim.dataset import (
    DataError,
    WindowBank,
    build_dataset,
    command_times,
    read_dataset,
    read_meta,
    reduce_series,
    segment_ids,
    standardized_rows,
    write_dataset,
)
from eshopsim.tcn import TrainingDiverged
from eshopsim.events import EVENT_A3, EVENT_ABORT, EVENT_T0
from eshopsim.scenario import SiteLayout
from eshopsim.seeds import derive_seed
from eshopsim.simulate import (
    read_event_log,
    read_report_log,
    run_scenario,
    write_event_log,
    write_report_log,
)
from eshopsim import tcn

SUMMARY_SCHEMA = "run-summary/1"
REPORT_SCHEMA = "consolidated-report/1"


# ---------------------------------------------------------------------------
# artifact helpers
# ---------------------------------------------------------------------------


def _paths(out_dir: str) -> dict[str, str]:
    return {
        "reports": os.path.join(out_dir, "reports.csv"),
        "events": os.path.join(out_dir, "events.csv"),
        "dataset": os.path.join(out_dir, "dataset"),
        "model": os.path.join(out_dir, "model.tcn"),
        "history": os.path.join(out_dir, "history.csv"),
        "metrics": os.path.join(out_dir, "metrics.json"),
        "predictions": os.path.join(out_dir, "predictions.csv"),
        "comparison": os.path.join(out_dir, "comparison.csv"),
        "cdf": os.path.join(out_dir, "cdf.csv"),
        "summary": os.path.join(out_dir, "summary.json"),
        "timings": os.path.join(out_dir, "timings.json"),
    }


def _read_summary(out_dir: str) -> dict:
    path = _paths(out_dir)["summary"]
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def _check_run_dir(cfg: ExperimentConfig) -> None:
    """Refuse, before anything is written, a run directory of another configuration."""
    old = _read_summary(cfg.output_dir)
    if old and old.get("config_hash") != config_hash(cfg):
        raise DataError("run directory belongs to a different configuration")


def _update_summary(out_dir: str, cfg: ExperimentConfig, section: str, payload: dict) -> None:
    doc = {
        "schema_version": SUMMARY_SCHEMA,
        "config_hash": config_hash(cfg),
        "master_seed": cfg.master_seed,
        "los_mode": cfg.channel.los_mode,
    }
    doc.update({k: v for k, v in _read_summary(out_dir).items() if k not in doc})
    doc[section] = payload
    with open(_paths(out_dir)["summary"], "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _record_timing(out_dir: str, command: str, seconds: float) -> None:
    path = _paths(out_dir)["timings"]
    doc = {}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc[command] = seconds
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_logs(cfg: ExperimentConfig) -> dict[str, dict]:
    paths = _paths(cfg.output_dir)
    for key in ("reports", "events"):
        if not os.path.exists(paths[key]):
            raise DataError(f"missing log file: {paths[key]} (run 'simulate' first)")
    try:
        per_ue = read_report_log(paths["reports"])
        events = read_event_log(paths["events"])
    except ValueError as exc:  # e.g. a log of an older schema
        raise DataError(f"unreadable log: {exc}") from exc
    for ue, rec in per_ue.items():
        rec["episodes"] = events.get(ue, {}).get("episodes", [])
    return per_ue


def _load_model(cfg: ExperimentConfig) -> tcn.ModelParams:
    path = _paths(cfg.output_dir)["model"]
    if not os.path.exists(path):
        raise DataError("missing model file (run 'train' first)")
    params, header = tcn.load_model(path)
    stored = header.get("extra", {}).get("config_hash")
    if stored is not None and stored != config_hash(cfg):
        raise DataError("model was trained under a different configuration")
    return params


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_simulate(cfg: ExperimentConfig, parallel: int = 0) -> dict:
    t_start = time.perf_counter()
    _check_run_dir(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    layout = SiteLayout()
    runs = run_scenario(
        cfg.scenario,
        cfg.channel,
        cfg.hcp,
        layout,
        cfg.master_seed,
        d_prep_min_ms=cfg.signaling.d_prep_min_ms,
        d_prep_max_ms=cfg.signaling.d_prep_max_ms,
        parallel=parallel,
    )
    paths = _paths(cfg.output_dir)
    digest = config_hash(cfg)
    write_report_log(paths["reports"], runs, digest, cfg.master_seed)
    write_event_log(paths["events"], runs, digest, cfg.master_seed)
    counts = {EVENT_T0: 0, EVENT_A3: 0, EVENT_ABORT: 0, "CMD": 0}
    for run in runs:
        for ev in run.events:
            counts[ev.kind] = counts.get(ev.kind, 0) + 1
    payload = {
        "num_ues": len(runs),
        "reports_per_ue": int(runs[0].times_ms.size) if runs else 0,
        "t0_count": counts[EVENT_T0],
        "a3_count": counts[EVENT_A3],
        "abort_count": counts[EVENT_ABORT],
        "cmd_count": counts["CMD"],
    }
    _update_summary(cfg.output_dir, cfg, "simulate", payload)
    _record_timing(cfg.output_dir, "simulate", time.perf_counter() - t_start)
    return payload


def cmd_build_dataset(cfg: ExperimentConfig, quiet: bool = False) -> dict:
    t_start = time.perf_counter()
    _check_run_dir(cfg)
    per_ue = _load_logs(cfg)
    bundle = build_dataset(
        per_ue,
        cfg.dataset,
        split_seed=derive_seed(cfg.master_seed, "split"),
        config_hash=config_hash(cfg),
        master_seed=cfg.master_seed,
    )
    write_dataset(_paths(cfg.output_dir)["dataset"], bundle)
    meta = bundle.meta
    total = meta.kept_count + sum(meta.exclusion_counts.values())
    if total != meta.raw_count:
        raise DataError("exclusion counts do not reconcile with the raw row count")
    if not quiet:
        print("exclusion reconciliation:")
        print(f"  {'raw rows':<20}{meta.raw_count:>10}")
        print(f"  {'kept':<20}{meta.kept_count:>10}")
        for name, count in sorted(meta.exclusion_counts.items()):
            print(f"  {name:<20}{count:>10}")
        print(f"  {'total':<20}{total:>10}  (reconciled)")
    payload = {
        "raw_count": meta.raw_count,
        "kept_count": meta.kept_count,
        "excluded": meta.exclusion_counts,
        "split_sizes": {
            name: int(np.sum(table.reasons == 0)) for name, table in bundle.splits.items()
        },
        "split_ues": {name: len(ues) for name, ues in meta.split_ues.items()},
    }
    _update_summary(cfg.output_dir, cfg, "dataset", payload)
    _record_timing(cfg.output_dir, "build-dataset", time.perf_counter() - t_start)
    return payload


def cmd_train(cfg: ExperimentConfig) -> dict:
    t_start = time.perf_counter()
    _check_run_dir(cfg)
    paths = _paths(cfg.output_dir)
    bundle = read_dataset(paths["dataset"])
    w = bundle.meta.window_len
    train_bank = WindowBank.labeled(bundle.splits["train"], w, dtype=cfg.train.np_dtype)
    val_bank = WindowBank.labeled(bundle.splits["val"], w, dtype=cfg.train.np_dtype)
    if len(train_bank) == 0:
        raise DataError("train split holds no samples")
    params, history = tcn.train(train_bank, val_bank, cfg.model, cfg.train)
    digest = config_hash(cfg)
    shape = {
        "receptive_field": tcn.receptive_field(cfg.model),
        "window_len": w,
        "live_param_count": tcn.live_param_count(params, w),
    }
    extra = {"config_hash": digest, "master_seed": cfg.master_seed, **shape}
    tcn.save_model(paths["model"], params, extra=extra)
    write_table(
        paths["history"],
        "train-history/1",
        ["epoch", "train_rmse", "val_rmse"],
        ([r["epoch"], repr(r["train_rmse"]), repr(r["val_rmse"])] for r in history),
        config_hash=digest,
        master_seed=cfg.master_seed,
    )
    best = min(history, key=lambda r: r["val_rmse"])
    payload = {
        "epochs_run": len(history),
        "best_epoch": best["epoch"],
        "best_val_rmse": best["val_rmse"],
        "param_count": params.param_count(),
        **shape,
        "train_samples": len(train_bank),
        "val_samples": len(val_bank),
    }
    _update_summary(cfg.output_dir, cfg, "train", payload)
    _record_timing(cfg.output_dir, "train", time.perf_counter() - t_start)
    return payload


def cmd_eval(cfg: ExperimentConfig, split: str = "test") -> dict:
    t_start = time.perf_counter()
    _check_run_dir(cfg)
    paths = _paths(cfg.output_dir)
    bundle = read_dataset(paths["dataset"])
    if split not in bundle.splits:
        raise DataError(f"unknown split '{split}'")
    params = _load_model(cfg)
    digest = config_hash(cfg)
    bank = WindowBank.labeled(bundle.splits[split], bundle.meta.window_len, dtype=np.float32)
    if len(bank) == 0:
        raise DataError(f"split '{split}' holds no samples")
    preds = tcn.predict(params, bank)
    metrics = tcn.compute_metrics(np.asarray(bank.y, dtype=np.float64), preds)
    with open(paths["metrics"], "w") as fh:
        json.dump(
            {
                "schema_version": "metrics/1",
                "config_hash": digest,
                "master_seed": cfg.master_seed,
                "split": split,
                "metrics": metrics.to_dict(),
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    write_table(
        paths["predictions"],
        "predictions/1",
        ["ue_id", "t_ms", "actual_tef_s", "predicted_tef_s"],
        (
            [ue, int(t), repr(float(ya)), repr(float(yp))]
            for ue, t, ya, yp in zip(bank.ue_ids, bank.t_ms, bank.y, preds)
        ),
        config_hash=digest,
        master_seed=cfg.master_seed,
    )
    payload = {split: metrics.to_dict()}
    old = _read_summary(cfg.output_dir).get("eval", {})
    old.update(payload)
    _update_summary(cfg.output_dir, cfg, "eval", old)
    _record_timing(cfg.output_dir, "eval", time.perf_counter() - t_start)
    return payload


def cmd_eshop(cfg: ExperimentConfig, oracle: bool = False) -> dict:
    t_start = time.perf_counter()
    _check_run_dir(cfg)
    paths = _paths(cfg.output_dir)
    per_ue = _load_logs(cfg)
    if not oracle:
        params = _load_model(cfg)
        meta = read_meta(paths["dataset"])

    comparisons: list[HoComparison] = []
    rsrp_samples: dict[str, tuple[float, float]] = {}
    skipped_gap = 0
    for ue in sorted(per_ue):
        rec = per_ue[ue]
        times = np.asarray(rec["times_ms"], dtype=np.int64)
        episodes = rec["episodes"]
        cmds = command_times(episodes)
        beams, rsrp = reduce_series(np.asarray(rec["l3_rsrp"]))
        if oracle:
            preds = oracle_countdown(times, episodes)
        else:
            rows = standardized_rows(rsrp, beams, meta)
            segs = segment_ids(times, cmds)
            preds = infer_countdown(params, rows, segs, meta.window_len)
        cell_index = {c: i for i, c in enumerate(rec["cell_ids"])}
        prev_cmd = -np.inf
        for k, ep in enumerate(episodes):
            if ep.aborted:
                continue
            if ep.command_ms is None:
                skipped_gap += 1
                continue
            d_prep = float(ep.command_ms) - float(ep.a3_ms)
            legacy = simulate_legacy(ep, d_prep)
            early = simulate_eshop(
                ep, times, preds, d_prep, cfg.signaling, window_start_ms=prev_cmd
            )
            prev_cmd = float(ep.command_ms)
            serving_trace = rsrp[:, cell_index[ep.serving_cell]]
            latest = max(legacy.command_ms, early.command_ms, ep.a3_ms + d_prep)
            if latest > times[-1]:
                skipped_gap += 1
                continue
            episode_id = f"{ue}:{k}"
            rsrp_legacy = serving_rsrp_at(times, serving_trace, legacy.command_ms)
            rsrp_early = serving_rsrp_at(times, serving_trace, early.command_ms)
            rsrp_samples[episode_id] = (
                serving_rsrp_at(times, serving_trace, float(ep.a3_ms)),
                serving_rsrp_at(times, serving_trace, float(ep.a3_ms) + d_prep),
            )
            comparisons.append(
                HoComparison(
                    episode_id=episode_id,
                    ue_id=ue,
                    t0_ms=ep.t0_ms,
                    a3_ms=ep.a3_ms,
                    d_prep_ms=d_prep,
                    legacy_cmd_ms=legacy.command_ms,
                    eshop_cmd_ms=early.command_ms,
                    advance_ms=legacy.command_ms - early.command_ms,
                    rsrp_legacy_cmd_dbm=rsrp_legacy,
                    rsrp_eshop_cmd_dbm=rsrp_early,
                    wasted=early.wasted,
                    fellback=early.fellback,
                )
            )
    if not comparisons:
        raise DataError("no comparable handover episodes in the logs")
    stats = degradation_stats(comparisons, rsrp_samples)

    digest = config_hash(cfg)
    write_table(
        paths["comparison"],
        "ho-comparison/1",
        [
            "episode_id",
            "t0_ms",
            "a3_ms",
            "d_prep_ms",
            "legacy_cmd_ms",
            "eshop_cmd_ms",
            "advance_ms",
            "rsrp_legacy_cmd_dbm",
            "rsrp_eshop_cmd_dbm",
            "wasted",
            "fellback",
        ],
        (
            [
                c.episode_id,
                c.t0_ms,
                c.a3_ms,
                repr(c.d_prep_ms),
                repr(c.legacy_cmd_ms),
                repr(c.eshop_cmd_ms),
                repr(c.advance_ms),
                repr(c.rsrp_legacy_cmd_dbm),
                repr(c.rsrp_eshop_cmd_dbm),
                int(c.wasted),
                int(c.fellback),
            ]
            for c in comparisons
        ),
        config_hash=digest,
        master_seed=cfg.master_seed,
    )
    write_table(
        paths["cdf"],
        "rsrp-drop-cdf/1",
        ["delta_rsrp_db", "cumulative_prob"],
        (
            [repr(float(x)), repr(float(p))]
            for x, p in zip(stats.cdf_delta_rsrp_db, stats.cdf_cumulative_prob)
        ),
        config_hash=digest,
        master_seed=cfg.master_seed,
    )
    payload = {
        "oracle": oracle,
        "n_compared": stats.n_compared,
        "n_skipped_trace_gap": skipped_gap,
        "mean_advance_ms": stats.mean_advance_ms,
        "mean_d_prep_ms": stats.mean_d_prep_ms,
        "wasted_rate": stats.wasted_rate,
        "fallback_rate": stats.fallback_rate,
        "median_benefit_db": float(np.median(stats.benefit_db)),
    }
    _update_summary(cfg.output_dir, cfg, "eshop", payload)
    _record_timing(cfg.output_dir, "eshop", time.perf_counter() - t_start)
    return payload


_REPORT_METRICS = [
    ("evs", ("eval", "test", "evs")),
    ("mape_pct", ("eval", "test", "mape_pct")),
    ("mae", ("eval", "test", "mae")),
    ("rmse_s", ("eval", "test", "rmse_s")),
    ("r2", ("eval", "test", "r2")),
    ("mean_advance_ms", ("eshop", "mean_advance_ms")),
    ("wasted_rate", ("eshop", "wasted_rate")),
    ("fallback_rate", ("eshop", "fallback_rate")),
]


def cmd_report(run_dirs: list[str], out_file: str) -> dict:
    """Merge run summaries into one table with mean and std per metric."""
    summaries = []
    for d in run_dirs:
        path = os.path.join(d, "summary.json")
        if not os.path.exists(path):
            raise DataError(f"missing run summary: {path}")
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("schema_version") != SUMMARY_SCHEMA:
            raise DataError(
                f"summary schema mismatch in {path}: {doc.get('schema_version')}"
            )
        summaries.append(doc)

    def dig(doc, key_path):
        cur = doc
        for k in key_path:
            if not isinstance(cur, dict) or k not in cur:
                return None
            cur = cur[k]
        return cur

    groups = sorted({doc.get("los_mode", "?") for doc in summaries})
    table: dict[str, dict[str, tuple[float, float]]] = {}
    for metric, key_path in _REPORT_METRICS:
        # metrics live either under eval.test.metrics-like dicts or eshop
        row = {}
        for g in groups:
            vals = []
            for doc in summaries:
                if doc.get("los_mode") != g:
                    continue
                v = dig(doc, key_path)
                if v is None and key_path[0] == "eval":
                    v = dig(doc, ("eval", "test", "metrics", key_path[-1]))
                if v is not None:
                    vals.append(float(v))
            if vals:
                row[g] = (float(np.mean(vals)), float(np.std(vals)))
        if row:
            table[metric] = row

    header = ["metric"]
    for g in groups:
        header.extend([f"{g}_mean", f"{g}_std"])
    rows = []
    for metric, row in table.items():
        out_row = [metric]
        for g in groups:
            if g in row:
                out_row.extend([repr(row[g][0]), repr(row[g][1])])
            else:
                out_row.extend(["", ""])
        rows.append(out_row)
    write_table(out_file, REPORT_SCHEMA, header, rows)
    return {"groups": groups, "metrics": list(table)}


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eshopsim",
        description="5G NR mmWave handover simulator with predictive early preparation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON experiment configuration (defaults apply if omitted)")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--los", choices=["los", "nlos"], help="override the propagation mode")
        p.add_argument("--parallel", type=int, default=0, help="worker processes for simulation")

    for name in ("simulate", "build-dataset", "train", "eval", "eshop"):
        p = sub.add_parser(name)
        add_common(p)
        if name == "eval":
            p.add_argument("--split", default="test", choices=["train", "val", "test"])
        if name == "eshop":
            p.add_argument(
                "--oracle",
                action="store_true",
                help="feed ground-truth countdowns instead of model predictions",
            )

    p = sub.add_parser("report")
    p.add_argument("runs", nargs="+", help="run directories to merge")
    p.add_argument("--out-file", default="report.csv")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg.master_seed = args.seed
    if args.out is not None:
        cfg.output_dir = args.out
    if args.los is not None:
        cfg.channel.los_mode = args.los
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            cmd_report(args.runs, args.out_file)
            return 0
        cfg = _config_from_args(args)
        if args.command == "simulate":
            cmd_simulate(cfg, parallel=args.parallel)
        elif args.command == "build-dataset":
            cmd_build_dataset(cfg)
        elif args.command == "train":
            cmd_train(cfg)
        elif args.command == "eval":
            cmd_eval(cfg, split=args.split)
        elif args.command == "eshop":
            cmd_eshop(cfg, oracle=args.oracle)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except TrainingDiverged as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
