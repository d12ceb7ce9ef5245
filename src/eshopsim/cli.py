"""Command-line front end: simulate, build-dataset, train, eval, eshop, report.

Every artifact records the configuration hash and master seed (the dataset
.npz files through their sha256 in meta.json); rerunning the pipeline with
the same configuration and seed on the same machine and BLAS build reproduces
every artifact byte for byte, since the program runs BLAS on one thread
(wall-clock timings live in a separate, non-deterministic timings.json).

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import Counter
from dataclasses import fields

import numpy as np

from eshopsim.artifacts import read_json, write_json, write_table
from eshopsim.config import ConfigError, ExperimentConfig, config_hash, load_config
from eshopsim.controller import (
    ENTRY_RULE,
    MODEL_RULE,
    HoComparison,
    degradation_stats,
    entry_countdown,
    infer_countdown,
    oracle_countdown,
    simulate_eshop,
)
from eshopsim.dataset import (
    DataError,
    DatasetBundle,
    WindowBank,
    build_dataset,
    read_dataset,
    standardized_rows,
    write_dataset,
)
from eshopsim.tcn import TrainingDiverged
from eshopsim.events import EVENT_A3, EVENT_ABORT, EVENT_CMD, EVENT_T0
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
REPORT_SCHEMA = "consolidated-report/2"


# ---------------------------------------------------------------------------
# artifact helpers
# ---------------------------------------------------------------------------


_RUN_FILES = ("reports.csv", "events.csv", "dataset", "model.tcn", "history.csv", "metrics.json",
              "predictions.csv", "comparison.csv", "cdf.csv", "summary.json", "timings.json")


def _paths(out_dir: str) -> dict[str, str]:
    """Each file of a run directory, by its name without the extension."""
    return {name.split(".")[0]: os.path.join(out_dir, name) for name in _RUN_FILES}


def _load_summary(path: str) -> dict:
    try:
        doc = read_json(path)
    except ValueError as exc:  # e.g. a file cut short
        raise DataError(f"unreadable run summary {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"run summary {path} is not a JSON object")
    return doc


def _read_summary(out_dir: str) -> dict:
    path = _paths(out_dir)["summary"]
    return _load_summary(path) if os.path.exists(path) else {}


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
    write_json(_paths(out_dir)["summary"], doc)


def _record_timing(out_dir: str, command: str, seconds: float) -> None:
    """Wall-clock times sit outside the determinism guarantee, so a missing or
    unreadable timings.json starts over rather than failing the command."""
    path = _paths(out_dir)["timings"]
    try:
        doc = read_json(path)
    except (FileNotFoundError, ValueError):  # missing, cut short or not JSON
        doc = {}
    doc = doc if isinstance(doc, dict) else {}
    doc[command] = seconds
    write_json(path, doc)


_WRITTEN_BY = dict(reports="simulate", events="simulate", dataset="build-dataset", model="train")


def _read_run_file(cfg: ExperimentConfig, key: str, reader, bound_hash):
    """``reader(path)`` of the run file ``key``. A file that is missing, that
    ``reader`` cannot read (ValueError) or whose ``bound_hash(result)`` is not
    ``cfg``'s configuration hash is refused with DataError."""
    path = _paths(cfg.output_dir)[key]
    if not os.path.exists(path):
        raise DataError(f"missing run file: {path} (run '{_WRITTEN_BY[key]}' first)")
    try:
        result = reader(path)
    except ValueError as exc:  # e.g. a file cut short or of an older schema
        raise DataError(f"unreadable run file {path}: {exc}") from exc
    if bound_hash(result) != config_hash(cfg):
        raise DataError(f"{path} was written under a different configuration")
    return result


# the configuration hash each kind of run file was written under
def _log_hash(log: tuple[dict, dict]) -> str | None:
    return log[0].get("config_hash")


def _dataset_hash(bundle: DatasetBundle) -> str:
    return bundle.meta.config_hash


def _model_hash(model: tuple[tcn.ModelParams, dict]) -> str | None:
    extra = model[1].get("extra")
    return extra.get("config_hash") if isinstance(extra, dict) else None


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_simulate(cfg: ExperimentConfig, parallel: int = 0) -> dict:
    """Simulates every UE in this process; ``parallel`` may only be 0 or 1."""
    if parallel not in (0, 1):
        raise ValueError(f"simulate runs in one process: parallel={parallel!r}")
    t_start = time.perf_counter()
    _check_run_dir(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    runs = run_scenario(cfg.scenario, cfg.channel, cfg.master_seed)
    paths = _paths(cfg.output_dir)
    digest = config_hash(cfg)
    write_report_log(paths["reports"], runs, digest, cfg.master_seed)
    write_event_log(paths["events"], runs, digest, cfg.master_seed)
    counts = Counter(ev.kind for run in runs for ev in run.events)
    payload = {
        "num_ues": len(runs),
        "reports_per_ue": int(runs[0].times_ms.size) if runs else 0,
        "t0_count": counts[EVENT_T0],
        "a3_count": counts[EVENT_A3],
        "abort_count": counts[EVENT_ABORT],
        "cmd_count": counts[EVENT_CMD],
    }
    _update_summary(cfg.output_dir, cfg, "simulate", payload)
    _record_timing(cfg.output_dir, "simulate", time.perf_counter() - t_start)
    return payload


def cmd_build_dataset(cfg: ExperimentConfig, quiet: bool = False) -> dict:
    t_start = time.perf_counter()
    _check_run_dir(cfg)
    per_ue = _read_run_file(cfg, "reports", read_report_log, _log_hash)[1]
    episodes = _read_run_file(cfg, "events", read_event_log, _log_hash)[1]
    for ue, rec in per_ue.items():
        rec["episodes"] = episodes.get(ue, [])
    bundle = build_dataset(
        per_ue,
        cfg.dataset,
        split_seed=derive_seed(cfg.master_seed, "split"),
        config_hash=config_hash(cfg),
        master_seed=cfg.master_seed,
    )
    meta = bundle.meta
    total = meta.kept_count + sum(meta.exclusion_counts.values())
    if total != meta.raw_count:
        raise DataError("exclusion counts do not reconcile with the raw row count")
    write_dataset(_paths(cfg.output_dir)["dataset"], bundle)
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
    bundle = _read_run_file(cfg, "dataset", read_dataset, _dataset_hash)
    w = bundle.meta.window_len
    train_bank = WindowBank.labeled(bundle.splits["train"], bundle.meta, dtype=tcn.DTYPE)
    val_bank = WindowBank.labeled(bundle.splits["val"], bundle.meta, dtype=tcn.DTYPE)
    if len(train_bank) == 0:
        raise DataError("train split holds no samples")
    model_cfg = tcn.TcnModelConfig()  # the paper TCN
    params, history = tcn.train(train_bank, val_bank, model_cfg, cfg.train)
    digest = config_hash(cfg)
    shape = {
        "receptive_field": tcn.receptive_field(model_cfg),
        "window_len": w,
        "live_param_count": tcn.live_param_count(params, w),
    }
    extra = {"config_hash": digest, "master_seed": cfg.master_seed, **shape}
    tcn.save_model(paths["model"], params, extra=extra)
    write_table(
        paths["history"], "train-history/1", ["epoch", "train_rmse", "val_rmse"],
        [[[r[key] for r in history] for key in ("epoch", "train_rmse", "val_rmse")]],
        config_hash=digest, master_seed=cfg.master_seed,
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


def cmd_eval(cfg: ExperimentConfig) -> dict:
    """Scores the model on the test split."""
    t_start = time.perf_counter()
    _check_run_dir(cfg)
    paths = _paths(cfg.output_dir)
    bundle = _read_run_file(cfg, "dataset", read_dataset, _dataset_hash)
    params = _read_run_file(cfg, "model", tcn.load_model, _model_hash)[0]
    digest = config_hash(cfg)
    bank = WindowBank.labeled(bundle.splits["test"], bundle.meta, dtype=tcn.DTYPE)
    if len(bank) == 0:
        raise DataError("split 'test' holds no samples")
    preds = tcn.predict(params, bank)
    metrics = tcn.compute_metrics(np.asarray(bank.y, dtype=np.float64), preds)
    write_json(
        paths["metrics"],
        {
            "schema_version": "metrics/1",
            "config_hash": digest,
            "master_seed": cfg.master_seed,
            "split": "test",
            "metrics": metrics.to_dict(),
        },
    )
    write_table(
        paths["predictions"], "predictions/1", ["ue_id", "t_ms", "actual_tef_s", "predicted_tef_s"],
        [[bank.ue_ids, bank.t_ms, bank.y, preds]],
        config_hash=digest, master_seed=cfg.master_seed,
    )
    payload = {"test": metrics.to_dict()}
    _update_summary(cfg.output_dir, cfg, "eval", payload)
    _record_timing(cfg.output_dir, "eval", time.perf_counter() - t_start)
    return payload


def cmd_eshop(cfg: ExperimentConfig, oracle: bool = False) -> dict:
    """Replays each UE's stored dataset trace against its logged episodes."""
    t_start = time.perf_counter()
    _check_run_dir(cfg)
    paths = _paths(cfg.output_dir)
    bundle = _read_run_file(cfg, "dataset", read_dataset, _dataset_hash)
    episodes_by_ue = _read_run_file(cfg, "events", read_event_log, _log_hash)[1]
    if not oracle:
        params = _read_run_file(cfg, "model", tcn.load_model, _model_hash)[0]
    meta = bundle.meta
    traces = {  # every report of a UE sits in one split
        ue: (table, rows)
        for table in bundle.splits.values()
        for ue, rows in table.ue_rows().items()
    }

    # the model's (or the oracle's) countdown first, then the entry rule's, on the same episodes
    comparisons: list[HoComparison] = []
    rule_comparisons: list[HoComparison] = []
    n_a3 = 0  # the episodes that reach their A3
    for ue in sorted(traces):
        table, rows = traces[ue]
        times, rsrp = table.t_ms[rows], table.best_rsrp[rows]
        episodes = episodes_by_ue.get(ue, [])
        if oracle:
            preds = oracle_countdown(times, episodes, cfg.dataset.horizon_s)
        else:
            # the countdown is causal and no episode reads a report after its
            # A3, so inference stops at the report of the last replayed A3
            a3s = [ep.a3_ms for ep in episodes if not ep.aborted and ep.command_ms is not None]
            n = np.searchsorted(times, max(a3s, default=-np.inf), side="right")
            features = standardized_rows(rsrp[:n], table.best_beams[rows][:n], meta)
            preds = infer_countdown(params, features, table.segments[rows][:n], meta.window_len)
        comparisons += simulate_eshop(episodes, times, rsrp, preds, MODEL_RULE)
        rule = entry_countdown(times, episodes)
        rule_comparisons += simulate_eshop(episodes, times, rsrp, rule, ENTRY_RULE)
        n_a3 += sum(not ep.aborted for ep in episodes)
    if not comparisons:
        raise DataError("no comparable handover episodes in the logs")
    stats, rule_stats = degradation_stats(comparisons), degradation_stats(rule_comparisons)

    digest = config_hash(cfg)
    columns = [f.name for f in fields(HoComparison)]
    write_table(
        paths["comparison"], "ho-comparison/2", columns,
        [[[int(v) if isinstance(v, bool) else v for v in (getattr(c, name) for c in comparisons)]
          for name in columns]],  # flags as 0/1
        config_hash=digest, master_seed=cfg.master_seed,
    )
    write_table(
        paths["cdf"], "rsrp-drop-cdf/1", ["delta_rsrp_db", "cumulative_prob"],
        [[stats.cdf_delta_rsrp_db, stats.cdf_cumulative_prob]],
        config_hash=digest, master_seed=cfg.master_seed,
    )
    payload = {
        "oracle": oracle,
        "n_compared": stats.n_compared,
        "n_skipped_trace_gap": n_a3 - stats.n_compared,
        "mean_advance_ms": stats.mean_advance_ms,
        "mean_d_prep_ms": stats.mean_d_prep_ms,
        "wasted_rate": stats.wasted_rate,
        "fallback_rate": stats.fallback_rate,
        "median_benefit_db": float(np.median(stats.benefit_db)),
        "entry_rule": {  # the same episodes, prepared at the first T0 after the last command
            "mean_advance_ms": rule_stats.mean_advance_ms,
            "wasted_rate": rule_stats.wasted_rate,
            "fallback_rate": rule_stats.fallback_rate,
            "n_compared": rule_stats.n_compared,
        },
    }
    _update_summary(cfg.output_dir, cfg, "eshop", payload)
    command = "eshop-oracle" if oracle else "eshop"  # each keeps its own wall time
    _record_timing(cfg.output_dir, command, time.perf_counter() - t_start)
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
    ("entry_rule_mean_advance_ms", ("eshop", "entry_rule", "mean_advance_ms")),
    ("entry_rule_wasted_rate", ("eshop", "entry_rule", "wasted_rate")),
    ("entry_rule_fallback_rate", ("eshop", "entry_rule", "fallback_rate")),
]


def cmd_report(run_dirs: list[str], out_file: str) -> dict:
    """Merge run summaries into one table: per metric the mean and the sample std (ddof 1)."""
    summaries = []
    for d in run_dirs:
        path = os.path.join(d, "summary.json")
        if not os.path.exists(path):
            raise DataError(f"missing run summary: {path}")
        doc = _load_summary(path)
        if doc.get("schema_version") != SUMMARY_SCHEMA:
            raise DataError(
                f"summary schema mismatch in {path}: {doc.get('schema_version')}"
            )
        eshop = doc.get("eshop")
        if isinstance(eshop, dict) and eshop.get("oracle"):
            raise DataError(f"{path} holds the oracle's eshop numbers, not the model's")
        summaries.append((path, doc))

    by_group: dict[str, list[tuple[str, dict]]] = {}
    for path, doc in summaries:
        los_mode = doc.get("los_mode", "?")
        if not isinstance(los_mode, str):
            raise DataError(f"los_mode of {path} is not a string: {los_mode!r}")
        by_group.setdefault(los_mode, []).append((path, doc))
    groups = sorted(by_group)
    header = ["metric"] + [f"{g}_{stat}" for g in groups for stat in ("mean", "std")]
    rows = []
    for metric, key_path in _REPORT_METRICS:
        row = [metric]
        for g in groups:
            vals = []
            for path, doc in by_group[g]:
                v = doc
                for k in key_path:  # a missing or non-object section reads None
                    v = v.get(k) if isinstance(v, dict) else None
                if v is None:
                    continue
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise DataError(f"metric {metric} of {path} is not a number: {v!r}")
                vals.append(float(v))
            row.append(float(np.mean(vals)) if vals else "")
            row.append(float(np.std(vals, ddof=1)) if len(vals) > 1 else "")
        if any(cell != "" for cell in row[1:]):
            rows.append(row)
    write_table(out_file, REPORT_SCHEMA, header, [list(zip(*rows))] if rows else [])
    return {"groups": groups, "metrics": [row[0] for row in rows]}


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

    for name in ("simulate", "build-dataset", "train", "eval", "eshop"):
        p = sub.add_parser(name)
        add_common(p)
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
            cmd_simulate(cfg)
        elif args.command == "build-dataset":
            cmd_build_dataset(cfg)
        elif args.command == "train":
            cmd_train(cfg)
        elif args.command == "eval":
            cmd_eval(cfg)
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
