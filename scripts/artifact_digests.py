#!/usr/bin/env python3
"""Byte identity of every run artifact between two checkouts.

    python3 scripts/artifact_digests.py --parent ../base --change .

Each checkout runs, with its own program and its own
``run_experiment.make_config``, the pipeline simulate -> build-dataset ->
train -> eval -> eshop -> report -> eshop --oracle over a fixed matrix: the
sizes of the benchmark's ref-los and infer-w64 workloads, LoS and NLoS, and
two seeds. ``report`` merges the run alone into its ``report.csv``. The
sha256 of every file in each run directory is taken after ``report``; the
files ``eshop --oracle`` rewrites are taken again, under ``oracle/``.
``timings.json`` is left out: it holds wall times. Each file is also
digested with its run's ``config_hash`` replaced by a placeholder. The
script prints each file whose digest differs between the checkouts (or
exists in one only), marked "config_hash only" where the placeholder digests
agree, and exits 1 if there is any, else 0.
``--tiny`` runs the same matrix at a few UEs and seconds. BLAS runs on one
thread, as training's determinism requires. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# name -> (UEs, seconds, epochs, DatasetConfig overrides)
SETTINGS = {
    "ref-los": (20, 16.0, 3, {}),
    "infer-w64": (30, 16.0, 1, {"window_len": 64, "horizon_s": 8.0, "split_ratios": (0.1, 0.1, 0.8)}),
}
TINY = (4, 10.0, 1)
MODES = ("los", "nlos")
SEEDS = (5001, 5002)

# Runs in a fresh interpreter inside one checkout; prints {file key: [sha256,
# sha256 with the run's config_hash replaced by a placeholder]}.
_CHILD = r"""
import dataclasses, hashlib, json, sys
from pathlib import Path
matrix, work = json.loads(sys.argv[1]), Path(sys.argv[2])
sys.path[:0] = ["scripts", "src"]
import run_experiment
from eshopsim import cli
from eshopsim.config import config_hash

def digests(run_dir, run_hash):  # timings.json holds wall times
    out = {}
    for p in sorted(run_dir.rglob("*")):
        if p.is_file() and p.name != "timings.json":
            data = p.read_bytes()
            masked = data.replace(run_hash.encode(), b"<config_hash>")
            out[str(p.relative_to(run_dir))] = [
                hashlib.sha256(data).hexdigest(), hashlib.sha256(masked).hexdigest()
            ]
    return out

out = {}
for name, (ues, seconds, epochs, dataset, mode, seed) in matrix.items():
    run_dir = work / name
    cfg = run_experiment.make_config(str(run_dir), seed, mode, ues, seconds, epochs)
    dataset = {k: tuple(v) if isinstance(v, list) else v for k, v in dataset.items()}
    cfg.dataset = dataclasses.replace(cfg.dataset, **dataset)
    run_hash = config_hash(cfg)
    cli.cmd_simulate(cfg)
    cli.cmd_build_dataset(cfg, quiet=True)
    cli.cmd_train(cfg)
    cli.cmd_eval(cfg)
    cli.cmd_eshop(cfg)
    cli.cmd_report([str(run_dir)], str(run_dir / "report.csv"))  # before eshop --oracle
    model = digests(run_dir, run_hash)
    cli.cmd_eshop(cfg, oracle=True)
    oracle = digests(run_dir, run_hash)
    out.update({f"{name}/{k}": v for k, v in model.items()})
    out.update({f"{name}/oracle/{k}": v for k, v in oracle.items() if model.get(k) != v})
print(json.dumps(out))
"""


def matrix(tiny: bool) -> dict[str, list]:
    runs = {}
    for setting, (ues, seconds, epochs, dataset) in SETTINGS.items():
        if tiny:
            ues, seconds, epochs = TINY
        for mode in MODES:
            for seed in SEEDS:
                runs[f"{setting}-{mode}-{seed}"] = [ues, seconds, epochs, dataset, mode, seed]
    return runs


def differences(parent: dict, change: dict) -> list[tuple[str, bool]]:
    """Each file whose digest differs between the sides, or that one side
    lacks, in key order, with whether it differs only in ``config_hash``.
    A side maps a file key to [digest, digest with config_hash masked]."""
    return [
        (key, key in parent and key in change and parent[key][1] == change[key][1])
        for key in sorted(parent.keys() | change.keys())
        if parent.get(key, [None])[0] != change.get(key, [None])[0]
    ]


def start(checkout: Path, runs: dict, work: Path) -> subprocess.Popen:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    args = [sys.executable, "-c", _CHILD, json.dumps(runs), str(work)]
    return subprocess.Popen(args, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--tiny", action="store_true", help="a few UEs and seconds per run")
    args = parser.parse_args(argv)

    runs = matrix(args.tiny)
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
        procs = {side: start(path, runs, Path(tmp) / side) for side, path in sides.items()}
        outs = {side: proc.communicate()[0] for side, proc in procs.items()}
    for side, proc in procs.items():
        if proc.returncode:
            print(f"{side}: the pipeline exited with status {proc.returncode}", file=sys.stderr)
            return 2
    digests = {side: json.loads(out.splitlines()[-1]) for side, out in outs.items()}
    parent, change = digests["parent"], digests["change"]
    differ = differences(parent, change)
    for key, hash_only in differ:
        sides = " ".join(f"{side} {d.get(key, ['-'])[0][:16]}" for side, d in digests.items())
        print(f"differs: {key} {sides} {'config_hash only' if hash_only else 'content'}")
    n_hash = sum(hash_only for _, hash_only in differ)
    print(
        f"{len(parent.keys() | change.keys())} files, {len(differ)} differ, "
        f"{n_hash} of them in config_hash only, {len(runs)} runs a side"
    )
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
