#!/usr/bin/env python3
"""Byte identity of every run artifact between two checkouts.

    python3 scripts/artifact_digests.py --parent ../base --change .

Each checkout runs, with its own program and its own
``run_experiment.make_config``, the pipeline simulate -> build-dataset ->
train -> eval -> eshop -> eshop --oracle over a fixed matrix: the sizes of
the benchmark's ref-los and infer-w64 workloads, LoS and NLoS, float32 and
float64 training, and two seeds. The sha256 of every file in each run
directory is taken after ``eshop``; the files ``eshop --oracle`` rewrites are
taken again, under ``oracle/``. ``timings.json`` is left out: it holds wall
times. The script prints each file whose digest differs between the
checkouts (or exists in one only) and exits 1 if there is any, else 0.
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
DTYPES = ("float32", "float64")
SEEDS = (5001, 5002)

# Runs in a fresh interpreter inside one checkout; prints {file key: sha256}.
_CHILD = r"""
import dataclasses, hashlib, json, sys
from pathlib import Path
matrix, work = json.loads(sys.argv[1]), Path(sys.argv[2])
sys.path[:0] = ["scripts", "src"]
import run_experiment
from eshopsim import cli

def digests(run_dir):  # timings.json holds wall times
    return {
        str(p.relative_to(run_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(run_dir.rglob("*")) if p.is_file() and p.name != "timings.json"
    }

out = {}
for name, (ues, seconds, epochs, dataset, mode, dtype, seed) in matrix.items():
    run_dir = work / name
    cfg = run_experiment.make_config(str(run_dir), seed, mode, ues, seconds, epochs)
    dataset = {k: tuple(v) if isinstance(v, list) else v for k, v in dataset.items()}
    cfg.dataset = dataclasses.replace(cfg.dataset, **dataset)
    cfg.train = dataclasses.replace(cfg.train, dtype=dtype)
    cli.cmd_simulate(cfg)
    cli.cmd_build_dataset(cfg, quiet=True)
    cli.cmd_train(cfg)
    cli.cmd_eval(cfg)
    cli.cmd_eshop(cfg)
    model = digests(run_dir)
    cli.cmd_eshop(cfg, oracle=True)
    oracle = digests(run_dir)
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
            for dtype in DTYPES:
                for seed in SEEDS:
                    name = f"{setting}-{mode}-{dtype}-{seed}"
                    runs[name] = [ues, seconds, epochs, dataset, mode, dtype, seed]
    return runs


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
    differ = sorted(k for k in parent.keys() | change.keys() if parent.get(k) != change.get(k))
    for key in differ:
        print(f"differs: {key} parent {parent.get(key, '-')[:16]} change {change.get(key, '-')[:16]}")
    print(f"{len(parent.keys() | change.keys())} files, {len(differ)} differ, {len(runs)} runs a side")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
