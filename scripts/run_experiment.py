#!/usr/bin/env python3
"""End-to-end experiment driver.

Runs the full pipeline (simulate -> build-dataset -> train -> eval -> eshop)
for the LoS and NLoS propagation modes and consolidates the per-mode metrics
into one side-by-side report table.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from eshopsim import cli
from eshopsim.config import ExperimentConfig
from eshopsim.channel import ChannelParams
from eshopsim.scenario import ScenarioConfig
from eshopsim.tcn import TrainConfig


def make_config(out_dir: str, seed: int, los_mode: str, num_ues: int, duration_s: float, epochs: int) -> ExperimentConfig:
    """The experiment (every other value is the default) at a size and seed."""
    return ExperimentConfig(
        scenario=ScenarioConfig(num_ues=num_ues, duration_s=duration_s),
        channel=ChannelParams(los_mode=los_mode),
        train=TrainConfig(epochs=epochs),
        output_dir=out_dir,
        master_seed=seed,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/experiment")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ues", type=int, default=150)
    parser.add_argument("--duration", type=float, default=16.0)
    parser.add_argument("--epochs", type=int, default=40)
    parser.add_argument("--quick", action="store_true", help="tiny smoke-test sizes")
    args = parser.parse_args()

    ues, duration, epochs = args.ues, args.duration, args.epochs
    if args.quick:
        ues, duration, epochs = 8, 14.0, 3

    run_dirs = []
    for mode in ("los", "nlos"):
        out_dir = os.path.join(args.out, mode)
        cfg = make_config(out_dir, args.seed, mode, ues, duration, epochs)
        print(f"=== {mode.upper()} run -> {out_dir}")
        print("simulate:", cli.cmd_simulate(cfg))
        print("dataset:", cli.cmd_build_dataset(cfg, quiet=True))
        print("train:", cli.cmd_train(cfg))
        print("eval:", cli.cmd_eval(cfg))
        print("eshop(model):", cli.cmd_eshop(cfg))
        run_dirs.append(out_dir)

    report_path = os.path.join(args.out, "report.csv")
    cli.cmd_report(run_dirs, report_path)
    print(f"=== consolidated report: {report_path}")
    with open(report_path) as fh:
        print(fh.read())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
