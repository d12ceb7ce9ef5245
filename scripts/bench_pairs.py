#!/usr/bin/env python3
"""Alternating benchmark runs of two checkouts, summarised per end-to-end metric.

    python3 scripts/bench_pairs.py --parent ../base --change . --workload ref-los --seed 31 --pairs 10

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, one
after the other, for the ``run_seconds`` of the change's ``BENCHMARK.json``;
the side that goes first alternates from pair to pair, so a drift of the
host's speed falls on both sides alike. For every end-to-end metric of that
file it prints each side's median and quartiles and the number of pairs the
change won in the metric's ``better`` direction. A gain is clear when the
change wins at least nine pairs in ten, the medians differ by more than the
parent's quartile spread, and the change has no more failed passes than the
parent. Each metric also gets a no-regression verdict against the ``bound``
of ``BENCHMARK.json``: "regression" when the change's median is worse than
the parent's by more than bound x the parent's median, else "unresolved"
when the parent's quartile spread is wider than bound x its median (unless
every run of the change reads better than every run of the parent), else
"no regression". It exits with status 1 when a data set the two sides share
has different ``data set N: digest`` lines, or when one side gave a data set
two digests. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict[str, str]]:
    """One untraced benchmark run: (its JSON result, digest line per data set)."""
    cmd = [
        sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    digests = {
        line.split(":")[0]: line.split()[4]
        for line in lines
        if line.startswith("data set ")
    }
    return json.loads(lines[-1]), digests


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    contract = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in contract["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    seconds = contract["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    values: dict[str, dict[str, list[float]]] = {side: {m: [] for m in better} for side in sides}
    failed = {side: 0 for side in sides}
    digests: dict[str, dict[str, set[str]]] = {side: {} for side in sides}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result, seen = run_once(sides[side], args.workload, args.seed, seconds)
            failed[side] += result["failed"]
            for key, digest in seen.items():
                digests[side].setdefault(key, set()).add(digest)
            for name in better:
                values[side][name].append(result["metrics"][name]["value"])
        print(f"pair {i}: " + "  ".join(
            f"{name} {values['parent'][name][-1]:.4f} -> {values['change'][name][-1]:.4f}"
            for name in better
        ), flush=True)

    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs of {seconds:g} s runs")
    print(f"failed passes: parent {failed['parent']}, change {failed['change']}")
    unstable = [
        f"{side} {key}" for side in sides for key, seen in digests[side].items() if len(seen) > 1
    ]
    common = sorted(set(digests["parent"]) & set(digests["change"]))
    differ = [key for key in common if digests["parent"][key] != digests["change"][key]]
    print(f"data set digests: {len(common)} in common, {len(differ)} differ {differ}")
    print(f"data sets with more than one digest on a side: {len(unstable)} {unstable}")
    if differ or unstable:
        print("artifact bytes differ: exit status 1")
    for name, direction in better.items():
        p, c = values["parent"][name], values["change"][name]
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(1 for a, b in zip(p, c) if sign * (a - b) > 0)
        pq, cq = quartiles(p), quartiles(c)
        spread = pq[2] - pq[0]
        clear = (
            wins >= 0.9 * args.pairs
            and sign * (pq[1] - cq[1]) > spread
            and failed["change"] <= failed["parent"]
        )
        print(
            f"{name:<12} parent {pq[1]:.4f} [{pq[0]:.4f}, {pq[2]:.4f}]  "
            f"change {cq[1]:.4f} [{cq[0]:.4f}, {cq[2]:.4f}]  "
            f"{100.0 * (cq[1] / pq[1] - 1.0):+.1f} %  change wins {wins}/{args.pairs}  "
            f"{'clear gain' if clear else 'no clear gain'}, "
            f"{regression_verdict(p, c, sign, bound[name])} "
            f"({direction} is better, bound {bound[name]:g}, parent spread {spread:.4f})"
        )
    return 1 if differ or unstable else 0


def regression_verdict(parent: list[float], change: list[float], sign: float, bound: float) -> str:
    """No-regression verdict of one metric; ``sign`` is 1 when lower is better."""
    pq, cq = quartiles(parent), quartiles(change)
    if sign * (cq[1] - pq[1]) > bound * abs(pq[1]):
        return "regression"
    all_better = max(sign * v for v in change) < min(sign * v for v in parent)
    if pq[2] - pq[0] > bound * abs(pq[1]) and not all_better:
        return "unresolved"
    return "no regression"


if __name__ == "__main__":
    raise SystemExit(main())
