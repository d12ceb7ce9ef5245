#!/usr/bin/env python3
"""eshopsim benchmark: per-stage pipeline times, layer spans, output checks.

Runs one named workload of the five-stage pipeline (simulate -> build-dataset
-> train -> eval -> eshop) in this process, through the public
``eshopsim.cli.cmd_*`` functions, for about ``--seconds`` seconds:

    python3 perfbench/run.py --workload ref-los --seed 1 --seconds 60 --trace 0

A run is a tiny warm-up pass followed by full passes of the workload, each in
a fresh, empty run directory. Passes 2i and 2i+1 simulate data set i, whose
master seed is ``1000 * seed + i``. Every pass is one attempted operation; a
pass fails when the program raises ConfigError / DataError / TrainingDiverged
or an output check fails, including a digest that differs from an earlier
repeat of its data set. ``--trace 0`` reports the end-to-end metrics as
medians over the passes; ``--trace 1`` pairs each untraced pass with a traced
repeat and reports the per-layer metrics: the untraced passes' stage times and
the traced passes' layer spans (see spans.py).

Times are taken at the host's fast speed. A shared 2-vCPU x86_64 host was
seen to switch every few seconds between two speeds, 1.7 times apart, in a
mix that drifts from minute to minute; so untraced stages and the set-up run under a SpeedProbe
(calibrate.py), which samples the host's speed while they run, and
``setup_s``, ``pipeline_s`` and ``stage.*_s`` are their times rescaled to the
fast speed. The plain wall times are the per-layer ``wall.*_s`` and are on
every pass line. Traced passes run without the probe, so the layer spans are
wall times.

The last line of standard output is the JSON result; the lines before it give
the environment, every pass, and each data set's digest and model quality.

Self-tests at tiny size: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported anywhere in this process or its children.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRIPTS = ROOT / "scripts"
RUNS = ROOT / ".perfbench_runs"
MIB = 1024.0 * 1024.0
# A stage is timed around its root wrapper, so the two differ by one call.
CLOSURE_TOLERANCE_S = 1e-3
# Cold set-ups per pass, each in a fresh interpreter; the pass reports their median.
SETUP_REPEATS = 3
# The set-up takes about 0.1 s, so it is sampled more often than a stage.
SETUP_PROBE_INTERVAL_S = 0.01


@dataclasses.dataclass(frozen=True)
class Workload:
    """Overrides of ``scripts/run_experiment.make_config``."""

    los_mode: str
    num_ues: int
    duration_s: float
    epochs: int
    dataset: tuple = ()  # (field, value) overrides of DatasetConfig


WORKLOADS = {
    # The reference workload: training dominates (about 55% of the pipeline).
    "ref-los": Workload("los", 20, 16.0, 3),
    # Batch-1 and batched inference dominate; training is one short epoch.
    "infer-w64": Workload(
        "los", 30, 16.0, 1,
        dataset=(("window_len", 64), ("horizon_s", 8.0), ("split_ratios", (0.1, 0.1, 0.8))),
    ),
}


def tiny(workload: Workload) -> Workload:
    """Same shapes, a fraction of the work: the warm-up and the self-tests."""
    return dataclasses.replace(workload, num_ues=4, duration_s=10.0, epochs=1)


STAGES = ("simulate", "build_dataset", "train", "eval", "eshop")
# End to end, only the whole pipeline is timed. On a shared two-core x86_64
# host the quartile spread of per-stage wall-time run medians across ten seeds
# reached 0.25-0.33 for simulate, build-dataset and eval (0.2-1.6 s a pass) and
# 0.30 for infer-w64's one-epoch train, whose work varies with the seed; above
# the largest bound allowed. Stage times are per-layer metrics "stage.<name>_s".
# setup_s and pipeline_s are at the host's fast speed (calibrate.py).
END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MiB",
    "log_mb": "MiB",
}


def load_program():
    """Import the program from the checkout, or exit 2 if it is not there."""
    if not (SRC / "eshopsim" / "cli.py").is_file() or not (SCRIPTS / "run_experiment.py").is_file():
        print(f"perfbench: no eshopsim sources under {ROOT}", file=sys.stderr)
        raise SystemExit(2)
    for path in (str(SCRIPTS), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import run_experiment
    import spans
    from eshopsim import cli
    from eshopsim.config import ConfigError
    from eshopsim.dataset import DataError
    from eshopsim.tcn import TrainingDiverged

    return run_experiment, spans, cli, (ConfigError, DataError, TrainingDiverged)


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def artifact_digest(run_dir: Path) -> str:
    """sha256 over every artifact except the wall-clock timings.json."""
    h = hashlib.sha256()
    for p in sorted(run_dir.rglob("*")):
        if p.is_file() and p.name != "timings.json":
            data = p.read_bytes()
            h.update(f"{p.relative_to(run_dir).as_posix()}\0{len(data)}\0".encode())
            h.update(data)
    return h.hexdigest()


@dataclasses.dataclass
class Pass:
    master_seed: int
    traced: bool
    setup_s: float = 0.0  # at the host's fast speed
    setup_wall_s: float = 0.0
    stage_s: dict = dataclasses.field(default_factory=dict)  # wall time
    stage_fast_s: dict = dataclasses.field(default_factory=dict)  # untraced only
    payloads: dict = dataclasses.field(default_factory=dict)
    log_bytes: int = 0
    report_log_bytes: int = 0
    dataset_bytes: int = 0
    digest: str = ""
    failures: list = dataclasses.field(default_factory=list)
    tracer: object = None

    @property
    def pipeline_s(self) -> float:
        return sum(self.stage_fast_s.values())

    @property
    def pipeline_wall_s(self) -> float:
        return sum(self.stage_s.values())


class Bench:
    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.seconds = seconds
        self.run_experiment, self.spans, self.cli, self.errors = load_program()
        self.child_env = dict(os.environ)
        self.child_env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.work = RUNS / f"{os.getpid()}"
        self._n = 0

    def master_seed(self, k: int) -> int:
        """Seed of the k-th measured pass: passes 2i and 2i+1 share data set i.

        Each data set is run twice, so that the artifact digest can be
        compared across repeats; a run spans several data sets, so that its
        medians depend less on how much work one seed's data happens to make.
        """
        return self.seed * 1000 + k // 2

    def config(self, workload: Workload, out_dir: Path, master_seed: int):
        cfg = self.run_experiment.make_config(
            str(out_dir), master_seed, workload.los_mode, workload.num_ues,
            workload.duration_s, workload.epochs,
        )
        cfg.dataset = dataclasses.replace(cfg.dataset, **dict(workload.dataset))
        return cfg

    def run_pass(
        self, workload: Workload, master_seed: int, traced: bool = False, oracle: bool = False
    ) -> Pass:
        """One pass of the five stages; ``oracle`` also replays eshop(oracle=True)."""
        p = Pass(master_seed=master_seed, traced=traced)
        self._n += 1
        run_dir = self.work / f"pass{self._n}"
        os.sync()  # earlier passes' writeback must not land in this one's stages
        p.setup_s, p.setup_wall_s = self.time_setup(workload, master_seed)
        run_dir.mkdir(parents=True)
        cfg = self.config(workload, run_dir, master_seed)

        cli = self.cli
        calls = {
            "simulate": lambda: cli.cmd_simulate(cfg, parallel=0),
            "build_dataset": lambda: cli.cmd_build_dataset(cfg, quiet=True),
            "train": lambda: cli.cmd_train(cfg),
            "eval": lambda: cli.cmd_eval(cfg),
            "eshop": lambda: cli.cmd_eshop(cfg),
        }
        p.tracer = self.spans.Tracer() if traced else None
        try:
            with p.tracer or contextlib.nullcontext():
                for stage in STAGES:
                    with contextlib.nullcontext() if traced else calibrate.SpeedProbe() as probe:
                        t = time.perf_counter()
                        p.payloads[stage] = calls[stage]()
                        p.stage_s[stage] = time.perf_counter() - t
                    if probe is not None:
                        p.stage_fast_s[stage] = probe.normalise(p.stage_s[stage])
                    if stage == "build_dataset":
                        p.log_bytes = dir_bytes(run_dir)
                p.report_log_bytes = (run_dir / "reports.csv").stat().st_size
                p.dataset_bytes = dir_bytes(run_dir / "dataset")
                p.digest = artifact_digest(run_dir)
                p.failures += check_outputs(p.payloads)
                if oracle:
                    p.failures += check_oracle(cli.cmd_eshop(cfg, oracle=True))
        except self.errors as exc:
            p.failures.append(f"{type(exc).__name__}: {exc}")
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        if p.tracer is not None and not p.failures:
            p.failures += check_closure(p, self.spans)
        return p

    def time_setup(self, workload: Workload, master_seed: int) -> tuple[float, float]:
        """Median (fast-speed, wall) time of cold set-ups in fresh interpreters."""
        fast, wall = [], []
        for k in range(SETUP_REPEATS):
            run_dir = self.work / f"setup{k}"
            code = (
                f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import run; "
                f"from run import Workload; "
                f"run.setup_child({workload!r}, {str(run_dir)!r}, {master_seed})"
            )
            try:
                out = subprocess.run(
                    [sys.executable, "-c", code], env=self.child_env, check=True,
                    capture_output=True, text=True,
                ).stdout
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
            times = json.loads(out.splitlines()[-1])
            fast.append(times["fast_s"])
            wall.append(times["wall_s"])
        return _median(fast), _median(wall)

    def run(self, name: str, trace: bool, workload: Workload | None = None) -> dict:
        """Warm up, then repeat passes until the next would overrun ``seconds``."""
        workload = workload or WORKLOADS[name]
        start = time.perf_counter()
        try:
            warm = self.run_pass(tiny(workload), self.master_seed(0))
            if warm.failures:
                print(f"warm-up: {warm.failures}")
            passes: list[Pass] = []
            while True:
                t_round = time.perf_counter()
                seed = self.master_seed(len(passes))
                passes.append(self.run_pass(workload, seed, oracle=not passes))
                if trace:  # a traced repeat of the same data set
                    passes.append(self.run_pass(workload, seed, traced=True, oracle=True))
                now = time.perf_counter()
                if len(passes) >= 2 and now + (now - t_round) > start + self.seconds:
                    break
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        traced = [p for p in passes if p.tracer is not None]
        if traced:
            traced[-1].tracer.write(RUNS / f"spans-{name}.tsv")
        return summarize(name, passes, trace, self.spans)


def setup_child(workload: Workload, run_dir: str, master_seed: int) -> None:
    """In a fresh interpreter: import the program, make the config and run dir."""
    with calibrate.SpeedProbe(calibrate.python_kernel, SETUP_PROBE_INTERVAL_S) as probe:
        t = time.perf_counter()
        bench = Bench(seed=0, seconds=0.0)
        Path(run_dir).mkdir(parents=True)
        bench.config(workload, Path(run_dir), master_seed)
        wall = time.perf_counter() - t
    print(json.dumps({"fast_s": probe.normalise(wall), "wall_s": wall}))


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def check_outputs(payloads: dict) -> list[str]:
    out = []
    ds = payloads["build_dataset"]
    if ds["kept_count"] + sum(ds["excluded"].values()) != ds["raw_count"]:
        out.append("exclusion counts do not reconcile with raw_count")
    test = payloads["eval"]["test"]
    if test["r2"] is None or test["evs"] is None or not test["r2"] <= test["evs"]:
        out.append(f"R2 {test['r2']} > EVS {test['evs']}")
    return out


def check_oracle(payload: dict) -> list[str]:
    out = []
    if payload["fallback_rate"] != 0.0:
        out.append(f"oracle fallback_rate {payload['fallback_rate']} != 0")
    if payload["mean_advance_ms"] != payload["mean_d_prep_ms"]:
        out.append(
            f"oracle mean_advance_ms {payload['mean_advance_ms']} != "
            f"mean_d_prep_ms {payload['mean_d_prep_ms']}"
        )
    return out


def check_closure(p: Pass, spans) -> list[str]:
    """Layer self times plus cli.<stage>.self_s must add up to each stage's time."""
    out = []
    for name in {s[0] for s in p.tracer.spans}:
        if spans.self_metric(name) not in _TIME_LAYERS:
            out.append(f"span {name} has no per-layer metric")
    sums = p.tracer.stage_self_sums()
    for stage, stage_s in p.stage_s.items():
        self_sum = sums[f"cli.{stage}"]
        print(f"closure {stage}: stage {stage_s:.6f} s, layer self times {self_sum:.6f} s")
        if abs(stage_s - self_sum) > CLOSURE_TOLERANCE_S:
            out.append(f"{stage}: self times sum to {self_sum!r}, stage took {stage_s!r}")
    return out


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

_TIME_LAYERS = (
    "tcn.train.forward_s", "tcn.train.backward_s", "tcn.train.self_s",
    "tcn.save_model_s", "tcn.load_model_s", "tcn.model_forward_s", "tcn.predict_s",
    "controller.infer_countdown_s", "controller.standardized_rows_s",
    "controller.oracle_countdown_s", "controller.simulate_eshop_s",
    "controller.degradation_stats_s",
    "dataset.gather_s", "dataset.build_dataset_s", "dataset.write_dataset_s",
    "dataset.read_dataset_s",
    "simulate.write_report_log_s", "simulate.read_report_log_s",
    "simulate.write_event_log_s", "simulate.read_event_log_s", "simulate.run_ue_self_s",
    "scenario.position_at_s", "channel.sample_s", "channel.l3_update_s",
    "channel.make_report_s", "events.step_s",
    "cli.simulate.self_s", "cli.build_dataset.self_s", "cli.train.self_s",
    "cli.eval.self_s", "cli.eshop.self_s", "cli.eshop_oracle.self_s",
)
# Counted by the tracer's wrappers.
_TRACED_COUNTS = (
    "tcn.forward_samples", "tcn.model_forward_calls", "controller.infer_countdown_reports",
    "controller.simulate_eshop_calls", "dataset.gather_windows", "dataset.read_dataset_calls",
    "simulate.read_report_log_calls", "channel.sample_calls", "events.step_calls",
)
# Read from the stage payloads and artifact sizes.
_PAYLOAD_UNITS = {
    "tcn.epochs_run": "count", "tcn.best_val_rmse": "s", "tcn.test_r2": "1",
    "controller.n_compared": "count", "controller.early_per_episode": "1",
    "controller.wasted_rate": "1", "controller.mean_advance_ms": "ms",
    "events.t0_count": "count", "events.a3_count": "count", "events.abort_count": "count",
    "events.a3_per_t0": "1", "simulate.report_log_bytes": "B", "dataset.dataset_bytes": "B",
    "dataset.kept_per_raw": "1",
}
PER_LAYER_UNITS = {
    **{f"stage.{stage}_s": "s" for stage in STAGES},
    "wall.setup_s": "s",
    "wall.pipeline_s": "s",
    **{name: "s" for name in _TIME_LAYERS},
    "trace.overhead_s": "s",
    **{name: "count" for name in _TRACED_COUNTS},
    **_PAYLOAD_UNITS,
}


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(passes: list[Pass]) -> dict[str, float]:
    return {
        "setup_s": _median(p.setup_s for p in passes),
        "pipeline_s": _median(p.pipeline_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "log_mb": _median(p.log_bytes for p in passes) / MIB,
    }


def per_layer(untraced: list[Pass], traced: list[Pass], spans) -> dict[str, float]:
    self_times = [
        {spans.self_metric(k): v for k, v in p.tracer.self_times().items()} for p in traced
    ]
    values = {name: _median(t.get(name, 0.0) for t in self_times) for name in _TIME_LAYERS}
    values["trace.overhead_s"] = _median(p.pipeline_wall_s for p in traced) - _median(
        p.pipeline_wall_s for p in untraced
    )
    for stage in STAGES:
        values[f"stage.{stage}_s"] = _median(p.stage_fast_s[stage] for p in untraced)
    values["wall.setup_s"] = _median(p.setup_wall_s for p in untraced)
    values["wall.pipeline_s"] = _median(p.pipeline_wall_s for p in untraced)
    last = traced[-1]
    values.update({name: float(last.tracer.counts[name]) for name in _TRACED_COUNTS})
    pl = last.payloads
    sim, ds, esh = pl["simulate"], pl["build_dataset"], pl["eshop"]
    payload_values = {
        "tcn.epochs_run": pl["train"]["epochs_run"],
        "tcn.best_val_rmse": pl["train"]["best_val_rmse"],
        "tcn.test_r2": pl["eval"]["test"]["r2"],
        "controller.n_compared": esh["n_compared"],
        "controller.early_per_episode": 1.0 - esh["fallback_rate"],
        "controller.wasted_rate": esh["wasted_rate"],
        "controller.mean_advance_ms": esh["mean_advance_ms"],
        "events.t0_count": sim["t0_count"],
        "events.a3_count": sim["a3_count"],
        "events.abort_count": sim["abort_count"],
        "events.a3_per_t0": sim["a3_count"] / max(sim["t0_count"], 1),
        "simulate.report_log_bytes": last.report_log_bytes,
        "dataset.dataset_bytes": last.dataset_bytes,
        "dataset.kept_per_raw": ds["kept_count"] / max(ds["raw_count"], 1),
    }
    values.update({name: float(v) for name, v in payload_values.items()})
    return values


def summarize(name: str, passes: list[Pass], trace: bool, spans) -> dict:
    first: dict[int, Pass] = {}  # per data set, the first pass that succeeded
    for p in passes:
        if not p.failures:
            ref = first.setdefault(p.master_seed, p)
            if p.digest != ref.digest:
                p.failures.append(f"artifact digest {p.digest} != {ref.digest} of an earlier repeat")
    print(f"workload {name}")
    for i, p in enumerate(passes):
        tag = "traced" if p.traced else "untraced"
        status = "ok" if not p.failures else "; ".join(p.failures)
        stages = " ".join(f"{s}={v:.3f}" for s, v in p.stage_s.items())
        fast = f" pipeline={p.pipeline_s:.3f}" if p.stage_fast_s else ""
        print(
            f"pass {i} {tag} seed={p.master_seed} setup={p.setup_s:.3f} "
            f"wall: setup={p.setup_wall_s:.3f} {stages}{fast} "
            f"digest={p.digest[:16]} {status}"
        )
    for seed, p in first.items():
        test_r2 = p.payloads["eval"]["test"]["r2"]
        advance = p.payloads["eshop"]["mean_advance_ms"]
        print(f"data set {seed}: digest {p.digest} test_r2={test_r2!r} mean_advance_ms={advance!r}")
    ok = [p for p in passes if not p.failures]
    metrics: dict[str, float] = {}
    units: dict[str, str] = {}
    if trace:
        untraced = [p for p in ok if not p.traced]
        traced = [p for p in ok if p.traced]
        if untraced and traced:
            metrics, units = per_layer(untraced, traced, spans), PER_LAYER_UNITS
    elif ok:
        metrics, units = end_to_end(ok), END_TO_END_UNITS
    return {
        "correct": len(ok) == len(passes) and bool(metrics),
        "attempted": len(passes),
        "failed": len(passes) - len(ok),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = Bench(args.seed, args.seconds)
    print("env " + json.dumps(environment(), sort_keys=True))
    result = bench.run(args.workload, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
