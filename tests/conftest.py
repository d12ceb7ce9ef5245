import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(1234))


# Shadowing wider than the experiment's default, at which the simulator's
# unit tests and tiny_config are written.
WIDE_SHADOWING = {"shadow_sigma_los_db": 4.0, "shadow_sigma_nlos_db": 7.8, "decorrelation_distance_m": 10.0}

# Where tiny_config departs from the defaults; each value differs from the
# default's (test_cli checks it).
TINY = {
    "scenario": {"num_ues": 5, "duration_s": 14.0},
    "channel": WIDE_SHADOWING,
    "dataset": {"window_len": 16, "horizon_s": 8.0},
    "train": {"epochs": 2, "patience": 0, "seed": 0},
    "master_seed": 7,
}


def tiny_config(out_dir, **overrides):
    """Small but complete experiment configuration for pipeline tests."""
    from eshopsim.config import ExperimentConfig

    cfg = ExperimentConfig.from_dict({**TINY, "output_dir": str(out_dir)})
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def make_config(*args):
    """``scripts/run_experiment.make_config``: the experiment configuration."""
    spec = importlib.util.spec_from_file_location(
        "run_experiment", Path(__file__).parent.parent / "scripts" / "run_experiment.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_config(*args)


def artifact_bytes(run_dir):
    """Every file of a run directory except the wall-clock timings.json."""
    return {
        str(p.relative_to(run_dir)): p.read_bytes()
        for p in sorted(run_dir.rglob("*"))
        if p.is_file() and p.name != "timings.json"
    }


def series_of_runs(runs):
    """``build_dataset``'s per-UE input straight from in-memory ``UeRun``s:
    the reduced series the report log carries, and the episodes of the events."""
    from eshopsim.events import episodes_from_events

    return {
        run.ue_id: {
            "times_ms": run.times_ms,
            "best_beams": run.best_beams,
            "best_rsrp": run.best_rsrp,
            "episodes": episodes_from_events(run.events),
        }
        for run in runs
    }
