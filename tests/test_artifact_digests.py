"""``scripts/artifact_digests.py`` at tiny size: one checkout against itself
runs the whole matrix and finds every artifact byte-identical; the
classification of the files that differ; and its sizes are the benchmark's."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "artifact_digests.py"


def _load(name, path, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_a_checkout_matches_itself():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", str(ROOT), "--change", str(ROOT), "--tiny"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert last.endswith(", 0 differ, 0 of them in config_hash only, 8 runs a side"), last
    assert not last.startswith("0 files"), last


def test_differences_name_the_files_that_differ_only_in_config_hash(monkeypatch):
    module = _load("artifact_digests", SCRIPT, monkeypatch)
    parent = {"same": ["a", "m"], "hash": ["b", "n"], "content": ["c", "o"], "gone": ["d", "p"]}
    change = {"same": ["a", "m"], "hash": ["B", "n"], "content": ["C", "O"], "new": ["e", "q"]}
    assert module.differences(parent, change) == [
        ("content", False), ("gone", False), ("hash", True), ("new", False)
    ]


def test_settings_are_the_benchmark_workloads(monkeypatch):
    # the byte-identity matrix stands in for the benchmark: the same sizes,
    # dataset overrides and tiny size for each workload, which runs LoS
    digests = _load("artifact_digests", SCRIPT, monkeypatch)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # the benchmark sets them on import; undone after the test
    bench = _load("perfbench_run", ROOT / "perfbench" / "run.py", monkeypatch)
    assert digests.SETTINGS.keys() == bench.WORKLOADS.keys()
    for name, w in bench.WORKLOADS.items():
        assert w.los_mode in digests.MODES
        assert digests.SETTINGS[name] == (w.num_ues, w.duration_s, w.epochs, dict(w.dataset))
        tiny = bench.tiny(w)
        assert digests.TINY == (tiny.num_ues, tiny.duration_s, tiny.epochs)
