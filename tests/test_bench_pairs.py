"""``scripts/bench_pairs.py``: the no-regression verdict per end-to-end metric
and the exit status on artifact digests, without running the benchmark."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load():
    path = ROOT / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load()


@pytest.mark.parametrize(
    "parent, change, sign, want",
    [
        ([1.0, 1.0, 1.0, 1.0], [1.3, 1.3, 1.3, 1.3], 1.0, "regression"),
        ([1.0, 1.0, 1.0, 1.0], [1.2, 1.2, 1.2, 1.2], 1.0, "no regression"),
        ([10.0, 10.0, 10.0], [7.0, 7.0, 7.0], -1.0, "regression"),  # higher is better
        ([0.5, 1.0, 1.5, 2.0], [1.0, 1.0, 1.0, 1.0], 1.0, "unresolved"),
        ([0.5, 1.0, 1.5, 2.0], [0.1, 0.1, 0.2, 0.2], 1.0, "no regression"),  # all runs better
    ],
)
def test_regression_verdict(parent, change, sign, want):
    assert bench_pairs.regression_verdict(parent, change, sign, 0.25) == want


def _fake_runs(monkeypatch, digests):
    """``run_once`` returning fixed metrics and, per call, the next digest map."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": 1.0} for m in contract["end_to_end"]}
    calls = iter(digests)
    monkeypatch.setattr(
        bench_pairs, "run_once", lambda *a: ({"failed": 0, "metrics": metrics}, next(calls))
    )


def test_exit_status_follows_the_digests(monkeypatch, capsys):
    same = {"data set 1000": "ab"}
    _fake_runs(monkeypatch, [same] * 4)
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--workload", "ref-los", "--seed", "1"]
    argv += ["--pairs", "2"]
    assert bench_pairs.main(argv) == 0
    assert "no regression" in capsys.readouterr().out
    # the sides differ: the first side of a pair alternates, parent first in pair 0
    other = {"data set 1000": "cd"}
    _fake_runs(monkeypatch, [same, other, other, same])
    assert bench_pairs.main(argv) == 1
    # the hint that names the tool which tells a config_hash-only difference apart
    assert "scripts/artifact_digests.py" in capsys.readouterr().out
    # both sides gave the data set the same two digests: no difference, yet unstable
    _fake_runs(monkeypatch, [same, same, {"data set 1000": "cd"}, {"data set 1000": "cd"}])
    assert bench_pairs.main(argv) == 1
    assert "config_hash" not in capsys.readouterr().out
