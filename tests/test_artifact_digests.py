"""``scripts/artifact_digests.py`` at tiny size: one checkout against itself
runs the whole matrix and finds every artifact byte-identical; and the
classification of the files that differ."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "artifact_digests.py"


def test_a_checkout_matches_itself():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", str(ROOT), "--change", str(ROOT), "--tiny"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert last.endswith(", 0 differ, 0 of them in config_hash only, 8 runs a side"), last
    assert not last.startswith("0 files"), last


def test_differences_name_the_files_that_differ_only_in_config_hash():
    spec = importlib.util.spec_from_file_location("artifact_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    parent = {"same": ["a", "m"], "hash": ["b", "n"], "content": ["c", "o"], "gone": ["d", "p"]}
    change = {"same": ["a", "m"], "hash": ["B", "n"], "content": ["C", "O"], "new": ["e", "q"]}
    assert module.differences(parent, change) == [
        ("content", False), ("gone", False), ("hash", True), ("new", False)
    ]
