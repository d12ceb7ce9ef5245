"""``scripts/artifact_digests.py`` at tiny size: one checkout against itself
runs the whole matrix and finds every artifact byte-identical."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_checkout_matches_itself():
    script = ROOT / "scripts" / "artifact_digests.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--parent", str(ROOT), "--change", str(ROOT), "--tiny"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert last.endswith(", 0 differ, 16 runs a side") and not last.startswith("0 files"), last
