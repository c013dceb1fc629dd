"""The benchmark's self-check passes: every traced binding resolves and every
workload's output checks hold on the current code."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selfcheck_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
