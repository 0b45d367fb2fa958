"""The benchmark harness still runs against the package in src/."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selfcheck_passes():
    # the self-check runs every workload shrunk, through the names the
    # benchmark wraps (inst_values_batch, winst_values_batch, ...)
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "selfcheck.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
