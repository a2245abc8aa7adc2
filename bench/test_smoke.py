"""Smoke test of the benchmark itself: every workload once at a tiny size.

Run from the repository root with ``python -m pytest bench``.  It is kept
out of the package's test suite, which collects ``tests/`` only.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_results_match_the_benchmark_schema():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.strip().splitlines()[-1] == "smoke: ok"
