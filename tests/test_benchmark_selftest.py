"""The benchmark's own self-test, run as part of the test suite.

The benchmark's tracer wraps terraslope's public functions from outside and
its self-test asserts call nesting inside the library (for example that
``correction.correct`` calls ``slope.window_stack``), so a library refactor
that breaks those assumptions fails here rather than at benchmark time.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_self_test_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--self-test"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test ok" in proc.stdout
