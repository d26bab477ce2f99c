"""The benchmark harness's own tests, run as one tier-1 test.

perfbench/tests cannot join testpaths: its conftest.py would shadow this
directory's for the `from conftest import ...` lines of the tier-1 modules.
Running it in a subprocess from the repository root keeps the two apart, and
a change that renames or reshapes a traced function fails here before it
fails a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
