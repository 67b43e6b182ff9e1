"""The benchmark's own tests, run as part of the package's test suite.

They pin the bench oracle's hand values (the quintic, the bicubic, the
hub) and check that a wrong Euler number, Hilbert coefficient or ODP
count is rejected by the bench's output checks.  The bench is
standard-library ``unittest`` code outside the pytest paths, so it runs
here in a child process, exactly as its README says to run it.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_unittests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "bench", "-p", "test_*.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
