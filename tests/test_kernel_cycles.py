"""Smoke test of tools/kernel_cycles.py at a small n: the structure of its
output only, no timing."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_row_per_n_under_the_header():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "kernel_cycles.py"), "--n", "8", "--n", "9", "--repeats", "1"],
        capture_output=True, text=True, check=True,
    )
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["n", "m", "reordered", "cycle_ms", "pass_us", "check_per_pass"]
    assert [row.split()[0] for row in rows] == ["8", "9"]
    for row in rows:
        n, m, reordered, *times = row.split()
        assert int(m) >= round(4.3 * int(n)) and 0 <= int(reordered) <= int(m)
        assert all(float(t) > 0.0 for t in times)
