"""Rewrite bench/goldens.json from the current program's CLI output.

    python3 bench/freeze_goldens.py

Run from a checkout whose output is known to be right; the benchmark
compares every later run against what this records.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.freeze_goldens()
