"""Smoke test of ``tests/output_digest.py``, which certifies bit-identical
changes: it must keep running against the benchmark workloads and the
interior point's private names, its solver effort lines must hold, and it
must print both totals.  The echo-free total is pinned, so any change to
an output's bits fails here until the new total is recorded."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "output_digest.py"

ECHO_FREE_TOTAL = "9856bd352ca6bf0f5a5a7eead40df67cad89bcfd7d651dd6769d5ff5ac1e5859"

INTERIOR_POINT_LINES = [
    "fig7_sweep interior point: 111 calls, 1181 Newton iterations, 136 refinement steps, 0 banked, largest 22",
    "oracle_battery interior point: 346 calls, 3148 Newton iterations, 563 refinement steps, 0 banked, largest 198",
    "flow_prices interior point: 160 calls, 1414 Newton iterations, 160 refinement steps, 0 banked, largest 10",
    "two_hop_demo interior point: 11 calls, 88 Newton iterations, 11 refinement steps, 0 banked, largest 8",
]


def test_output_digest_runs_and_holds_its_solver_lines():
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {**os.environ, **dict.fromkeys(threads, "1")}
    done = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1].startswith("total ") and lines[-1].endswith(" over 240 outputs")
    assert lines[-2] == f"echo-free total {ECHO_FREE_TOTAL} over 240 outputs"
    assert lines[-6:-2] == INTERIOR_POINT_LINES
