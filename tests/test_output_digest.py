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

ECHO_FREE_TOTAL = "b2e4e7b02cdb6dde75deb28e9c0f8d7381b0b8c1f44a9e9a44448dc390ee8775"

INTERIOR_POINT_LINES = [
    "fig7_sweep interior point: 111 calls, 2131 Newton iterations, 320 refinement steps, 0 banked, largest 20",
    "oracle_battery interior point: 340 calls, 6563 Newton iterations, 1379 refinement steps, 4 banked, largest 300",
    "flow_prices interior point: 160 calls, 2911 Newton iterations, 466 refinement steps, 0 banked, largest 20",
    "two_hop_demo interior point: 11 calls, 193 Newton iterations, 33 refinement steps, 0 banked, largest 19",
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
