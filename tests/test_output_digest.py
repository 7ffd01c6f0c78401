"""Smoke test of ``tests/output_digest.py``, which certifies bit-identical
changes: it must keep running against the benchmark workloads and the
interior point's private names, its solver effort lines must hold, and it
must print its subtotals and both totals.  The echo-free total and the
subtotals of the deterministic groups are pinned, so any change to an
output's bits fails here until the new figure is recorded."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "output_digest.py"

ECHO_FREE_TOTAL = "331f4413d23f0c8a632d2f71300b8d0dc198c018eea5e0e8de7cc12d8538557c"

# The deterministic groups: the fading fig7_sweep subtotal is left free.
SUBTOTAL_LINES = [
    "oracle_battery subtotal 3016a8623346e81b77919ee14b2e6c63e7c33e0c79f77aede3885e2b26bc8c63 over 60 outputs",
    "flow_prices subtotal e6752760bd9fa49911417293d43af7c4e81bfca0786ff1f85fc85dce8db67d19 over 160 outputs",
    "two_hop_demo subtotal 6b6df133ac9ccab289e1aa2ef3d636335b17588cb192438e27b448f84fa068b3 over 4 outputs",
]

INTERIOR_POINT_LINES = [
    "fig7_sweep interior point: 111 calls, 1184 Newton iterations, 137 refinement steps, 0 banked, largest 21",
    "oracle_battery interior point: 346 calls, 3046 Newton iterations, 461 refinement steps, 0 banked, largest 88",
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
    subtotals = lines[-10:-6]
    assert subtotals[0].startswith("fig7_sweep subtotal ") and subtotals[0].endswith(" over 16 outputs")
    assert subtotals[1:] == SUBTOTAL_LINES
