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

ECHO_FREE_TOTAL = "1424b4f02b1fce04e7e25793e342fbdeca4b5c09418645305efcc5c572d82d1e"

# The deterministic groups: the fading fig7_sweep subtotal is left free.
SUBTOTAL_LINES = [
    "oracle_battery subtotal df8b584443de610029e572f67429fb8789921d35a6418d11d3423cd8f2f5f226 over 60 outputs",
    "flow_prices subtotal 635a936530c221270ec151236042abac3ed10fa0a7a3b936a9b719ad4029bd45 over 160 outputs",
    "two_hop_demo subtotal 99e3b559052271f1a87e92aa3c92149f117a63cba7da3706b0d77268c175bda4 over 4 outputs",
]

INTERIOR_POINT_LINES = [
    "fig7_sweep interior point: 111 calls, 1183 Newton iterations, 137 refinement steps, 0 banked, largest 22",
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
    subtotals = lines[-10:-6]
    assert subtotals[0].startswith("fig7_sweep subtotal ") and subtotals[0].endswith(" over 16 outputs")
    assert subtotals[1:] == SUBTOTAL_LINES
