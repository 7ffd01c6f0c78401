"""The traced benchmark's rules, checked on ``fig7_sweep`` in a fresh
interpreter.

``perfbench/run.py --trace 1`` builds the workload traced, runs untraced and
traced rounds in turn, and reports ``correct: false`` when a span its
workload names fires neither in set-up nor in the first traced round, or
when two traced rounds count different calls.  A change that moves work out
of the rounds (a cache that outlives one operation, say) breaks the first
rule while every output stays bit-identical, so this test runs the same
sequence: set-up traced, one untraced round, two traced rounds.  It reads
``perfbench/`` and writes nothing there (no bytecode either).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.dont_write_bytecode = True
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
from tracing import Tracer
from workloads import Fig7Sweep

tracer = Tracer()
tracer.install()
tracer.enabled = True
workload = Fig7Sweep(1)
tracer.enabled = False
setup, _ = tracer.take()
operations = workload.operations()
outputs = {label: operation() for label, operation in operations}
rounds = []
for _ in range(2):
    tracer.enabled = True
    signatures = {}
    for label, operation in operations:
        outputs[label] = operation()
        signatures[label] = workload.signature(outputs[label])
    tracer.enabled = False
    layers, counts = tracer.take()
    calls = {name: stats.calls for name, stats in layers.items()}
    rounds.append({"calls": calls, "counts": counts, "signatures": repr(signatures)})
print(json.dumps({
    "spans": list(workload.spans),
    "setup": {name: stats.calls for name, stats in setup.items()},
    "rounds": rounds,
    "problems": workload.check(outputs),
}))
"""


def test_traced_fig7_sweep_fires_every_span_and_repeats_its_counts():
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {**os.environ, **dict.fromkeys(threads, "1"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT)], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout.splitlines()[-1])
    first, second = record["rounds"]
    silent = [
        name for name in record["spans"]
        if record["setup"].get(name, 0) + first["calls"].get(name, 0) == 0
    ]
    assert not silent, f"spans that never fired in set-up or the first traced round: {silent}"
    assert first["calls"] == second["calls"]
    for counts in (first["counts"], second["counts"]):
        counts.pop("trace.bytes", None)  # fading traces carry wall-clock columns
    assert first["counts"] == second["counts"]
    assert first["signatures"] == second["signatures"]
    assert record["problems"] == []
