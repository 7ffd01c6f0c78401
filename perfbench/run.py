"""Benchmark of the hetnet-rrm program: one workload per call.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig7_sweep --seed 1 --seconds 30 --trace 0

The program is imported from the checkout's ``src``.  Set-up time is taken
from fresh interpreters started by this script; then whole rounds of the
workload's fixed operations run until ``--seconds`` would be exceeded.  Every
timed span is scaled to seconds at reference speed by the calibration kernel
sampled next to it (see ``calib.py``).  With ``--trace 1`` untraced and
traced rounds alternate and the per-layer metrics are reported instead.  The
last line of standard output is one JSON object; a fuller record goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

# One process on one thread: BLAS must not fan out over the host's cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path[:0] = [str(SRC), str(HERE)]

# Layers whose self time is reported, and those whose call count is.
LAYER_TIMES = (
    "channel.rate_block", "channel.pattern_draws", "phy.schedule_links",
    "phy.station_contributions", "phy.rate_table_for_patterns",
    "phy.enumerate_feasible_patterns", "netopt.solve_p1", "netopt.optimize_time_sharing",
    "rrm.run_superframe", "rrm.certificate", "baselines.run_fddsa", "oracle.vertex_rate_rows",
    "scenario.parse_scenario", "scenario.with_param", "trace.format_trace",
)
LAYER_CALLS = (
    "channel.rate_block", "phy.schedule_links", "phy.station_contributions", "netopt.solve_p1",
    "netopt.optimize_time_sharing", "rrm.run_superframe", "rrm.certificate",
)
LAYER_COUNTS = (
    "channel.rate_block.subframes", "netopt.optimize_time_sharing.inner_solves",
    "rrm.superframes", "oracle.vertices", "trace.bytes",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fig7_sweep", "oracle_battery", "flow_prices"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    args.seed %= 2**32  # numpy seeds must be non-negative
    return args


def setup_probe(args) -> int:
    """Child side of the set-up measurement: import, build, report when ready."""
    from workloads import WORKLOADS

    WORKLOADS[args.workload](args.seed)
    print(json.dumps({"ready": time.perf_counter()}))
    return 0


def measure_setup(args) -> tuple[float, list[dict]]:
    """Median calibrated set-up time over fresh interpreters.

    ``perf_counter`` is the system-wide monotonic clock, so the child's ready
    time and this process's start time are comparable.  Each probe is scaled
    by the start-up yardstick timed just before and just after it.  The
    median discards the slow first probe of a fresh checkout, which compiles
    bytecode.
    """
    import calib

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"]
    probes = []
    before = calib.time_startup()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        raw = json.loads(done.stdout.strip().splitlines()[-1])["ready"] - start
        after = calib.time_startup()
        yardstick = 0.5 * (before + after)
        before = after
        calibrated = raw * calib.REFERENCE_STARTUP_S / yardstick
        probes.append({"raw_s": raw, "calibrated_s": calibrated, "yardstick_s": yardstick})
    return statistics.median(p["calibrated_s"] for p in probes), probes


class Round:
    """Figures of one pass over the workload's operations (or of the set-up)."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.raw_s = 0.0
        self.calibrated_s = 0.0
        self.op_ms: list[float] = []
        self.kernel_s: list[float] = []
        self.failed = 0
        self.layer_self_s: dict[str, float] = defaultdict(float)
        self.layer_calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.solve_us: list[float] = []
        self.signatures: dict[str, tuple] = {}

    def add_span(self, calibrator, pieces, layers, counts) -> None:
        """Account one closed span; its layer times take the span's factor."""
        raw = sum(piece for piece, _ in pieces)
        calibrated = calibrator.calibrated(pieces)
        factor = calibrated / raw if raw > 0 else 1.0
        self.raw_s += raw
        self.calibrated_s += calibrated
        self.op_ms.append(calibrated * 1e3)
        for name, stats in layers.items():
            self.layer_self_s[name] += stats.self_s * factor
            self.layer_calls[name] += stats.calls
            if name == "netopt.solve_p1":
                self.solve_us += [d * factor * 1e6 for d in stats.durations]
        for name, value in counts.items():
            self.counts[name] += value


def timed(tracer, traced: bool, calls) -> tuple[Round, list]:
    """Run ``calls`` (label, callable) as separately timed spans."""
    from calib import Calibrator

    figures = Round(traced)
    calibrator = Calibrator()
    tracer.clock = calibrator.now
    spans, results = [], []
    calibrator.start()
    tracer.enabled = traced
    for label, call in calls:
        calibrator.begin()
        try:
            output = call()
        except Exception:  # one failed operation must not end the run
            output = None
            traceback.print_exc(file=sys.stderr)
        pieces = calibrator.end()
        spans.append((pieces, *tracer.take()))
        results.append((label, output))
    tracer.enabled = False
    calibrator.stop()
    for span in spans:
        figures.add_span(calibrator, *span)
    figures.kernel_s = calibrator.samples
    return figures, results


def run_round(workload, ops, tracer, traced: bool, outputs: dict) -> Round:
    figures, results = timed(tracer, traced, ops)
    for label, output in results:
        if output is None:
            figures.failed += 1
        else:
            outputs[label] = output
            figures.signatures[label] = workload.signature(output)
    return figures


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(setup: Round, traced: list[Round], untraced: list[Round], problems: list[str]) -> dict:
    """Per-layer figures: the traced set-up plus the median traced round.

    Counts must repeat exactly from one traced round to the next, except
    ``trace.bytes``: fading-mode traces carry wall-clock columns.
    """
    first = traced[0]

    def exact(r: Round) -> tuple:
        return r.layer_calls, {k: v for k, v in r.counts.items() if k != "trace.bytes"}

    if any(exact(other) != exact(first) for other in traced[1:]):
        problems.append("traced rounds disagree on call counts")
    metrics = {}
    for name in LAYER_TIMES:
        rounds = statistics.median(r.layer_self_s.get(name, 0.0) for r in traced)
        metrics[f"{name}.self_ms"] = ((setup.layer_self_s.get(name, 0.0) + rounds) * 1e3, "ms")
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = (setup.layer_calls.get(name, 0) + first.layer_calls.get(name, 0), "count")
    for name in LAYER_COUNTS:
        metrics[name] = (setup.counts.get(name, 0) + first.counts.get(name, 0), "count")
    solve_us = [d for r in traced for d in r.solve_us]
    metrics["netopt.solve_p1.p50_us"] = (statistics.median(solve_us) if solve_us else 0.0, "us")
    metrics["netopt.solve_p1.p99_us"] = (percentile(solve_us, 0.99) if solve_us else 0.0, "us")
    kernel = [k for r in traced + untraced for k in r.kernel_s]
    metrics["bench.calib_ms"] = (statistics.median(kernel) * 1e3, "ms")
    metrics["bench.raw_wall_s"] = (statistics.median(r.raw_s for r in untraced), "s")
    metrics["bench.traced_raw_wall_s"] = (statistics.median(r.raw_s for r in traced), "s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hetnet_rrm" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)

    setup_s, probes = measure_setup(args)

    from tracing import Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    if args.trace:
        tracer.install()
    # Build the inputs once more in this process; traced, this is where the
    # set-up layers (parsing, pattern and path enumeration) are seen.
    setup, built = timed(tracer, bool(args.trace), [("setup", lambda: WORKLOADS[args.workload](args.seed))])
    workload = built[0][1]
    if workload is None:
        print("perfbench: building the workload's inputs failed", file=sys.stderr)
        return 1

    ops = workload.operations()
    outputs: dict = {}
    rounds: list[Round] = []
    durations: list[float] = []
    began = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        round_start = time.perf_counter()
        rounds.append(run_round(workload, ops, tracer, traced, outputs))
        durations.append(time.perf_counter() - round_start)
        enough = len(rounds) >= (2 if args.trace else 1)
        if enough and time.perf_counter() - began + max(durations[-2:]) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems: list[str] = []
    if any(r.signatures != rounds[0].signatures for r in rounds[1:]):
        problems.append("a repeated round gave different outputs")
    attempted = len(ops) * len(rounds)
    failed = sum(r.failed for r in rounds)
    problems += workload.check(outputs)

    untraced = [r for r in rounds if not r.traced]
    if args.trace:
        traced_rounds = [r for r in rounds if r.traced]
        for name in workload.spans:
            if setup.layer_calls.get(name, 0) + traced_rounds[0].layer_calls.get(name, 0) == 0:
                problems.append(f"span {name} never fired (patched at {tracer.sites.get(name, 0)} sites)")
        metrics = layer_metrics(setup, traced_rounds, untraced, problems)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(r.calibrated_s for r in untraced), "s"),
            "op_p50_ms": (statistics.median(ms for r in untraced for ms in r.op_ms), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    import calib

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "reference_kernel_s": calib.REFERENCE_KERNEL_S,
        "setup_probes": probes, "inline_setup_calibrated_s": setup.calibrated_s,
        "labels": [label for label, _ in ops],
        "rounds": [
            {"traced": r.traced, "raw_s": r.raw_s, "calibrated_s": r.calibrated_s,
             "op_ms": r.op_ms, "kernel_ms_median": statistics.median(r.kernel_s) * 1e3,
             "kernel_samples": len(r.kernel_s), "failed": r.failed}
            for r in rounds
        ],
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "problems": problems,
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} attempted = {attempted} failed = {failed} rounds = {len(rounds)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
