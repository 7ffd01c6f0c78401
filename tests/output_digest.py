"""Digest of every benchmark output, for checking that a change is bit-identical.

Run from the root of a checkout:

    python tests/output_digest.py

It runs one seed-1 round of each workload in ``perfbench/workloads.py``
(imported, never modified) and the four modes of ``hetnet-rrm run --scenario
two_hop_demo.scenario --seed 1``, and hashes every output: floats by their
bits, arrays by dtype, shape and bytes, dataclasses field by field, and
traces line by line.  ``RrmState`` and ``CertificateReport`` are hashed
through a projection that does not depend on how they store patterns and
members: the admissible patterns, the member patterns and the best pattern
as int8 arrays, and the members' weights as one (N, L) array.  Wall-clock
fields (``wall_ms``, and the traces' ``wall_ms`` column and summary line)
are left out.  It
prints one digest per operation, a subtotal over each workload's operations
and one over the demo runs, and a total over all of them; two checkouts that
print the same total produced the same outputs, and two that print the same
subtotal the same outputs of that group.  It also prints an
``echo-free total``, taken the same way with each trace's ``[config]`` echo
left out: a change that only edits the settings a scenario echoes (a deleted
key, a changed default) shows bit-identical numbers as an unchanged
echo-free total.  For each workload and for the demo runs it also prints how
hard the interior point worked: its calls, their Newton iterations and
refinement steps, how many returned a banked iterate, and the most Newton
iterations one call took.  These lines are not part of the total.  It is not
a pytest module.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import struct
import sys
import tempfile
from importlib import resources
from pathlib import Path

# One thread, as the benchmark runs: BLAS must not change summation orders.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from hetnet_rrm import cli, netopt  # noqa: E402
from hetnet_rrm.channel import ChannelModel  # noqa: E402
from hetnet_rrm.rrm import CertificateReport, RrmState  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

SEED = 1
MODES = ("proposed", "fbc", "fddsa", "ttrsc")


def _strip_trace(text: str, echo: bool) -> str:
    """A trace without the last (``wall_ms``) column of its iteration rows
    and its summary's ``wall_ms`` line, and without its ``[config]`` echo
    unless ``echo``."""
    lines, section = [], None
    for line in text.splitlines():
        if line.startswith("["):
            section = line
        elif section == "[iterations]" and line and not line.startswith("#"):
            line = line.rsplit(" ", 1)[0]
        elif section == "[summary]" and line.startswith("wall_ms = "):
            continue
        elif section == "[config]" and not echo:
            continue
        lines.append(line)
    return "\n".join(lines)


_STATE_FIELDS = ("shares", "weights", "rate_rows", "row_stderr", "flow", "utility", "superframe")


def _fields(value) -> list[tuple[str, object]]:
    """The ``(name, value)`` pairs a dataclass is hashed by: its fields, but
    for the optimizer state and its certificate a projection that reads the
    same whatever form their patterns and member set are stored in."""
    if isinstance(value, RrmState):
        return [
            ("patterns", np.array(value.patterns, dtype=np.int8)),
            ("member_patterns", np.array(value.patterns[value.member_index], dtype=np.int8)),
            ("member_weights", value.weight_stack[value.member_row]),
            *((name, getattr(value, name)) for name in _STATE_FIELDS),
        ]
    pairs = [(f.name, getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, CertificateReport):
        pairs = [(n, np.array(v, dtype=np.int8) if n == "best_pattern" else v) for n, v in pairs]
    return pairs


def _feed(h, value, echo: bool) -> None:
    """Add ``value`` to the hash ``h``, tagged by its kind; a trace with its
    ``[config]`` echo only if ``echo``."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        h.update(f"<{type(value).__name__}>".encode())
        for name, item in _fields(value):
            if name != "wall_ms":
                h.update(name.encode())
                _feed(h, item, echo)
    elif isinstance(value, ChannelModel):
        h.update(b"<ChannelModel>")
        for part in (value.tx_powers, value.large_gains, value.statistical_rates()):
            _feed(h, part, echo)
    elif isinstance(value, np.ndarray):
        h.update(f"<array {value.dtype.str} {value.shape}>".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (bool, np.bool_, int, np.integer)):
        h.update(f"<int {int(value)}>".encode())
    elif isinstance(value, (float, np.floating)):
        h.update(b"<float>" + struct.pack("<d", float(value)))
    elif isinstance(value, str):
        text = _strip_trace(value, echo) if value.startswith("hetnet-trace") else value
        h.update(f"<str {len(text)}>".encode() + text.encode())
    elif value is None:
        h.update(b"<None>")
    elif isinstance(value, (list, tuple)):
        h.update(f"<seq {len(value)}>".encode())
        for item in value:
            _feed(h, item, echo)
    elif isinstance(value, (set, frozenset)):
        h.update(f"<set {len(value)}>".encode())
        for item in sorted(value):
            _feed(h, item, echo)
    elif isinstance(value, dict):
        h.update(f"<dict {len(value)}>".encode())
        for key in sorted(value, key=repr):
            _feed(h, key, echo)
            _feed(h, value[key], echo)
    else:
        raise TypeError(f"no digest rule for {type(value).__name__}")


def digest(value, echo: bool = True) -> str:
    h = hashlib.sha256()
    _feed(h, value, echo)
    return h.hexdigest()


def two_hop_traces() -> list[tuple[str, str]]:
    """``hetnet-rrm run --seed 1`` on the bundled two-hop demo: each mode
    with its trace."""
    path = resources.files("hetnet_rrm").joinpath("scenarios/two_hop_demo.scenario")
    traces = []
    with tempfile.TemporaryDirectory() as tmp:
        for mode in MODES:
            out = os.path.join(tmp, f"{mode}.trace")
            argv = ["run", "--scenario", str(path), "--mode", mode, "--seed", str(SEED), "--out", out]
            code = cli.main(argv)
            if code != cli.EXIT_OK:
                raise SystemExit(f"two_hop_demo {mode}: exit code {code}")
            traces.append((mode, Path(out).read_text()))
    return traces


def counted_interior_point(results: list) -> None:
    """Make ``netopt._interior_point`` append each result it returns to
    ``results``."""
    solve = netopt._interior_point

    def counted(*args, **kwargs):
        result = solve(*args, **kwargs)
        results.append(result)
        return result

    netopt._interior_point = counted


def solver_line(name: str, results: list) -> str:
    iters = [r.newton_iters for r in results]
    return (
        f"{name} interior point: {len(results)} calls, {sum(iters)} Newton iterations, "
        f"{sum(r.refinements for r in results)} refinement steps, "
        f"{sum(r.banked for r in results)} banked, largest {max(iters, default=0)}"
    )


def main() -> int:
    total, echo_free = hashlib.sha256(), hashlib.sha256()
    count = 0
    subtotal_lines, solver_lines = [], []

    def group(name: str, outputs) -> None:
        """Digest each ``(label, output)`` of ``outputs`` as one group."""
        nonlocal count
        subtotal = hashlib.sha256()
        size = 0
        for label, output in outputs:
            line = f"{name}/{label} {digest(output)}"
            print(line)
            total.update(line.encode() + b"\n")
            subtotal.update(line.encode() + b"\n")
            echo_free.update(f"{name}/{label} {digest(output, echo=False)}\n".encode())
            size += 1
        count += size
        subtotal_lines.append(f"{name} subtotal {subtotal.hexdigest()} over {size} outputs")

    results: list = []
    counted_interior_point(results)
    for name, workload in WORKLOADS.items():
        operations = workload(SEED).operations()
        results.clear()  # set-up solves are not part of the round
        group(name, ((label, operation()) for label, operation in operations))
        solver_lines.append(solver_line(name, results))
    results.clear()
    group("two_hop_demo", two_hop_traces())
    solver_lines.append(solver_line("two_hop_demo", results))
    print("\n".join(subtotal_lines + solver_lines))
    print(f"echo-free total {echo_free.hexdigest()} over {count} outputs")
    print(f"total {total.hexdigest()} over {count} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
