"""Run traces: the line-oriented record of one experiment run.  The package
writes them (:func:`format_trace`); only the tests read them back (``tests/trace_reader.py``).

A trace (header ``hetnet-trace v1``) carries a verbatim echo of the scenario
that produced it (every config line prefixed with ``> `` so the echo cannot
collide with trace sections), one ``[iterations]`` row per superframe and a
``[summary]`` block with the convergence verdict, the optimality certificate
and the whole run's ``wall_ms``, which also counts the initial state and the
final pass that no row's ``wall_ms`` covers.  Rates are written in bits per
subframe; the utility column is the objective value itself.  In
deterministic mode the wall-clock column and ``wall_ms`` are forced to zero
so reruns of the same scenario and seed are byte-identical.
"""

from __future__ import annotations

import math

from .rrm import RrmResult
from .scenario import Scenario, dump_scenario

TRACE_HEADER = "hetnet-trace v1"
BITS_PER_NAT = 1.0 / math.log(2.0)


def _fmt(value: float) -> str:
    return repr(float(value))


def _vec(values) -> str:
    return ",".join(_fmt(v) for v in values) if len(values) else "-"


def format_trace(scenario: Scenario, mode: str, seed: int, result: RrmResult) -> str:
    """Serialize one run; the config echo plus meta seed and mode are enough
    to reproduce it exactly."""
    zero_wall = scenario.deterministic
    out = [TRACE_HEADER, "", "[config]"]
    out += [f"> {line}" if line else ">" for line in dump_scenario(scenario).splitlines()]
    out += [
        "",
        "[meta]",
        f"mode = {mode}",
        f"seed = {seed}",
        f"deterministic = {'true' if scenario.deterministic else 'false'}",
        "",
        "[iterations]",
        "# i utility members shares flow_rates_bits served_rates_bits wall_ms",
    ]
    for rec in result.records:
        wall = 0.0 if zero_wall else rec.wall_ms
        out.append(
            " ".join(
                [
                    str(rec.index),
                    _fmt(rec.utility),
                    str(rec.n_members),
                    _vec(rec.shares),
                    _vec(rec.flow_rates * BITS_PER_NAT),
                    _vec(rec.served_rates * BITS_PER_NAT),
                    _fmt(wall),
                ]
            )
        )
    cert = result.certificate
    out += [
        "",
        "[summary]",
        f"converged = {'true' if result.converged else 'false'}",
        f"superframes = {len(result.records)}",
        f"utility = {_fmt(result.utility)}",
        f"certificate_gap = {_fmt(cert.gap)}",
        f"certificate_tolerance = {_fmt(cert.tolerance)}",
        f"wall_ms = {_fmt(0.0 if zero_wall else result.wall_ms)}",
        "",
    ]
    return "\n".join(out)
