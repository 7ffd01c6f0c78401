"""Exhaustive reference optimizer for small deterministic networks.

Where the adaptive scheme discovers scheduled patterns greedily, the oracle
enumerates every vertex of the achievable wireless rate region: each
admissible pattern combined with every assignment of one served link per
active station.  With a deterministic channel each vertex row is exact, and
subband-splitting schedules are convex combinations of these pure assignments,
so optimizing time shares over the enumerated rows solves the full problem.

Enumeration cost grows multiplicatively with network size, so the oracle
refuses anything beyond a desk-check scale instead of silently taking hours.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel
from .netopt import FlowSolution, UtilitySpec, optimize_time_sharing
from .phy import enumerate_feasible_patterns
from .topology import TopologyGraph

MAX_ORACLE_BS = 6
MAX_ORACLE_WIRELESS_LINKS = 12
MAX_ORACLE_PATTERNS = 16


class OracleScaleError(RuntimeError):
    """The network exceeds the size the exhaustive oracle will attempt."""


@dataclass(frozen=True)
class OracleSolution:
    utility: float
    shares: np.ndarray
    rate_rows: np.ndarray
    flow: FlowSolution
    n_vertices: int


def check_oracle_scale(graph: TopologyGraph, patterns: np.ndarray) -> None:
    if graph.num_bs > MAX_ORACLE_BS:
        raise OracleScaleError(f"{graph.num_bs} base stations exceed oracle cap {MAX_ORACLE_BS}")
    n_wireless = len(graph.wireless_links)
    if n_wireless > MAX_ORACLE_WIRELESS_LINKS:
        raise OracleScaleError(
            f"{n_wireless} wireless links exceed oracle cap {MAX_ORACLE_WIRELESS_LINKS}"
        )
    if len(patterns) > MAX_ORACLE_PATTERNS:
        raise OracleScaleError(
            f"{len(patterns)} patterns exceed oracle cap {MAX_ORACLE_PATTERNS}"
        )


def vertex_rate_rows(model: ChannelModel) -> np.ndarray:
    """Every pattern x served-link assignment as a deterministic rate row.

    Requires a deterministic channel: rows are then exact conditional rates
    rather than Monte Carlo estimates.  Duplicate rows are dropped.
    """
    if not model.deterministic:
        raise ValueError("the exhaustive oracle only supports deterministic channels")
    graph = model.graph
    patterns = enumerate_feasible_patterns(graph.interference)
    check_oracle_scale(graph, patterns)
    link_rates = model.rate_block(0, 1)[0].sum(axis=1)  # (L,) nats over subbands

    rows: list[np.ndarray] = []
    for pattern in patterns:
        choices = [list(cand) for on, cand in zip(pattern, graph.station_links) if on and cand.size]
        if not choices:
            rows.append(np.zeros(graph.num_links))
            continue
        for combo in itertools.product(*choices):
            row = np.zeros(graph.num_links)
            row[list(combo)] = link_rates[list(combo)]
            rows.append(row)
    return np.unique(np.array(rows), axis=0)


def oracle_solve(model: ChannelModel, utility: UtilitySpec) -> OracleSolution:
    """Utility-optimal time sharing over the exhaustively enumerated vertices."""
    rows = vertex_rate_rows(model)
    graph = model.graph
    shares, flow = optimize_time_sharing(
        rows,
        graph,
        utility,
        tol=1e-7,
        base_capacity=graph.wired_base_capacity(),
    )
    return OracleSolution(
        utility=flow.utility,
        shares=shares,
        rate_rows=rows,
        flow=flow,
        n_vertices=rows.shape[0],
    )
