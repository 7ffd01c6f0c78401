"""Directed HetNet topology: nodes, links, flows and interference structure.

A network is a directed graph whose transmitting endpoints are always base
stations (macro or pico).  User nodes only receive.  Data flows enter the
network at backhaul-connected base stations and terminate at user nodes,
possibly relayed over several wireless hops.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, wraps
from typing import Callable, TypeVar

import numpy as np

_T = TypeVar("_T")


class NodeKind(str, Enum):
    MACRO = "macro"
    PICO = "pico"
    USER = "user"

    @property
    def is_base_station(self) -> bool:
        return self is not NodeKind.USER


@dataclass(frozen=True)
class Node:
    index: int
    kind: NodeKind
    position: tuple[float, float]


@dataclass(frozen=True)
class Link:
    """Directed link ``head -> tail``.  ``head`` transmits, ``tail`` receives.

    ``wired_capacity`` marks a wired link with a fixed rate (in nats per
    subframe) that bypasses the radio entirely; ``None`` means wireless.
    """

    index: int
    head: int
    tail: int
    wired_capacity: float | None = None

    @property
    def is_wired(self) -> bool:
        return self.wired_capacity is not None


@dataclass(frozen=True)
class Flow:
    index: int
    source: int
    destination: int


@dataclass(frozen=True, eq=False)
class TopologyGraph:
    """Immutable network description.

    ``interference`` is a symmetric boolean matrix over base stations (in
    ``bs_nodes`` order): entry (i, j) is True when BS i and BS j may not
    transmit in the same subframe.
    """

    nodes: tuple[Node, ...]
    links: tuple[Link, ...]
    flows: tuple[Flow, ...]
    backhaul: frozenset[int]
    interference: np.ndarray = field(repr=False)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_links(self) -> int:
        return len(self.links)

    @property
    def num_flows(self) -> int:
        return len(self.flows)

    @cached_property
    def bs_nodes(self) -> tuple[int, ...]:
        """Node indices of base stations, ascending; DTX patterns use this order."""
        return tuple(n.index for n in self.nodes if n.kind.is_base_station)

    @property
    def num_bs(self) -> int:
        return len(self.bs_nodes)

    @cached_property
    def wireless_links(self) -> tuple[int, ...]:
        return tuple(l.index for l in self.links if not l.is_wired)

    @cached_property
    def wired_links(self) -> tuple[int, ...]:
        return tuple(l.index for l in self.links if l.is_wired)

    @cached_property
    def out_links(self) -> tuple[tuple[int, ...], ...]:
        """Indices of the links each node transmits, by node index, ascending
        as the links are stored; a user node transmits none."""
        out: list[list[int]] = [[] for _ in self.nodes]
        for l in self.links:
            out[l.head].append(l.index)
        return tuple(map(tuple, out))

    @cached_property
    def station_links(self) -> tuple[np.ndarray, ...]:
        """Outgoing wireless link indices of each base station, in ``bs_nodes``
        order (read-only arrays; the schedulers index with them)."""
        out = []
        for node in self.bs_nodes:
            links = np.array([l for l in self.out_links[node] if not self.links[l].is_wired], dtype=int)
            links.setflags(write=False)
            out.append(links)
        return tuple(out)

    @cached_property
    def link_station(self) -> np.ndarray:
        """Slot in ``bs_nodes`` of each link's transmitting station (read-only)."""
        slot = {n: i for i, n in enumerate(self.bs_nodes)}
        owner = np.array([slot[link.head] for link in self.links], dtype=int)
        owner.setflags(write=False)
        return owner

    def wired_base_capacity(self) -> np.ndarray:
        """Length-L vector: wired capacity where wired, 0 on wireless links."""
        base = np.zeros(self.num_links)
        for l in self.links:
            if l.is_wired:
                base[l.index] = l.wired_capacity
        return base


def per_graph(build: Callable[[TopologyGraph], _T]) -> Callable[[TopologyGraph], _T]:
    """``build(graph)`` built once per graph object and dropped with the graph
    (graphs hash by identity); a build that raises keeps nothing."""
    built: weakref.WeakKeyDictionary[TopologyGraph, _T] = weakref.WeakKeyDictionary()

    @wraps(build)
    def cached(graph: TopologyGraph) -> _T:
        if graph not in built:
            built[graph] = build(graph)
        return built[graph]

    return cached


def interference_from_positions(
    nodes: tuple[Node, ...],
    macro_radius: float,
    pico_radius: float,
) -> np.ndarray:
    """Geometric conflict rule: two base stations interfere when their distance
    is below the larger of their coverage radii."""
    bs = [n for n in nodes if n.kind.is_base_station]
    radius = {NodeKind.MACRO: macro_radius, NodeKind.PICO: pico_radius}
    m = np.zeros((len(bs), len(bs)), dtype=bool)
    for i, a in enumerate(bs):
        for j in range(i + 1, len(bs)):
            b = bs[j]
            dist = float(np.hypot(a.position[0] - b.position[0], a.position[1] - b.position[1]))
            if dist < max(radius[a.kind], radius[b.kind]):
                m[i, j] = m[j, i] = True
    return m


def _reachable(graph: TopologyGraph, source: int) -> set[int]:
    adj: dict[int, list[int]] = {n.index: [] for n in graph.nodes}
    for l in graph.links:
        if l.head in adj and l.tail in adj:  # validate reports the others
            adj[l.head].append(l.tail)
    seen = {source}
    stack = [source]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def validate(graph: TopologyGraph) -> list[str]:
    """Check structural rules; returns human-readable violations (empty = valid)."""
    problems: list[str] = []
    for i, node in enumerate(graph.nodes):
        if node.index != i:
            problems.append(f"node {node.index} stored at position {i}; indices must be 0..N-1 in order")
    for i, link in enumerate(graph.links):
        if link.index != i:
            problems.append(f"link {link.index} stored at position {i}; indices must be 0..L-1 in order")
        if not (0 <= link.head < graph.num_nodes and 0 <= link.tail < graph.num_nodes):
            problems.append(f"link {link.index} endpoint out of range")
            continue
        if link.head == link.tail:
            problems.append(f"link {link.index} is a self-loop")
        if not graph.nodes[link.head].kind.is_base_station:
            problems.append(f"link {link.index} transmits from user node {link.head}")
        if link.is_wired and not 0 < link.wired_capacity < np.inf:
            problems.append(f"link {link.index} wired capacity must be finite and positive")

    for node in graph.nodes:
        if node.kind is NodeKind.MACRO and node.index not in graph.backhaul:
            problems.append(f"macro BS {node.index} is not backhaul-connected")
    for n in graph.backhaul:
        if not (0 <= n < graph.num_nodes) or not graph.nodes[n].kind.is_base_station:
            problems.append(f"backhaul entry {n} is not a base station")

    for flow in graph.flows:
        src, dst = flow.source, flow.destination
        if not (0 <= src < graph.num_nodes) or not graph.nodes[src].kind.is_base_station:
            problems.append(f"flow {flow.index} source {src} is not a base station")
            continue
        if src not in graph.backhaul:
            problems.append(f"flow {flow.index} source {src} is not backhaul-connected")
        if not (0 <= dst < graph.num_nodes) or graph.nodes[dst].kind is not NodeKind.USER:
            problems.append(f"flow {flow.index} destination {dst} is not a user node")
            continue
        if dst not in _reachable(graph, src):
            problems.append(f"flow {flow.index} destination {dst} unreachable from source {src}")

    b = graph.num_bs
    if graph.interference.shape != (b, b):
        problems.append(f"interference matrix shape {graph.interference.shape}, expected {(b, b)}")
    else:
        if graph.interference.dtype != np.bool_:
            problems.append("interference matrix must be boolean")
        else:
            if np.any(np.diag(graph.interference)):
                problems.append("interference matrix has a True diagonal entry")
            if not np.array_equal(graph.interference, graph.interference.T):
                problems.append("interference matrix is not symmetric")
    return problems
