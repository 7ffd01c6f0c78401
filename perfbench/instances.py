"""Seeded inputs for the benchmark's workloads.

The instance family is built here rather than borrowed from the test suite,
so editing a test never changes a workload.  Every instance comes from a
fixed template: the template fixes the station layout class, which stations
have backhaul, how many users each station serves and which users are shared
between two relay stations.  The seed moves stations and users within ranges
that keep the interference graph, the link set and the path sets of the
template, so gains, capacities and prices change with the seed while the
size of every flow and pattern problem does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hetnet_rrm import phy
from hetnet_rrm.channel import ChannelModel
from hetnet_rrm.topology import (
    Flow,
    Link,
    Node,
    NodeKind,
    TopologyGraph,
    interference_from_positions,
    validate,
)

MACRO_SPACING_M = 600.0
MACRO_RADIUS_M = 420.0
PICO_RADIUS_M = 260.0
SUBBANDS = 3
P_MACRO_DBM = 40.0
P_PICO_DBM = 33.0

# Oracle size caps the instances must stay inside (see hetnet_rrm.oracle).
MAX_BS = 6
MAX_WIRELESS_LINKS = 12
MAX_PATTERNS = 16


@dataclass(frozen=True)
class Template:
    """One structural class of instance.

    ``picos`` lists ``(anchor macro, has backhaul)`` per pico; ``users`` gives
    the number of private users per base station in station order (macros
    first); ``shared_users`` adds users served by both relay picos of the
    first macro, which gives their flows two disjoint wireless paths.
    """

    n_macro: int
    picos: tuple[tuple[int, bool], ...]
    users: tuple[int, ...]
    shared_users: int = 0


TEMPLATES = (
    Template(1, ((0, False),), (2, 1)),
    Template(1, ((0, True),), (1, 2)),
    Template(1, ((0, False), (0, True)), (1, 1, 2)),
    Template(1, ((0, False), (0, False)), (1, 1, 1), shared_users=1),
    Template(2, ((0, False),), (1, 1, 2)),
    Template(2, ((1, True),), (2, 1, 1)),
    Template(2, ((0, False), (1, False)), (1, 1, 1, 1)),
    Template(2, ((0, True), (1, False)), (1, 2, 1, 1)),
    Template(2, ((0, False), (0, True), (1, False), (1, True)), (1, 1, 1, 1, 1, 1)),
    Template(1, ((0, False), (0, False)), (2, 1, 1), shared_users=1),
)


def _polar(center: tuple[float, float], radius: float, angle: float) -> tuple[float, float]:
    return (center[0] + radius * math.cos(angle), center[1] + radius * math.sin(angle))


def _pico_angle(template: Template, anchor: int, rank: int, rng: np.random.Generator) -> float:
    """Direction of a pico from its anchor macro.

    With two macros each pico faces away from the other macro, so it
    conflicts with its own macro only.  Two picos of one macro point at least
    90 degrees apart, which at 200 m or more from the macro keeps them out of
    each other's conflict radius.
    """
    siblings = sum(1 for a, _ in template.picos if a == anchor)
    if template.n_macro == 2:
        base = math.pi if anchor == 0 else 0.0
        offset = 0.0 if siblings == 1 else (-1.0) ** rank * math.pi / 3
        return base + offset + rng.uniform(-math.pi / 12, math.pi / 12)
    return math.pi / 2 + rank * math.pi + rng.uniform(-math.pi / 6, math.pi / 6)


def build_instance(template: Template, rng: np.random.Generator) -> TopologyGraph:
    nodes: list[Node] = []
    for i in range(template.n_macro):
        nodes.append(Node(len(nodes), NodeKind.MACRO, (MACRO_SPACING_M * i, 0.0)))
    anchors: list[int] = []
    backhaul = set(range(template.n_macro))
    rank_of_anchor: dict[int, int] = {}
    for anchor, wired in template.picos:
        rank = rank_of_anchor.get(anchor, 0)
        rank_of_anchor[anchor] = rank + 1
        angle = _pico_angle(template, anchor, rank, rng)
        position = _polar(nodes[anchor].position, rng.uniform(200.0, 320.0), angle)
        nodes.append(Node(len(nodes), NodeKind.PICO, position))
        anchors.append(anchor)
        if wired:
            backhaul.add(nodes[-1].index)
    n_bs = len(nodes)

    links: list[Link] = []
    flows: list[Flow] = []
    for pico, anchor in zip(range(template.n_macro, n_bs), anchors):
        if pico not in backhaul:
            links.append(Link(len(links), anchor, pico))

    def add_user(position: tuple[float, float], servers: list[int]) -> None:
        user = len(nodes)
        nodes.append(Node(user, NodeKind.USER, position))
        for bs in servers:
            links.append(Link(len(links), bs, user))
        source = servers[0] if servers[0] in backhaul else anchors[servers[0] - template.n_macro]
        flows.append(Flow(len(flows), source, user))

    for bs, count in enumerate(template.users):
        for _ in range(count):
            position = _polar(
                nodes[bs].position, rng.uniform(30.0, 120.0), rng.uniform(0.0, 2 * math.pi)
            )
            add_user(position, [bs])
    relays = [
        p for p in range(template.n_macro, n_bs)
        if p not in backhaul and anchors[p - template.n_macro] == 0
    ]
    for _ in range(template.shared_users):
        a, b = nodes[relays[0]].position, nodes[relays[1]].position
        mid = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
        add_user(_polar(mid, rng.uniform(0.0, 60.0), rng.uniform(0.0, 2 * math.pi)), relays[:2])

    interference = interference_from_positions(tuple(nodes), MACRO_RADIUS_M, PICO_RADIUS_M)
    graph = TopologyGraph(tuple(nodes), tuple(links), tuple(flows), frozenset(backhaul), interference)
    problems = validate(graph)
    if problems:
        raise ValueError(f"generated instance is invalid: {problems}")
    if graph.num_bs > MAX_BS or len(graph.wireless_links) > MAX_WIRELESS_LINKS:
        raise ValueError("generated instance exceeds the oracle caps")
    if len(phy.enumerate_feasible_patterns(graph.interference)) > MAX_PATTERNS:
        raise ValueError("generated instance has too many patterns for the oracle")
    return graph


def expected_interference(template: Template) -> np.ndarray:
    """The conflict matrix every instance of ``template`` must have: each
    macro conflicts with its own picos and with nothing else."""
    n_bs = template.n_macro + len(template.picos)
    conflicts = np.zeros((n_bs, n_bs), dtype=bool)
    for k, (anchor, _) in enumerate(template.picos):
        pico = template.n_macro + k
        conflicts[anchor, pico] = conflicts[pico, anchor] = True
    return conflicts


def instance_family(seed: int, copies: int) -> list[tuple[Template, TopologyGraph]]:
    """``copies`` instances of every template, positions drawn from ``seed``."""
    rng = np.random.default_rng([seed, 0x0BE5])
    out = []
    for _ in range(copies):
        for template in TEMPLATES:
            graph = build_instance(template, rng)
            if not np.array_equal(graph.interference, expected_interference(template)):
                raise ValueError("generated instance left its template's interference class")
            out.append((template, graph))
    return out


def det_model(graph: TopologyGraph) -> ChannelModel:
    return ChannelModel(
        graph, SUBBANDS, p_macro_dbm=P_MACRO_DBM, p_pico_dbm=P_PICO_DBM, seed=0, deterministic=True
    )
