"""Shared graph builders for the test suite.

Builders are plain functions so tests can call them with their own knobs;
the fixtures below wrap the common zero-argument cases.
"""

import numpy as np
import pytest

from hetnet_rrm.channel import ChannelModel
from hetnet_rrm.phy import enumerate_feasible_patterns
from hetnet_rrm.topology import (
    Flow,
    Link,
    Node,
    NodeKind,
    TopologyGraph,
    interference_from_positions,
    validate,
)

MACRO, PICO, USER = NodeKind.MACRO, NodeKind.PICO, NodeKind.USER


def build_graph(nodes, links, flows, backhaul, macro_radius=420.0, pico_radius=260.0):
    interference = interference_from_positions(tuple(nodes), macro_radius, pico_radius)
    graph = TopologyGraph(
        tuple(nodes), tuple(links), tuple(flows), frozenset(backhaul), interference
    )
    problems = validate(graph)
    assert not problems, problems
    return graph


def single_link_graph():
    """One macro, one user, one link, one flow."""
    nodes = [Node(0, MACRO, (0.0, 0.0)), Node(1, USER, (80.0, 0.0))]
    return build_graph(nodes, [Link(0, 0, 1)], [Flow(0, 0, 1)], {0})


def diamond_graph():
    """One flow with two disjoint two-hop paths through relay picos."""
    nodes = [
        Node(0, MACRO, (0.0, 0.0)),
        Node(1, PICO, (300.0, 200.0)),
        Node(2, PICO, (300.0, -200.0)),
        Node(3, USER, (600.0, 0.0)),
    ]
    links = [Link(0, 0, 1), Link(1, 0, 2), Link(2, 1, 3), Link(3, 2, 3)]
    return build_graph(nodes, links, [Flow(0, 0, 3)], {0})


def relay_grid_graph():
    """Two flows sharing a relay hop next to a private hop each."""
    nodes = [
        Node(0, MACRO, (0.0, 0.0)),
        Node(1, PICO, (350.0, 0.0)),
        Node(2, USER, (420.0, 60.0)),
        Node(3, USER, (430.0, -60.0)),
        Node(4, USER, (-90.0, 30.0)),
    ]
    links = [Link(0, 0, 1), Link(1, 1, 2), Link(2, 1, 3), Link(3, 0, 4)]
    flows = [Flow(0, 0, 2), Flow(1, 0, 3), Flow(2, 0, 4)]
    return build_graph(nodes, links, flows, {0})


def multicell_graph():
    """Five stations, eighteen links, one wireless relay hop.

    Outgoing-link partition (0-based link ids):
      station 0 -> {0, 1, 3, 4, 6}   (4 is the relay into station 3)
      station 1 -> {11, 12, 13, 15}
      station 2 -> {2, 7, 17}
      station 3 -> {5, 8, 9, 10}
      station 4 -> {14, 16}
    Station 3 has no backhaul of its own; its users' flows enter at station 0.
    """
    bs = [
        Node(0, MACRO, (0.0, 0.0)),
        Node(1, MACRO, (1400.0, 0.0)),
        Node(2, PICO, (350.0, 120.0)),
        Node(3, PICO, (240.0, -260.0)),
        Node(4, PICO, (1650.0, 180.0)),
    ]
    heads = {0: 0, 1: 0, 2: 2, 3: 0, 5: 3, 6: 0, 7: 2, 8: 3, 9: 3, 10: 3,
             11: 1, 12: 1, 13: 1, 14: 4, 15: 1, 16: 4, 17: 2}
    rng = np.random.default_rng(20240)
    nodes = list(bs)
    links = []
    flows = []
    for idx in range(18):
        if idx == 4:
            links.append(Link(4, 0, 3))
            continue
        head = heads[idx]
        hx, hy = bs[head].position
        ang = rng.uniform(0.0, 2.0 * np.pi)
        r = rng.uniform(40.0, 110.0)
        user = Node(len(nodes), USER, (hx + r * np.cos(ang), hy + r * np.sin(ang)))
        nodes.append(user)
        links.append(Link(idx, head, user.index))
        source = 0 if head == 3 else head
        flows.append(Flow(len(flows), source, user.index))
    return build_graph(nodes, links, flows, {0, 1, 2, 4})


def random_instance(seed):
    """Small random HetNet within the exhaustive oracle's size caps."""
    rng = np.random.default_rng(seed)
    while True:
        n_macro = int(rng.integers(1, 3))
        n_pico = int(rng.integers(1, 4 - n_macro))
        nodes, links, flows = [], [], []
        for i in range(n_macro):
            nodes.append(Node(len(nodes), MACRO, (600.0 * i, 0.0)))
        macro_ids = [n.index for n in nodes]
        pico_ids = []
        for _ in range(n_pico):
            anchor = nodes[int(rng.integers(0, n_macro))]
            ang, r = rng.uniform(0, 2 * np.pi), rng.uniform(150.0, 320.0)
            nodes.append(
                Node(
                    len(nodes),
                    PICO,
                    (
                        anchor.position[0] + r * np.cos(ang),
                        anchor.position[1] + r * np.sin(ang),
                    ),
                )
            )
            pico_ids.append(nodes[-1].index)
        backhaul = set(macro_ids) | {p for p in pico_ids if rng.random() < 0.5}
        user_of_bs = {}
        for bs in macro_ids + pico_ids:
            for _ in range(int(rng.integers(1, 3))):
                ang, r = rng.uniform(0, 2 * np.pi), rng.uniform(30.0, 120.0)
                bx, by = nodes[bs].position
                nodes.append(
                    Node(len(nodes), USER, (bx + r * np.cos(ang), by + r * np.sin(ang)))
                )
                user_of_bs.setdefault(bs, []).append(nodes[-1].index)
        for bs, users in user_of_bs.items():
            for u in users:
                links.append(Link(len(links), bs, u))
        relay_to = {}
        for p in pico_ids:
            if p not in backhaul:
                src = min(
                    macro_ids,
                    key=lambda m: np.hypot(
                        nodes[m].position[0] - nodes[p].position[0],
                        nodes[m].position[1] - nodes[p].position[1],
                    ),
                )
                links.append(Link(len(links), src, p))
                relay_to[p] = src
        for bs, users in user_of_bs.items():
            src = bs if bs in backhaul else relay_to[bs]
            for u in users:
                flows.append(Flow(len(flows), src, u))
        interference = interference_from_positions(
            tuple(nodes), macro_radius=420.0, pico_radius=260.0
        )
        graph = TopologyGraph(
            tuple(nodes), tuple(links), tuple(flows), frozenset(backhaul), interference
        )
        patterns = enumerate_feasible_patterns(interference)
        n_bs = len(macro_ids) + len(pico_ids)
        if (
            n_bs <= 6
            and len(graph.wireless_links) <= 12
            and len(patterns) <= 16
            and not validate(graph)
        ):
            return graph
        seed = int(rng.integers(0, 2**31))
        rng = np.random.default_rng(seed)


def det_model(graph, num_subbands=4, seed=0, **kwargs):
    """Deterministic channel with the defaults the oracle tests use."""
    return ChannelModel(
        graph, num_subbands, p_macro_dbm=40.0, p_pico_dbm=33.0, seed=seed,
        deterministic=True, **kwargs,
    )


def assert_same_flow_bits(sol, ref):
    """Two flow solutions hold the same bits, field by field."""
    for name in ("rates", "link_flows", "prices"):
        assert getattr(sol, name).tobytes() == getattr(ref, name).tobytes(), name
    for name in ("utility", "kkt_residual", "newton_iters", "banked", "refinements"):
        assert getattr(sol, name) == getattr(ref, name), name


@pytest.fixture
def multicell():
    return multicell_graph()


@pytest.fixture
def diamond():
    return diamond_graph()
