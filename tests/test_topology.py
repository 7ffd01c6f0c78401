import numpy as np
import pytest

from hetnet_rrm.baselines import augment_with_wired_backhaul
from hetnet_rrm.topology import (
    Flow,
    Link,
    Node,
    NodeKind,
    TopologyGraph,
    interference_from_positions,
    per_graph,
    validate,
)

from conftest import build_graph, multicell_graph, single_link_graph
from reference import build_incidence

MACRO, PICO, USER = NodeKind.MACRO, NodeKind.PICO, NodeKind.USER


def test_node_kinds():
    assert MACRO.is_base_station and PICO.is_base_station
    assert not USER.is_base_station


def test_link_wired_flag():
    assert not Link(0, 0, 1).is_wired
    assert Link(0, 0, 1, wired_capacity=5.0).is_wired


def test_counts_and_partitions(multicell):
    g = multicell
    assert g.num_nodes == 22 and g.num_links == 18 and g.num_flows == 17
    assert g.bs_nodes == (0, 1, 2, 3, 4)
    assert g.wireless_links == tuple(range(18)) and g.wired_links == ()
    assert g.out_links[:5] == ((0, 1, 3, 4, 6), (11, 12, 13, 15), (2, 7, 17), (5, 8, 9, 10), (14, 16))
    assert g.out_links[5:] == ((),) * 17  # user nodes transmit nothing
    assert g.out_links is g.out_links
    # every link belongs to exactly one station's outgoing set
    seen = sorted(l for n in g.bs_nodes for l in g.out_links[n])
    assert seen == list(range(18))
    for slot, n in enumerate(g.bs_nodes):
        assert np.all(g.link_station[list(g.out_links[n])] == slot)
        assert np.array_equal(g.station_links[slot], g.out_links[n])
    assert g.link_station is g.link_station and not g.link_station.flags.writeable


def test_wired_base_capacity():
    nodes = [Node(0, MACRO, (0.0, 0.0)), Node(1, PICO, (100.0, 0.0)),
             Node(2, USER, (160.0, 0.0))]
    links = [Link(0, 0, 1, wired_capacity=7.5), Link(1, 1, 2)]
    g = build_graph(nodes, links, [Flow(0, 0, 2)], {0, 1})
    assert np.allclose(g.wired_base_capacity(), [7.5, 0.0])
    assert g.wireless_links == (1,) and g.wired_links == (0,)
    # a station's scheduled links are its outgoing links less the wired ones
    assert g.out_links == ((0,), (1,), ())
    assert [cand.tolist() for cand in g.station_links] == [[], [1]]


def test_incidence_rows_sum_to_zero(multicell):
    inc = build_incidence(multicell)
    assert inc.shape == (22, 18)
    assert np.all(inc.sum(axis=0) == 0)
    assert inc[0, 4] == 1 and inc[3, 4] == -1


def test_interference_geometry():
    nodes = (
        Node(0, MACRO, (0.0, 0.0)),
        Node(1, PICO, (300.0, 0.0)),
        Node(2, PICO, (300.0, 200.0)),
        Node(3, USER, (10.0, 10.0)),
    )
    m = interference_from_positions(nodes, macro_radius=420.0, pico_radius=260.0)
    assert m.shape == (3, 3) and m.dtype == np.bool_
    assert m[0, 1] and m[1, 0]          # 300 m < macro radius
    assert m[1, 2] and m[2, 1]          # 200 m < pico radius
    assert m[0, 2]                      # ~360.5 m < macro radius
    m2 = interference_from_positions(nodes, macro_radius=350.0, pico_radius=100.0)
    assert m2[0, 1] and not m2[1, 2] and not m2[0, 2]
    assert not np.any(np.diag(m))
    assert np.array_equal(m, m.T)


def test_validate_accepts_builders(multicell):
    assert validate(multicell) == []
    assert validate(single_link_graph()) == []


def _raw(nodes, links, flows, backhaul):
    interference = interference_from_positions(tuple(nodes), 420.0, 260.0)
    return TopologyGraph(tuple(nodes), tuple(links), tuple(flows),
                         frozenset(backhaul), interference)


def test_validate_flags_structsingle():
    nodes = [Node(0, MACRO, (0.0, 0.0)), Node(1, USER, (50.0, 0.0))]
    bad = _raw(nodes, [Link(0, 1, 0)], [Flow(0, 0, 1)], {0})
    assert any("transmits from user node" in p for p in validate(bad))
    bad = _raw(nodes, [Link(0, 0, 0)], [Flow(0, 0, 1)], {0})
    assert any("self-loop" in p for p in validate(bad))
    bad = _raw(nodes, [Link(1, 0, 1)], [Flow(0, 0, 1)], {0})
    assert any("indices must be 0..L-1" in p for p in validate(bad))
    bad = _raw(nodes, [Link(0, 0, 1, wired_capacity=0.0)], [Flow(0, 0, 1)], {0})
    assert any("wired capacity must be finite and positive" in p for p in validate(bad))


@pytest.mark.parametrize("capacity", [float("nan"), float("inf")])
def test_validate_flags_non_finite_wired_capacity(capacity):
    augmented = augment_with_wired_backhaul(multicell_graph(), capacity)
    assert augmented.wired_links
    assert any("wired capacity must be finite and positive" in p for p in validate(augmented))


@pytest.mark.parametrize("head, tail", [(0, 9), (0, -1), (-1, 1), (5, 1)])
def test_validate_lists_an_out_of_range_endpoint(head, tail):
    # the reachability walk skips the link instead of failing on it
    nodes = [Node(0, MACRO, (0.0, 0.0)), Node(1, USER, (50.0, 0.0))]
    bad = _raw(nodes, [Link(0, head, tail)], [Flow(0, 0, 1)], {0})
    assert validate(bad) == [
        "link 0 endpoint out of range",
        "flow 0 destination 1 unreachable from source 0",
    ]


def test_validate_flags_backhaul_and_flows():
    nodes = [Node(0, MACRO, (0.0, 0.0)), Node(1, PICO, (200.0, 0.0)),
             Node(2, USER, (260.0, 0.0))]
    links = [Link(0, 0, 1), Link(1, 1, 2)]
    bad = _raw(nodes, links, [Flow(0, 0, 2)], set())
    assert any("not backhaul-connected" in p for p in validate(bad))
    bad = _raw(nodes, links, [Flow(0, 0, 2)], {0, 2})
    assert any("backhaul entry 2 is not a base station" in p for p in validate(bad))
    bad = _raw(nodes, links, [Flow(0, 1, 2)], {0})
    assert any("source 1 is not backhaul-connected" in p for p in validate(bad))
    bad = _raw(nodes, links, [Flow(0, 0, 1)], {0})
    assert any("destination 1 is not a user node" in p for p in validate(bad))
    bad = _raw(nodes, [Link(0, 0, 1)], [Flow(0, 0, 2)], {0})
    assert any("unreachable" in p for p in validate(bad))


def test_validate_flags_interference_matrix():
    nodes = (Node(0, MACRO, (0.0, 0.0)), Node(1, USER, (40.0, 0.0)))
    good = interference_from_positions(nodes, 420.0, 260.0)
    g = TopologyGraph(nodes, (Link(0, 0, 1),), (Flow(0, 0, 1),), frozenset({0}),
                      np.zeros((2, 2), dtype=bool))
    assert any("shape" in p for p in validate(g))
    g = TopologyGraph(nodes, (Link(0, 0, 1),), (Flow(0, 0, 1),), frozenset({0}),
                      good.astype(int))
    assert any("must be boolean" in p for p in validate(g))
    asym = np.zeros((1, 1), dtype=bool)
    g = TopologyGraph(nodes, (Link(0, 0, 1),), (Flow(0, 0, 1),), frozenset({0}), asym)
    assert validate(g) == []


def test_per_graph_keeps_nothing_from_a_build_that_raises():
    calls = []

    @per_graph
    def refused(graph):
        calls.append(None)
        raise ValueError("no")

    graph = single_link_graph()
    for _ in range(2):
        with pytest.raises(ValueError):
            refused(graph)
    assert len(calls) == 2
