import numpy as np
import pytest

from hetnet_rrm.channel import ChannelModel
from hetnet_rrm.netopt import UtilitySpec
from hetnet_rrm.oracle import (
    MAX_ORACLE_PATTERNS,
    OracleScaleError,
    check_oracle_scale,
    oracle_solve,
    vertex_rate_rows,
)
from hetnet_rrm.rrm import RrmConfig, run_to_convergence
from hetnet_rrm.topology import Flow, Link, Node, NodeKind

from conftest import build_graph, det_model, random_instance, relay_grid_graph
from reference import grid_search_time_sharing

LOG = UtilitySpec(alpha=1.0, epsilon=1e-3)

MACRO, PICO, USER = NodeKind.MACRO, NodeKind.PICO, NodeKind.USER


def _fan_graph(n_bs, users_per_bs):
    """One macro plus picos, each base station serving its own users."""
    nodes, links, flows = [], [], []
    for b in range(n_bs):
        kind = MACRO if b == 0 else PICO
        nodes.append(Node(b, kind, (1000.0 * b, 0.0)))
    idx = n_bs
    for b in range(n_bs):
        for _ in range(users_per_bs):
            nodes.append(Node(idx, USER, (1000.0 * b + 40.0, 30.0 + 10.0 * idx)))
            links.append(Link(len(links), b, idx))
            flows.append(Flow(len(flows), b, idx))
            idx += 1
    return build_graph(nodes, links, flows, set(range(n_bs)))


def test_scale_caps_raise():
    with pytest.raises(OracleScaleError):
        vertex_rate_rows(det_model(_fan_graph(7, 1)))
    with pytest.raises(OracleScaleError):
        vertex_rate_rows(det_model(_fan_graph(2, 7)))  # 14 wireless links
    small = _fan_graph(2, 1)
    fake_patterns = [(0, 0)] * (MAX_ORACLE_PATTERNS + 1)
    with pytest.raises(OracleScaleError):
        check_oracle_scale(small, fake_patterns)


def test_vertex_rows_require_deterministic_channel():
    g = _fan_graph(2, 1)
    noisy = ChannelModel(g, 4, p_macro_dbm=40.0, p_pico_dbm=33.0, seed=0)
    with pytest.raises(ValueError):
        vertex_rate_rows(noisy)


def test_vertex_rows_enumerate_served_link_choices():
    g = _fan_graph(1, 2)  # one macro, two users
    model = det_model(g)
    rows = vertex_rate_rows(model)
    link_rates = model.rate_block(0, 1)[0].sum(axis=1)
    expected = np.unique(
        np.array(
            [
                [0.0, 0.0],
                [link_rates[0], 0.0],
                [0.0, link_rates[1]],
            ]
        ),
        axis=0,
    )
    assert np.allclose(rows, expected)


def test_oracle_vertex_count_on_relay_grid():
    sol = oracle_solve(det_model(relay_grid_graph()), LOG)
    # each of the two stations picks one of its two links; plus all-silent
    assert sol.n_vertices == 5
    assert sol.rate_rows.shape == (5, 4)
    assert sol.shares.shape == (5,)
    assert np.all(sol.shares >= -1e-12)
    assert sol.shares.sum() == pytest.approx(1.0, abs=1e-9)
    assert sol.utility == pytest.approx(sol.flow.utility)


def test_oracle_respects_wired_bottleneck():
    nodes = [
        Node(0, MACRO, (0.0, 0.0)),
        Node(1, PICO, (200.0, 0.0)),
        Node(2, USER, (240.0, 0.0)),
    ]
    links = [Link(0, 0, 1, wired_capacity=1.3), Link(1, 1, 2)]
    g = build_graph(nodes, links, [Flow(0, 0, 2)], {0})
    model = det_model(g)
    access = float(model.statistical_rates()[1].sum())
    assert access > 1.3
    sol = oracle_solve(model, LOG)
    assert sol.flow.rates[0] == pytest.approx(1.3, abs=1e-6)
    assert sol.utility == pytest.approx(np.log(1.3 + LOG.epsilon), abs=1e-6)


def test_oracle_matches_grid_search_cross_check():
    nodes = [
        Node(0, MACRO, (0.0, 0.0)),
        Node(1, PICO, (300.0, 0.0)),
        Node(2, USER, (30.0, 10.0)),
        Node(3, USER, (330.0, 10.0)),
    ]
    links = [Link(0, 0, 2), Link(1, 1, 3)]
    flows = [Flow(0, 0, 2), Flow(1, 1, 3)]
    g = build_graph(nodes, links, flows, {0, 1})
    model = det_model(g)
    sol = oracle_solve(model, LOG)
    assert sol.rate_rows.shape[0] == 3
    best = grid_search_time_sharing(
        sol.rate_rows, g, LOG, g.wired_base_capacity(), resolution=1e-3
    )
    assert sol.utility == pytest.approx(best, abs=1e-4)
    assert sol.utility >= best - 1e-7  # the oracle is never beaten by the grid


def test_grid_search_input_validation():
    g = _fan_graph(1, 1)
    with pytest.raises(ValueError):
        grid_search_time_sharing(
            np.zeros((4, 1)), g, LOG, np.zeros(1), resolution=0.1
        )
    single = grid_search_time_sharing(
        np.array([[0.7]]), g, LOG, np.zeros(1), resolution=0.1
    )
    assert single == pytest.approx(np.log(0.7 + LOG.epsilon), abs=1e-7)


def test_adaptive_scheme_reaches_oracle_utility():
    config = RrmConfig(subframes_per_superframe=40, max_superframes=40, utility=LOG)
    for seed in (101, 202, 303):
        g = random_instance(seed)
        model = det_model(g)
        sol = oracle_solve(model, LOG)
        result = run_to_convergence(model, config)
        assert result.converged
        assert abs(result.utility - sol.utility) <= 1e-4


# Instances whose oracle share program banked or ran to the iteration cap
# under a fixed centering step.
_ONCE_BANKED = (158, 300, 422, 482, 496, 1053, 1079, 1748, 2060)


def test_oracle_share_programs_converge_without_banking():
    for seed in (*range(1000), *_ONCE_BANKED):
        assert not oracle_solve(det_model(random_instance(seed)), LOG).flow.banked, seed
