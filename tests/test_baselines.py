from dataclasses import replace

import numpy as np
import pytest

from hetnet_rrm.baselines import (
    FBC_CAPACITY_MARGIN,
    augment_with_wired_backhaul,
    fbc_graph,
    nearest_macro,
    run_fddsa,
    run_ttrsc,
)
from hetnet_rrm.channel import ChannelModel
from hetnet_rrm.cli import run_experiment
from hetnet_rrm.netopt import UtilitySpec
from hetnet_rrm.rrm import RrmConfig, run_to_convergence
from hetnet_rrm.scenario import Scenario
from hetnet_rrm.topology import Flow, Link, Node, NodeKind

from conftest import (
    build_graph,
    det_model,
    diamond_graph,
    multicell_graph,
    random_instance,
    relay_grid_graph,
)

LOG = UtilitySpec(alpha=1.0, epsilon=1e-3)


def fast_config(**kwargs):
    defaults = dict(subframes_per_superframe=40, max_superframes=30, utility=LOG)
    defaults.update(kwargs)
    return RrmConfig(**defaults)


def det_scenario(graph):
    """The scenario whose ``channel_model(seed=0)`` is ``det_model(graph)``."""
    return Scenario(graph=graph, subbands=4, deterministic=True, rrm=fast_config())


def test_augmentation_wires_unbackhauled_pico_to_nearest_macro():
    g = multicell_graph()
    aug = augment_with_wired_backhaul(g, 50.0)
    assert aug.num_links == g.num_links + 1
    wire = aug.links[-1]
    assert wire.is_wired and wire.wired_capacity == 50.0
    assert wire.head == 0 and wire.tail == 3  # station 3 sits closest to macro 0
    assert aug.backhaul == frozenset(g.backhaul | {3})
    assert aug.nodes == g.nodes and aug.flows == g.flows
    assert aug.interference is g.interference
    # existing links keep their indices so channel draws stay aligned
    assert aug.links[: g.num_links] == g.links


def test_augmentation_is_noop_when_everyone_has_backhaul():
    nodes = [
        Node(0, NodeKind.MACRO, (0.0, 0.0)),
        Node(1, NodeKind.PICO, (300.0, 0.0)),
        Node(2, NodeKind.USER, (30.0, 10.0)),
        Node(3, NodeKind.USER, (330.0, 10.0)),
    ]
    links = [Link(0, 0, 2), Link(1, 1, 3)]
    flows = [Flow(0, 0, 2), Flow(1, 1, 3)]
    g = build_graph(nodes, links, flows, {0, 1})
    assert augment_with_wired_backhaul(g, 50.0) is g


def test_nearest_macro_tie_breaks_to_lowest_index():
    nodes = [
        Node(0, NodeKind.MACRO, (-100.0, 0.0)),
        Node(1, NodeKind.MACRO, (100.0, 0.0)),
        Node(2, NodeKind.PICO, (0.0, 0.0)),
        Node(3, NodeKind.USER, (-80.0, 30.0)),
        Node(4, NodeKind.USER, (20.0, 30.0)),
    ]
    links = [Link(0, 0, 3), Link(1, 2, 4)]
    flows = [Flow(0, 0, 3), Flow(1, 2, 4)]
    g = build_graph(nodes, links, flows, {0, 1, 2})
    assert nearest_macro(g, 2) == 0

    pico_only = build_graph(
        [Node(0, NodeKind.PICO, (0.0, 0.0)), Node(1, NodeKind.USER, (40.0, 0.0))],
        [Link(0, 0, 1)],
        [Flow(0, 0, 1)],
        {0},
    )
    with pytest.raises(ValueError):
        nearest_macro(pico_only, 0)


def test_fbc_default_wired_capacity_margin():
    g = multicell_graph()
    s = det_scenario(g)
    base = s.channel_model(seed=0)
    assert base.tx_powers.tobytes() == det_model(g).tx_powers.tobytes()
    result, fbc_model = run_experiment(s, "fbc", 0)
    # the model fbc runs on is the scenario's own builder on fbc_graph's network
    expected = replace(s, graph=fbc_graph(base)).channel_model(seed=0)
    assert fbc_model.graph.links == expected.graph.links
    assert fbc_model.tx_powers.tobytes() == expected.tx_powers.tobytes()
    assert fbc_model.large_gains.tobytes() == expected.large_gains.tobytes()
    peak = float(base.statistical_rates().sum(axis=1).max())
    wire = fbc_model.graph.links[-1]
    assert fbc_model.graph.num_links == g.num_links + 1
    assert wire.wired_capacity == pytest.approx(FBC_CAPACITY_MARGIN * max(peak, 1.0))
    # channel draws on pre-existing links are untouched by the augmentation
    assert np.array_equal(fbc_model.large_gains[: g.num_links], base.large_gains)
    assert np.array_equal(fbc_model.tx_powers[: g.num_links], base.tx_powers)
    assert fbc_model.seed == base.seed
    assert fbc_model.tx_powers[wire.index] == 0.0
    assert result.state.flow is not None


def test_fbc_graph_is_the_model_graph_when_nothing_to_wire():
    g = relay_grid_graph()
    # relay pico 1 has no backhaul here, so first check the wired path exists
    assert fbc_graph(det_model(g)).num_links == g.num_links + 1

    nodes = [
        Node(0, NodeKind.MACRO, (0.0, 0.0)),
        Node(1, NodeKind.USER, (120.0, 0.0)),
    ]
    solo = build_graph(nodes, [Link(0, 0, 1)], [Flow(0, 0, 1)], {0})
    model = det_model(solo)
    assert fbc_graph(model) is model.graph
    result, fbc_model = run_experiment(det_scenario(solo), "fbc", 0)
    assert fbc_model.graph is solo
    assert result.utility == run_to_convergence(model, fast_config()).utility


def test_fbc_dominates_proposed_on_relay_network():
    s = det_scenario(multicell_graph())
    prop, _ = run_experiment(s, "proposed", 0)
    fbc, _ = run_experiment(s, "fbc", 0)
    assert prop.converged and fbc.converged
    # moving relay traffic onto wires can only enlarge the rate region
    assert fbc.utility >= prop.utility - 1e-6
    assert fbc.utility > prop.utility + 0.05


def test_ttrsc_identical_to_proposed_when_deterministic():
    for g in (relay_grid_graph(), diamond_graph()):
        config = fast_config()
        prop = run_to_convergence(det_model(g), config)
        ttrsc = run_ttrsc(det_model(g), config)
        assert ttrsc.converged == prop.converged
        assert [r.utility for r in ttrsc.records] == pytest.approx([r.utility for r in prop.records], abs=1e-12)
        assert ttrsc.state.shares == pytest.approx(prop.state.shares, abs=1e-12)
        assert ttrsc.utility == pytest.approx(prop.utility, abs=1e-12)


def _diversity_graph():
    nodes = [
        Node(0, NodeKind.MACRO, (0.0, 0.0)),
        Node(1, NodeKind.USER, (150.0, 0.0)),
        Node(2, NodeKind.USER, (0.0, 170.0)),
    ]
    links = [Link(0, 0, 1), Link(1, 0, 2)]
    flows = [Flow(0, 0, 1), Flow(1, 0, 2)]
    return build_graph(nodes, links, flows, {0})


def test_ttrsc_loses_multiuser_diversity_under_fading():
    g = _diversity_graph()
    gains = np.array([1.5e-6, 1.0e-6])
    config = fast_config(
        subframes_per_superframe=200,
        epsilon_converge=0.02,
        gap_converge_rel=0.02,
        max_superframes=25,
    )

    def model():
        m = ChannelModel(g, 8, p_macro_dbm=40.0, p_pico_dbm=33.0, seed=11)
        m.large_gains = gains.copy()
        return m

    prop = run_to_convergence(model(), config)
    ttrsc = run_ttrsc(model(), config)
    assert prop.converged and ttrsc.converged
    # scheduling on fading-averaged rates forfeits the per-subband pick of the
    # instantaneously best user
    assert prop.utility > ttrsc.utility + 0.02


def pattern_totals(state):
    """Total share of each admissible pattern's members, and how many it has."""
    n_patterns = len(state.patterns)
    return (
        np.bincount(state.member_index, weights=state.shares, minlength=n_patterns),
        np.bincount(state.member_index, minlength=n_patterns),
    )


def test_fddsa_uses_uniform_shares_over_all_patterns():
    g = relay_grid_graph()
    result = run_fddsa(det_model(g), fast_config())
    n_patterns = len(result.state.patterns)
    # every admissible pattern, the all-silent one included, holds 1/J of the
    # time, however its members split it
    totals, counts = pattern_totals(result.state)
    assert np.all(counts >= 1)
    assert np.all(np.abs(totals - 1.0 / n_patterns) <= 1e-12)
    # members keep their discovery weights, so the utility never falls back
    assert result.converged
    assert np.all(np.diff([r.utility for r in result.records]) >= -1e-9)


def test_fddsa_converges_when_winners_cannot_flip():
    g = build_graph(
        [Node(0, NodeKind.MACRO, (0.0, 0.0)), Node(1, NodeKind.USER, (120.0, 0.0))],
        [Link(0, 0, 1)],
        [Flow(0, 0, 1)],
        {0},
    )
    result = run_fddsa(det_model(g), fast_config())
    assert result.converged
    assert len(result.records) == 2
    # half the time is wasted on the all-silent pattern
    r = float(det_model(g).statistical_rates()[0].sum())
    assert result.utility == pytest.approx(np.log(0.5 * r + LOG.epsilon), abs=1e-6)


def test_fddsa_lags_proposed_without_share_optimization():
    g = diamond_graph()
    config = fast_config()
    prop = run_to_convergence(det_model(g), config)
    fddsa = run_fddsa(det_model(g), config)
    assert prop.utility > fddsa.utility + 0.1


def test_fddsa_never_beats_proposed_beyond_its_certified_gap():
    # fddsa's program is proposed's with each pattern's total time fixed, so
    # its utility is achievable by proposed's program; by concavity proposed
    # is within its certificate gap of that program's optimum.
    config = fast_config(max_superframes=40)
    graphs = [multicell_graph(), relay_grid_graph(), diamond_graph()]
    graphs += [random_instance(seed) for seed in range(1, 40)]
    for g in graphs:
        prop = run_to_convergence(det_model(g), config)
        fddsa = run_fddsa(det_model(g), config)
        assert prop.converged
        assert fddsa.utility <= prop.utility + prop.certificate.gap
