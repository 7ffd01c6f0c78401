import gc
import itertools
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from hetnet_rrm.baselines import augment_with_wired_backhaul
from hetnet_rrm.channel import ChannelModel
from hetnet_rrm.phy import (
    PatternEnumerationError,
    assert_block_feasible,
    block_winners,
    enumerate_feasible_patterns,
    rate_table_for_patterns,
    schedule_block,
    schedule_links,
    station_contributions,
)
from hetnet_rrm.topology import Flow, Link, Node, NodeKind, TopologyGraph

from conftest import build_graph, multicell_graph, random_instance, single_link_graph
from reference import (
    conditional_rate,
    is_feasible_pattern,
    loop_assert_block_feasible,
    subband_sum,
    vector_block_winners,
)
from hetnet_rrm import phy
from hetnet_rrm.rrm import RrmConfig, block_pass, initial_state, run_superframe

MACRO, PICO, USER = NodeKind.MACRO, NodeKind.PICO, NodeKind.USER


def brute_force_patterns(conflicts):
    """All-silent plus every maximal independent set, by exhaustion."""
    n = conflicts.shape[0]
    independent = []
    for bits in itertools.product((0, 1), repeat=n):
        active = [i for i in range(n) if bits[i]]
        if all(not conflicts[i, j] for i in active for j in active if i != j):
            independent.append(bits)
    ind_sets = {tuple(b) for b in independent}
    maximal = set()
    for bits in ind_sets:
        grown = any(
            bits != other and all(b <= o for b, o in zip(bits, other))
            for other in ind_sets
        )
        if not grown:
            maximal.add(bits)
    maximal.add(tuple(0 for _ in range(n)))
    return sorted(maximal)


def test_pattern_enumeration_matches_brute_force():
    rng = np.random.default_rng(77)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        m = rng.random((n, n)) < 0.4
        m = np.triu(m, 1)
        m = m | m.T
        got = enumerate_feasible_patterns(m)
        assert got.dtype == bool
        assert np.array_equal(got, np.array(brute_force_patterns(m), dtype=bool))
        assert all(is_feasible_pattern(m, p) for p in got)


def test_pattern_enumeration_cap():
    with pytest.raises(PatternEnumerationError):
        enumerate_feasible_patterns(np.zeros((25, 25), dtype=bool))


def test_admissible_patterns_are_enumerated_once_per_graph_and_dropped_with_it(monkeypatch):
    gc.collect()  # graphs earlier tests dropped leave with their cycles
    enumerated = []
    enumerate_once = phy.enumerate_feasible_patterns

    def counted(interference):
        enumerated.append(None)
        return enumerate_once(interference)

    monkeypatch.setattr(phy, "enumerate_feasible_patterns", counted)
    graph = multicell_graph()
    patterns = phy.admissible_patterns(graph)
    assert np.array_equal(patterns, enumerate_once(graph.interference))
    assert not patterns.flags.writeable
    model = ChannelModel(graph, 2, 40.0, 33.0, seed=4)
    assert initial_state(model).patterns is patterns
    assert initial_state(model, fixed_pattern_durations=True).patterns is patterns
    assert phy.admissible_patterns(graph) is patterns
    assert len(enumerated) == 1
    alive, table = weakref.ref(graph), weakref.ref(patterns)
    # The last reference must free the graph and its patterns, without the
    # cyclic collector.
    gc.disable()
    try:
        del graph, model, patterns
        assert alive() is None and table() is None
    finally:
        gc.enable()


def test_is_feasible_pattern():
    m = np.array([[False, True], [True, False]])
    assert is_feasible_pattern(m, np.array([True, False]))
    assert is_feasible_pattern(m, np.array([False, False]))
    assert not is_feasible_pattern(m, np.array([True, True]))


def _two_station_graph():
    nodes = [
        Node(0, MACRO, (0.0, 0.0)),
        Node(1, PICO, (600.0, 0.0)),
        Node(2, USER, (60.0, 10.0)),
        Node(3, USER, (50.0, -40.0)),
        Node(4, USER, (660.0, 20.0)),
    ]
    links = [Link(0, 0, 2), Link(1, 0, 3), Link(2, 1, 4)]
    flows = [Flow(0, 0, 2), Flow(1, 0, 3), Flow(2, 1, 4)]
    return build_graph(nodes, links, flows, {0, 1})


BOTH_ON = np.array([True, True])


def test_schedule_links_picks_weighted_winner():
    g = _two_station_graph()
    rates = np.array([[2.0, 1.0], [1.0, 3.0], [5.0, 5.0]])
    rho = schedule_links(g, BOTH_ON, np.array([1.0, 1.0, 1.0]), rates)
    assert rho[0, 0] and not rho[1, 0]      # 2.0 beats 1.0 on subband 0
    assert rho[1, 1] and not rho[0, 1]      # 3.0 beats 1.0 on subband 1
    assert rho[2, 0] and rho[2, 1]
    # weights flip the first subband's winner
    rho = schedule_links(g, BOTH_ON, np.array([1.0, 4.0, 1.0]), rates)
    assert rho[1, 0] and not rho[0, 0]


def test_schedule_links_silences_inactive_stations():
    g = _two_station_graph()
    rates = np.ones((3, 2))
    rho = schedule_links(g, np.array([False, True]), np.ones(3), rates)
    assert not rho[0].any() and not rho[1].any()
    assert rho[2].all()


def test_schedule_links_tie_breaks_to_lowest_index():
    g = _two_station_graph()
    rates = np.ones((3, 4))
    rho = schedule_links(g, BOTH_ON, np.ones(3), rates)
    assert rho[0].all() and not rho[1].any()


def test_schedule_links_weight_scale_invariance():
    g = _two_station_graph()
    rng = np.random.default_rng(3)
    rates = rng.random((3, 6))
    w = rng.random(3) + 0.1
    a = schedule_links(g, BOTH_ON, w, rates)
    b = schedule_links(g, BOTH_ON, 37.5 * w, rates)
    assert np.array_equal(a, b)


def test_assert_schedule_feasible_rejects_violations():
    """A one-subframe schedule, checked as a block of one subframe."""
    g = _two_station_graph()
    bad = np.zeros((3, 2), dtype=bool)
    bad[0, 0] = bad[1, 0] = True        # station 0 serves two links on subband 0
    message = "subframe 0: station 0 scheduled 2 links on subband 0 (limit 1)"
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        assert_block_feasible(g, np.array([[1, 1]], dtype=bool), bad[None])
    bad = np.zeros((3, 2), dtype=bool)
    bad[2, 0] = True                    # station 1 is silent in the pattern
    message = "subframe 0: station 1 scheduled 1 links on subband 0 (limit 0)"
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        assert_block_feasible(g, np.array([[1, 0]], dtype=bool), bad[None])


def _loop_reference(graph, active, weights, block, winner_rates):
    """Per-subframe schedules and mean served rates from schedule_links."""
    schedules = np.array([
        schedule_links(graph, active[t], weights, block[t] if winner_rates is None else winner_rates)
        for t in range(block.shape[0])
    ])
    served = np.zeros(graph.num_links)
    for rates in subband_sum(schedules * block):
        served += rates
    return schedules, served / block.shape[0]


def test_block_kernel_matches_schedule_links_loop_bit_for_bit():
    """Three subbands, which numpy sums in order anyway, and ten, from which
    on (eight or more) its own sum adds them pairwise: the kernel adds them
    in subband order, as the loop reference does."""
    rng = np.random.default_rng(31)
    cases = 0
    for seed in range(8):
        g = random_instance(seed)
        patterns = enumerate_feasible_patterns(g.interference)
        owner = [g.bs_nodes.index(link.head) for link in g.links]
        model = ChannelModel(g, 3, 40.0, 33.0, seed=seed)
        wide = ChannelModel(g, 10, 40.0, 33.0, seed=seed)
        n_sub = 24
        fading = model.rate_block(5, n_sub)
        ties = np.full(fading.shape, 0.75)  # every link equal: lowest index must win
        for block, weights, winner_rates in [
            (fading, rng.uniform(0.2, 2.0, g.num_links), None),
            (fading, rng.uniform(0.2, 2.0, g.num_links), model.statistical_rates()),
            (ties, np.ones(g.num_links), None),
            (wide.rate_block(5, n_sub), rng.uniform(0.2, 2.0, g.num_links), None),
            (wide.rate_block(5, n_sub), rng.uniform(0.2, 2.0, g.num_links), wide.statistical_rates()),
        ]:
            active = patterns[rng.integers(len(patterns), size=n_sub)]
            active[rng.random(n_sub) < 0.2] = False  # some all-silent subframes
            winners, rates = block_winners(g, weights[None], block, winner_rates)
            served = schedule_block(g, active, weights, block, winners, rates[0], winner_rates)
            schedules, ref_served = _loop_reference(g, active, weights, block, winner_rates)
            assert np.array_equal(winners & active[:, owner, None], schedules)
            assert np.array_equal(served, ref_served)
            full = schedule_block(g, np.ones_like(active), weights, block, winners, rates[0], winner_rates)
            assert np.array_equal(full, np.add.accumulate(rates[0], axis=1)[:, -1] / n_sub)
            all_on, _ = _loop_reference(g, np.ones_like(active), weights, block, winner_rates)
            assert np.array_equal(winners, all_on)
            assert np.array_equal(rates[0], subband_sum(all_on * block).T)
            cases += 1
    assert cases == 40


def _wired_graph():
    """Two stations as in _two_station_graph plus a wired link into the pico."""
    nodes = [
        Node(0, MACRO, (0.0, 0.0)),
        Node(1, PICO, (600.0, 0.0)),
        Node(2, USER, (60.0, 10.0)),
        Node(3, USER, (50.0, -40.0)),
        Node(4, USER, (660.0, 20.0)),
    ]
    links = [Link(0, 0, 2), Link(1, 0, 3), Link(2, 1, 4), Link(3, 0, 1, wired_capacity=5.0)]
    flows = [Flow(0, 0, 2), Flow(1, 0, 3), Flow(2, 0, 4)]
    return build_graph(nodes, links, flows, {0})


def test_assert_block_feasible_rejects_violations():
    g = _wired_graph()
    active = np.array([[1, 1], [1, 0], [1, 1]], dtype=bool)
    ok = np.zeros((3, 4, 2), dtype=bool)
    ok[:, 0, :] = True
    ok[[0, 2], 2, :] = True
    assert_block_feasible(g, active, ok)
    bad = ok.copy()
    bad[2, 1, 0] = True                 # station 0 serves two links on subband 0
    with pytest.raises(AssertionError, match="subframe 2: station 0 scheduled 2 links"):
        assert_block_feasible(g, active, bad)
    bad = ok.copy()
    bad[1, 2, 1] = True                 # station 1 is silent in subframe 1
    with pytest.raises(AssertionError, match=r"subframe 1: station 1 .* \(limit 0\)"):
        assert_block_feasible(g, active, bad)
    bad = ok.copy()
    bad[0, 3, 0] = True                 # the wired link is never radio-scheduled
    with pytest.raises(AssertionError, match="wired link 3"):
        assert_block_feasible(g, active, bad)


def _feasibility_graph(seed: int, rng: np.random.Generator) -> TopologyGraph:
    """``random_instance(seed)`` with a wired link into every unbackhauled
    pico and each station keeping its first 0-3 wireless links; only the
    feasibility check reads it, so it is not validated."""
    g = augment_with_wired_backhaul(random_instance(seed), wired_capacity=1.0)
    keep = [l for cand in g.station_links for l in cand[: rng.integers(0, 4)]]
    kept = sorted(keep + list(g.wired_links))
    links = tuple(replace(g.links[l], index=i) for i, l in enumerate(kept))
    return TopologyGraph(g.nodes, links, (), g.backhaul, g.interference)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_samples=st.sampled_from([1, 2, 40]),
    n_subbands=st.integers(1, 4),
    silent=st.booleans(),
    doubled=st.booleans(),
    wired=st.booleans(),
)
def test_block_feasibility_check_matches_the_per_station_loop(seed, n_samples, n_subbands, silent, doubled, wired):
    """The array-op check raises exactly where the per-station reference
    raises, with its message, and passes everywhere else, on a C-contiguous
    schedule and on a subframe-contiguous one as the kernel lays it out.
    Faults: a silent station serving, a station serving two links on one
    subband, a wired link scheduled."""
    rng = np.random.default_rng(seed)
    g = _feasibility_graph(seed % 200, rng)
    active = rng.random((n_samples, g.num_bs)) < 0.7
    rho = np.zeros((n_samples, g.num_links, n_subbands), dtype=bool)
    for slot, cand in enumerate(g.station_links):
        if cand.size == 0:
            continue
        choice = rng.integers(-1, cand.size, size=(n_samples, n_subbands))  # -1: serve none
        serve = (choice >= 0) & (active[:, slot, None] | silent)
        s, m = np.nonzero(serve)
        rho[s, cand[choice[serve]], m] = True
        if doubled and cand.size > 1:
            rho[rng.integers(n_samples), cand[:2], rng.integers(n_subbands)] = True
    if wired and g.wired_links:
        rho[rng.integers(n_samples), rng.choice(g.wired_links), rng.integers(n_subbands)] = True
    try:
        loop_assert_block_feasible(g, active, rho)
        expected = None
    except AssertionError as error:
        expected = str(error)
    for layout in (rho, np.ascontiguousarray(rho.transpose(1, 2, 0)).transpose(2, 0, 1)):
        if expected is None:
            assert_block_feasible(g, active, layout)
        else:
            with pytest.raises(AssertionError) as raised:
                assert_block_feasible(g, active, layout)
            assert str(raised.value) == expected


def test_schedule_block_cross_checks_subframe_zero(monkeypatch):
    g = _two_station_graph()
    block = np.random.default_rng(4).random((5, 3, 2))
    active = np.ones((5, 2), dtype=bool)
    kernel = phy.block_winners

    def swapped(graph, weights, rate_block, winner_rates=None):
        winners, rates = kernel(graph, weights, rate_block, winner_rates)
        winners = winners.copy()
        winners[0, [0, 1]] = winners[0, [1, 0]]  # still feasible, but not max-weight
        return winners, rates

    monkeypatch.setattr(phy, "block_winners", swapped)
    winners, served, _, _ = phy.station_contributions(g, np.ones((1, 3)), block)
    with pytest.raises(AssertionError, match="disagrees with schedule_links"):
        schedule_block(g, active, np.ones(3), block, winners, served)
    # the superframe loop feeds the same pass to the same cross-check
    model = ChannelModel(g, 2, 40.0, 33.0, seed=4)
    state, config = initial_state(model), RrmConfig(subframes_per_superframe=5)
    with pytest.raises(AssertionError, match="disagrees with schedule_links"):
        run_superframe(model, state, config, block_pass(model, state, config))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_rows=st.integers(1, 6),
    n_samples=st.sampled_from([1, 2, 40]),
    kind=st.sampled_from(["fading", "ties", "statistical"]),
    shape=st.sampled_from(["random", "one-link station", "one link"]),
)
def test_stacked_kernel_matches_per_vector_reference_bit_for_bit(seed, n_rows, n_samples, kind, shape):
    """Winners and per-row rates equal the per-station reference bit for bit;
    the block means and standard errors are numpy's mean and
    ``std(ddof=1) / sqrt(S)`` over a subframe-contiguous (L, S) copy of the
    reference's per-subframe rates."""
    g = {
        "random": lambda: random_instance(seed % 500),
        "one-link station": _two_station_graph,
        "one link": single_link_graph,
    }[shape]()
    rng = np.random.default_rng(seed)
    model = ChannelModel(g, int(rng.integers(1, 12)), 40.0, 33.0, seed=seed % 1000)
    block = model.rate_block(int(rng.integers(0, 10_000)), n_samples)
    winner_rates = model.statistical_rates() if kind == "statistical" else None
    weights = rng.uniform(0.0, 2.0, (n_rows, g.num_links))
    weights[rng.random(weights.shape) < 0.2] = 0.0  # zero weights tie at a zero score
    if kind == "ties":
        block = np.full(block.shape, 0.75)
        weights = np.round(weights * 2.0) / 2.0  # equal weights: equal scores
    weights[rng.integers(n_rows)] = weights[0]  # a repeated row
    winners, rates = block_winners(g, weights, block, winner_rates)
    _, served, mean, stderr = station_contributions(g, weights, block, winner_rates)
    assert rates.shape == (n_rows, g.num_links, n_samples)
    assert np.array_equal(served, rates[0])
    for k in range(n_rows):
        ref_winners, per_station = vector_block_winners(g, weights[k], block, winner_rates)
        per_link = np.ascontiguousarray(per_station.sum(axis=1).T)  # (L, S); one station per link
        if k == 0:
            assert np.array_equal(winners, ref_winners)
        assert np.array_equal(rates[k], per_link)
        assert np.array_equal(mean[k], per_link.mean(axis=1))
        if n_samples == 1:
            assert np.all(stderr[k] == 0.0)
        else:
            assert np.array_equal(stderr[k], per_link.std(axis=1, ddof=1) / np.sqrt(n_samples))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_block_kernel_refuses_non_finite_weights(bad):
    g = _two_station_graph()
    block = np.random.default_rng(5).random((4, 3, 2))
    weights = np.ones((3, 3))
    weights[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        block_winners(g, weights, block)
    with pytest.raises(ValueError, match="non-finite"):
        phy.station_contributions(g, weights, block)
    with pytest.raises(ValueError, match=r"\(K, 3\) stack"):
        block_winners(g, np.ones(3), block)


def test_station_contributions_hand_case():
    g = _two_station_graph()
    block = np.array(
        [
            [[2.0, 1.0], [1.0, 3.0], [4.0, 4.0]],
            [[1.0, 2.0], [3.0, 1.0], [6.0, 2.0]],
        ]
    )
    _, _, mean, stderr = station_contributions(g, np.ones((1, 3)), block)
    mean, stderr = mean[0], stderr[0]
    # station 0: subframe 0 serves link0@2.0 + link1@3.0; subframe 1 link1@3.0 + link0@2.0
    assert np.allclose(mean[:2], [2.0, 3.0])
    # station 1's only link serves (4+4, 6+2) on the two subframes
    assert np.allclose(mean[2], 8.0)
    assert np.allclose(stderr, [0.0, 0.0, 0.0])
    # statistical winners pin the argmax while payload stays realized
    stat = np.array([[9.0, 9.0], [1.0, 1.0], [1.0, 1.0]])
    _, _, mean2, _ = station_contributions(g, np.ones((1, 3)), block, winner_rates=stat)
    assert np.allclose(mean2[0, :2], [3.0, 0.0])  # link0 payload (2+1, 1+2)/2 per subband summed


def test_rate_table_rows_are_sums_of_station_rows():
    g = multicell_graph()
    m = ChannelModel(g, 3, 40.0, 33.0, seed=8)
    block = m.rate_block(0, 40)
    weights = np.linspace(0.5, 1.5, g.num_links)
    patterns = enumerate_feasible_patterns(g.interference)
    _, _, mean, stderr = station_contributions(g, weights[None], block)
    rates, _ = rate_table_for_patterns(g, patterns, mean[0], stderr[0])
    mean = mean[0]
    for j, p in enumerate(patterns):
        # station n's row holds the link means on its own links, zero elsewhere
        station_rows = [np.where(g.link_station == n, mean, 0.0) for n in range(g.num_bs)]
        assert np.array_equal(rates[j], sum(on * row for on, row in zip(p, station_rows)))
    assert not patterns[0].any()  # the all-silent pattern sorts first
    assert np.all(rates[0] == 0.0)


def test_conditional_rate_matches_rayleigh_quadrature():
    nodes = [Node(0, MACRO, (0.0, 0.0)), Node(1, USER, (70.0, 0.0))]
    g = build_graph(nodes, [Link(0, 0, 1)], [Flow(0, 0, 1)], {0})
    m = ChannelModel(g, 10, 40.0, 33.0, seed=21)
    a = m.tx_powers[0] * m.large_gains[0] ** 2
    exact, _ = integrate.quad(lambda x: np.log1p(a * x) * np.exp(-x), 0.0, np.inf)
    mc = conditional_rate(g, np.ones(1, dtype=bool), np.ones(1), m, n_samples=4000)
    # rates are totals across the model's subbands, each an iid Rayleigh draw
    assert mc[0] == pytest.approx(m.num_subbands * exact, rel=0.02)


def test_two_link_winner_matches_order_statistic_quadrature():
    nodes = [Node(0, MACRO, (0.0, 0.0)), Node(1, USER, (70.0, 0.0)),
             Node(2, USER, (0.0, 70.0))]
    links = [Link(0, 0, 1), Link(1, 0, 2)]
    g = build_graph(nodes, links, [Flow(0, 0, 1), Flow(1, 0, 2)], {0})
    gains = np.full(2, 1e-5)
    m = ChannelModel(g, 10, 40.0, 33.0, seed=22)
    m.large_gains = gains
    a = m.tx_powers[0] * gains[0] ** 2
    best_of_two, _ = integrate.quad(
        lambda z: np.log1p(a * z) * 2.0 * np.exp(-z) * (1.0 - np.exp(-z)), 0.0, np.inf
    )
    row = conditional_rate(g, np.ones(1, dtype=bool), np.ones(2), m, n_samples=4000)
    assert row.sum() == pytest.approx(m.num_subbands * best_of_two, rel=0.02)
    # both links are statistically identical, so service splits evenly
    assert row[0] == pytest.approx(row[1], rel=0.05)


def test_conditional_rate_monotone_in_power():
    g = random_instance(12)
    lo = ChannelModel(g, 4, 34.0, 27.0, seed=5)
    hi = ChannelModel(g, 4, 40.0, 33.0, seed=5)
    pattern = np.ones(g.num_bs, dtype=bool)
    if not is_feasible_pattern(g.interference, pattern):
        pattern = enumerate_feasible_patterns(g.interference)[-1]
    w = np.ones(g.num_links)
    r_lo = conditional_rate(g, pattern, w, lo, n_samples=200)
    r_hi = conditional_rate(g, pattern, w, hi, n_samples=200)
    assert np.all(r_hi >= r_lo - 1e-12)
    assert r_hi.sum() > r_lo.sum()
