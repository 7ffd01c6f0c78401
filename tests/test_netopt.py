import gc
import itertools
import warnings
import weakref
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hetnet_rrm import netopt
from hetnet_rrm.baselines import run_fbc
from hetnet_rrm.netopt import (
    NetOptError,
    UtilitySpec,
    optimize_time_sharing,
    solve_p1,
)
from hetnet_rrm.oracle import oracle_solve, vertex_rate_rows
from hetnet_rrm.rrm import RrmConfig, run_to_convergence
from hetnet_rrm.scenario import parse_scenario, with_param
from hetnet_rrm.topology import Flow, Link, Node, NodeKind

from conftest import (
    build_graph,
    det_model,
    diamond_graph,
    multicell_graph,
    random_instance,
    relay_grid_graph,
    single_link_graph,
)
from reference import build_incidence, finite_diff_gradient, unstacked_interior_point

LOG = UtilitySpec(alpha=1.0, epsilon=1e-3)


def test_utility_spec_forms_and_derivatives():
    u1 = UtilitySpec(alpha=1.0, epsilon=0.01)
    d = np.array([0.3, 1.7])
    assert np.allclose(u1.value(d), np.log(d + 0.01))
    u2 = UtilitySpec(alpha=2.0, epsilon=0.01)
    assert np.allclose(u2.value(d), -1.0 / (d + 0.01))
    for u in (u1, u2, UtilitySpec(alpha=0.5, epsilon=0.02)):
        h = 1e-6
        num_grad = (u.value(d + h) - u.value(d - h)) / (2 * h)
        assert np.allclose(u.gradient(d), num_grad, rtol=1e-5)
        num_curv = -(u.gradient(d + h) - u.gradient(d - h)) / (2 * h)
        gradient, curvature = u.derivatives(d)
        assert np.array_equal(gradient, u.gradient(d))
        assert np.allclose(curvature, num_curv, rtol=1e-5)
        assert u.total(d) == pytest.approx(u.value(d).sum())
    with pytest.raises(ValueError):
        UtilitySpec(alpha=0.0)
    with pytest.raises(ValueError):
        UtilitySpec(alpha=-1.0)
    with pytest.raises(ValueError):
        UtilitySpec(epsilon=0.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="alpha must be finite"):
            UtilitySpec(alpha=bad)
        with pytest.raises(ValueError, match="epsilon must be finite"):
            UtilitySpec(epsilon=bad)


def test_single_link_closed_form():
    g = single_link_graph()
    for alpha in (1.0, 2.0):
        u = UtilitySpec(alpha=alpha, epsilon=1e-3)
        sol = solve_p1(g, np.array([0.8]), u)
        assert sol.rates[0] == pytest.approx(0.8, abs=1e-7)
        assert sol.utility == pytest.approx(u.total([0.8]), abs=1e-7)
        # the capacity price is the marginal utility at the binding rate
        assert sol.prices[0] == pytest.approx(u.gradient(0.8), rel=1e-6)
        assert sol.kkt_residual <= 1e-6


def test_relay_bottleneck_closed_form():
    g = relay_grid_graph()
    caps = np.array([1.0, 0.8, 0.45, 0.7])
    sol = solve_p1(g, caps, LOG)
    # flows to users 2 and 3 share the relay link; the third flow is separate
    assert sol.rates == pytest.approx([0.55, 0.45, 0.7], abs=1e-6)
    e = LOG.epsilon
    assert sol.prices[0] == pytest.approx(1.0 / (0.55 + e), abs=1e-5)
    assert sol.prices[1] == pytest.approx(0.0, abs=1e-6)
    assert sol.prices[2] == pytest.approx(1.0 / (0.45 + e) - 1.0 / (0.55 + e), abs=1e-5)
    assert sol.prices[3] == pytest.approx(1.0 / (0.7 + e), abs=1e-5)
    assert sol.utility == pytest.approx(LOG.total([0.55, 0.45, 0.7]), abs=1e-7)
    assert sol.link_flows[0] == pytest.approx([0.55, 0.55, 0.0, 0.0], abs=1e-6)
    assert sol.link_flows[1] == pytest.approx([0.45, 0.0, 0.45, 0.0], abs=1e-6)
    assert sol.link_flows[2] == pytest.approx([0.0, 0.0, 0.0, 0.7], abs=1e-6)


def test_diamond_uses_both_paths():
    g = diamond_graph()
    caps = np.array([0.5, 0.9, 0.4, 0.7])
    sol = solve_p1(g, caps, LOG)
    assert sol.rates[0] == pytest.approx(1.1, abs=1e-6)
    assert sol.link_flows[0] == pytest.approx([0.4, 0.7, 0.4, 0.7], abs=1e-6)
    lam = 1.0 / (1.1 + LOG.epsilon)
    assert sol.prices == pytest.approx([0.0, 0.0, lam, lam], abs=1e-5)


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_prices_match_finite_difference(alpha):
    u = UtilitySpec(alpha=alpha, epsilon=1e-3)
    for g, caps in (
        (relay_grid_graph(), np.array([1.0, 0.8, 0.45, 0.7])),
        (diamond_graph(), np.array([0.5, 0.9, 0.4, 0.7])),
    ):
        sol = solve_p1(g, caps, u)
        fd = finite_diff_gradient(g, caps, u)
        assert np.max(np.abs(sol.prices - fd)) <= 1e-3


def test_flow_conservation_and_capacity(multicell):
    rng = np.random.default_rng(41)
    caps = rng.uniform(0.2, 1.2, multicell.num_links)
    sol = solve_p1(multicell, caps, LOG)
    inc = build_incidence(multicell)
    for k, flow in enumerate(multicell.flows):
        divergence = inc @ sol.link_flows[k]
        expect = np.zeros(len(multicell.nodes))
        expect[flow.source] = sol.rates[k]
        expect[flow.destination] = -sol.rates[k]
        assert np.allclose(divergence, expect, atol=1e-6)
    assert np.all(sol.link_flows >= -1e-9)
    load = sol.link_flows.sum(axis=0)
    assert np.all(load <= caps + 1e-6)
    assert np.all(sol.prices >= -1e-9)


def test_complementary_slackness(multicell):
    rng = np.random.default_rng(42)
    caps = rng.uniform(0.2, 1.2, multicell.num_links)
    sol = solve_p1(multicell, caps, LOG)
    slack = caps - sol.link_flows.sum(axis=0)
    assert np.all(np.minimum(sol.prices, slack) <= 1e-5)


def test_solution_reports_newton_iterations(monkeypatch, multicell):
    # Factor and solve are one posv call, so a solve without a jitter retry
    # makes exactly one factorization per Newton step.  A refinement step
    # near the floor solves on the factor its Newton step just made, with
    # one potrs call and no factorization of its own.
    posv, potrs = netopt._posv, netopt._potrs
    infos, factors, refined = [], [], []

    def counted(matrix, rhs, **kwargs):
        result = posv(matrix, rhs, **kwargs)
        infos.append(result[2])
        factors.append(result[0])
        return result

    def counted_refinement(factor, rhs, **kwargs):
        refined.append(factor is factors[-1])
        return potrs(factor, rhs, **kwargs)

    monkeypatch.setattr(netopt, "_posv", counted)
    monkeypatch.setattr(netopt, "_potrs", counted_refinement)
    rng = np.random.default_rng(41)
    sol = solve_p1(multicell, rng.uniform(0.2, 1.2, multicell.num_links), LOG)
    assert sol.newton_iters > 0
    assert sol.banked is False
    assert infos == [0] * sol.newton_iters
    assert 0 < sol.refinements < sol.newton_iters
    assert refined == [True] * sol.refinements


def test_capacity_validation():
    g = single_link_graph()
    with pytest.raises(ValueError):
        solve_p1(g, np.array([0.5, 0.5]), LOG)
    with pytest.raises(ValueError):
        solve_p1(g, np.array([-0.2]), LOG)
    # a non-finite capacity is a bad input, not a solver failure, and is
    # refused before any arithmetic can warn about it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                solve_p1(g, np.array([bad]), LOG)
            with pytest.raises(ValueError, match="finite"):
                solve_p1(diamond_graph(), np.array([0.5, bad, 0.4, 0.7]), LOG)


def test_starved_link_gets_marginal_price():
    g = single_link_graph()
    sol = solve_p1(g, np.array([0.0]), LOG)
    assert sol.rates[0] == pytest.approx(0.0, abs=1e-9)
    assert sol.utility == pytest.approx(np.log(LOG.epsilon))
    # giving the dead link capacity is worth the marginal utility at zero rate
    assert sol.prices[0] == pytest.approx(1.0 / LOG.epsilon)


def test_dead_path_reroutes_and_is_priced():
    g = diamond_graph()
    sol = solve_p1(g, np.array([0.0, 0.9, 0.4, 0.7]), LOG)
    assert sol.rates[0] == pytest.approx(0.7, abs=1e-6)
    assert np.allclose(sol.link_flows[0, [0, 2]], 0.0, atol=1e-9)
    lam = 1.0 / (0.7 + LOG.epsilon)
    assert sol.prices[3] == pytest.approx(lam, abs=1e-5)
    # reviving the dead first hop would route extra flow through the slack
    # second hop, so its patched price equals the flow's marginal utility
    assert sol.prices[0] == pytest.approx(lam, abs=1e-5)
    assert sol.prices[1] == pytest.approx(0.0, abs=1e-6)
    assert sol.prices[2] == pytest.approx(0.0, abs=1e-6)


def _conflict_pair_graph():
    nodes = [
        Node(0, NodeKind.MACRO, (0.0, 0.0)),
        Node(1, NodeKind.PICO, (300.0, 0.0)),
        Node(2, NodeKind.USER, (30.0, 10.0)),
        Node(3, NodeKind.USER, (330.0, 10.0)),
    ]
    links = [Link(0, 0, 2), Link(1, 1, 3)]
    flows = [Flow(0, 0, 2), Flow(1, 1, 3)]
    g = build_graph(nodes, links, flows, {0, 1})
    assert g.interference[0, 1]
    return g


def test_time_sharing_single_row_passthrough():
    g = single_link_graph()
    q, sol = optimize_time_sharing(np.array([[0.9]]), g, LOG)
    assert q == pytest.approx([1.0])
    assert sol.rates[0] == pytest.approx(0.9, abs=1e-7)


def test_time_sharing_log_splits_time_evenly():
    g = _conflict_pair_graph()
    r, s, e = 2.0, 0.5, LOG.epsilon
    rows = np.array([[0.0, 0.0], [0.0, s], [r, 0.0]])
    q, sol = optimize_time_sharing(rows, g, LOG)
    # log utility shares time (not rate) across the two stations
    q_star = 0.5 + e * (r - s) / (2 * r * s)
    assert q[0] == pytest.approx(0.0, abs=1e-3)
    assert q[2] == pytest.approx(q_star, abs=5e-3)
    assert sol.rates[0] == pytest.approx(q_star * r, abs=1e-2)
    assert sol.rates[1] == pytest.approx((1.0 - q_star) * s, abs=1e-2)


def test_time_sharing_alpha2_closed_form():
    g = _conflict_pair_graph()
    u = UtilitySpec(alpha=2.0, epsilon=1e-3)
    r, s, e = 2.0, 0.5, u.epsilon
    rows = np.array([[0.0, 0.0], [0.0, s], [r, 0.0]])
    q, sol = optimize_time_sharing(rows, g, u)
    q_star = (s * np.sqrt(r) + e * (np.sqrt(r) - np.sqrt(s))) / (
        r * np.sqrt(s) + s * np.sqrt(r)
    )
    assert q[0] == pytest.approx(0.0, abs=1e-3)
    assert q[2] == pytest.approx(q_star, abs=3e-3)
    assert sol.rates[0] == pytest.approx(q_star * r, abs=1e-2)


def test_duration_groups_from_labels():
    """Row n sits in group labels[n], in row order, and each of the H groups
    holds 1/H of the time."""
    groups = netopt.duration_groups(np.array([1, 0, 1, 2, 0]))
    assert [idx.tolist() for idx, _ in groups] == [[1, 4], [0, 2], [3]]
    assert [total for _, total in groups] == [1.0 / 3.0] * 3
    [(idx, total)] = netopt.duration_groups(np.zeros(4, dtype=int))
    assert idx.tolist() == [0, 1, 2, 3] and total == 1.0
    for labels in ([], [1, 1], [0, 2, 2]):
        with pytest.raises(ValueError, match="every group 0..H-1"):
            netopt.duration_groups(np.array(labels, dtype=int))


def test_time_sharing_input_validation():
    g = _conflict_pair_graph()
    with pytest.raises(ValueError):
        optimize_time_sharing(np.ones((2, 3)), g, LOG)
    rows = np.ones((3, 2))
    # one duration group label per row, every group 0..H-1 used
    for labels in ([0, 1], [0, 1, 2, 0], [[0], [1], [2]]):
        with pytest.raises(ValueError, match="one duration group label per rate row"):
            optimize_time_sharing(rows, g, LOG, groups=np.array(labels))
    for labels in ([0, 0, 2], [1, 1, 1], [0, 3, 1]):
        with pytest.raises(ValueError, match="every group"):
            optimize_time_sharing(rows, g, LOG, groups=np.array(labels))
    with pytest.raises(ValueError):
        optimize_time_sharing(rows, g, LOG, groups=np.array([0, -1, 1]))
    # non-finite rates or base capacities are bad inputs, refused up front
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.nan, np.inf, -np.inf):
            bad_rows = np.array([[0.0, 0.0], [0.0, 0.5], [2.0, 0.0]])
            bad_rows[2, 0] = bad
            with pytest.raises(ValueError, match="rate rows must be finite"):
                optimize_time_sharing(bad_rows, g, LOG)
            with pytest.raises(ValueError, match="rate rows must be finite"):
                optimize_time_sharing(bad_rows[2:], g, LOG)  # the single-row path
            with pytest.raises(ValueError, match="base capacities must be finite"):
                optimize_time_sharing(rows, g, LOG, base_capacity=np.array([bad, 0.0]))


def test_time_sharing_certifies_random_vertex_systems():
    # Regression guard: degenerate vertex systems used to break the interior
    # point near the central-path floor or stall the share optimizer.
    for seed in (1006, 1013, 1021):
        g = random_instance(seed)
        rows = vertex_rate_rows(det_model(g))
        q, sol = optimize_time_sharing(
            rows, g, LOG, tol=1e-5, base_capacity=g.wired_base_capacity()
        )
        assert q.shape == (rows.shape[0],)
        assert np.all(q >= -1e-12) and q.sum() == pytest.approx(1.0, abs=1e-9)
        gap = float(np.max(rows @ sol.prices) - q @ (rows @ sol.prices))
        assert gap <= 1e-5 + 1e-9
        assert sol.kkt_residual <= 1e-6
        # the certified optimum dominates every pure-pattern policy
        for row in rows:
            assert sol.utility >= solve_p1(g, g.wired_base_capacity() + row, LOG).utility - 1e-6


def test_time_sharing_joint_optimum_dominates_fixed_shares():
    g = _conflict_pair_graph()
    rows = np.array([[0.0, 0.0], [0.0, 0.5], [2.0, 0.0]])
    _, sol = optimize_time_sharing(rows, g, LOG)
    for start in (np.full(3, 1.0 / 3.0), np.array([0.2, 0.3, 0.5])):
        assert sol.utility >= solve_p1(g, start @ rows, LOG).utility


def test_time_sharing_gap_above_tolerance_raises(monkeypatch):
    # A joint solve that stopped at uniform shares leaves a gap the
    # post-condition must refuse rather than return.
    g = _conflict_pair_graph()
    rows = np.array([[0.0, 0.0], [0.0, 0.5], [2.0, 0.0]])
    uniform = np.full(3, 1.0 / 3.0)
    at_uniform = solve_p1(g, uniform @ rows, LOG)
    monkeypatch.setattr(netopt, "_solve_joint", lambda *args: (uniform, at_uniform))
    with pytest.raises(NetOptError, match="linearization gap"):
        optimize_time_sharing(rows, g, LOG)


def _seeded_labels(n_rows, seed):
    """Random duration group labels putting the rows in min(n_rows, 3) groups."""
    rng = np.random.default_rng(seed)
    n_groups = min(n_rows, 3)
    extra = rng.integers(0, n_groups, n_rows - n_groups)
    return rng.permutation(np.concatenate([np.arange(n_groups), extra]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**31 - 1),
    alpha=st.sampled_from([1.0, 2.0]),
    tol=st.sampled_from([1e-5, 1e-7]),
    grouping=st.sampled_from(["one_group", "partition"]),
)
def test_time_sharing_properties_on_random_vertex_systems(seed, alpha, tol, grouping):
    g = random_instance(seed)
    u = UtilitySpec(alpha=alpha, epsilon=1e-3)
    rows = vertex_rate_rows(det_model(g))
    base = g.wired_base_capacity()
    if grouping == "one_group":
        labels = np.zeros(rows.shape[0], dtype=int)
    else:
        labels = _seeded_labels(rows.shape[0], seed)
    q, sol = optimize_time_sharing(rows, g, u, tol=tol, base_capacity=base, groups=labels)
    groups = [(np.flatnonzero(labels == h), 1.0 / (labels.max() + 1)) for h in range(labels.max() + 1)]
    assert q.shape == (rows.shape[0],)
    assert np.all(q >= 0.0)
    members, totals = [idx for idx, _ in groups], np.array([t for _, t in groups])
    for idx, total in groups:
        assert q[idx].sum() == pytest.approx(total, abs=1e-12)
    g_share = rows @ sol.prices
    best = sum(t * np.max(g_share[idx]) for idx, t in groups)
    assert float(best - q @ g_share) <= tol
    assert sol.kkt_residual <= 1e-6
    # the flows fit the capacities the returned shares provide
    assert np.all(sol.link_flows.sum(axis=0) <= base + q @ rows + 1e-6)
    # every vertex of the grouped share set: one row per group at its total
    for vertex in itertools.product(*members):
        caps = base + totals @ rows[list(vertex)]
        assert sol.utility >= solve_p1(g, caps, u).utility - 1e-6


def test_path_sets_are_dropped_with_their_graph():
    gc.collect()  # graphs earlier tests dropped leave with their cycles
    graph = relay_grid_graph()
    solve_p1(graph, np.ones(graph.num_links), LOG)
    assert graph in netopt._path_problems
    alive = weakref.ref(graph)
    cached = len(netopt._path_problems)
    # The last reference must free the graph, without the cyclic collector.
    gc.disable()
    try:
        del graph
        assert alive() is None
        assert len(netopt._path_problems) == cached - 1
    finally:
        gc.enable()


def _relay_grid_program():
    """The relay-grid flow problem as ``_interior_point`` takes it."""
    problem = netopt._path_problem(relay_grid_graph())
    caps = np.array([1.0, 0.8, 0.45, 0.7])
    return problem.flow_matrix, problem.link_matrix, caps


def test_interior_point_raises_when_out_of_iterations():
    flow_matrix, link_matrix, caps = _relay_grid_program()
    with pytest.raises(NetOptError, match="did not converge"):
        netopt._interior_point(flow_matrix, link_matrix, caps, LOG, 1e-12, max_iters=1)


def test_interior_point_returns_banked_iterate_below_reachable_floor():
    # mu never reaches 0, so the run ends in breakdown or at max_iters; both
    # must hand back the last iterate that passed the residual tests.
    flow_matrix, link_matrix, caps = _relay_grid_program()
    ip = netopt._interior_point(flow_matrix, link_matrix, caps, LOG, 0.0, max_iters=120)
    assert ip.banked
    assert 0 < ip.newton_iters <= 120
    assert ip.residual <= 1e-9
    assert flow_matrix @ ip.v == pytest.approx([0.55, 0.45, 0.7], abs=1e-6)
    assert ip.multipliers[0] == pytest.approx(1.0 / (0.55 + LOG.epsilon), abs=1e-5)


def test_interior_point_retries_failed_factorization_with_jitter(monkeypatch):
    flow_matrix, link_matrix, caps = _relay_grid_program()
    reference = netopt._interior_point(flow_matrix, link_matrix, caps, LOG, 1e-12)
    posv = netopt._posv
    calls = []

    def fail_once(matrix, rhs, **kwargs):
        calls.append(matrix.copy())
        factor, solution, info = posv(matrix, rhs, **kwargs)
        return factor, solution, (1 if len(calls) == 1 else info)

    monkeypatch.setattr(netopt, "_posv", fail_once)
    ip = netopt._interior_point(flow_matrix, link_matrix, caps, LOG, 1e-12)
    # the retry factors the same matrix with a larger diagonal
    off_diagonal = ~np.eye(len(calls[0]), dtype=bool)
    assert np.array_equal(calls[1][off_diagonal], calls[0][off_diagonal])
    assert np.all(np.diag(calls[1]) > np.diag(calls[0]))
    assert not ip.banked
    assert ip.residual <= 1e-9
    assert ip.complementarity <= 1e-12
    assert flow_matrix @ ip.v == pytest.approx(flow_matrix @ reference.v, abs=1e-7)
    assert ip.multipliers == pytest.approx(reference.multipliers, abs=1e-6)


def test_interior_point_not_finite_capacity_row_raises_without_bank():
    flow_matrix, link_matrix, caps = _relay_grid_program()
    bad_caps = caps.copy()
    bad_caps[2] = np.nan
    with pytest.raises(NetOptError):
        netopt._interior_point(flow_matrix, link_matrix, bad_caps, LOG, 1e-12)
    bad_row = link_matrix.copy()
    bad_row[2, bad_row[2] > 0] = np.inf
    with pytest.raises(NetOptError):
        netopt._interior_point(flow_matrix, bad_row, caps, LOG, 1e-12)


def test_interior_point_non_finite_newton_matrix_is_a_failed_factorization(monkeypatch):
    # At alpha=510 the curvature at the starting rate 0.25 overflows to inf
    # while the gradient stays finite, so only the Newton matrix is non-finite.
    # No jitter can make such a matrix finite, so it is neither factored nor
    # retried with a jitter taken from its trace.
    flow_matrix, link_matrix, caps = _relay_grid_program()
    steep = UtilitySpec(alpha=510.0, epsilon=1e-3)
    posv, trace = netopt._posv, np.trace
    calls = []

    def record(fn):
        def wrapped(matrix, *args, **kwargs):
            calls.append(fn)
            return fn(matrix, *args, **kwargs)

        return wrapped

    monkeypatch.setattr(netopt, "_posv", record(posv))
    monkeypatch.setattr(netopt.np, "trace", record(trace))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NetOptError, match="not positive definite"):
            netopt._interior_point(flow_matrix, link_matrix, caps, steep, 1e-12)
    assert calls == []


def test_interior_point_jitter_that_overflows_is_a_failed_factorization(monkeypatch):
    # A trace that overflows sizes a jitter that makes the jittered matrix
    # non-finite; it is not factored, and the failure is a breakdown.
    flow_matrix, link_matrix, caps = _relay_grid_program()
    posv = netopt._posv
    calls = []

    def fail(matrix, rhs, **kwargs):
        calls.append(matrix)
        factor, solution, _ = posv(matrix, rhs, **kwargs)
        return factor, solution, 1

    monkeypatch.setattr(netopt, "_posv", fail)
    monkeypatch.setattr(netopt.np, "trace", lambda matrix: np.inf)
    with pytest.raises(NetOptError, match="not positive definite"):
        netopt._interior_point(flow_matrix, link_matrix, caps, LOG, 1e-12)
    assert len(calls) == 1


def test_interior_point_rejects_flow_columns_other_than_a_single_one():
    flow_matrix, link_matrix, caps = _relay_grid_program()
    shared = flow_matrix.copy()
    shared[:, 0] = 1.0  # one path carrying every flow
    split = flow_matrix.copy()
    split[:2, 0] = 0.5  # sums to 1 over two flows
    for bad in (shared, split, 2.0 * flow_matrix, -flow_matrix):
        with pytest.raises(ValueError, match="single 1"):
            netopt._interior_point(bad, link_matrix, caps, LOG, 1e-12)
    # a program needs a variable and an inequality row
    with pytest.raises(ValueError, match="at least one"):
        netopt._interior_point(flow_matrix, link_matrix[:0], caps[:0], LOG, 1e-12)
    with pytest.raises(ValueError, match="at least one"):
        netopt._interior_point(flow_matrix[:, :0], link_matrix[:, :0], caps, LOG, 1e-12)


def _record_interior_point(monkeypatch):
    """Patch ``netopt._interior_point`` to log the arguments of every call."""
    calls = []
    solve = netopt._interior_point

    def record(*args):
        calls.append(tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args))
        return solve(*args)

    monkeypatch.setattr(netopt, "_interior_point", record)
    return calls


def _outcome(solve, args):
    """Every field of the result as bytes or values, or the error message."""
    try:
        result = solve(*args)
    except NetOptError as error:
        return str(error)
    return tuple(f.tobytes() if isinstance(f, np.ndarray) else f for f in result)


def test_interior_point_matches_unstacked_reference_bit_for_bit(monkeypatch):
    calls = _record_interior_point(monkeypatch)
    config = RrmConfig(subframes_per_superframe=40, max_superframes=40, utility=LOG)
    for graph in (multicell_graph(), random_instance(5), random_instance(45), random_instance(226)):
        run_to_convergence(det_model(graph), config)
    # fbc's wired backhaul gives flows several paths, so the refinement
    # residual's H_obj dv sums over more than one column per flow.
    text = resources.files("hetnet_rrm").joinpath("scenarios/fig7_like.scenario").read_text()
    fig7 = with_param(parse_scenario(text, path="fig7_like.scenario"), "p_pico_dbm", 33.0)
    run_fbc(fig7.channel_model(seed=fig7.seed), fig7.rrm)
    n_runs = len(calls)
    # The oracle's share programs over every vertex row; on random_instance(158)
    # and (1748) they stall after their last accurate iterate and return it banked.
    for seed in (158, 1748, 1006):
        oracle_solve(det_model(random_instance(seed)), LOG)
    n_oracle = len(calls)
    # Zero capacities kill links, whose paths leave the program, so these
    # programs have fewer rows than their graph has links.
    rng = np.random.default_rng(17)
    for graph in (diamond_graph(), relay_grid_graph(), multicell_graph(), random_instance(45)):
        peak = det_model(graph).statistical_rates().sum(axis=1)
        for n_dead in (1, 2):
            caps = peak * rng.uniform(0.05, 1.0, graph.num_links)
            caps[rng.choice(graph.num_links, n_dead, replace=False)] = 0.0
            n_before = len(calls)
            solve_p1(graph, caps, LOG)
            assert all(args[1].shape[0] < graph.num_links for args in calls[n_before:])
    monkeypatch.undo()
    joint = [args for args in calls[:n_runs] if np.any(args[0].sum(axis=0) == 0.0)]
    assert joint and len(joint) < n_runs  # share programs and plain flow solves
    assert all(np.any(args[0].sum(axis=0) == 0.0) for args in calls[n_runs:n_oracle])
    assert len(calls) >= n_oracle + 6
    flow_matrix, link_matrix, caps = _relay_grid_program()
    calls += [
        (flow_matrix, link_matrix, caps, LOG, 0.0),  # banked
        (flow_matrix, link_matrix, caps, LOG, 1e-12, 1),  # out of iterations
    ]
    outcomes = []
    for args in calls:
        with np.errstate(all="ignore"):
            outcomes.append(_outcome(unstacked_interior_point, args))
        assert _outcome(netopt._interior_point, args) == outcomes[-1]
    banked = [not isinstance(o, str) and o[-1] for o in outcomes]
    assert sum(banked) >= 3 and sum(banked[n_runs:n_oracle]) >= 2


@pytest.mark.parametrize("seed", [1748, 2060])
def test_overflowing_joint_solve_warns_nothing_and_returns_banked_iterate(monkeypatch, seed):
    # The oracle's share program on these instances overflows in the Newton
    # matrix after its last accurate iterate, so the matrix is neither
    # factored nor retried.
    calls = _record_interior_point(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exact = oracle_solve(det_model(random_instance(seed)), LOG)
    assert exact.flow.banked
    assert exact.flow.kkt_residual <= 1e-6
    # the unstacked iteration, which scopes no warnings, shows the overflow
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for args in calls:
            unstacked_interior_point(*args)
    assert any("overflow" in str(w.message) for w in caught)
