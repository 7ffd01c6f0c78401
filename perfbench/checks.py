"""Output checks, computed by the benchmark itself and run outside every
timed span.

Each check returns a list of problem strings (empty when the output is
right).  The references are independent of the program's own helpers: the
benchmark builds its own incidence matrix and its own path lists, and reads
the optimality conditions straight off ``link_flows`` and ``prices``.
"""

from __future__ import annotations

import numpy as np

# The interior point stops at residual 1e-9 and complementarity ~1e-12 times
# the capacity scale; these leave room for that and for float summation.
FEAS_TOL = 1e-7
PRICE_TOL = 1e-6
PATH_USE = 1e-5  # a path carrying less than this is treated as unused
FD_STEP = 1e-4
FD_TOL = 1e-4


def incidence(graph) -> np.ndarray:
    """Node-link incidence: +1 where the link leaves the node, -1 where it enters."""
    inc = np.zeros((graph.num_nodes, graph.num_links))
    for link in graph.links:
        inc[link.head, link.index] = 1.0
        inc[link.tail, link.index] = -1.0
    return inc


def simple_paths(graph, source: int, dest: int) -> list[tuple[int, ...]]:
    """Every simple path as a tuple of link indices (depth-first search)."""
    out: list[tuple[int, ...]] = []

    def walk(node: int, seen: frozenset[int], acc: tuple[int, ...]) -> None:
        if node == dest:
            out.append(acc)
            return
        for link in graph.links:
            if link.head == node and link.tail not in seen:
                walk(link.tail, seen | {link.tail}, acc + (link.index,))

    walk(source, frozenset({source}), ())
    return out


def flow_conservation(graph, link_flows: np.ndarray, rates: np.ndarray) -> list[str]:
    inc = incidence(graph)
    problems = []
    scale = 1.0 + float(np.max(np.abs(link_flows), initial=0.0))
    for flow in graph.flows:
        want = np.zeros(graph.num_nodes)
        want[flow.source] = rates[flow.index]
        want[flow.destination] = -rates[flow.index]
        err = float(np.max(np.abs(inc @ link_flows[flow.index] - want)))
        if err > FEAS_TOL * scale:
            problems.append(f"flow {flow.index} violates conservation by {err:.2e}")
    if np.any(link_flows < -FEAS_TOL * scale):
        problems.append("negative link flow")
    return problems


def on_simplex(shares: np.ndarray) -> list[str]:
    shares = np.asarray(shares, dtype=float)
    if np.any(shares < -1e-12) or abs(float(shares.sum()) - 1.0) > 1e-9:
        return [f"shares off the simplex (sum {shares.sum():.12f}, min {shares.min():.2e})"]
    return []


def independent_patterns(graph, patterns) -> list[str]:
    problems = []
    for pattern in patterns:
        active = [i for i, on in enumerate(pattern) if on]
        for a in active:
            for b in active:
                if a < b and graph.interference[a, b]:
                    problems.append(f"pattern {pattern} activates conflicting stations {a} and {b}")
    return problems


def converged_point(graph, result) -> list[str]:
    """Properties every point the superframe loop returns must have."""
    state = result.state
    flow = state.flow
    problems = flow_conservation(graph, flow.link_flows, flow.rates)
    problems += on_simplex(state.shares)
    problems += independent_patterns(graph, [m.pattern for m in state.members])
    capacity = graph.wired_base_capacity() + state.shares @ state.rate_rows
    excess = float(np.max(flow.link_flows.sum(axis=0) - capacity))
    if excess > FEAS_TOL * (1.0 + float(np.max(capacity))):
        problems.append(f"link load exceeds time-shared capacity by {excess:.2e}")
    return problems


def flow_kkt(graph, capacities: np.ndarray, sol, utility) -> list[str]:
    """Optimality conditions of the flow program, from ``link_flows`` and ``prices``.

    Starved links (capacity 0) are left out of the program and priced
    afterwards, so complementary slackness is not asked of them; their
    prices must still keep every path through them from looking profitable.
    """
    problems = []
    load = sol.link_flows.sum(axis=0)
    scale = 1.0 + float(np.max(capacities))
    if np.any(load > capacities + FEAS_TOL * scale):
        problems.append(f"capacity exceeded by {float(np.max(load - capacities)):.2e}")
    if np.any(sol.prices < -PRICE_TOL):
        problems.append(f"negative price {float(np.min(sol.prices)):.2e}")
    starved = capacities <= 0.0
    slack = (capacities - load > 1e-6 * scale) & ~starved
    if np.any(np.abs(sol.prices[slack]) > PRICE_TOL):
        problems.append(f"slack link priced at {float(np.max(sol.prices[slack])):.2e}")
    problems += flow_conservation(graph, sol.link_flows, sol.rates)

    marginal = utility.gradient(sol.rates)
    for flow in graph.flows:
        k = flow.index
        for path in simple_paths(graph, flow.source, flow.destination):
            price = float(sum(sol.prices[l] for l in path))
            carried = float(min(sol.link_flows[k, l] for l in path))
            tol = PRICE_TOL * (1.0 + marginal[k])
            where = f"flow {k} path {path} priced {price:.6g}"
            if price < marginal[k] - tol:
                problems.append(f"{where}, below its marginal utility {marginal[k]:.6g}")
            if carried > PATH_USE and abs(price - marginal[k]) > tol:
                problems.append(f"{where} carries traffic but its marginal utility is {marginal[k]:.6g}")
    return problems


def price_finite_differences(graph, capacities: np.ndarray, sol, utility, solve) -> list[str]:
    """Central differences of the optimal utility against the prices, on every
    link whose capacity leaves room for the step."""
    problems = []
    for l in np.flatnonzero(capacities > 10.0 * FD_STEP):
        bump = np.zeros_like(capacities)
        bump[l] = FD_STEP
        slope = (solve(graph, capacities + bump, utility).utility
                 - solve(graph, capacities - bump, utility).utility) / (2.0 * FD_STEP)
        if abs(slope - sol.prices[l]) > FD_TOL * (1.0 + abs(slope)):
            problems.append(f"link {l}: price {sol.prices[l]:.6g} but finite difference {slope:.6g}")
    return problems
