"""Brute-force references the tests check the program against.

They live with the tests, not in the package, so that no solver code path
can lean on them and the references stay independent of what they check.
"""

import numpy as np

from hetnet_rrm.channel import ChannelModel
from hetnet_rrm.netopt import UtilitySpec, solve_p1
from hetnet_rrm.phy import Pattern, rate_table_for_patterns
from hetnet_rrm.topology import TopologyGraph


def build_incidence(graph: TopologyGraph) -> np.ndarray:
    """Node-link incidence matrix: +1 at the head row, -1 at the tail row."""
    inc = np.zeros((graph.num_nodes, graph.num_links), dtype=np.int8)
    for l in graph.links:
        inc[l.head, l.index] = 1
        inc[l.tail, l.index] = -1
    return inc


def is_feasible_pattern(interference: np.ndarray, pattern: Pattern) -> bool:
    """True when no two active stations of the pattern interfere."""
    active = np.flatnonzero(np.asarray(pattern, dtype=bool))
    sub = interference[np.ix_(active, active)]
    return not np.any(sub)


def conditional_rate(
    graph: TopologyGraph,
    pattern: Pattern,
    weights: np.ndarray,
    channel: ChannelModel,
    n_samples: int,
    t_start: int = 0,
    statistical_winners: bool = False,
) -> np.ndarray:
    """Monte Carlo mean link rates for one pattern (exact when the channel is
    deterministic and ``n_samples`` is 1)."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    block = channel.rate_block(t_start, n_samples)
    winner = channel.statistical_rates() if statistical_winners else None
    table = rate_table_for_patterns(graph, [pattern], weights, block, winner)
    return table.rates[0]


def finite_diff_gradient(
    graph: TopologyGraph,
    capacities: np.ndarray,
    utility: UtilitySpec,
    h: float = 1e-4,
) -> np.ndarray:
    """Central-difference gradient of the optimal utility in the capacities.

    Reference oracle for the solver's prices; needs capacities comfortably
    above ``h`` so both perturbations stay interior.
    """
    capacities = np.asarray(capacities, dtype=float)
    grad = np.zeros_like(capacities)
    for l in range(len(capacities)):
        bump = np.zeros_like(capacities)
        bump[l] = h
        up = solve_p1(graph, capacities + bump, utility).utility
        down = solve_p1(graph, capacities - bump, utility).utility
        grad[l] = (up - down) / (2.0 * h)
    return grad


def grid_search_time_sharing(
    rate_rows: np.ndarray,
    graph: TopologyGraph,
    utility: UtilitySpec,
    base_capacity: np.ndarray,
    resolution: float,
) -> float:
    """Best utility over a simplex grid of shares (at most three rows).

    A deliberately brainless cross-check for the continuous share optimizer:
    grid points are priced through the flow solver and the best utility is
    returned.  Three-row grids are refined in two stages (coarse sweep, then
    a fine pass around the winner) to keep the solve count manageable.
    """
    n_rows = rate_rows.shape[0]
    if n_rows > 3:
        raise ValueError("grid search is limited to three rows")
    if n_rows == 1:
        return solve_p1(graph, base_capacity + rate_rows[0], utility).utility

    def evaluate(candidates: list[np.ndarray]) -> tuple[float, np.ndarray]:
        best, best_q = -np.inf, candidates[0]
        for q in candidates:
            sol = solve_p1(graph, base_capacity + q @ rate_rows, utility)
            if sol.utility > best:
                best, best_q = sol.utility, q
        return best, best_q

    if n_rows == 2:
        steps = int(round(1.0 / resolution))
        best, _ = evaluate(
            [np.array([k / steps, 1.0 - k / steps]) for k in range(steps + 1)]
        )
        return best

    coarse = max(resolution, 1e-2)
    steps = int(round(1.0 / coarse))
    grid = [
        np.array([a / steps, b / steps, 1.0 - (a + b) / steps])
        for a in range(steps + 1)
        for b in range(steps + 1 - a)
    ]
    best, center = evaluate(grid)
    if resolution < coarse:
        fine_steps = int(round(coarse / resolution))
        offsets = np.arange(-fine_steps, fine_steps + 1) * resolution
        local: list[np.ndarray] = []
        for da in offsets:
            for db in offsets:
                a, b = center[0] + da, center[1] + db
                if a < -1e-12 or b < -1e-12 or a + b > 1.0 + 1e-12:
                    continue
                a, b = min(max(a, 0.0), 1.0), min(max(b, 0.0), 1.0)
                local.append(np.array([a, b, max(1.0 - a - b, 0.0)]))
        fine_best, _ = evaluate(local)
        best = max(best, fine_best)
    return best
