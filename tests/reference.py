"""Brute-force references the tests check the program against.

They live with the tests, not in the package, so that no solver code path
can lean on them and the references stay independent of what they check.
"""

import numpy as np

from hetnet_rrm.channel import ChannelModel
from hetnet_rrm.netopt import UtilitySpec, solve_p1
from hetnet_rrm.phy import Pattern, rate_table_for_patterns, station_contributions
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
    _, mean, stderr = station_contributions(graph, weights[None], block, winner)
    return rate_table_for_patterns([pattern], mean[0], stderr[0]).rates[0]


def vector_block_winners(
    graph: TopologyGraph,
    weights: np.ndarray,
    rate_block: np.ndarray,
    winner_rates: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The block kernel for one weight vector, one station at a time.

    Returns ``(winners, per_station)``: ``winners`` (S, L, M) as
    ``phy.block_winners`` gives for its row, and ``per_station[s, n]``
    (S, B, L) the rate station ``n``'s links are served on subframe ``s``,
    summed over subbands.  Each station takes ``np.argmax`` over its
    candidates, so ties go to the lowest link index.
    """
    n_samples, n_links, n_subbands = rate_block.shape
    winners = np.zeros(rate_block.shape, dtype=bool)
    per_station = np.zeros((n_samples, graph.num_bs, n_links))
    for slot, cand in enumerate(graph.station_links):
        if cand.size == 0:
            continue
        payload = rate_block[:, cand, :]  # (S, C, M)
        if winner_rates is None:
            scores = weights[cand][None, :, None] * payload
        else:
            scores = np.broadcast_to(
                weights[cand][None, :, None] * winner_rates[cand, :][None, :, :], payload.shape
            )
        winner = np.argmax(scores, axis=1)  # (S, M)
        chosen = winner[:, None, :] == np.arange(cand.size)[None, :, None]
        winners[:, cand, :] = chosen
        per_station[:, slot, cand] = np.where(chosen, payload, 0.0).sum(axis=2)
    return winners, per_station


def vector_contribution_stats(
    graph: TopologyGraph, per_station: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Block mean and standard error (B, L) of :func:`vector_block_winners`'
    per-station rates, one contiguous (S, C) copy per station."""
    n_samples, n_bs, n_links = per_station.shape
    mean = np.zeros((n_bs, n_links))
    stderr = np.zeros((n_bs, n_links))
    for slot, cand in enumerate(graph.station_links):
        if cand.size == 0:
            continue
        per_sample = np.ascontiguousarray(per_station[:, slot, cand])
        mean[slot, cand] = per_sample.mean(axis=0)
        if n_samples > 1:
            stderr[slot, cand] = per_sample.std(axis=0, ddof=1) / np.sqrt(n_samples)
    return mean, stderr


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
