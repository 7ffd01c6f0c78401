"""DTX pattern enumeration and per-subband max-weight link scheduling.

A DTX pattern is a boolean activity vector over base stations.  A pattern is
admissible when its active set is independent in the interference graph, so
active stations never interfere; the candidate set we optimize over is every
maximal independent set plus the all-silent pattern.

Within a subframe each active station serves, on every subband, the outgoing
wireless link maximizing ``weight * log(1 + |h|^2 p)``; ties go to the lowest
link index, and the argmax link is scheduled even when its weighted rate is
zero.  Since every link has exactly one transmitter and admissible patterns
are interference-free, conditional link rates are additive over active
stations, which the rate-table computation exploits.

One block kernel, :func:`block_winners`, takes that argmax for every station
on every subframe of a (S, L, M) rate block at once; both timescales read it.
:func:`schedule_links` is its single-subframe reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .topology import TopologyGraph

MAX_PATTERN_BS = 20

Pattern = tuple[int, ...]


class PatternEnumerationError(RuntimeError):
    pass


def _maximal_independent_sets(conflicts: np.ndarray) -> list[frozenset[int]]:
    """Bron-Kerbosch with pivoting on the complement graph (cliques there are
    independent sets here)."""
    n = conflicts.shape[0]
    comp = ~conflicts.copy()
    np.fill_diagonal(comp, False)
    neighbors = [frozenset(np.flatnonzero(comp[v])) for v in range(n)]
    found: list[frozenset[int]] = []

    def expand(r: frozenset[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            found.append(r)
            return
        pivot = max(p | x, key=lambda v: len(neighbors[v] & p))
        for v in sorted(p - neighbors[pivot]):
            expand(r | {v}, p & set(neighbors[v]), x & set(neighbors[v]))
            p.discard(v)
            x.add(v)

    expand(frozenset(), set(range(n)), set())
    return found


def enumerate_feasible_patterns(interference: np.ndarray, max_bs: int = MAX_PATTERN_BS) -> list[Pattern]:
    """All-silent plus every maximal independent set, in lexicographic order."""
    n = interference.shape[0]
    if n > max_bs:
        raise PatternEnumerationError(
            f"pattern enumeration over {n} base stations exceeds the cap of {max_bs}"
        )
    patterns = {tuple(0 for _ in range(n))}
    for s in _maximal_independent_sets(interference):
        patterns.add(tuple(1 if v in s else 0 for v in range(n)))
    return sorted(patterns)


def schedule_links(
    graph: TopologyGraph,
    pattern: Pattern,
    weights: np.ndarray,
    subband_rates: np.ndarray,
) -> np.ndarray:
    """One-subframe schedule: boolean (L, M) with at most one served link per
    active station and subband.

    ``subband_rates`` holds per-link per-subband rates ``log(1+|h|^2 p)``.
    This is the single-subframe reference for :func:`block_winners`.
    """
    n_links, n_subbands = subband_rates.shape
    rho = np.zeros((n_links, n_subbands), dtype=bool)
    for slot, node in enumerate(graph.bs_nodes):
        if not pattern[slot]:
            continue
        cand = np.array(graph.outgoing_wireless(node), dtype=int)
        if cand.size == 0:
            continue
        scores = weights[cand, None] * subband_rates[cand, :]
        winner = cand[np.argmax(scores, axis=0)]  # first max -> lowest link index
        rho[winner, np.arange(n_subbands)] = True
    assert_schedule_feasible(graph, pattern, rho)
    return rho


def assert_schedule_feasible(graph: TopologyGraph, pattern: Pattern, rho: np.ndarray) -> None:
    """Hard feasibility assertions: silent or foreign links never scheduled and
    every active station serves at most one link per subband."""
    for slot, node in enumerate(graph.bs_nodes):
        links = list(graph.outgoing_wireless(node))
        used = rho[links, :].sum(axis=0) if links else np.zeros(rho.shape[1])
        limit = int(pattern[slot])
        if np.any(used > limit):
            raise AssertionError(f"station {node} scheduled {used.max()} links on one subband (limit {limit})")
    for l in graph.wired_links:
        if np.any(rho[l]):
            raise AssertionError(f"wired link {l} appeared in a radio schedule")


@dataclass(frozen=True, eq=False)
class RateTable:
    """Conditional mean link rates per pattern, with Monte Carlo standard errors.

    ``rates[j, l]`` is the average rate of link ``l`` when pattern ``j`` is on
    and links are scheduled by the max-weight rule for the weights the table
    was built with.  Wired links are not radio-scheduled and carry zeros.
    """

    patterns: list[Pattern]
    rates: np.ndarray = field(repr=False)
    stderr: np.ndarray = field(repr=False)


def assert_block_feasible(graph: TopologyGraph, active: np.ndarray, rho: np.ndarray) -> None:
    """:func:`assert_schedule_feasible` for every subframe of a block at once.

    ``active`` (S, B) holds each subframe's DTX pattern and ``rho`` (S, L, M)
    its schedule.
    """
    used = np.zeros((rho.shape[0], graph.num_bs, rho.shape[2]), dtype=int)
    for slot, cand in enumerate(graph.station_links):
        used[:, slot, :] = rho[:, cand, :].sum(axis=1)
    over = used > active[:, :, None]
    if np.any(over):
        s, slot, m = np.argwhere(over)[0]
        raise AssertionError(
            f"subframe {s}: station {graph.bs_nodes[slot]} scheduled {used[s, slot, m]} links "
            f"on subband {m} (limit {int(active[s, slot])})"
        )
    for l in graph.wired_links:
        if np.any(rho[:, l]):
            raise AssertionError(f"wired link {l} appeared in a radio schedule")


def block_winners(
    graph: TopologyGraph,
    weights: np.ndarray,
    rate_block: np.ndarray,
    winner_rates: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Max-weight winners of every station on every subframe of a block.

    The block form of :func:`schedule_links` with every station active.
    Returns ``(winners, per_station)``: ``winners`` (S, L, M) marks, per
    subframe and subband, each station's argmax link (ties to the lowest link
    index), and ``per_station[s, n]`` (S, B, L) is the rate station ``n``'s
    links are served on subframe ``s``, summed over subbands.  A pattern's
    schedule on subframe ``s`` is ``winners[s]`` on its active stations' links.

    ``winner_rates`` optionally supplies a separate (L, M) table used only for
    the argmax (statistical scheduling); payload rates still come from
    ``rate_block``.
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
        winner = np.argmax(scores, axis=1)  # (S, M), first max -> lowest link index
        chosen = winner[:, None, :] == np.arange(cand.size)[None, :, None]
        winners[:, cand, :] = chosen
        per_station[:, slot, cand] = np.where(chosen, payload, 0.0).sum(axis=2)
    return winners, per_station


def schedule_block(
    graph: TopologyGraph,
    active: np.ndarray,
    weights: np.ndarray,
    rate_block: np.ndarray,
    winner_rates: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Schedule a block of subframes, subframe ``s`` under pattern ``active[s]``.

    Returns ``(served, per_station)``: the mean rate (L,) each link is served
    over the block and the kernel's (S, B, L) per-station rates.  Every
    subframe's schedule passes :func:`assert_block_feasible`, and subframe 0
    is re-scheduled by the reference :func:`schedule_links`, which must agree.
    """
    winners, per_station = block_winners(graph, weights, rate_block, winner_rates)
    owner = np.array([graph.bs_slot[link.head] for link in graph.links], dtype=int)
    rho = winners & active[:, owner, None]
    assert_block_feasible(graph, active, rho)
    first = tuple(int(on) for on in active[0])
    reference = schedule_links(
        graph, first, weights, rate_block[0] if winner_rates is None else winner_rates
    )
    if not np.array_equal(reference, rho[0]):
        raise AssertionError(f"block schedule of subframe 0 disagrees with schedule_links under {first}")
    per_link = (active[:, :, None] * per_station).sum(axis=1)  # (S, L), one station per link
    # A plain sum over a single link's column switches to pairwise summation;
    # accumulating adds the subframes strictly in order, for every link count.
    served = np.add.accumulate(per_link, axis=0)[-1] / rate_block.shape[0]
    return served, per_station


def contribution_stats(graph: TopologyGraph, per_station: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block mean and standard error (B, L) of :func:`block_winners`' per-station rates."""
    n_samples, n_bs, n_links = per_station.shape
    mean = np.zeros((n_bs, n_links))
    stderr = np.zeros((n_bs, n_links))
    for slot, cand in enumerate(graph.station_links):
        if cand.size == 0:
            continue
        # Reduce a contiguous (S, C) copy: numpy's summation order, and so the
        # last bits of the mean, depend on the memory layout.
        per_sample = np.ascontiguousarray(per_station[:, slot, cand])
        mean[slot, cand] = per_sample.mean(axis=0)
        if n_samples > 1:
            stderr[slot, cand] = per_sample.std(axis=0, ddof=1) / np.sqrt(n_samples)
    return mean, stderr


def station_contributions(
    graph: TopologyGraph,
    weights: np.ndarray,
    rate_block: np.ndarray,
    winner_rates: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-station mean link-rate contributions under max-weight scheduling.

    Returns ``(mean, stderr)`` of shape (B, L): row ``n`` holds the average
    over the block's subframes of the rate each of station ``n``'s links gets
    when the station is active.  Because admissible patterns are
    interference-free, a pattern's rate row is the sum of its active rows.
    ``winner_rates`` is as in :func:`block_winners`.
    """
    _, per_station = block_winners(graph, weights, rate_block, winner_rates)
    return contribution_stats(graph, per_station)


def rate_table_for_patterns(
    graph: TopologyGraph,
    patterns: list[Pattern],
    weights: np.ndarray,
    rate_block: np.ndarray,
    winner_rates: np.ndarray | None = None,
) -> RateTable:
    """Conditional rates for every pattern from one shared draw block.

    Sharing draws across patterns keeps comparisons paired: the argmax pattern
    of the sampled table genuinely maximizes the sampled weighted rate.
    """
    mean, stderr = station_contributions(graph, weights, rate_block, winner_rates)
    return pattern_rate_table(patterns, mean, stderr)


def pattern_rate_table(patterns: list[Pattern], mean: np.ndarray, stderr: np.ndarray) -> RateTable:
    """Pattern rows from per-station contributions (:func:`station_contributions`):
    a pattern's row is the sum of its active stations' rows."""
    mask = np.array(patterns, dtype=float)  # (J, B)
    return RateTable(patterns=list(patterns), rates=mask @ mean, stderr=mask @ stderr)
