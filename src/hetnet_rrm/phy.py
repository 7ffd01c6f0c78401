"""DTX pattern enumeration and per-subband max-weight link scheduling.

A DTX pattern is a boolean activity vector over base stations, one (B,) bool
row.  A pattern is admissible when its active set is independent in the
interference graph, so active stations never interfere; the candidate set we
optimize over is every maximal independent set plus the all-silent pattern,
held as one (J, B) bool array.

Within a subframe each active station serves, on every subband, the outgoing
wireless link maximizing ``weight * log(1 + |h|^2 p)``; ties go to the lowest
link index, and the argmax link is scheduled even when its weighted rate is
zero.  Since every link has exactly one transmitter and admissible patterns
are interference-free, a pattern's conditional link rates are the all-active
link rates on its active stations' links: rate rows are indexed by link, and
a pattern's row masks one (L,) row of link means.

One block kernel, :func:`block_winners`, takes that argmax for every station
on every subframe of a (S, L, M) rate block, under a whole (K, L) stack of
weight vectors, in one call: row 0's winners and per-subframe link rates are
what the short timescale serves, and every row yields the per-link rates the
long timescale's rate rows are built from.  The pass reads the block
subframe-contiguous, as (L, M, S), which is how the channel lays its blocks
out, so it copies none: a weight scales whole subframe rows, the subband
sums add them in subband order, and the reductions over the subframes and
the feasibility check on every subframe run along whole rows.
:func:`schedule_links` is its single-subframe reference.
"""

from __future__ import annotations

import numpy as np

from .topology import TopologyGraph, per_graph

MAX_PATTERN_BS = 20


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


def enumerate_feasible_patterns(interference: np.ndarray) -> np.ndarray:
    """All-silent plus every maximal independent set, as a read-only (J, B)
    bool array with its rows in lexicographic order."""
    n = interference.shape[0]
    if n > MAX_PATTERN_BS:
        raise PatternEnumerationError(
            f"pattern enumeration over {n} base stations exceeds the cap of {MAX_PATTERN_BS}"
        )
    sets = [frozenset(), *_maximal_independent_sets(interference)]
    patterns = np.array(sorted({tuple(v in s for v in range(n)) for s in sets}), dtype=bool)
    patterns.setflags(write=False)
    return patterns


@per_graph
def admissible_patterns(graph: TopologyGraph) -> np.ndarray:
    """:func:`enumerate_feasible_patterns` of ``graph``'s interference matrix,
    enumerated once per graph: every call returns the same read-only array."""
    return enumerate_feasible_patterns(graph.interference)


def schedule_links(
    graph: TopologyGraph,
    pattern: np.ndarray,
    weights: np.ndarray,
    subband_rates: np.ndarray,
) -> np.ndarray:
    """One-subframe schedule under the (B,) bool ``pattern``: boolean (L, M)
    with at most one served link per active station and subband.

    ``subband_rates`` holds per-link per-subband rates ``log(1+|h|^2 p)``.
    This is the single-subframe reference for :func:`block_winners`.  It is
    feasible by construction and checks nothing itself: the block schedule it
    is compared against has passed :func:`assert_block_feasible`.
    """
    n_links, n_subbands = subband_rates.shape
    rho = np.zeros((n_links, n_subbands), dtype=bool)
    for slot, cand in enumerate(graph.station_links):
        if not pattern[slot] or cand.size == 0:
            continue
        scores = weights[cand, None] * subband_rates[cand, :]
        winner = cand[np.argmax(scores, axis=0)]  # first max -> lowest link index
        rho[winner, np.arange(n_subbands)] = True
    return rho


def assert_block_feasible(graph: TopologyGraph, active: np.ndarray, rho: np.ndarray) -> None:
    """Hard feasibility assertions on every subframe of a block: silent or
    foreign links are never scheduled and every active station serves at most
    one link per subband.

    ``active`` (S, B) holds each subframe's DTX pattern and ``rho`` (S, L, M)
    its schedule.  Each station's scheduled links are counted at once from
    :func:`_station_table`; a failure names the first (subframe, station,
    subband) over its limit, and otherwise the first wired link scheduled.
    """
    table, padding, slots, wired = _station_table(graph)
    by_link = rho.transpose(1, 2, 0)  # (L, M, S): a kernel schedule's own layout
    scheduled = by_link[table]  # (N, C, M, S)
    scheduled[padding] = False
    # A count never exceeds the table width, so the narrowest type that holds it does.
    used = scheduled.view(np.uint8).sum(axis=1, dtype=np.min_scalar_type(table.shape[1]))
    over = used > active.T[slots, None, :]
    if np.any(over):
        s, n, m = np.argwhere(over.transpose(2, 0, 1))[0]
        raise AssertionError(
            f"subframe {s}: station {graph.bs_nodes[slots[n]]} scheduled {used[n, m, s]} links "
            f"on subband {m} (limit {int(active[s, slots[n]])})"
        )
    on_wire = by_link[wired].any(axis=(1, 2))
    if np.any(on_wire):
        raise AssertionError(f"wired link {wired[np.argmax(on_wire)]} appeared in a radio schedule")


@per_graph
def _station_table(graph: TopologyGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What :func:`assert_block_feasible` counts with, built once per graph
    (read-only arrays).

    Returns ``(table, padding, slots, wired)``: row ``n`` of ``table`` (N, C)
    lists the wireless links of station ``slots[n]``, the n-th station that
    has any, padded with copies of its first link, which ``padding`` (N, C)
    marks; ``wired`` lists the wired links.
    """
    slots = [slot for slot, cand in enumerate(graph.station_links) if cand.size]
    runs = [graph.station_links[slot] for slot in slots]
    width = max((cand.size for cand in runs), default=1)
    arrays = (
        np.array([list(cand) + [cand[0]] * (width - cand.size) for cand in runs], dtype=int).reshape(-1, width),
        np.arange(width) >= np.array([cand.size for cand in runs], dtype=int)[:, None],
        np.array(slots, dtype=int),
        np.array(graph.wired_links, dtype=int),
    )
    for array in arrays:
        array.setflags(write=False)
    return arrays


@per_graph
def _candidates(graph: TopologyGraph) -> tuple[np.ndarray, np.ndarray]:
    """The stations' wireless links as the block kernel reads them, built once
    per graph (read-only arrays).

    Returns ``(single, table)``: ``single`` holds the links of one-link
    stations, and ``table`` (Bm, C) the candidates of every other station, in
    link order, padded with copies of the station's first link.  Where only
    one station is of its kind, its entry is listed twice: the kernel's
    subband sums then always run along a second axis, which numpy adds in
    subband order, where it would add a lone (M,) run pairwise from eight
    subbands on.
    """
    width = max((cand.size for cand in graph.station_links), default=0)
    single = [cand[0] for cand in graph.station_links if cand.size == 1]
    multi = [cand for cand in graph.station_links if cand.size > 1]
    table = [list(cand) + [cand[0]] * (width - cand.size) for cand in multi]
    single, table = (2 * rows if len(rows) == 1 else rows for rows in (single, table))
    arrays = (np.array(single, dtype=int), np.array(table, dtype=int).reshape(len(table), width))
    for array in arrays:
        array.setflags(write=False)
    return arrays


def block_winners(
    graph: TopologyGraph,
    weights: np.ndarray,
    rate_block: np.ndarray,
    winner_rates: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Max-weight winners of every station on every subframe of a block, for a
    whole stack of weight vectors at once.

    The block form of :func:`schedule_links` with every station active.
    ``weights`` is a (K, L) stack.  Returns ``(winners, rates)``: ``winners``
    (S, L, M), the view of a subframe-contiguous (L, M, S) array, marks, per
    subframe and subband, each station's argmax link under row 0 of the
    stack (ties to the lowest link index), and ``rates[k, l, s]`` (K, L, S)
    is the rate link ``l`` is served on subframe ``s`` under row ``k``,
    summed over subbands in subband order, for any S.  A pattern's schedule
    on subframe ``s`` is ``winners[s]`` on its active stations' links.

    The pass reads the block as (L, M, S): a channel block is laid out so,
    any other block is copied once.  A one-link station serves its link
    whatever the weights, so its rates are computed once for every row.  The
    other stations take a running maximum over their candidates with strict
    ``>``: argmax's first-max rule, which is why a non-finite weight is
    refused.  ``winner_rates`` optionally supplies a separate (L, M) table
    used only for the argmax (statistical scheduling); payload rates still
    come from ``rate_block``.
    """
    weights = np.asarray(weights, dtype=float)
    n_samples, n_links, n_subbands = rate_block.shape
    if weights.ndim != 2 or weights.shape[1] != n_links:
        raise ValueError(f"weights must be a (K, {n_links}) stack, got shape {weights.shape}")
    if not np.all(np.isfinite(weights)):
        raise ValueError("weight stack holds a non-finite entry")
    single, table = _candidates(graph)
    by_link = np.ascontiguousarray(rate_block.transpose(1, 2, 0))
    winners = np.zeros(by_link.shape, dtype=bool)
    rates = np.zeros((weights.shape[0], n_links, n_samples))
    winners[single] = True
    rates[:, single] = _subband_major(by_link, single).sum(axis=0)
    if table.size == 0:
        return winners.transpose(2, 0, 1), rates
    payload = [_subband_major(by_link, column) for column in table.T]  # (M, Bm, S) each
    scored = payload if winner_rates is None else [winner_rates.T[:, column, None] for column in table.T]
    product = np.empty(payload[0].shape)
    last = table.shape[1] - 1
    for k, row in enumerate(weights[:, table]):  # (Bm, C) each
        best = row[:, 0, None] * scored[0]  # (M, Bm, S or 1)
        pick = np.zeros(best.shape, dtype=np.int8)
        for c in range(1, last + 1):
            score = row[:, c, None] * scored[c]
            # c only grows, so the latest strictly better candidate is the max.
            np.maximum(pick, (score > best) * np.int8(c), out=pick)
            if c < last:
                np.maximum(best, score, out=best)
        # Column 0 goes last: it overwrites what a padding copy of a
        # station's first link wrote (padding is never strictly better).
        for c in range(last, -1, -1):
            chosen = pick == c
            if k == 0:
                winners[table[:, c]] = chosen.transpose(1, 0, 2)
            # Rates are finite and non-negative, so masking by a product is exact.
            rates[k, table[:, c]] = np.multiply(payload[c], chosen, out=product).sum(axis=0)
    return winners.transpose(2, 0, 1), rates


def _subband_major(by_link: np.ndarray, links: np.ndarray) -> np.ndarray:
    """The rows ``links`` of an (L, M, S) block as a C-contiguous (M, N, S)
    array: a weight scales whole subframe rows, and a sum over its first
    axis adds (N, S) slabs in subband order."""
    return np.ascontiguousarray(by_link[links].transpose(1, 0, 2))


def schedule_block(
    graph: TopologyGraph,
    active: np.ndarray,
    weights: np.ndarray,
    rate_block: np.ndarray,
    winners: np.ndarray,
    served: np.ndarray,
    winner_rates: np.ndarray | None = None,
) -> np.ndarray:
    """Schedule a block of S subframes, subframe ``s`` under pattern ``active[s]``.

    ``winners`` and ``served`` are :func:`station_contributions`' row for
    ``weights`` on ``rate_block``, which holds S subframes or one that every
    subframe repeats (a deterministic channel's one draw): ``served`` (L, S
    or 1) is each link's rate on each subframe with every station active.
    Returns the mean rate (L,) each link is served over the S subframes,
    ``served`` kept on each subframe's active stations' links.  Every
    subframe's schedule passes :func:`assert_block_feasible`, and subframe 0
    is re-scheduled by the reference :func:`schedule_links`, which must
    agree.
    """
    on = active[:, graph.link_station]  # (S, L)
    rho = (winners.transpose(1, 2, 0) & on.T[:, None, :]).transpose(2, 0, 1)  # subframe-contiguous
    assert_block_feasible(graph, active, rho)
    reference = schedule_links(
        graph, active[0], weights, rate_block[0] if winner_rates is None else winner_rates
    )
    if not np.array_equal(reference, rho[0]):
        raise AssertionError(
            f"block schedule of subframe 0 disagrees with schedule_links under {active[0].astype(int)}"
        )
    # Exact for finite non-negative rates.  The (S, L) product takes the
    # layout of ``served``, over which a plain mean would not add the
    # subframes in order; accumulating does, as for the S-fold repeated block.
    return np.add.accumulate(served.T * on, axis=0)[-1] / active.shape[0]


def station_contributions(
    graph: TopologyGraph,
    weights: np.ndarray,
    rate_block: np.ndarray,
    winner_rates: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Mean link rates under max-weight scheduling with every station active,
    for a (K, L) stack of weight vectors from one kernel pass.

    Returns ``(winners, served, mean, stderr)``: ``winners`` and ``served``
    are row 0's :func:`block_winners` schedule and its (L, S) per-subframe
    rates, the short timescale's input, and ``mean[k, l]`` (K, L) the
    average over the block's subframes of the rate link ``l`` gets under row
    ``k`` when its station is active, with its standard error ``stderr``:
    the subframes' sample standard deviation about that mean over √S,
    exactly zero for a one-subframe block.  Both are reductions over the
    contiguous subframe axis.  Because each link has one station and
    admissible patterns are interference-free, a pattern's rate row keeps
    the links of its active stations (:func:`rate_table_for_patterns`).
    ``winner_rates`` is as in :func:`block_winners`.
    """
    winners, rates = block_winners(graph, weights, rate_block, winner_rates)
    served = rates[0].copy()  # a view would keep every row alive with the pass
    n_samples = rates.shape[2]
    mean = rates.mean(axis=2)
    if n_samples == 1:
        return winners, served, mean, np.zeros_like(mean)
    spread = np.subtract(rates, mean[:, :, None], out=rates)
    variance = np.square(spread, out=spread).sum(axis=2) / (n_samples - 1)
    return winners, served, mean, np.sqrt(variance) / np.sqrt(n_samples)


def rate_table_for_patterns(
    graph: TopologyGraph, patterns: np.ndarray, mean: np.ndarray, stderr: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Conditional mean link rates of (J, B) patterns, with their Monte Carlo
    standard errors, from :func:`station_contributions`' link means: row ``j``
    is ``mean`` (an (L,) row, or one (J, L) row per pattern) on the links of
    pattern ``j``'s active stations and zero elsewhere, so it is the average
    rate of each link when pattern ``j`` is on and links are scheduled by the
    max-weight rule; wired links carry zeros.

    Taking every pattern from one shared draw block keeps comparisons paired:
    the argmax pattern of the sampled table genuinely maximizes the sampled
    weighted rate.
    """
    mask = np.asarray(patterns)[:, graph.link_station]  # (J, L)
    return mask * mean, mask * stderr
