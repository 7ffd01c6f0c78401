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
weight vectors, in one call: row 0 schedules the short timescale, and every
row yields the per-link rates the long timescale's rate rows are built from.
:func:`schedule_links` is its single-subframe reference.
"""

from __future__ import annotations

import weakref

import numpy as np

from .topology import TopologyGraph

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


def enumerate_feasible_patterns(interference: np.ndarray, max_bs: int = MAX_PATTERN_BS) -> np.ndarray:
    """All-silent plus every maximal independent set, as a read-only (J, B)
    bool array with its rows in lexicographic order."""
    n = interference.shape[0]
    if n > max_bs:
        raise PatternEnumerationError(
            f"pattern enumeration over {n} base stations exceeds the cap of {max_bs}"
        )
    sets = [frozenset(), *_maximal_independent_sets(interference)]
    patterns = np.array(sorted({tuple(v in s for v in range(n)) for s in sets}), dtype=bool)
    patterns.setflags(write=False)
    return patterns


def schedule_links(
    graph: TopologyGraph,
    pattern: np.ndarray,
    weights: np.ndarray,
    subband_rates: np.ndarray,
) -> np.ndarray:
    """One-subframe schedule under the (B,) bool ``pattern``: boolean (L, M)
    with at most one served link per active station and subband.

    ``subband_rates`` holds per-link per-subband rates ``log(1+|h|^2 p)``.
    This is the single-subframe reference for :func:`block_winners`.
    """
    n_links, n_subbands = subband_rates.shape
    rho = np.zeros((n_links, n_subbands), dtype=bool)
    for slot, cand in enumerate(graph.station_links):
        if not pattern[slot] or cand.size == 0:
            continue
        scores = weights[cand, None] * subband_rates[cand, :]
        winner = cand[np.argmax(scores, axis=0)]  # first max -> lowest link index
        rho[winner, np.arange(n_subbands)] = True
    assert_block_feasible(graph, pattern[None], rho[None])
    return rho


def assert_block_feasible(graph: TopologyGraph, active: np.ndarray, rho: np.ndarray) -> None:
    """Hard feasibility assertions on every subframe of a block: silent or
    foreign links are never scheduled and every active station serves at most
    one link per subband.

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


#: Weight rows scored at once; bounds the kernel's (rows, Bm, S, M) working set.
ROWS_PER_CHUNK = 2


# Candidate layouts per graph object, dropped with the graph (graphs hash by identity).
_candidate_tables: weakref.WeakKeyDictionary[
    TopologyGraph, tuple[np.ndarray, np.ndarray, np.ndarray]
] = weakref.WeakKeyDictionary()


def _candidates(graph: TopologyGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stations' wireless links as the block kernel reads them, built once
    per graph (read-only arrays).

    Returns ``(single, table, count)``: ``single`` holds the links of one-link
    stations, and ``table`` (Bm, C) the candidates of every other station,
    the first ``count[b]`` of row ``b`` its own and the rest copies of its
    first one.
    """
    cached = _candidate_tables.get(graph)
    if cached is not None:
        return cached
    width = max((cand.size for cand in graph.station_links), default=0)
    single = [cand[0] for cand in graph.station_links if cand.size == 1]
    multi = [cand for cand in graph.station_links if cand.size > 1]
    table = [list(cand) + [cand[0]] * (width - cand.size) for cand in multi]
    arrays = (
        np.array(single, dtype=int),
        np.array(table, dtype=int).reshape(len(multi), width),
        np.array([cand.size for cand in multi], dtype=int),
    )
    for array in arrays:
        array.setflags(write=False)
    _candidate_tables[graph] = arrays
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
    (S, L, M) marks, per subframe and subband, each station's argmax link
    under row 0 of the stack (ties to the lowest link index), and
    ``rates[k, s, l]`` (K, S, L) is the rate link ``l`` is served on subframe
    ``s`` under row ``k``, summed over subbands.  A pattern's schedule on
    subframe ``s`` is ``winners[s]`` on its active stations' links.

    A one-link station serves its link whatever the weights, so its rates are
    computed once for every row.  The other stations take a running maximum
    over their candidates with strict ``>``: argmax's first-max rule, which is
    why a non-finite weight is refused.  ``winner_rates`` optionally supplies
    a separate (L, M) table used only for the argmax (statistical
    scheduling); payload rates still come from ``rate_block``.
    """
    weights = np.asarray(weights, dtype=float)
    n_samples, n_links, n_subbands = rate_block.shape
    if weights.ndim != 2 or weights.shape[1] != n_links:
        raise ValueError(f"weights must be a (K, {n_links}) stack, got shape {weights.shape}")
    if not np.all(np.isfinite(weights)):
        raise ValueError("weight stack holds a non-finite entry")
    single, table, count = _candidates(graph)
    winners = np.zeros(rate_block.shape, dtype=bool)
    rates = np.zeros((weights.shape[0], n_samples, n_links))
    winners[:, single, :] = True
    rates[:, :, single] = rate_block[:, single, :].sum(axis=2)
    if table.size == 0:
        return winners, rates
    # Station-major (Bm, S, M) copies: a weight then scales a contiguous run.
    payload = [np.ascontiguousarray(rate_block[:, column, :].transpose(1, 0, 2)) for column in table.T]
    scored = payload if winner_rates is None else [winner_rates[column, None, :] for column in table.T]
    for lo in range(0, weights.shape[0], ROWS_PER_CHUNK):
        chunk = weights[lo : lo + ROWS_PER_CHUNK, table]  # (k, Bm, C)
        best = chunk[:, :, 0, None, None] * scored[0]  # (k, Bm, S or 1, M)
        pick = np.zeros(best.shape, dtype=np.int8)
        for c in range(1, table.shape[1]):
            score = chunk[:, :, c, None, None] * scored[c]
            # c only grows, so the latest strictly better candidate is the max.
            np.maximum(pick, (score > best) * np.int8(c), out=pick)
            np.maximum(best, score, out=best)
        for c in range(table.shape[1]):
            chosen = pick == c
            own = count > c  # padding copies are never strictly better
            links = table[own, c]
            if lo == 0:
                winners[:, links, :] = chosen[0, own].transpose(1, 0, 2)
            # Rates are finite and non-negative, so masking by a product is
            # exact; the subband sum stays a contiguous reduction over M.
            served = (payload[c] * chosen).sum(axis=3)  # (k, Bm, S)
            rates[lo : lo + ROWS_PER_CHUNK, :, links] = served[:, own].transpose(0, 2, 1)
    return winners, rates


def schedule_block(
    graph: TopologyGraph,
    active: np.ndarray,
    weights: np.ndarray,
    rate_block: np.ndarray,
    winners: np.ndarray,
    winner_rates: np.ndarray | None = None,
) -> np.ndarray:
    """Schedule a block of subframes, subframe ``s`` under pattern ``active[s]``.

    ``winners`` is :func:`block_winners`' row for ``weights``.  Returns the
    mean rate (L,) each link is served over the block.  Every subframe's
    schedule passes :func:`assert_block_feasible`, and subframe 0 is
    re-scheduled by the reference :func:`schedule_links`, which must agree.
    """
    rho = winners & active[:, graph.link_station, None]
    assert_block_feasible(graph, active, rho)
    reference = schedule_links(
        graph, active[0], weights, rate_block[0] if winner_rates is None else winner_rates
    )
    if not np.array_equal(reference, rho[0]):
        raise AssertionError(
            f"block schedule of subframe 0 disagrees with schedule_links under {active[0].astype(int)}"
        )
    per_link = (rate_block * rho).sum(axis=2)  # (S, L); exact for finite non-negative rates
    # A plain sum over a single link's column switches to pairwise summation;
    # accumulating adds the subframes strictly in order, for every link count.
    return np.add.accumulate(per_link, axis=0)[-1] / rate_block.shape[0]


def contribution_stats(graph: TopologyGraph, rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block mean and standard error (K, L) of :func:`block_winners`' rates.

    The summation order over the subframes is that of a per-station
    reduction of a contiguous (S, C) copy: numpy sums a lone column pairwise
    but adds the rows of a wider block one after another, so one-link
    stations reduce pairwise and the others in order, and every bit of the
    mean follows.
    """
    n_rows, n_samples, n_links = rates.shape
    single, table, count = _candidates(graph)
    multi = table[np.arange(table.shape[1]) < count[:, None]]  # each station's own, in order
    mean = np.zeros((n_rows, n_links))
    stderr = np.zeros((n_rows, n_links))
    # (K, Ls, S) for pairwise sums over S, (K, S, Lm) for sums in order.
    for links, axis in ((single, 2), (multi, 1)):
        if links.size == 0:
            continue
        per_sample = np.take(rates, links, axis=2)
        per_sample = np.ascontiguousarray(per_sample.transpose(0, 2, 1) if axis == 2 else per_sample)
        mean[:, links] = per_sample.mean(axis=axis)
        if n_samples > 1:
            stderr[:, links] = per_sample.std(axis=axis, ddof=1) / np.sqrt(n_samples)
    return mean, stderr


def station_contributions(
    graph: TopologyGraph,
    weights: np.ndarray,
    rate_block: np.ndarray,
    winner_rates: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean link rates under max-weight scheduling with every station active,
    for a (K, L) stack of weight vectors from one kernel pass.

    Returns ``(winners, mean, stderr)``: ``winners`` is :func:`block_winners`'
    schedule under row 0, and ``mean[k, l]`` (K, L) the average over the
    block's subframes of the rate link ``l`` gets under row ``k`` when its
    station is active, with its standard error ``stderr``.  Because each link
    has one station and admissible patterns are interference-free, a
    pattern's rate row keeps the links of its active stations
    (:func:`rate_table_for_patterns`).  ``winner_rates`` is as in
    :func:`block_winners`.
    """
    winners, rates = block_winners(graph, weights, rate_block, winner_rates)
    return (winners, *contribution_stats(graph, rates))


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
