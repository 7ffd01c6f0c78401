"""Two-timescale radio resource management loop.

Long timescale (once per superframe): grow a set of scheduled patterns,
re-optimize their time shares jointly with flow control and routing, and
refresh link weights from capacity prices.  Short timescale (every subframe):
sample a pattern from the current shares and schedule links per subband by the
max-weight rule.  A superframe's subframes are scheduled together: one block
kernel (``phy.block_winners``) finds every station's winners on all of them,
each subframe keeps its sampled pattern's active stations, the feasibility
assertions run on every subframe, and subframe 0 is cross-checked against the
single-subframe reference ``phy.schedule_links``.

The optimization state is a set of *scheduled patterns*: a DTX activity
pattern bundled with the link weights under which it was discovered.  Each
superframe re-estimates every member's conditional rate row under its own
stored weights, so a member's row is a stationary target (exactly stationary
when the channel is deterministic) rather than drifting with the current
weights.  The share program then anneals over these rows.  Keeping the
discovery weights pinned is what makes the ascent monotone: re-scheduling old
patterns under new weights can lower their achieved rows and cycle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelModel
from .netopt import FlowSolution, UtilitySpec, optimize_time_sharing
from .phy import (
    Pattern,
    contribution_stats,
    enumerate_feasible_patterns,
    schedule_block,
    station_contributions,
)
from .topology import TopologyGraph


@dataclass(frozen=True, eq=False)
class ScheduledPattern:
    """A DTX pattern together with the link weights that introduced it."""

    pattern: Pattern
    weights: np.ndarray = field(repr=False)

    def key(self) -> tuple[Pattern, bytes]:
        return self.pattern, self.weights.tobytes()


@dataclass
class RrmConfig:
    subframes_per_superframe: int = 200
    max_superframes: int = 60
    epsilon_converge: float = 1e-6
    gap_converge_rel: float = 1e-6
    q_prune: float = 1e-12
    max_members: int = 64
    flow_tol: float = 1e-6
    share_gap_tol: float = 1e-5
    utility: UtilitySpec = field(default_factory=UtilitySpec)
    statistical_scheduling: bool = False

    def __post_init__(self) -> None:
        if self.subframes_per_superframe < 1:
            raise ValueError("need at least one subframe per superframe")
        if self.max_superframes < 1:
            raise ValueError("need at least one superframe")
        if not 0.0 <= self.q_prune < 1.0:
            raise ValueError("q_prune must lie in [0, 1)")
        if self.max_members < 2:
            raise ValueError("max_members must allow at least two members")


@dataclass
class RrmState:
    members: list[ScheduledPattern]
    shares: np.ndarray
    weights: np.ndarray
    patterns: list[Pattern]
    rate_rows: np.ndarray
    row_stderr: np.ndarray
    flow: FlowSolution | None = None
    utility: float = -np.inf
    superframe: int = 0


@dataclass(frozen=True)
class SuperframeRecord:
    index: int
    utility: float
    n_members: int
    shares: np.ndarray
    flow_rates: np.ndarray
    served_rates: np.ndarray
    wall_ms: float


@dataclass(frozen=True)
class CertificateReport:
    """One-sided optimality bound from the final weights.

    ``gap`` is the best weighted rate any feasible pattern could achieve minus
    the weighted rate of the converged time-sharing policy; by concavity it
    upper-bounds the utility loss to the optimum.  ``tolerance`` widens the
    check by three standard errors of the Monte Carlo rate estimates (zero for
    a deterministic channel).
    """

    gap: float
    tolerance: float
    best_pattern: Pattern
    pattern_values: np.ndarray
    policy_value: float


def initial_state(model: ChannelModel) -> RrmState:
    """Start from the densest admissible pattern with neutral weights."""
    graph = model.graph
    patterns = enumerate_feasible_patterns(graph.interference)
    all_on = tuple([1] * graph.num_bs)
    start = all_on if all_on in patterns else patterns[-1]
    weights = np.ones(graph.num_links)
    member = ScheduledPattern(pattern=start, weights=weights)
    return RrmState(
        members=[member],
        shares=np.array([1.0]),
        weights=weights,
        patterns=patterns,
        rate_rows=np.zeros((1, graph.num_links)),
        row_stderr=np.zeros((1, graph.num_links)),
    )


def _sample_member_indices(shares: np.ndarray, draws: np.ndarray) -> np.ndarray:
    edges = np.cumsum(shares)
    edges[-1] = 1.0
    return np.minimum(np.searchsorted(edges, draws, side="right"), len(shares) - 1)


def simulate_subframes(
    model: ChannelModel,
    t_start: int,
    patterns: list[Pattern],
    shares: np.ndarray,
    weights: np.ndarray,
    rate_block: np.ndarray,
    winner_rates: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Short timescale of one superframe: sample a pattern per subframe from
    ``shares`` and schedule the block under ``weights``.

    Returns ``phy.schedule_block``'s ``(served, per_station)``.
    """
    draws = model.pattern_draws(t_start, rate_block.shape[0])
    active = np.array(patterns, dtype=bool)[_sample_member_indices(shares, draws)]
    return schedule_block(model.graph, active, weights, rate_block, winner_rates)


def _member_rows(
    graph: TopologyGraph,
    members: list[ScheduledPattern],
    rate_block: np.ndarray,
    winner_rates: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Re-estimate each member's conditional rate row under its own weights.

    Members sharing a weight vector share one scheduling pass; rows then
    follow from per-station additivity of interference-free patterns.
    """
    rows = np.zeros((len(members), graph.num_links))
    stderr = np.zeros_like(rows)
    by_weights: dict[bytes, list[int]] = {}
    for j, member in enumerate(members):
        by_weights.setdefault(member.weights.tobytes(), []).append(j)
    for indices in by_weights.values():
        weights = members[indices[0]].weights
        mean, sem = station_contributions(graph, weights, rate_block, winner_rates)
        for j in indices:
            mask = np.array(members[j].pattern, dtype=float)
            rows[j] = mask @ mean
            stderr[j] = mask @ sem
    return rows, stderr


def _best_pattern(
    patterns: list[Pattern], contributions: np.ndarray, weights: np.ndarray
) -> tuple[int, np.ndarray]:
    """Max-weight admissible pattern given per-station contribution rows."""
    station_gain = contributions @ weights  # (B,)
    mask = np.array(patterns, dtype=float)  # (J, B)
    values = mask @ station_gain
    return int(np.argmax(values)), values


def run_superframe(
    model: ChannelModel, state: RrmState, config: RrmConfig
) -> tuple[RrmState, SuperframeRecord]:
    """One long-timescale iteration.

    Simulates the subframes of the current superframe under the current
    shares and weights, then refreshes the scheduled-pattern set (greedy
    max-weight pattern discovery), re-optimizes time shares jointly with flow
    control, and adopts the resulting capacity prices as the next weights.
    """
    started = time.perf_counter()
    graph = model.graph
    t0 = state.superframe * config.subframes_per_superframe
    n_sub = config.subframes_per_superframe
    rate_block = model.rate_block(t0, n_sub)
    winner_rates = model.statistical_rates() if config.statistical_scheduling else None

    # Short timescale: per-subframe pattern sampling and link scheduling under
    # the current weights, for the whole block at once: the block kernel's
    # winners, masked by each subframe's sampled pattern.  The feasibility
    # assertions run on every subframe in every mode, and subframe 0 is
    # re-scheduled by the reference schedule_links as a live cross-check.
    served, per_station = simulate_subframes(
        model,
        t0,
        [m.pattern for m in state.members],
        state.shares,
        state.weights,
        rate_block,
        winner_rates,
    )

    # Pattern discovery: the best admissible pattern under the current
    # weights, scheduled under those same weights (the kernel pass above),
    # joins the set unless an existing member already realizes the same
    # pattern with the same row.
    members = list(state.members)
    rows, row_stderr = _member_rows(graph, members, rate_block, winner_rates)
    contributions, contrib_sem = contribution_stats(graph, per_station)
    best_j, _ = _best_pattern(state.patterns, contributions, state.weights)
    best_pattern = state.patterns[best_j]
    pattern_mask = np.array(best_pattern, dtype=float)
    candidate_row = pattern_mask @ contributions
    duplicate = any(
        m.pattern == best_pattern and np.array_equal(rows[j], candidate_row)
        for j, m in enumerate(members)
    )
    if not duplicate:
        members.append(ScheduledPattern(pattern=best_pattern, weights=state.weights.copy()))
        rows = np.vstack([rows, candidate_row])
        row_stderr = np.vstack([row_stderr, pattern_mask @ contrib_sem])

    # Share re-optimization, jointly with flow control and routing; the
    # embedded flow solution's prices become the next weights.
    shares, flow = optimize_time_sharing(
        rows,
        graph,
        config.utility,
        tol=config.share_gap_tol,
        base_capacity=graph.wired_base_capacity(),
    )

    keep = shares >= config.q_prune
    if not np.any(keep):
        keep[int(np.argmax(shares))] = True
    if keep.sum() > config.max_members:
        order = np.argsort(shares)[::-1]
        keep = np.zeros_like(keep)
        keep[order[: config.max_members]] = True
    if not np.all(keep):
        members = [m for j, m in enumerate(members) if keep[j]]
        rows, row_stderr = rows[keep], row_stderr[keep]
        shares = shares[keep] / shares[keep].sum()

    new_state = RrmState(
        members=members,
        shares=shares,
        weights=flow.prices.copy(),
        patterns=state.patterns,
        rate_rows=rows,
        row_stderr=row_stderr,
        flow=flow,
        utility=flow.utility,
        superframe=state.superframe + 1,
    )
    record = SuperframeRecord(
        index=state.superframe,
        utility=flow.utility,
        n_members=len(members),
        shares=shares.copy(),
        flow_rates=flow.rates.copy(),
        served_rates=served,
        wall_ms=(time.perf_counter() - started) * 1e3,
    )
    return new_state, record


@dataclass(frozen=True)
class RrmResult:
    state: RrmState
    records: list[SuperframeRecord]
    converged: bool
    certificate: CertificateReport

    @property
    def utility(self) -> float:
        return self.state.utility

    @property
    def utilities(self) -> np.ndarray:
        return np.array([r.utility for r in self.records])


def certificate(
    model: ChannelModel, state: RrmState, config: RrmConfig, t_start: int
) -> CertificateReport:
    """Evaluate the stopping certificate on a fresh block of channel draws."""
    graph = model.graph
    n_sub = config.subframes_per_superframe
    rate_block = model.rate_block(t_start, n_sub)
    winner_rates = model.statistical_rates() if config.statistical_scheduling else None
    weights = state.weights

    contributions, contrib_sem = station_contributions(
        graph, weights, rate_block, winner_rates
    )
    best_j, values = _best_pattern(state.patterns, contributions, weights)
    rows, row_sem = _member_rows(graph, state.members, rate_block, winner_rates)
    policy_row = state.shares @ rows
    policy_value = float(weights @ policy_row)

    mask = np.array(state.patterns, dtype=float)
    value_sem = mask @ (contrib_sem @ weights)
    policy_sem = float(state.shares @ (row_sem @ weights))
    tolerance = 3.0 * (float(value_sem[best_j]) + policy_sem) + 1e-9
    return CertificateReport(
        gap=float(values[best_j]) - policy_value,
        tolerance=tolerance,
        best_pattern=state.patterns[best_j],
        pattern_values=values,
        policy_value=policy_value,
    )


def run_to_convergence(model: ChannelModel, config: RrmConfig) -> RrmResult:
    """Iterate superframes until the utility settles or the budget runs out.

    Convergence needs two signals: the utility moved less than
    ``epsilon_converge`` between consecutive superframes, and the optimality
    certificate's gap is negligible.  A utility plateau alone is not enough;
    multi-hop routes gain their scheduled patterns one superframe at a time,
    so the utility can sit still while the pattern set is mid-discovery.  The
    returned certificate is evaluated on the block of draws after the last
    executed superframe.
    """
    state = initial_state(model)
    records: list[SuperframeRecord] = []
    converged = False
    report: CertificateReport | None = None
    previous = None
    for _ in range(config.max_superframes):
        state, record = run_superframe(model, state, config)
        records.append(record)
        report = None
        if previous is not None and abs(record.utility - previous) < config.epsilon_converge:
            report = certificate(
                model, state, config, state.superframe * config.subframes_per_superframe
            )
            allowed = report.tolerance + config.gap_converge_rel * max(
                1.0, abs(report.policy_value)
            )
            if report.gap <= allowed:
                converged = True
                break
        previous = record.utility
    if report is None:
        report = certificate(
            model, state, config, state.superframe * config.subframes_per_superframe
        )
    return RrmResult(state=state, records=records, converged=converged, certificate=report)
