"""Two-timescale radio resource management loop.

Long timescale (once per superframe): grow a set of member patterns,
re-optimize their time shares jointly with flow control and routing, and
refresh link weights from capacity prices.  Short timescale (every subframe):
sample a pattern from the current shares and schedule links per subband by the
max-weight rule.  A superframe's subframes are scheduled together: one block
kernel (``phy.block_winners``) finds every station's winners and served rates
on all of them, each subframe keeps its sampled pattern's active stations,
the feasibility assertions run on every subframe, and subframe 0 is
cross-checked against the single-subframe reference ``phy.schedule_links``.

The optimization state holds the admissible patterns as one (J, B) bool
array and its member set as arrays: member ``n`` is pattern
``member_index[n]``, found under the link weights ``member_row[n]`` of a
(K, L) weight stack.  Row 0 of the stack is the current weights, and every
other row the weights some member was discovered under.

Each superframe makes one kernel call (:func:`block_pass`) for that stack:
row 0 is what the short timescale schedules with and pattern discovery ranks
patterns under (on a deterministic channel after the first superframe it is
the only row stacked).  A deterministic block is its one draw: the kernel
scores that single subframe, every row it yields is exact with a standard
error of exactly zero, and the short timescale samples and schedules all S
subframes on it.  The pass yields each row's (L,) link means, and a
member's rate row is its stack row kept on the links of its pattern's active
stations.  The loop evaluates that pass, decides (once the utility plateaus,
the stopping certificate reduces the pass), and only then advances, so the
certificate and the superframe it may let run read one pass.

Each fading superframe re-estimates every member's conditional rate row
under its own stored weights on fresh draws, so a member's row is a
stationary target rather than drifting with the current weights.  On a
deterministic channel it is exactly stationary: a deterministic block is its
one draw, so the row a member was measured with is kept.  The share program
then anneals over these rows.  Keeping the discovery weights pinned is what
makes the ascent monotone: re-scheduling old patterns under new weights can
lower their achieved rows and cycle.  A superframe whose
share program (member patterns, rows, duration groups and utility) equals
the one the state's flow solved, as when no member joined or was pruned on a
deterministic channel, reuses that solve.

The shares obey *duration groups* (``netopt.duration_groups``), a partition
of the members into H index arrays, each sharing a fixed total time of 1/H:
one group (the whole simplex), or, under fixed pattern durations (fddsa), a
group for each of the J patterns, so only time within a pattern is optimized.
After each share solve every group is pruned by the fixed :data:`Q_PRUNE`
and :data:`MAX_MEMBERS`.

:func:`run_to_convergence` logs one ``INFO`` line per superframe to the
``hetnet_rrm.rrm`` logger, with the share solve's Newton iterations and
refinement steps (0, and "share solve reused", when it was reused), and
:func:`run_superframe` a ``WARNING`` when :data:`MAX_MEMBERS` cuts a member
whose share the solve kept above :data:`Q_PRUNE`; :func:`stop_reason` says
which convergence test a run that hit its superframe limit failed, and by how
much.
"""

from __future__ import annotations

import functools
import logging
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .channel import ChannelModel
from .netopt import FlowSolution, UtilitySpec, duration_groups, optimize_time_sharing
from .phy import (
    admissible_patterns,
    rate_table_for_patterns,
    schedule_block,
    station_contributions,
)

log = logging.getLogger(__name__)

#: After each share solve a member whose share is below ``Q_PRUNE`` times its
#: duration group's total leaves the set, and each group keeps at most
#: ``MAX_MEMBERS`` of its largest; a group is never emptied, but keeps at
#: least its largest-share member.
Q_PRUNE = 1e-12
MAX_MEMBERS = 64


#: One member's (B,) DTX pattern and the link weights it was found under.
Member = NamedTuple("Member", [("pattern", np.ndarray), ("weights", np.ndarray)])


@dataclass
class RrmConfig:
    """The settings of one run.  ``fixed_pattern_durations`` gives each of the
    J admissible patterns its own duration group of total 1/J (fddsa)."""

    subframes_per_superframe: int = 200
    max_superframes: int = 60
    epsilon_converge: float = 1e-6
    gap_converge_rel: float = 1e-6
    utility: UtilitySpec = field(default_factory=UtilitySpec)
    statistical_scheduling: bool = False
    fixed_pattern_durations: bool = False

    def __post_init__(self) -> None:
        if self.subframes_per_superframe < 1:
            raise ValueError("need at least one subframe per superframe")
        if self.max_superframes < 1:
            raise ValueError("need at least one superframe")
        if not self.epsilon_converge > 0.0:
            raise ValueError("epsilon_converge must be positive")
        if not self.gap_converge_rel >= 0.0:
            raise ValueError("gap_converge_rel must be non-negative")


@dataclass
class RrmState:
    """The (J, B) admissible ``patterns`` and N members with their ``shares``
    and ``rate_rows``/``row_stderr`` (N, L).  Member ``n`` is pattern
    ``member_index[n]``, found under the weights ``weight_stack[member_row[n]]``;
    the (K, L) stack's row 0 is the current weights, and some member reads each
    other row."""

    patterns: np.ndarray
    member_index: np.ndarray
    member_row: np.ndarray
    weight_stack: np.ndarray
    shares: np.ndarray
    rate_rows: np.ndarray
    row_stderr: np.ndarray
    flow: FlowSolution | None = None
    utility: float = -np.inf
    superframe: int = 0

    # ``(program, shares, flow)`` of the share solve ``flow`` came from, its
    # shares before pruning, set by :func:`run_superframe`.  A cache, not
    # state, so it is a plain attribute and no field: comparisons, copies and
    # ``dataclasses.replace`` leave it out.
    solve = None

    @property
    def weights(self) -> np.ndarray:
        """The current link weights, row 0 of the stack."""
        return self.weight_stack[0]

    @property
    def members(self) -> list[Member]:
        """Each member's pattern and weights, read off the arrays.  It exists
        for the benchmark's output check (``perfbench/checks.py``), which reads
        ``m.pattern``; the package itself reads the arrays."""
        rows = zip(self.member_index, self.member_row)
        return [Member(self.patterns[j], self.weight_stack[k]) for j, k in rows]


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

    ``gap`` is the best weighted rate the duration groups allow,
    ``sum_g t_g * max_{p in g} v_p`` over groups of total time ``t_g``, minus
    the weighted rate of the converged time-sharing policy; by concavity it
    upper-bounds the utility loss to the optimum.  ``tolerance`` widens the
    check by three standard errors of the Monte Carlo rate estimates, weighted
    the same way (zero for a deterministic channel).  ``best_pattern`` is the
    overall max-weight pattern.
    """

    gap: float
    tolerance: float
    best_pattern: np.ndarray
    pattern_values: np.ndarray
    policy_value: float


def initial_state(model: ChannelModel, fixed_pattern_durations: bool = False) -> RrmState:
    """Start from one member per duration group, with neutral weights: the
    lexicographically last admissible pattern (all-on when admissible), or
    every pattern under fixed durations."""
    graph = model.graph
    patterns = admissible_patterns(graph)
    starts = np.arange(len(patterns)) if fixed_pattern_durations else np.array([len(patterns) - 1])
    return RrmState(
        patterns=patterns,
        member_index=starts,
        member_row=np.zeros(starts.size, dtype=int),
        weight_stack=np.ones((1, graph.num_links)),
        shares=np.full(starts.size, 1.0 / starts.size),
        rate_rows=np.zeros((starts.size, graph.num_links)),
        row_stderr=np.zeros((starts.size, graph.num_links)),
    )


def _sample_member_indices(shares: np.ndarray, draws: np.ndarray) -> np.ndarray:
    edges = np.cumsum(shares)
    edges[-1] = 1.0
    return np.minimum(np.searchsorted(edges, draws, side="right"), len(shares) - 1)


@dataclass(frozen=True, eq=False, repr=False)
class BlockPass:
    """One superframe's block of channel draws, its one kernel pass, and what
    the certificate and pattern discovery read off the pass.

    ``started`` is the ``time.perf_counter()`` reading the pass began at,
    which the superframe run on it is timed from.  ``rate_block`` holds the
    S subframes, or a deterministic channel's one draw, and ``winners``
    (S or 1, L, M) and ``served`` (L, S or 1) are row 0's schedule and
    per-subframe link rates on it with every station active, under the
    current weights: what the short timescale serves from.
    ``member_rates``/``member_stderr`` (N, L) are each member's rate row under
    its own weights, ``pattern_values`` (J,) every admissible pattern's
    weighted rate under row 0 and ``pattern_sem`` its weighted standard
    error, ``group_best`` each duration group's argmax of those values (a
    group of total 1/H each), and ``best_rates``/``best_stderr`` the rate
    rows of those argmax patterns under row 0.
    """

    started: float
    t0: int
    rate_block: np.ndarray
    winner_rates: np.ndarray | None
    winners: np.ndarray
    served: np.ndarray
    member_rates: np.ndarray
    member_stderr: np.ndarray
    pattern_values: np.ndarray
    pattern_sem: np.ndarray
    group_best: np.ndarray
    best_rates: np.ndarray
    best_stderr: np.ndarray


def block_pass(
    model: ChannelModel, state: RrmState, config: RrmConfig, t0: int | None = None
) -> BlockPass:
    """Draw the block of subframes from ``t0`` on (by default the start of
    ``state``'s superframe) and make its one kernel pass under the state's
    weight stack.

    A fading block holds the superframe's S subframes; a deterministic block
    is its one draw, ``model.rate_block(t0, 1)``, which every subframe
    repeats, so its rows are exact and their standard errors exactly zero.
    Row 0 of the stack, the current weights, is the pass the short timescale
    schedules with; member ``n`` reads row ``member_row[n]``, and every
    member's rate row is masked from its stack row's link means at once.  On
    a deterministic channel the rows ``state`` carries after its first
    superframe are kept instead and only row 0 is stacked: the draw never
    changes and a member's weights are pinned, so re-stacking a member would
    give the same bits.  Every pattern's rate row under row 0 comes from one
    table, and its value is that row times the current weights.  Each
    duration group's best pattern is the argmax over all patterns, or under
    fixed durations each pattern itself.
    """
    started = time.perf_counter()
    if t0 is None:
        t0 = state.superframe * config.subframes_per_superframe
    graph = model.graph
    stationary = model.deterministic and state.superframe > 0
    rate_block = model.rate_block(t0, 1 if model.deterministic else config.subframes_per_superframe)
    winner_rates = model.statistical_rates() if config.statistical_scheduling else None
    stack = state.weight_stack[:1] if stationary else state.weight_stack
    winners, served, mean, stderr = station_contributions(graph, stack, rate_block, winner_rates)

    patterns, row = state.patterns, state.member_row
    if stationary:
        member_rates, member_stderr = state.rate_rows, state.row_stderr
    else:
        member_rates, member_stderr = rate_table_for_patterns(
            graph, patterns[state.member_index], mean[row], stderr[row]
        )
    rates, sems = rate_table_for_patterns(graph, patterns, mean[0], stderr[0])
    values, value_sem = rates @ state.weights, sems @ state.weights
    best = np.arange(len(values)) if config.fixed_pattern_durations else np.argmax(values, keepdims=True)
    return BlockPass(
        started=started,
        t0=t0,
        rate_block=rate_block,
        winner_rates=winner_rates,
        winners=winners,
        served=served,
        member_rates=member_rates,
        member_stderr=member_stderr,
        pattern_values=values,
        pattern_sem=value_sem,
        group_best=best,
        best_rates=rates[best],
        best_stderr=sems[best],
    )


def run_superframe(
    model: ChannelModel, state: RrmState, config: RrmConfig, block: BlockPass
) -> tuple[RrmState, SuperframeRecord]:
    """One long-timescale iteration on ``block``, the :func:`block_pass` of
    ``state`` from the start of its superframe (a pass from any other
    subframe is refused).

    Simulates the superframe's subframes under the current shares and
    weights, then refreshes the scheduled-pattern set (greedy max-weight
    pattern discovery in every duration group), re-optimizes time shares
    jointly with flow control, and adopts the resulting capacity prices as
    the next weights.  Its record's ``wall_ms`` counts from the start of
    ``block``, so it includes the pass and a certificate evaluated on it.
    """
    graph = model.graph
    t0 = state.superframe * config.subframes_per_superframe
    if block.t0 != t0:
        raise ValueError(f"block pass starts at subframe {block.t0}, superframe at {t0}")

    # Short timescale: per-subframe pattern sampling and link scheduling under
    # the current weights, for the whole block at once: row 0's winners and
    # served rates, masked by each subframe's sampled pattern.  The
    # feasibility assertions run on every subframe in every mode, and
    # subframe 0 is re-scheduled by the reference schedule_links as a live
    # cross-check.  A deterministic pass's one draw, its (1, L, M) winners
    # and (L, 1) rates stand for every subframe.
    draws = model.pattern_draws(t0, config.subframes_per_superframe)
    index = state.member_index
    active = state.patterns[index[_sample_member_indices(state.shares, draws)]]
    served = schedule_block(
        graph, active, state.weights, block.rate_block, block.winners, block.served, block.winner_rates
    )

    # Pattern discovery: each duration group's best pattern under the current
    # weights, scheduled under those same weights (row 0 of the pass), joins
    # the set, reading stack row 0, unless an existing member already
    # realizes the same pattern with the same row.
    rows, row_stderr, best = block.member_rates, block.member_stderr, block.group_best
    seen = {(j, rows[n].tobytes()) for n, j in enumerate(index)}
    new = [k for k, j in enumerate(best) if (j, block.best_rates[k].tobytes()) not in seen]
    index = np.concatenate([index, best[new]])
    member_row = np.concatenate([state.member_row, np.zeros(len(new), dtype=int)])
    rows = np.vstack([rows, block.best_rates[new]])
    row_stderr = np.vstack([row_stderr, block.best_stderr[new]])

    # Share re-optimization, jointly with flow control and routing; the
    # embedded flow solution's prices become the next weights.  The program
    # the state's flow solved is reused when no member joined or was pruned
    # and the rows did not move; its shares are copied before pruning.
    labels = index if config.fixed_pattern_durations else np.zeros(index.size, dtype=int)
    groups = duration_groups(labels)
    program = (index.tobytes(), rows.tobytes(), config.utility, config.fixed_pattern_durations)
    if state.solve is not None and state.solve[0] == program:
        _, solved_shares, flow = state.solve
    else:
        solved_shares, flow = optimize_time_sharing(rows, graph, config.utility, groups=groups)

    # Prune small and surplus members in each group, which keeps its largest.
    shares = solved_shares.copy()
    keep = np.zeros(index.size, dtype=bool)
    capped = 0.0
    total = 1.0 / len(groups)
    for idx in groups:
        order = idx[np.argsort(shares[idx])[::-1]]
        above = order[shares[order] >= Q_PRUNE * total]
        kept = np.sort(above[:MAX_MEMBERS])
        capped = max(capped, float(shares[above[MAX_MEMBERS:]].max(initial=0.0)))
        kept = kept if kept.size else order[:1]
        keep[kept] = True
        if kept.size < idx.size:
            shares[kept] = total * shares[kept] / shares[kept].sum()
    if capped > 0.0:
        log.warning("superframe %d: MAX_MEMBERS = %d cut a member of share %.3g",
                    state.superframe, MAX_MEMBERS, capped)
    # The next stack is the prices, then the old rows some kept member reads.
    used = np.bincount(member_row[keep], minlength=len(state.weight_stack)) > 0
    rows, row_stderr, shares = rows[keep], row_stderr[keep], shares[keep]

    new_state = RrmState(
        patterns=state.patterns,
        member_index=index[keep],
        member_row=np.cumsum(used)[member_row[keep]],  # a used row's place after the prices
        weight_stack=np.vstack([flow.prices, state.weight_stack[used]]),
        shares=shares,
        rate_rows=rows,
        row_stderr=row_stderr,
        flow=flow,
        utility=flow.utility,
        superframe=state.superframe + 1,
    )
    new_state.solve = (program, solved_shares, flow)
    record = SuperframeRecord(
        index=state.superframe,
        utility=flow.utility,
        n_members=int(keep.sum()),
        shares=shares.copy(),
        flow_rates=flow.rates.copy(),
        served_rates=served,
        wall_ms=(time.perf_counter() - block.started) * 1e3,
    )
    return new_state, record


@dataclass(frozen=True)
class RrmResult:
    """A finished run.  ``wall_ms`` is the whole run's wall time, the initial
    state and the final pass included, which no record's ``wall_ms``
    covers."""

    state: RrmState
    records: list[SuperframeRecord]
    converged: bool
    certificate: CertificateReport
    wall_ms: float

    @property
    def utility(self) -> float:
        return self.state.utility


def certificate(state: RrmState, block: BlockPass) -> CertificateReport:
    """Evaluate the stopping certificate of ``state`` on ``block``, a
    :func:`block_pass` of ``state``: a reduction of the pass, with no kernel
    call of its own.  A pass from a later, unseen block of draws gives a
    certificate on fresh draws."""
    weights = state.weights
    values, best = block.pattern_values, block.group_best
    totals = np.full(best.size, 1.0 / best.size)
    policy_value = float(weights @ (state.shares @ block.member_rates))
    policy_sem = float(state.shares @ (block.member_stderr @ weights))
    tolerance = 3.0 * (float(totals @ block.pattern_sem[best]) + policy_sem) + 1e-9
    return CertificateReport(
        gap=float(totals @ values[best]) - policy_value,
        tolerance=tolerance,
        best_pattern=state.patterns[int(np.argmax(values))],
        pattern_values=values,
        policy_value=policy_value,
    )


def run_to_convergence(model: ChannelModel, config: RrmConfig) -> RrmResult:
    """Iterate superframes until the utility settles or the budget runs out.

    Each iteration evaluates, decides, then advances.  It makes the current
    superframe's :func:`block_pass`; once the utility has moved less than
    ``epsilon_converge`` between the last two superframes, it reduces that
    pass to the optimality :func:`certificate` and stops if the gap is
    negligible; otherwise :func:`run_superframe` runs on the same pass.  A
    utility plateau alone is not enough; multi-hop routes gain their
    scheduled patterns one superframe at a time, so the utility can sit still
    while the pattern set is mid-discovery.  The returned certificate is read
    off the pass after the last executed superframe.
    """
    started = time.perf_counter()
    state = initial_state(model, config.fixed_pattern_durations)
    records: list[SuperframeRecord] = []
    while True:
        block = block_pass(model, state, config)
        report = functools.cache(functools.partial(certificate, state, block))
        failed = _failed_test(records, report, config)
        if not failed or len(records) == config.max_superframes:
            wall_ms = (time.perf_counter() - started) * 1e3
            return RrmResult(state, records, not failed, report(), wall_ms)
        previous = state.flow
        state, record = run_superframe(model, state, config, block)
        records.append(record)
        reused = state.flow is previous
        log.info(
            "superframe %d: utility %r, %d members, %d Newton iterations, %d refinement steps%s, "
            "banked %s, %.1f ms",
            record.index, record.utility, record.n_members,
            0 if reused else state.flow.newton_iters, 0 if reused else state.flow.refinements,
            " (share solve reused)" if reused else "", state.flow.banked, record.wall_ms,
        )


def _failed_test(
    records: list[SuperframeRecord], report: Callable[[], CertificateReport], config: RrmConfig
) -> str:
    """The convergence rule: ``""`` when a run with ``records`` has converged,
    else the test it fails and by how much.  The utility must have moved less
    than ``epsilon_converge`` over the last two superframes; only then is
    ``report()``, the certificate of the current pass, read, and its gap must
    be within its tolerance plus the ``gap_converge_rel`` slack."""
    if len(records) < 2:
        return f"{len(records)} superframe(s) ran; the utility step test needs two"
    step = abs(records[-1].utility - records[-2].utility)
    if not step < config.epsilon_converge:
        return (
            f"utility step {step:.3g} >= epsilon_converge {config.epsilon_converge:.3g} "
            f"(by {step - config.epsilon_converge:.3g})"
        )
    cert = report()
    slack = config.gap_converge_rel * max(1.0, abs(cert.policy_value))
    if cert.gap <= cert.tolerance + slack:
        return ""
    return (
        f"certificate gap {cert.gap:.3g} > tolerance {cert.tolerance:.3g} "
        f"+ gap_converge_rel slack {slack:.3g} (by {cert.gap - cert.tolerance - slack:.3g})"
    )


def stop_reason(result: RrmResult, config: RrmConfig) -> str:
    """The convergence test a run that stopped at its superframe limit failed
    last, and by how much: the utility step against ``epsilon_converge``, or
    the certificate gap against its tolerance plus the ``gap_converge_rel``
    slack."""
    return _failed_test(result.records, lambda: result.certificate, config)
