"""Brute-force references the tests check the program against.

They live with the tests, not in the package, so that no solver code path
can lean on them and the references stay independent of what they check.
"""

import numpy as np
import scipy.linalg

from hetnet_rrm.channel import STREAM_FADING, STREAM_PATTERN, ChannelModel, keyed_generator
from hetnet_rrm import netopt
from hetnet_rrm.netopt import UtilitySpec, solve_p1
from hetnet_rrm.phy import rate_table_for_patterns, station_contributions
from hetnet_rrm.topology import TopologyGraph

# The Cholesky factor and solve as two LAPACK calls, as cho_factor and
# cho_solve make them.
_potrf, _potrs = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


def build_incidence(graph: TopologyGraph) -> np.ndarray:
    """Node-link incidence matrix: +1 at the head row, -1 at the tail row."""
    inc = np.zeros((graph.num_nodes, graph.num_links), dtype=np.int8)
    for l in graph.links:
        inc[l.head, l.index] = 1
        inc[l.tail, l.index] = -1
    return inc


def is_feasible_pattern(interference: np.ndarray, pattern: np.ndarray) -> bool:
    """True when no two active stations of the (B,) bool pattern interfere."""
    active = np.flatnonzero(pattern)
    sub = interference[np.ix_(active, active)]
    return not np.any(sub)


def conditional_rate(
    graph: TopologyGraph,
    pattern: np.ndarray,
    weights: np.ndarray,
    channel: ChannelModel,
    n_samples: int,
    t_start: int = 0,
    statistical_winners: bool = False,
) -> np.ndarray:
    """Monte Carlo mean link rates for one (B,) bool pattern (exact when the
    channel is deterministic and ``n_samples`` is 1)."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    block = channel.rate_block(t_start, n_samples)
    winner = channel.statistical_rates() if statistical_winners else None
    _, _, mean, stderr = station_contributions(graph, weights[None], block, winner)
    rates, _ = rate_table_for_patterns(graph, pattern[None], mean[0], stderr[0])
    return rates[0]


def keyed_channel_draws(
    channel: ChannelModel, t_start: int, n_subframes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``draw_block``, ``rate_block`` and ``pattern_draws`` of ``channel``,
    rebuilt from a fresh ``keyed_generator(seed, stream, t)`` per subframe."""
    wireless = list(channel.graph.wireless_links)
    draws = np.zeros((n_subframes, channel.num_links, channel.num_subbands))
    uniforms = np.empty(n_subframes)
    for s in range(n_subframes):
        t = t_start + s
        small = np.ones((len(wireless), channel.num_subbands))
        if not channel.deterministic:
            small = keyed_generator(channel.seed, STREAM_FADING, t).standard_exponential(small.shape)
        draws[s, wireless] = small * channel.large_gains[wireless, None] ** 2
        uniforms[s] = keyed_generator(channel.seed, STREAM_PATTERN, t).random()
    return draws, np.log1p(draws * channel.tx_powers[None, :, None]), uniforms


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
    summed over subbands by :func:`subband_sum`.  Each station takes
    ``np.argmax`` over its candidates, so ties go to the lowest link
    index.
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
        per_station[:, slot, cand] = subband_sum(np.where(chosen, payload, 0.0))
    return winners, per_station


def loop_assert_block_feasible(graph: TopologyGraph, active: np.ndarray, rho: np.ndarray) -> None:
    """``phy.assert_block_feasible`` one station at a time: each station's
    scheduled links per subframe and subband against its activity, then each
    wired link, raising the same messages."""
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


def subband_sum(rates: np.ndarray) -> np.ndarray:
    """``rates`` (S, ..., M) summed over its last (subband) axis as the block
    kernel sums it: one subband at a time, in subband order, for any S."""
    total = np.zeros(rates.shape[:-1])
    for m in range(rates.shape[-1]):
        total += rates[..., m]
    return total


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


def step_length(val: np.ndarray, step: np.ndarray, fraction: float = 0.995) -> float:
    """Largest step in (0, 1] that keeps ``val + alpha * step`` nonnegative,
    times ``fraction`` of the way to the boundary."""
    neg = step < 0
    if not neg.any():
        return 1.0
    return min(1.0, fraction * float((-val[neg] / step[neg]).min()))


def unstacked_interior_point(
    flow_matrix: np.ndarray,
    ineq_matrix: np.ndarray,
    ineq_rhs: np.ndarray,
    utility: UtilitySpec,
    mu_floor: float,
    max_iters: int = 300,
):
    """``netopt._interior_point`` with one array per variable block.

    The same predictor-corrector iteration, written with ``v``, ``s``,
    ``lam`` and ``z`` as separate arrays, concatenated step lengths, a dense
    flow Hessian ``(F * c).T @ F`` and no ``np.errstate`` of its own, so
    every floating-point warning reaches the caller.  Each step solves the
    affine direction (centering target 0) with a new Cholesky factor, takes
    its full step lengths to the boundary and ``sigma = max(0.01, (mu_aff /
    mu) ** 3)``, and solves the corrector on the same factor.  Its centering
    is ``max(sigma * mu, floor)`` less the affine cross terms ``alpha_p *
    alpha_d * ds * dlam`` and ``alpha_p * alpha_d * dv * dz``; ``floor`` is
    ``mu_floor``, or ``0.1 * mu_floor`` at an iterate that passes the
    residual test.  Once ``mu_now <= 100 * mu_floor`` the corrector takes one
    refinement step, ``hess corr = -r1`` with ``r1 = f1 + H_obj dv + A^T dlam
    - dz``, on the same factor too.  The program's iteration must return the
    same result from the same inputs, bit for bit.
    """
    n_rows, n_vars = ineq_matrix.shape
    n = n_rows + n_vars
    neg_flow_t = -flow_matrix.T
    ineq_t = ineq_matrix.T
    scale = max(1.0, float(np.max(ineq_rhs)))
    v = np.full(n_vars, 0.25 * scale)
    s = np.maximum(ineq_rhs - ineq_matrix @ v, 0.25 * scale)
    mu0 = scale
    lam = mu0 / s
    z = mu0 / v
    feas_scale = 1.0 + float(np.max(np.abs(ineq_rhs)))
    banked: tuple[np.ndarray, np.ndarray, float, float] | None = None
    refinements = 0

    def breakdown(reason: str, iters: int) -> netopt._InteriorPointResult:
        if banked is None:
            raise netopt.NetOptError(reason)
        return netopt._InteriorPointResult(*banked, iters, True, refinements)

    def direction(dv, center_s, center_v, w_cap, diag_bar, f2):
        ineq_dv = ineq_matrix @ dv
        ds = -f2 - ineq_dv
        dlam = center_s + w_cap * (f2 + ineq_dv)
        dz = center_v - diag_bar * dv
        return ds, dlam, dz

    for it in range(max_iters):
        d = flow_matrix @ v
        grad_obj = neg_flow_t @ utility.gradient(d)
        f1 = grad_obj + ineq_t @ lam - z
        f2 = ineq_matrix @ v + s - ineq_rhs
        mu_now = (lam @ s + z @ v) / n
        grad_max = np.abs(grad_obj).max()
        stat_scale = 1.0 + float(grad_max)
        f1_max = np.abs(f1).max()
        f2_max = np.abs(f2).max()
        passed = np.isfinite(stat_scale) and f1_max <= 1e-9 * stat_scale and f2_max <= 1e-9 * feas_scale
        if passed:
            banked = (v, lam, mu_now, max(f1_max / stat_scale, f2_max / feas_scale))
            if mu_now <= mu_floor:
                return netopt._InteriorPointResult(*banked, it, False, refinements)

        if grad_max == np.inf:
            return breakdown(netopt._overflow_message(d, utility), it)
        if not (np.isfinite(mu_now) and np.isfinite(f1_max)):
            return breakdown("interior point diverged to non-finite iterates", it)
        w_cap = lam / s
        diag_bar = z / v
        if not (np.isfinite(w_cap).all() and np.isfinite(diag_bar).all()):
            return breakdown("interior point barrier weights overflowed", it)
        h_obj = (flow_matrix * utility.derivatives(d)[1][:, None]).T @ flow_matrix
        hess = h_obj + (ineq_matrix * w_cap[:, None]).T @ ineq_matrix
        hess.ravel()[:: n_vars + 1] += diag_bar

        # Predictor: target 0, so the centering is -lam and -z.
        rhs = -f1 - ineq_t @ (-lam + w_cap * f2) + -z
        dv = None
        if np.isfinite(rhs).all() and np.isfinite(hess).all():
            matrix, jitter = hess, 0.0
            for _ in range(8):
                factor, info = _potrf(matrix, lower=1, clean=0)
                if info == 0:
                    dv = _potrs(factor, rhs, lower=1)[0]
                    break
                jitter = max(jitter * 10.0, 1e-10 * float(np.trace(hess)) / n_vars)
                matrix = hess + jitter * np.eye(n_vars)
                if not np.isfinite(matrix).all():
                    break
        if dv is None:
            return breakdown("interior-point Newton system not positive definite", it)
        ds, dlam, dz = direction(dv, -lam, -z, w_cap, diag_bar, f2)
        alpha_p = step_length(np.concatenate((v, s)), np.concatenate((dv, ds)), 1.0)
        alpha_d = step_length(np.concatenate((lam, z)), np.concatenate((dlam, dz)), 1.0)
        mu_aff = ((lam + alpha_d * dlam) @ (s + alpha_p * ds) + (z + alpha_d * dz) @ (v + alpha_p * dv)) / n
        sigma = max(0.01, (mu_aff / mu_now) ** 3)
        target = max(sigma * mu_now, 0.1 * mu_floor if passed else mu_floor)

        # Corrector, on the same factor.
        center_s = (target - ds * dlam * (alpha_p * alpha_d)) / s - lam
        center_v = (target - dv * dz * (alpha_p * alpha_d)) / v - z
        rhs = -f1 - ineq_t @ (center_s + w_cap * f2) + center_v
        if not np.isfinite(rhs).all():
            return breakdown("interior-point Newton system not positive definite", it)
        dv = _potrs(factor, rhs, lower=1)[0]
        ds, dlam, dz = direction(dv, center_s, center_v, w_cap, diag_bar, f2)
        if mu_now <= 100.0 * mu_floor:
            r1 = f1 + h_obj @ dv + ineq_t @ dlam - dz
            dv = dv + _potrs(factor, -r1, lower=1)[0]
            refinements += 1
            ds, dlam, dz = direction(dv, center_s, center_v, w_cap, diag_bar, f2)

        alpha_p = step_length(np.concatenate((v, s)), np.concatenate((dv, ds)))
        alpha_d = step_length(np.concatenate((lam, z)), np.concatenate((dlam, dz)))
        v = v + alpha_p * dv
        s = s + alpha_p * ds
        lam = lam + alpha_d * dlam
        z = z + alpha_d * dz

    return breakdown(f"interior point did not converge in {max_iters} iterations", max_iters)
