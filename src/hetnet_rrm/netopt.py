"""Concave flow optimization and time sharing, with exact prices.

This solves the long-timescale program of time shares, flow control and
multi-path routing: maximize the sum of per-flow alpha-fair utilities of
delivered rate subject to flow conservation and per-link capacity, where each
link's capacity is a fixed base plus the share-weighted average of pattern
rate rows.  Flows live on explicit path sets (every simple source-to-
destination path), which makes conservation structural; with the shares as
extra variables the program stays concave with only inequality constraints.
One primal-dual interior-point method solves it, for fixed capacities
(:func:`solve_p1`) and jointly over shares and flows
(:func:`optimize_time_sharing`).  Its capacity multipliers are the gradient of
the achieved utility with respect to capacities and drive both the
time-sharing certificate and pattern discovery upstream.

Links no share can lift above a tiny capacity floor are starved: the paths
through them leave the program, and their prices are patched in afterwards as
the marginal value of giving them capacity.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .topology import TopologyGraph

CAPACITY_FLOOR = 1e-9
MAX_PATHS_PER_FLOW = 4000

# LAPACK Cholesky factor-and-solve, and solve with a kept factor, in double
# precision (see _interior_point).
_posv, _potrs = scipy.linalg.get_lapack_funcs(("posv", "potrs"), dtype=np.float64)
# Reductions called as ufunc methods, without the ndarray method wrappers.
_all = np.logical_and.reduce
_isfinite = np.isfinite
_segment_max = np.maximum.reduceat


class NetOptError(RuntimeError):
    """Solver failed to reach the requested accuracy."""


class PathExplosionError(RuntimeError):
    """A flow admits more simple paths than the configured cap."""


@dataclass(frozen=True)
class UtilitySpec:
    """Alpha-fair utility ``U(d) = log(d + eps)`` at alpha=1, else
    ``(d + eps)^(1-alpha) / (1 - alpha)``.

    The offset ``eps`` keeps the utility finite at zero rate; alpha must be
    strictly positive so the objective is strictly concave in each rate.
    """

    alpha: float = 1.0
    epsilon: float = 1e-3

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError("alpha must be finite and > 0 for strict concavity")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be finite and > 0")

    def value(self, d: np.ndarray) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        if self.alpha == 1.0:
            return np.log(d + self.epsilon)
        return (d + self.epsilon) ** (1.0 - self.alpha) / (1.0 - self.alpha)

    def gradient(self, d: np.ndarray) -> np.ndarray:
        return self.derivatives(d)[0]

    def derivatives(self, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradient ``(d + eps)^(-alpha)`` and negative second derivative
        ``alpha * (d + eps)^(-alpha - 1)``, from one shifted rate."""
        shifted = np.asarray(d, dtype=float) + self.epsilon
        return shifted ** (-self.alpha), self.alpha * shifted ** (-self.alpha - 1.0)

    def total(self, d: np.ndarray) -> float:
        return float(np.sum(self.value(d)))


@dataclass(frozen=True, eq=False)
class FlowSolution:
    """Optimal flows for fixed capacities.

    ``rates[k]`` is flow k's delivered rate, ``link_flows[k, l]`` its share on
    link l, and ``prices[l]`` the capacity multiplier, i.e. the derivative of
    the achieved utility with respect to the capacity of link l.
    ``newton_iters`` counts the interior point's Newton steps (0 when no path
    survived to be solved), and ``banked`` says the solver returned its last
    accurate iterate after a numerical breakdown or its iteration cap instead
    of reaching its complementarity floor.  ``refinements`` counts the
    Newton steps that took an iterative-refinement step near the floor.
    """

    rates: np.ndarray
    link_flows: np.ndarray = field(repr=False)
    prices: np.ndarray = field(repr=False)
    utility: float
    kkt_residual: float
    newton_iters: int = 0
    banked: bool = False
    refinements: int = 0


@dataclass(frozen=True, eq=False)
class _PathProblem:
    paths: list[tuple[int, ...]]
    flow_of_path: np.ndarray
    link_matrix: np.ndarray  # (L, P) 0/1, link membership per path
    flow_matrix: np.ndarray  # (K, P) 0/1, flow membership per path


def _simple_paths(graph: TopologyGraph, source: int, dest: int, cap: int) -> list[tuple[int, ...]]:
    out: dict[int, list[int]] = {n.index: [] for n in graph.nodes}
    for l in graph.links:
        out[l.head].append(l.index)
    # Depth first over an explicit stack of link iterators, one per node on
    # the path: a recursive closure would hold the graph in a reference cycle.
    found: list[tuple[int, ...]] = []
    acc: list[int] = []
    visited = {source}
    stack = [iter(out[source])]
    while stack:
        l = next(stack[-1], None)
        if l is None:
            stack.pop()
            if acc:
                visited.remove(graph.links[acc.pop()].tail)
            continue
        nxt = graph.links[l].tail
        if nxt in visited:
            continue
        if nxt == dest:
            found.append((*acc, l))
            if len(found) > cap:
                raise PathExplosionError(
                    f"flow {source}->{dest} exceeds {cap} simple paths; refusing to enumerate"
                )
            continue
        visited.add(nxt)
        acc.append(l)
        stack.append(iter(out[nxt]))
    found.sort()
    return found


# Path sets per graph object, dropped with the graph (graphs hash by identity).
_path_problems: weakref.WeakKeyDictionary[TopologyGraph, _PathProblem] = weakref.WeakKeyDictionary()


def _path_problem(graph: TopologyGraph) -> _PathProblem:
    problem = _path_problems.get(graph)
    if problem is not None:
        return problem
    paths: list[tuple[int, ...]] = []
    flow_of_path: list[int] = []
    for flow in graph.flows:
        flow_paths = _simple_paths(graph, flow.source, flow.destination, MAX_PATHS_PER_FLOW)
        if not flow_paths:
            raise NetOptError(f"flow {flow.index} has no route from {flow.source} to {flow.destination}")
        paths.extend(flow_paths)
        flow_of_path.extend([flow.index] * len(flow_paths))
    link_matrix = np.zeros((graph.num_links, len(paths)))
    for p, path in enumerate(paths):
        link_matrix[list(path), p] = 1.0
    flow_matrix = np.zeros((graph.num_flows, len(paths)))
    flow_matrix[flow_of_path, np.arange(len(paths))] = 1.0
    problem = _path_problems[graph] = _PathProblem(
        paths, np.array(flow_of_path), link_matrix, flow_matrix
    )
    return problem


class _InteriorPointResult(NamedTuple):
    v: np.ndarray
    multipliers: np.ndarray
    complementarity: float
    residual: float
    newton_iters: int
    banked: bool
    refinements: int


def _interior_point(
    flow_matrix: np.ndarray,
    ineq_matrix: np.ndarray,
    ineq_rhs: np.ndarray,
    utility: UtilitySpec,
    mu_floor: float,
    max_iters: int = 300,
) -> _InteriorPointResult:
    """Minimize ``-sum U(flow_matrix @ v)`` s.t. ``ineq_matrix @ v <= rhs, v >= 0``.

    Infeasible-start primal-dual Newton iteration; returns the primal point,
    the inequality multipliers, the complementarity and the scaled residual,
    plus the number of Newton steps taken and whether the point is a banked
    iterate (returned after a breakdown or after ``max_iters``) rather than
    one that reached ``mu_floor``.  Multipliers converge as independent
    variables, so prices stay accurate even when slacks shrink to ~1e-12.
    The start is centered (``lam = mu0/s``, ``z = mu0/v``) so no
    complementarity pair begins orders of magnitude off the central path.

    Every column of ``flow_matrix`` holds a single 1 (a path's flow) or no
    nonzero (a share); anything else raises ValueError.  The flow part of the
    Hessian, ``F^T diag(c) F``, is therefore ``c[k]`` wherever two columns
    carry the same flow k and zero elsewhere, and is added as such.

    Near the end of the path the Newton matrix conditions like
    ``max(lam/s, z/v)``, which can break Cholesky a few iterations before
    ``mu_floor`` is reached even though the iterate is already stationary and
    feasible to full precision.  Every iterate that passes the residual tests
    is therefore banked, and numerical breakdown returns the banked iterate
    instead of failing; NetOptError is raised only when breakdown strikes
    before any accurate iterate exists.  Overflow and invalid values are
    tested for explicitly, so floating-point warnings are silenced.

    The Newton system is factored and solved by one LAPACK ``posv`` call,
    which runs ``potrf`` and then ``potrs``: the routines
    ``scipy.linalg.cho_factor`` and ``cho_solve`` wrap, with the same
    arguments, so the iterates are the wrappers' bit for bit.  The wrappers'
    finiteness check is kept, once per Newton system: a non-finite matrix or
    right-hand side counts as a failed factorization and is not retried with
    jitter.

    Near the floor the reduced Newton system is solved too coarsely: the
    scaled stationarity residual can rise just as complementarity reaches
    ``mu_floor``, so no later iterate passes the residual test and the solve
    stalls until it banks.  Once ``mu_now <= 100 * mu_floor`` each Newton
    direction therefore takes one step of iterative refinement (Wright,
    *Primal-Dual Interior-Point Methods*, 1997): the residual of the
    unreduced stationarity equation, ``r1 = f1 + H_obj dv + A^T dlam - dz``
    with the objective Hessian ``H_obj = F^T diag(c) F`` as a matrix, is
    solved as ``hess corr = -r1`` by one LAPACK ``potrs`` call on the
    factor ``posv`` returned, with no second factorization; ``dv += corr``,
    and ``ds``, ``dlam`` and ``dz`` follow from the corrected ``dv``.  The
    result counts these steps.  The step is sensitive to rounding: forming
    ``H_obj dv`` as ``F^T (c * (F dv))``, or skipping the step when the
    residual test already passes, is equal in exact arithmetic but left a
    ``fig7_like`` share solve to run to ``max_iters``.

    The iteration is bound by per-call overhead, not arithmetic, so each
    step works in preallocated buffers, the refinement's included: the
    objective gradient and both residuals are views of one stacked vector
    whose three max-norms come from one segmented reduction, and so are the
    two step lengths.  Each sum and product is still formed in the same
    order as a plain transcription of the iteration (``tests/reference.py``),
    which it matches bit for bit.
    """
    not_binary = (flow_matrix != 0.0) & (flow_matrix != 1.0)
    if np.any(not_binary) or np.any(flow_matrix.sum(axis=0) > 1.0):
        raise ValueError("each flow_matrix column must hold a single 1 or no nonzero")
    n_rows, n_vars = ineq_matrix.shape
    # The segmented maxima below need non-empty segments.  Callers always
    # satisfy this: a live path is a variable and crosses a live link's row.
    if n_rows == 0 or n_vars == 0:
        raise ValueError("need at least one variable and one inequality row")
    n = n_rows + n_vars
    # The column pairs that carry the same flow, as flat Hessian indices.
    pair_p, pair_q = np.nonzero(flow_matrix.T @ flow_matrix)
    pair_flat = pair_p * n_vars + pair_q
    pair_flow = flow_matrix.argmax(axis=0)[pair_p]
    neg_flow_t = -flow_matrix.T
    ineq_t = ineq_matrix.T
    scale = max(1.0, float(np.max(ineq_rhs)))
    # Primal x = [s; v] and dual y = [lam; z] share one buffer, and so do
    # their Newton directions, so one division gives both step lengths.
    xy = np.empty(2 * n)
    x, y = xy[:n], xy[n:]
    s, v, lam, z = x[:n_rows], x[n_rows:], y[:n_rows], y[n_rows:]
    dxy = np.empty(2 * n)
    dx, dy = dxy[:n], dxy[n:]
    ds, dv, dlam, dz = dx[:n_rows], dx[n_rows:], dy[:n_rows], dy[n_rows:]
    ratio = np.empty(2 * n)
    halves = np.array([0, n])
    # The objective gradient and both residuals share one buffer too, so one
    # abs and one segmented max give all three max-norms.
    resid = np.empty(2 * n_vars + n_rows)
    grad_obj, f1, f2 = resid[:n_vars], resid[n_vars : 2 * n_vars], resid[2 * n_vars :]
    abs_resid = np.empty_like(resid)
    resid_starts = np.array([0, n_vars, 2 * n_vars])
    weights = np.empty(n)  # [lam / s; z / v]
    w_cap, diag_bar = weights[:n_rows], weights[n_rows:]
    w_col = w_cap[:, None]
    centering = np.empty(n)  # [mu / s - lam; mu / v - z]
    center_s, center_v = centering[:n_rows], centering[n_rows:]
    # The refinement residual's buffers: the objective Hessian F^T diag(c) F
    # as a matrix (nonzero only at the same-flow pairs) and the residual.
    h_obj = np.zeros((n_vars, n_vars))
    h_obj_flat = h_obj.ravel()
    r1 = np.empty(n_vars)
    refine_mu = 100.0 * mu_floor
    refinements = 0
    v[:] = 0.25 * scale
    s[:] = np.maximum(ineq_rhs - ineq_matrix @ v, 0.25 * scale)
    mu0 = scale
    np.divide(mu0, x, out=y)
    feas_scale = 1.0 + float(np.max(np.abs(ineq_rhs)))
    banked: tuple[np.ndarray, np.ndarray, float, float] | None = None

    def breakdown(reason: str, iters: int) -> _InteriorPointResult:
        if banked is None:
            raise NetOptError(reason)
        return _InteriorPointResult(*banked, iters, True, refinements)

    with np.errstate(all="ignore"):
        for it in range(max_iters):
            d = flow_matrix @ v
            gradient, curvature = utility.derivatives(d)
            np.matmul(neg_flow_t, gradient, out=grad_obj)
            np.subtract(np.add(grad_obj, ineq_t @ lam, out=f1), z, out=f1)
            np.subtract(np.add(ineq_matrix @ v, s, out=f2), ineq_rhs, out=f2)
            mu_now = (lam @ s + z @ v) / n
            grad_max, f1_max, f2_max = _segment_max(np.abs(resid, out=abs_resid), resid_starts)
            stat_scale = 1.0 + float(grad_max)
            if f1_max <= 1e-9 * stat_scale and f2_max <= 1e-9 * feas_scale:
                residual = max(f1_max / stat_scale, f2_max / feas_scale)
                banked = (v.copy(), lam.copy(), mu_now, residual)
                if mu_now <= mu_floor:
                    return _InteriorPointResult(*banked, it, False, refinements)

            if not (math.isfinite(mu_now) and math.isfinite(f1_max)):
                return breakdown("interior point diverged to non-finite iterates", it)
            mu = 0.2 * mu_now
            if not _all(_isfinite(np.divide(y, x, out=weights))):
                return breakdown("interior point barrier weights overflowed", it)
            hess = (ineq_matrix * w_col).T @ ineq_matrix
            flat = hess.ravel()
            pair_curvature = curvature[pair_flow]
            flat[pair_flat] += pair_curvature
            flat[:: n_vars + 1] += diag_bar
            np.subtract(np.divide(mu, x, out=centering), y, out=centering)
            rhs = -f1 - ineq_t @ (center_s + w_cap * f2) + center_v
            step = None
            if _all(_isfinite(rhs)) and _all(_isfinite(flat)):
                matrix, jitter = hess, 0.0
                for _ in range(8):
                    factor, solution, info = _posv(matrix, rhs, lower=1)
                    if info == 0:
                        step = solution
                        break
                    jitter = max(jitter * 10.0, 1e-10 * float(np.trace(hess)) / n_vars)
                    matrix = hess + jitter * np.eye(n_vars)
                    if not np.isfinite(matrix).all():
                        break
            if step is None:
                return breakdown("interior-point Newton system not positive definite", it)
            dv[:] = step
            # ds = -(f2 + A dv), so dlam = mu / s - lam + w_cap * (f2 + A dv)
            # and dz = mu / v - z - diag_bar * dv are both centering - weights * dx.
            np.subtract(-f2, ineq_matrix @ dv, out=ds)
            np.subtract(centering, np.multiply(weights, dx, out=dy), out=dy)
            if mu_now <= refine_mu:
                # One refinement step: solve hess corr = -r1 for the residual
                # r1 of the unreduced stationarity equation, on the kept factor
                # (negation is exact, so dv - solve(r1) is dv + solve(-r1)).
                h_obj_flat[pair_flat] = pair_curvature
                np.add(f1, h_obj @ dv, out=r1)
                np.add(r1, ineq_t @ dlam, out=r1)
                np.subtract(r1, dz, out=r1)
                dv -= _potrs(factor, r1, lower=1)[0]
                refinements += 1
                np.subtract(-f2, ineq_matrix @ dv, out=ds)
                np.subtract(centering, np.multiply(weights, dx, out=dy), out=dy)

            # Largest steps in (0, 1] that keep x and y positive, backed off
            # to 0.995 of the boundary: -0.995 * max(val / step) over the
            # negative steps.  A NaN step counts as not negative.
            np.divide(xy, dxy, out=ratio)
            ratio[~(dxy < 0.0)] = -np.inf
            ratio_p, ratio_d = _segment_max(ratio, halves)
            alpha_p = min(1.0, -0.995 * float(ratio_p))
            alpha_d = min(1.0, -0.995 * float(ratio_d))
            x += alpha_p * dx
            y += alpha_d * dy

    return breakdown(f"interior point did not converge in {max_iters} iterations", max_iters)


def _starved_link_prices(
    problem: _PathProblem,
    dead_links: np.ndarray,
    prices: np.ndarray,
    marginal_utility: np.ndarray,
) -> None:
    """Fill in marginal prices for links priced out of the flow problem.

    A starved link's shadow price is the utility gained by giving it capacity:
    the best over paths through it of the flow's marginal utility minus the
    prices already paid on the rest of the path.  Other starved links on the
    same path are treated as free, which errs on the side of discovery.
    """
    for l in np.flatnonzero(dead_links):
        best = 0.0
        for p, path in enumerate(problem.paths):
            if l not in path:
                continue
            rest = sum(prices[m] for m in path if m != l and not dead_links[m])
            best = max(best, float(marginal_utility[problem.flow_of_path[p]]) - rest)
        prices[l] = best


def duration_groups(labels: np.ndarray) -> list[tuple[np.ndarray, float]]:
    """The rows and total time of each duration group: row ``n`` sits in group
    ``labels[n]``, and each of the H groups has total 1/H.  Every label
    0..H-1 must be used."""
    labels = np.asarray(labels, dtype=int)
    counts = np.bincount(labels)  # refuses negative labels
    if counts.size == 0 or not counts.all():
        raise ValueError("duration group labels must use every group 0..H-1")
    order = np.argsort(labels, kind="stable")
    bounds = np.cumsum(counts)
    return [(order[b - c : b], 1.0 / counts.size) for b, c in zip(bounds, counts)]


def _solve_joint(
    graph: TopologyGraph,
    base_capacity: np.ndarray,
    rate_rows: np.ndarray,
    utility: UtilitySpec,
    groups: list[tuple[np.ndarray, float]],
    mu_cap: float = np.inf,
) -> tuple[np.ndarray, FlowSolution]:
    """Jointly optimal shares and flows for capacities ``base + rate_rows^T q``.

    Each duration group's shares (``groups`` is :func:`duration_groups`'
    partition) sum to its total.  Variables are path flows
    plus every share but each group's last, eliminated through its group's
    equality; without free shares this is the plain flow problem.  The
    capacity prices come from the joint problem, so at a degenerate optimum
    they are already share-stationary; re-pricing the same shares through the
    flow problem alone can split prices across tied constraints in a way that
    wrecks the gap certificate.  The complementarity floor is
    ``1e-12 * max(1, max rhs)``, capped at ``mu_cap``.
    """
    problem = _path_problem(graph)
    totals = np.array([t for _, t in groups])
    lasts = np.array([idx[-1] for idx, _ in groups])
    n_free = np.array([len(idx) - 1 for idx, _ in groups])
    free = np.concatenate([idx[:-1] for idx, _ in groups])

    # A link no share vector can lift above the floor stays dead; drop the
    # paths through it so the solver never chases near-boundary variables.
    group_best = np.array([rate_rows[idx].max(axis=0) for idx, _ in groups])
    best_caps = np.maximum(base_capacity + totals @ group_best, CAPACITY_FLOOR)
    dead = best_caps <= CAPACITY_FLOOR
    alive = problem.link_matrix[dead].sum(axis=0) == 0

    shares = np.zeros(rate_rows.shape[0])
    for idx, total in groups:
        shares[idx] = total / len(idx)
    rates = np.zeros(graph.num_flows)
    link_flows = np.zeros((graph.num_flows, graph.num_links))
    prices = np.zeros(graph.num_links)
    kkt, complementarity, newton_iters, banked, refinements = 0.0, 0.0, 0, False, 0
    if np.any(alive):
        path_flows = problem.flow_matrix[:, alive]
        link_matrix = problem.link_matrix[np.ix_(~dead, alive)]
        n_caps, n_paths = link_matrix.shape
        rhs = np.maximum(base_capacity[~dead] + (totals @ rate_rows[lasts])[~dead], CAPACITY_FLOOR)
        if free.size == 0:
            ineq, flow_matrix = link_matrix, path_flows
        else:
            # Path loads minus the capacity the free shares add, then per
            # group with free shares (contiguous columns), their sum <= the
            # group's total (keeps the eliminated share nonnegative).
            sized = np.flatnonzero(n_free)
            ineq = np.zeros((n_caps + sized.size, n_paths + free.size))
            ineq[:n_caps, :n_paths] = link_matrix
            last_of = np.repeat(lasts, n_free)
            ineq[:n_caps, n_paths:] = -(rate_rows[free] - rate_rows[last_of])[:, ~dead].T
            ends = n_paths + np.cumsum(n_free)
            for h, g in enumerate(sized):
                ineq[n_caps + h, ends[g] - n_free[g] : ends[g]] = 1.0
            rhs = np.append(rhs, totals[sized])
            flow_matrix = np.zeros((graph.num_flows, n_paths + free.size))
            flow_matrix[:, :n_paths] = path_flows

        mu_floor = min(1e-12 * max(1.0, float(np.max(rhs))), mu_cap)
        ip = _interior_point(flow_matrix, ineq, rhs, utility, mu_floor)
        shares[free] = ip.v[n_paths:]
        for idx, total in groups:
            shares[idx[-1]] = max(0.0, total - shares[idx[:-1]].sum())
            shares[idx] = total * shares[idx] / shares[idx].sum()
        rates = flow_matrix @ ip.v
        link_flows[:, ~dead] = (path_flows * ip.v[:n_paths]) @ link_matrix.T
        prices[~dead] = ip.multipliers[:n_caps]
        kkt, complementarity = ip.residual, ip.complementarity
        newton_iters, banked, refinements = ip.newton_iters, ip.banked, ip.refinements

    value = utility.total(rates)
    kkt = max(kkt, complementarity / max(1.0, abs(value)))
    if np.any(dead):
        _starved_link_prices(problem, dead, prices, utility.gradient(rates))
    return shares, FlowSolution(
        rates=rates,
        link_flows=link_flows,
        prices=prices,
        utility=value,
        kkt_residual=kkt,
        newton_iters=newton_iters,
        banked=banked,
        refinements=refinements,
    )


def solve_p1(
    graph: TopologyGraph,
    capacities: np.ndarray,
    utility: UtilitySpec,
    tol: float = 1e-6,
) -> FlowSolution:
    """Utility-optimal flow control and routing for fixed link capacities.

    Returns per-flow rates, per-link flow splits, and capacity prices; the
    price vector is the gradient of the optimal utility in the capacities.
    Paths through starved (near-zero capacity) links are removed from the
    optimization, and those links get their marginal price patched in
    afterwards so they stay visible to capacity allocation.
    """
    capacities = np.asarray(capacities, dtype=float)
    if capacities.shape != (graph.num_links,):
        raise ValueError("need one capacity per link")
    if not np.all(np.isfinite(capacities)):
        raise ValueError("capacities must be finite")
    if np.any(capacities < -1e-12):
        raise ValueError("capacities must be nonnegative")
    one_row = [(np.zeros(1, dtype=int), 1.0)]
    _, solution = _solve_joint(
        graph, capacities, np.zeros((1, graph.num_links)), utility, one_row, mu_cap=tol * 1e-4
    )
    if solution.kkt_residual > tol:
        raise NetOptError(
            f"flow solver residual {solution.kkt_residual:.2e} exceeds tolerance {tol:.2e}"
        )
    return solution


def optimize_time_sharing(
    rate_rows: np.ndarray,
    graph: TopologyGraph,
    utility: UtilitySpec,
    tol: float = 1e-5,
    base_capacity: np.ndarray | None = None,
    groups: np.ndarray | None = None,
) -> tuple[np.ndarray, FlowSolution]:
    """Optimal time-sharing over pattern rate rows, jointly with the flows.

    Maximizes utility of the shared capacity ``base + rate_rows^T q`` in one
    interior-point solve over shares and path flows.  ``groups`` labels each
    row with its duration group (:func:`duration_groups`): the shares of each
    of the H groups sum to ``t_h = 1/H``.  Without it the shares range over the
    probability simplex.  The result is certified by the linearization gap
    ``sum_h t_h * max_{j in h} g_j - q.g`` of the share gradient
    ``g = rate_rows @ prices``; a gap above ``tol`` raises
    :class:`NetOptError`.  When every group is a single row the shares are
    the totals, and :func:`solve_p1` prices their capacities.
    """
    rate_rows = np.atleast_2d(np.asarray(rate_rows, dtype=float))
    if rate_rows.shape[1] != graph.num_links:
        raise ValueError("rate rows must have one column per link")
    if not np.all(np.isfinite(rate_rows)):
        raise ValueError("rate rows must be finite")
    if base_capacity is None:
        base_capacity = np.zeros(graph.num_links)
    elif not np.all(np.isfinite(base_capacity)):
        raise ValueError("base capacities must be finite")
    labels = np.zeros(rate_rows.shape[0], dtype=int) if groups is None else np.asarray(groups)
    if labels.shape != rate_rows.shape[:1]:
        raise ValueError("need one duration group label per rate row")
    partition = duration_groups(labels)
    if len(partition) == rate_rows.shape[0]:  # every row its own group of 1/H
        shares = np.full(rate_rows.shape[0], 1.0 / rate_rows.shape[0])
        return shares, solve_p1(graph, base_capacity + shares @ rate_rows, utility)

    shares, solution = _solve_joint(graph, base_capacity, rate_rows, utility, partition)
    g = rate_rows @ solution.prices
    gap = float(sum(total * float(np.max(g[idx])) for idx, total in partition) - shares @ g)
    if not gap <= tol:
        raise NetOptError(f"joint share solve left linearization gap {gap:.3e} above tol {tol:.1e}")
    return shares, solution
