"""Concave flow optimization and time sharing, with exact prices.

This solves the long-timescale program of time shares, flow control and
multi-path routing: maximize the sum of per-flow alpha-fair utilities of
delivered rate subject to flow conservation and per-link capacity, where each
link's capacity is a fixed base plus the share-weighted average of pattern
rate rows.  Flows live on explicit path sets (every simple source-to-
destination path), which makes conservation structural; with the shares as
extra variables the program stays concave with only inequality constraints.
Every program takes one path, :func:`_solve_joint` and its primal-dual
interior point: jointly over shares and flows (:func:`optimize_time_sharing`)
and for fixed capacities (:func:`solve_p1`).  Path sets come from the graph's
``out_links``, and the program's one flow matrix F gives both the delivered
rates and the objective Hessian ``F^T diag(c) F``.  Its capacity multipliers
are the gradient of the achieved utility with respect to capacities and drive
both the time-sharing certificate and pattern discovery upstream.

Links no share can lift above a tiny capacity floor are starved: the paths
through them leave the program, and their prices are patched in afterwards as
the marginal value of giving them capacity.

The interior point's Cholesky solves are LAPACK's ``dposv`` and ``dpotrs``
from scipy's compiled extension ``scipy.linalg._flapack``, the very objects
``scipy.linalg.lapack`` exports.  The extension is loaded from its file,
because importing the ``scipy.linalg`` package costs about half the start-up
time of every process and this module needs nothing else from it.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .topology import TopologyGraph, per_graph

CAPACITY_FLOOR = 1e-9
MAX_PATHS_PER_FLOW = 4000
FLOW_TOL = 1e-6  # KKT residual a flow solve must reach
MAX_NEWTON_ITERS = 300  # Newton steps an interior point takes before it banks or fails


def _load_flapack():
    """scipy's LAPACK extension module, loaded without importing ``scipy`` or
    ``scipy.linalg``; the one already loaded if there is one.  It is
    registered under its own name, so a later ``import scipy.linalg`` reuses
    it."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy is not installed", name=name)
    folders = [os.path.join(root, "linalg") for root in spec.submodule_search_locations]
    for folder in folders:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "_flapack" + suffix)
            if os.path.isfile(path):
                module_spec = importlib.util.spec_from_file_location(name, path)
                module = importlib.util.module_from_spec(module_spec)
                sys.modules[name] = module
                module_spec.loader.exec_module(module)
                return module
    raise ImportError(f"no {name} extension in {os.pathsep.join(folders)}", name=name)


# LAPACK Cholesky factor-and-solve, and solve with a kept factor, in double
# precision (see _interior_point).
_flapack = _load_flapack()
_posv, _potrs = _flapack.dposv, _flapack.dpotrs
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
        return (np.asarray(d, dtype=float) + self.epsilon) ** (-self.alpha)

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
class _Layout:
    """The flow program's shape once the links a dead-link mask marks are
    priced out: the other links are ``live`` (L,) and the paths through no
    dead link ``alive`` (P,); ``path_flows`` (K, P') and ``link_matrix``
    (L', P') are the flow and live-link membership of the alive paths.  The
    arrays are read-only."""

    live: np.ndarray
    alive: np.ndarray
    path_flows: np.ndarray
    link_matrix: np.ndarray


@dataclass(frozen=True, eq=False)
class _PathProblem:
    paths: list[tuple[int, ...]]
    flow_of_path: np.ndarray
    link_matrix: np.ndarray  # (L, P) 0/1, link membership per path
    flow_matrix: np.ndarray  # (K, P) 0/1, flow membership per path
    # A _Layout per dead-link set, keyed by the (L,) bool mask's bytes.
    layouts: dict[bytes, _Layout] = field(default_factory=dict, repr=False)

    def layout(self, dead: np.ndarray) -> _Layout:
        """The layout for the (L,) bool dead-link mask ``dead``, built once
        per mask."""
        key = dead.tobytes()
        layout = self.layouts.get(key)
        if layout is None:
            alive = self.link_matrix[dead].sum(axis=0) == 0
            path_flows = self.flow_matrix[:, alive]
            layout = _Layout(
                live=~dead,
                alive=alive,
                path_flows=path_flows,
                link_matrix=self.link_matrix[np.ix_(~dead, alive)],
            )
            for array in (layout.live, layout.alive, path_flows, layout.link_matrix):
                array.setflags(write=False)
            self.layouts[key] = layout
        return layout


def _simple_paths(graph: TopologyGraph, source: int, dest: int, cap: int) -> list[tuple[int, ...]]:
    # Depth first over an explicit stack of link iterators, one per node on
    # the path: a recursive closure would hold the graph in a reference cycle.
    found: list[tuple[int, ...]] = []
    acc: list[int] = []
    visited = {source}
    stack = [iter(graph.out_links[source])]
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
        stack.append(iter(graph.out_links[nxt]))
    found.sort()
    return found


@per_graph
def _path_problem(graph: TopologyGraph) -> _PathProblem:
    """Every flow's simple paths on ``graph``, enumerated once per graph."""
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
    return _PathProblem(paths, np.array(flow_of_path), link_matrix, flow_matrix)


def check_path_sets(graph: TopologyGraph) -> None:
    """Enumerate every flow's simple paths on ``graph`` as its first solve
    does: :class:`PathExplosionError` when a flow has more than
    :data:`MAX_PATHS_PER_FLOW`."""
    _path_problem(graph)


def _overflow_message(rates: np.ndarray, utility: UtilitySpec) -> str:
    """Names the flow with the largest marginal utility (the lowest rate),
    whose overflow makes the utility or a price not finite."""
    k = int(np.argmin(rates))
    return (
        f"flow {k}'s marginal utility ({float(rates[k])!r} + {utility.epsilon!r}) ** -{utility.alpha!r}"
        f" = {float(utility.gradient(rates[k]))!r} overflows: the utility or a capacity price is not finite"
    )


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
) -> _InteriorPointResult:
    """Minimize ``-sum U(flow_matrix @ v)`` s.t. ``ineq_matrix @ v <= rhs, v >= 0``.

    Infeasible-start primal-dual interior point with Mehrotra's
    predictor-corrector step (Mehrotra, SIAM J. Optim., 1992; Wright,
    *Primal-Dual Interior-Point Methods*, 1997, ch. 10).  Returns the primal
    point, the inequality multipliers, the complementarity and the scaled
    residual, plus the number of Newton steps taken and whether the point is
    a banked iterate (returned after a breakdown or after
    :data:`MAX_NEWTON_ITERS` steps) rather than one that reached
    ``mu_floor``.  Multipliers converge as independent variables, so prices
    stay accurate even when slacks shrink to ~1e-12.  The start is centered
    (``lam = mu0/s``, ``z = mu0/v``) so no complementarity pair begins orders
    of magnitude off the central path.

    Each step factors its Newton matrix once and solves two directions on
    the factor.  The predictor is the affine direction, centering target 0.
    Its step lengths to the boundary, ``alpha_p`` and ``alpha_d`` (at most
    1), give the complementarity ``mu_aff`` it would reach, and the
    centering parameter ``sigma = (mu_aff / mu)^3``.  The corrector aims at
    ``target = max(sigma * mu, floor)``, less the predictor's second-order
    terms ``alpha_p * alpha_d * ds * dlam`` and ``alpha_p * alpha_d * dv *
    dz``; the step then goes 0.995 of the way to the boundary along it.  A
    fixed ``sigma = 0.2`` took 18-20 steps a solve; this takes about half.
    Three safeguards, each found by the failure it prevents:

    * ``floor`` is ``mu_floor`` while the iterate fails the residual test
      and ``0.1 * mu_floor`` once it passes.  Without it, mu dives below the
      floor while the scaled stationarity residual is still ~1e-8, and at
      that mu the Newton system is too ill-conditioned to cut it: three
      fbc share solves of a ``fig7_like`` sweep break down or run out of
      steps, and so do 6 of 2,000 oracle share programs.
    * ``sigma >= 0.01``.  Without it, programs the test suite poses fail,
      one of them in the fddsa-against-proposed certificate test.
    * The cross terms are weighted by ``alpha_p * alpha_d``.  At full weight
      short affine dual steps push complementarity back up, and 141 of the
      8,000 oracle share programs on ``random_instance`` seeds 0-7999 (46
      the first) run out of steps.

    Each program brings its own ``mu_floor`` (:func:`_solve_joint` sets one
    with free shares and one for fixed capacities), so the safeguards add no
    setting.

    Near the end of the path the Newton matrix conditions like
    ``max(lam/s, z/v)``, which can break Cholesky a few iterations before
    ``mu_floor`` is reached even though the iterate is already stationary and
    feasible to full precision.  Every iterate that passes the residual test
    is therefore banked, and numerical breakdown returns the banked iterate
    instead of failing; NetOptError is raised only when breakdown strikes
    before any accurate iterate exists.  The test needs a finite objective
    gradient, which scales it: an overflowing marginal utility is a
    breakdown that names the flow.  Overflow and invalid values are tested
    for explicitly, so floating-point warnings are silenced.

    The predictor's system is factored and solved by one LAPACK ``posv``
    call, which runs ``potrf`` and then ``potrs``: the routines
    ``scipy.linalg.cho_factor`` and ``cho_solve`` wrap, from the same
    extension module and with the same arguments, so the iterates are the
    wrappers' bit for bit.  The wrappers' finiteness check is kept: a
    non-finite matrix or right-hand side counts as a failed factorization
    and is not retried with jitter, and a non-finite corrector right-hand
    side is a breakdown too.  The corrector
    is one ``potrs`` call on the factor ``posv`` returned.

    Near the floor the reduced Newton system is solved too coarsely: the
    scaled stationarity residual can rise just as complementarity reaches
    ``mu_floor``, so no later iterate passes the residual test and the solve
    stalls until it banks.  Once ``mu_now <= 100 * mu_floor`` the corrector
    therefore takes one step of iterative refinement (Wright, 1997): the
    residual of the unreduced stationarity equation, ``r1 = f1 + H_obj dv +
    A^T dlam - dz`` with the objective Hessian ``H_obj = F^T diag(c) F``, the
    matrix the Newton step adds to ``A^T diag(lam/s) A``, is solved as
    ``hess corr = -r1`` by one more ``potrs`` call on the same factor;
    ``dv += corr``, and ``ds``, ``dlam`` and ``dz`` follow from the corrected
    ``dv``.  The result counts these steps.  The step is sensitive to
    rounding: forming ``H_obj dv`` as ``F^T (c * (F dv))``, or skipping the
    step when the residual test already passes, is equal in exact arithmetic
    but left a ``fig7_like`` share solve to run to :data:`MAX_NEWTON_ITERS`
    under the fixed-sigma step.

    The iteration is bound by per-call overhead, not arithmetic, so each
    step works in preallocated buffers, the corrector's and the
    refinement's included: the objective gradient and both residuals are
    views of one stacked vector whose three max-norms come from one
    segmented reduction, and so are the two step lengths.  Each sum and
    product is still formed as in a plain transcription of the iteration
    (``tests/reference.py``), which it matches bit for bit; the reference
    adds the two Hessian terms the other way round, and a sum of two
    doubles does not depend on their order.
    """
    n_rows, n_vars = ineq_matrix.shape
    # The segmented maxima below need non-empty segments.  Callers always
    # satisfy this: a live path is a variable and crosses a live link's row.
    if n_rows == 0 or n_vars == 0:
        raise ValueError("need at least one variable and one inequality row")
    n = n_rows + n_vars
    neg_flow_t = -flow_matrix.T
    ineq_t = ineq_matrix.T
    scale = max(1.0, float(np.max(ineq_rhs)))
    # Primal x = [s; v] and dual y = [lam; z] share one buffer, and so do
    # their Newton directions, so one division gives both step lengths; the
    # predictor's trial point is laid out the same way.
    xy = np.empty(2 * n)
    x, y = xy[:n], xy[n:]
    s, v, lam, z = x[:n_rows], x[n_rows:], y[:n_rows], y[n_rows:]
    dxy = np.empty(2 * n)
    dx, dy = dxy[:n], dxy[n:]
    ds, dv, dlam, dz = dx[:n_rows], dx[n_rows:], dy[:n_rows], dy[n_rows:]
    trial = np.empty(2 * n)
    trial_x, trial_y = trial[:n], trial[n:]
    trial_s, trial_v = trial_x[:n_rows], trial_x[n_rows:]
    trial_lam, trial_z = trial_y[:n_rows], trial_y[n_rows:]
    ratio = np.empty(2 * n)
    negative = np.empty(2 * n, dtype=bool)
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
    centering = np.empty(n)  # [(target - cross_s) / s - lam; (target - cross_v) / v - z]
    center_s, center_v = centering[:n_rows], centering[n_rows:]
    cross = np.empty(n)  # the affine step's second-order term [ds * dlam; dv * dz]
    # newton_rhs's buffers: the capacity rows' term, its image and the sum.
    rhs_rows = np.empty(n_rows)
    rhs_image = np.empty(n_vars)
    rhs_sum = np.empty(n_vars)
    r1 = np.empty(n_vars)  # the refinement residual
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

    def newton_rhs() -> np.ndarray:
        # -f1 - ineq_t @ (center_s + w_cap * f2) + center_v, in that order.
        np.add(center_s, np.multiply(w_cap, f2, out=rhs_rows), out=rhs_rows)
        np.matmul(ineq_t, rhs_rows, out=rhs_image)
        np.subtract(np.negative(f1, out=rhs_sum), rhs_image, out=rhs_sum)
        return np.add(rhs_sum, center_v, out=rhs_sum)

    def take_direction(step: np.ndarray) -> None:
        # ds = -(f2 + A dv), so dlam = center_s + w_cap * (f2 + A dv) and
        # dz = center_v - diag_bar * dv are both centering - weights * dx.
        dv[:] = step
        np.subtract(-f2, ineq_matrix @ dv, out=ds)
        np.subtract(centering, np.multiply(weights, dx, out=dy), out=dy)

    def step_lengths(fraction: float) -> tuple[float, float]:
        # Largest steps in (0, 1] that keep x and y nonnegative, times
        # ``fraction`` of the way to the boundary: -fraction * max(val /
        # step) over the negative steps.  A NaN step counts as not negative.
        ratio.fill(-np.inf)
        np.divide(xy, dxy, out=ratio, where=np.less(dxy, 0.0, out=negative))
        ratio_p, ratio_d = _segment_max(ratio, halves)
        return min(1.0, -fraction * float(ratio_p)), min(1.0, -fraction * float(ratio_d))

    with np.errstate(all="ignore"):
        for it in range(MAX_NEWTON_ITERS):
            d = flow_matrix @ v
            gradient, curvature = utility.derivatives(d)
            np.matmul(neg_flow_t, gradient, out=grad_obj)
            np.subtract(np.add(grad_obj, ineq_t @ lam, out=f1), z, out=f1)
            np.subtract(np.add(ineq_matrix @ v, s, out=f2), ineq_rhs, out=f2)
            mu_now = (lam @ s + z @ v) / n
            grad_max, f1_max, f2_max = _segment_max(np.abs(resid, out=abs_resid), resid_starts)
            stat_scale = 1.0 + float(grad_max)
            passed = (
                math.isfinite(stat_scale) and f1_max <= 1e-9 * stat_scale and f2_max <= 1e-9 * feas_scale
            )
            if passed:
                residual = max(f1_max / stat_scale, f2_max / feas_scale)
                banked = (v.copy(), lam.copy(), mu_now, residual)
                if mu_now <= mu_floor:
                    return _InteriorPointResult(*banked, it, False, refinements)

            if grad_max == math.inf:
                return breakdown(_overflow_message(d, utility), it)
            if not (math.isfinite(mu_now) and math.isfinite(f1_max)):
                return breakdown("interior point diverged to non-finite iterates", it)
            if not _all(_isfinite(np.divide(y, x, out=weights))):
                return breakdown("interior point barrier weights overflowed", it)
            h_obj = (flow_matrix * curvature[:, None]).T @ flow_matrix
            hess = (ineq_matrix * w_col).T @ ineq_matrix
            hess += h_obj
            flat = hess.ravel()
            flat[:: n_vars + 1] += diag_bar
            # Predictor: the affine direction, centering target 0.
            np.negative(y, out=centering)
            rhs = newton_rhs()
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
            take_direction(step)
            alpha_p, alpha_d = step_lengths(1.0)
            np.add(np.multiply(dx, alpha_p, out=trial_x), x, out=trial_x)
            np.add(np.multiply(dy, alpha_d, out=trial_y), y, out=trial_y)
            mu_aff = (trial_lam @ trial_s + trial_z @ trial_v) / n
            sigma = max(0.01, (mu_aff / mu_now) ** 3)
            target = max(sigma * mu_now, 0.1 * mu_floor if passed else mu_floor)
            # Corrector: the same factor, with the affine step's second-order
            # term, weighted by its step lengths, off the centering target.
            np.multiply(np.multiply(dx, dy, out=cross), alpha_p * alpha_d, out=cross)
            np.subtract(target, cross, out=centering)
            np.subtract(np.divide(centering, x, out=centering), y, out=centering)
            rhs = newton_rhs()
            if not _all(_isfinite(rhs)):
                return breakdown("interior-point Newton system not positive definite", it)
            take_direction(_potrs(factor, rhs, lower=1)[0])
            if mu_now <= refine_mu:
                # One refinement step: solve hess corr = -r1 for the residual
                # r1 of the unreduced stationarity equation, on the kept factor
                # (negation is exact, so dv - solve(r1) is dv + solve(-r1)).
                np.add(f1, h_obj @ dv, out=r1)
                np.add(r1, ineq_t @ dlam, out=r1)
                np.subtract(r1, dz, out=r1)
                take_direction(dv - _potrs(factor, r1, lower=1)[0])
                refinements += 1

            alpha_p, alpha_d = step_lengths(0.995)
            x += alpha_p * dx
            y += alpha_d * dy

    return breakdown(f"interior point did not converge in {MAX_NEWTON_ITERS} iterations", MAX_NEWTON_ITERS)


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


def duration_groups(labels: np.ndarray) -> list[np.ndarray]:
    """The rows of each duration group, as one index array per group: row
    ``n`` sits in group ``labels[n]``.  Each of the H groups shares a total
    time of 1/H, which every reader derives as ``1.0 / len(groups)``.  Every
    label 0..H-1 must be used."""
    labels = np.asarray(labels, dtype=int)
    counts = np.bincount(labels)  # refuses negative labels
    if counts.size == 0 or not counts.all():
        raise ValueError("duration group labels must use every group 0..H-1")
    order = np.argsort(labels, kind="stable")
    bounds = np.cumsum(counts)
    return [order[b - c : b] for b, c in zip(bounds, counts)]


def _solve_joint(
    graph: TopologyGraph,
    base_capacity: np.ndarray,
    rate_rows: np.ndarray,
    utility: UtilitySpec,
    groups: list[np.ndarray],
) -> tuple[np.ndarray, FlowSolution]:
    """Jointly optimal shares and flows for capacities ``base + rate_rows^T q``.

    Each of the H duration groups' shares (``groups`` is a partition of the
    rows into non-empty index arrays, as :func:`duration_groups` builds) sum
    to its total, 1/H.  Variables are path flows plus every share
    but each group's last, eliminated through its group's equality; without
    free shares this is the flow problem, and the shares are the totals.  The
    capacity prices come from the joint problem, so at a degenerate optimum
    they are already share-stationary; re-pricing the same shares through the
    flow problem alone can split prices across tied constraints in a way that
    wrecks the gap certificate.  The program sets the complementarity floor,
    ``1e-12 * max(1, max rhs)`` capped at ``FLOW_TOL * 1e-4`` without free
    shares; a KKT residual above :data:`FLOW_TOL` (NaN included) or a utility
    or price that is not finite raises :class:`NetOptError`.
    """
    problem = _path_problem(graph)
    total = 1.0 / len(groups)
    totals = np.full(len(groups), total)
    lasts = np.array([idx[-1] for idx in groups])
    n_free = np.array([len(idx) - 1 for idx in groups])
    free = np.concatenate([idx[:-1] for idx in groups])

    # A link no share vector can lift above the floor stays dead; drop the
    # paths through it so the solver never chases near-boundary variables.
    group_best = np.array([rate_rows[idx].max(axis=0) for idx in groups])
    best_caps = np.maximum(base_capacity + totals @ group_best, CAPACITY_FLOOR)
    dead = best_caps <= CAPACITY_FLOOR
    layout = problem.layout(dead)
    live = layout.live

    shares = np.zeros(rate_rows.shape[0])
    for idx in groups:
        shares[idx] = total / len(idx)
    rates = np.zeros(graph.num_flows)
    link_flows = np.zeros((graph.num_flows, graph.num_links))
    prices = np.zeros(graph.num_links)
    kkt, complementarity, newton_iters, banked, refinements = 0.0, 0.0, 0, False, 0
    if layout.alive.any():
        path_flows, link_matrix = layout.path_flows, layout.link_matrix
        n_caps, n_paths = link_matrix.shape
        rhs = np.maximum(base_capacity[live] + (totals @ rate_rows[lasts])[live], CAPACITY_FLOOR)
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
            ineq[:n_caps, n_paths:] = -(rate_rows[free] - rate_rows[last_of])[:, live].T
            ends = n_paths + np.cumsum(n_free)
            for h, g in enumerate(sized):
                ineq[n_caps + h, ends[g] - n_free[g] : ends[g]] = 1.0
            rhs = np.append(rhs, totals[sized])
            flow_matrix = np.zeros((graph.num_flows, n_paths + free.size))
            flow_matrix[:, :n_paths] = path_flows

        mu_floor = min(1e-12 * max(1.0, float(np.max(rhs))), np.inf if free.size else FLOW_TOL * 1e-4)
        ip = _interior_point(flow_matrix, ineq, rhs, utility, mu_floor)
        if free.size:
            shares[free] = ip.v[n_paths:]
            for idx in groups:
                shares[idx[-1]] = max(0.0, total - shares[idx[:-1]].sum())
                shares[idx] = total * shares[idx] / shares[idx].sum()
        rates = flow_matrix @ ip.v
        link_flows[:, live] = (path_flows * ip.v[:n_paths]) @ link_matrix.T
        prices[live] = ip.multipliers[:n_caps]
        kkt, complementarity = ip.residual, ip.complementarity
        newton_iters, banked, refinements = ip.newton_iters, ip.banked, ip.refinements

    with np.errstate(all="ignore"):  # overflow is tested for explicitly
        value = utility.total(rates)
        if np.any(dead):
            _starved_link_prices(problem, dead, prices, utility.gradient(rates))
        if not (math.isfinite(value) and _all(_isfinite(prices))):
            raise NetOptError(_overflow_message(rates, utility))
    comp = complementarity / max(1.0, abs(value))
    if not (kkt <= FLOW_TOL and comp <= FLOW_TOL):
        raise NetOptError(
            f"flow solver residual {kkt:.2e} or complementarity {comp:.2e} exceeds tolerance {FLOW_TOL:.2e}"
        )
    kkt = max(kkt, comp)
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


def solve_p1(graph: TopologyGraph, capacities: np.ndarray, utility: UtilitySpec) -> FlowSolution:
    """Utility-optimal flow control and routing for fixed link capacities.

    Returns per-flow rates, per-link flow splits, and capacity prices; the
    price vector is the gradient of the optimal utility in the capacities.
    A KKT residual above :data:`FLOW_TOL`, or a marginal utility that
    overflows, raises :class:`NetOptError`.  Paths through starved (near-zero
    capacity) links are removed from the optimization, and those links get
    their marginal price patched in afterwards so they stay visible to
    capacity allocation.
    """
    capacities = np.asarray(capacities, dtype=float)
    if capacities.shape != (graph.num_links,):
        raise ValueError("need one capacity per link")
    if not np.all(np.isfinite(capacities)):
        raise ValueError("capacities must be finite")
    if np.any(capacities < -1e-12):
        raise ValueError("capacities must be nonnegative")
    one_row = [np.zeros(1, dtype=int)]
    return _solve_joint(graph, capacities, np.zeros((1, graph.num_links)), utility, one_row)[1]


def optimize_time_sharing(
    rate_rows: np.ndarray,
    graph: TopologyGraph,
    utility: UtilitySpec,
    tol: float = 1e-5,
    groups: list[np.ndarray] | None = None,
) -> tuple[np.ndarray, FlowSolution]:
    """Optimal time-sharing over pattern rate rows, jointly with the flows.

    Maximizes utility of the shared capacity ``base + rate_rows^T q``, where
    ``base`` is the graph's :meth:`~TopologyGraph.wired_base_capacity`, in one
    :func:`_solve_joint` call, whatever the groups.  ``groups`` is the
    partition :func:`duration_groups` builds, one index array of rows per
    group, each of the H groups sharing a total time of 1/H; it must hold
    every row exactly once, in non-empty groups (else ValueError).  Without it
    the shares range over the probability simplex.  Two post-conditions raise
    :class:`NetOptError`: a KKT residual above :data:`FLOW_TOL`, and a
    linearization gap ``sum_h max_{j in h} g_j / H - q.g`` in the share
    gradient ``g = rate_rows @ prices`` above ``tol``.
    """
    rate_rows = np.atleast_2d(np.asarray(rate_rows, dtype=float))
    if rate_rows.shape[1] != graph.num_links:
        raise ValueError("rate rows must have one column per link")
    if not np.all(np.isfinite(rate_rows)):
        raise ValueError("rate rows must be finite")
    base_capacity = graph.wired_base_capacity()
    if not np.all(np.isfinite(base_capacity)):  # a graph built without validate
        raise ValueError("wired base capacities must be finite")
    groups = [np.arange(len(rate_rows))] if groups is None else groups
    if not np.array_equal(np.sort(np.concatenate(groups)), np.arange(len(rate_rows))):
        raise ValueError("duration groups must hold every rate row exactly once")
    if not all(len(idx) for idx in groups):
        raise ValueError("a duration group must hold at least one rate row")

    shares, solution = _solve_joint(graph, base_capacity, rate_rows, utility, groups)
    g = rate_rows @ solution.prices
    total = 1.0 / len(groups)
    gap = float(sum(total * float(np.max(g[idx])) for idx in groups) - shares @ g)
    if not gap <= tol:
        raise NetOptError(f"joint share solve left linearization gap {gap:.3e} above tol {tol:.1e}")
    return shares, solution
