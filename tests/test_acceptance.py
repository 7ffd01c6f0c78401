"""End-to-end acceptance battery for the resource-management pipeline.

Every test here is one release gate, run at its stated tolerance, and each
prints a single PASS/FAIL line with the measured margin so that a verbose
pytest run doubles as the acceptance report.  The gates cover: agreement with
the exhaustive oracle, monotone utility ascent, multiplier/finite-difference
agreement, max-weight optimality of the certified pattern, the first-order
optimality gap, concavity of the capacity-to-utility map, baseline ordering
on the bundled sweep scenario, convergence speed, constraint feasibility, and
trace determinism.
"""

import time
from importlib import resources

import numpy as np
import pytest

from conftest import det_model, random_instance
from reference import build_incidence, finite_diff_gradient, is_feasible_pattern
from hetnet_rrm.channel import ChannelModel
from hetnet_rrm.cli import EXIT_OK, main, run_experiment
from hetnet_rrm.netopt import UtilitySpec, solve_p1
from hetnet_rrm.oracle import oracle_solve
from hetnet_rrm.phy import rate_table_for_patterns, station_contributions
from hetnet_rrm.rrm import RrmConfig, run_to_convergence
from hetnet_rrm.scenario import parse_scenario, with_param

LOG = UtilitySpec(alpha=1.0, epsilon=1e-3)

ORACLE_SEEDS = tuple(range(1000, 1020))
STOCHASTIC_SEEDS = (7, 58, 1006)
PICO_POWERS = (29.0, 31.0, 33.0, 35.0)
MODES = ("proposed", "fbc", "fddsa", "ttrsc")


def report(label, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] {label}: {verdict} ({detail})")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def oracle_battery():
    """Twenty random deterministic instances small enough to enumerate,
    each solved by the iterative pipeline and by the exhaustive oracle."""
    config = RrmConfig(subframes_per_superframe=40, max_superframes=40, utility=LOG)
    runs = []
    for seed in ORACLE_SEEDS:
        graph = random_instance(seed)
        model = det_model(graph, num_subbands=3)
        start = time.perf_counter()
        exact = oracle_solve(model, LOG)
        result = run_to_convergence(model, config)
        elapsed = time.perf_counter() - start
        runs.append((seed, graph, model, config, result, exact, elapsed))
    return runs


@pytest.fixture(scope="module")
def stochastic_runs():
    """Fading-channel runs: Monte Carlo rate estimates, no shared draws."""
    config = RrmConfig(
        subframes_per_superframe=150,
        max_superframes=25,
        epsilon_converge=0.02,
        utility=LOG,
    )
    runs = []
    for seed in STOCHASTIC_SEEDS:
        graph = random_instance(seed)
        model = ChannelModel(
            graph,
            num_subbands=4,
            p_macro_dbm=40.0,
            p_pico_dbm=33.0,
            seed=3,
            deterministic=False,
        )
        runs.append((seed, graph, model, config, run_to_convergence(model, config)))
    return runs


@pytest.fixture(scope="module")
def heterogeneous_sweep():
    """All four schemes over the bundled multi-cell scenario at four pico
    power levels, every cell using the same seed so comparisons are paired."""
    text = resources.files("hetnet_rrm").joinpath("scenarios/fig7_like.scenario").read_text()
    base = parse_scenario(text, path="fig7_like.scenario")
    start = time.perf_counter()
    results = {}
    for power in PICO_POWERS:
        swept = with_param(base, "p_pico_dbm", power)
        for mode in MODES:
            result, _ = run_experiment(swept, mode, seed=base.seed)
            results[(power, mode)] = result
    return results, time.perf_counter() - start


def test_converged_utility_matches_exhaustive_oracle(oracle_battery):
    """The iterative pipeline lands on the enumerated optimum on every
    instance small enough to brute-force, well under the runtime budget."""
    worst_gap = 0.0
    worst_time = 0.0
    all_converged = True
    for seed, _, _, _, result, exact, elapsed in oracle_battery:
        all_converged &= result.converged
        worst_gap = max(worst_gap, abs(result.utility - exact.utility))
        worst_time = max(worst_time, elapsed)
    report(
        "oracle equivalence on 20 instances",
        all_converged and worst_gap <= 1e-4 and worst_time < 10.0,
        f"max |U - U*| = {worst_gap:.2e}, max runtime = {worst_time:.2f}s",
    )


def test_utility_ascends_monotonically(oracle_battery, stochastic_runs):
    """Utility never drops between superframes: exactly in deterministic
    mode, within three standard errors of the policy rate under fading."""
    worst_det = np.inf
    for _, _, _, _, result, _, _ in oracle_battery:
        steps = np.diff(result.utilities)
        if steps.size:
            worst_det = min(worst_det, float(steps.min()))
    worst_margin = np.inf
    for _, _, _, _, result in stochastic_runs:
        steps = np.diff(result.utilities)
        state = result.state
        sem = float(state.shares @ (state.row_stderr @ state.weights))
        worst_margin = min(worst_margin, float(steps.min()) + 3.0 * sem)
    report(
        "monotone utility ascent",
        worst_det >= -1e-9 and worst_margin >= -1e-9,
        f"min deterministic step = {worst_det:.2e}, "
        f"min fading step + 3 SE = {worst_margin:.2e}",
    )


def test_capacity_prices_match_finite_differences():
    """The flow solver's capacity multipliers equal central finite
    differences of the optimal utility, component by component."""
    worst = 0.0
    for seed in range(3000, 3010):
        graph = random_instance(seed)
        rng = np.random.default_rng(seed)
        caps = rng.uniform(0.3, 1.2, graph.num_links)
        solution = solve_p1(graph, caps, LOG)
        numeric = finite_diff_gradient(graph, caps, LOG)
        worst = max(worst, float(np.max(np.abs(solution.prices - numeric))))
    report(
        "capacity prices vs finite differences on 10 instances",
        worst <= 1e-3,
        f"max per-component |lambda - dU/dc| = {worst:.2e}",
    )


def test_certified_pattern_dominates_all_feasible_patterns(
    oracle_battery, stochastic_runs
):
    """The pattern named by each converged run's certificate yields the best
    weighted rate among all admissible patterns when re-evaluated on an
    independent block of channel draws (paired across patterns)."""
    worst_slack = np.inf
    entries = [e[:5] for e in oracle_battery] + list(stochastic_runs)
    for _, graph, model, config, result in entries:
        if not result.converged:
            continue
        state = result.state
        block = model.rate_block(10_000, config.subframes_per_superframe)
        _, mean, stderr = station_contributions(graph, state.weights[None], block)
        rates, row_stderr = rate_table_for_patterns(graph, state.patterns, mean[0], stderr[0])
        values = rates @ state.weights
        sems = row_stderr @ state.weights
        best = np.flatnonzero((state.patterns == result.certificate.best_pattern).all(axis=1)).item()
        slack = (values[best] - values) + 3.0 * (sems[best] + sems) + 1e-9
        worst_slack = min(worst_slack, float(slack.min()))
    report(
        "certified pattern is max-weight over all feasible patterns",
        worst_slack >= 0.0,
        f"min dominance slack = {worst_slack:.2e}",
    )


def test_first_order_gap_is_negligible_at_convergence(oracle_battery):
    """Every converged run's certificate gap is below one part in a thousand
    of the weighted policy rate."""
    worst_ratio = 0.0
    for _, _, _, _, result, _, _ in oracle_battery:
        cert = result.certificate
        worst_ratio = max(worst_ratio, cert.gap / (1e-3 * cert.policy_value))
    report(
        "first-order gap below 1e-3 of the weighted rate",
        worst_ratio <= 1.0,
        f"max gap / (1e-3 w.r) = {worst_ratio:.2e}",
    )


def test_optimal_utility_is_concave_in_capacities():
    """One thousand random midpoint tests: the optimal utility as a function
    of the capacity vector never dips below the chord."""
    worst = np.inf
    for i in range(5):
        graph = random_instance(2000 + i)
        rng = np.random.default_rng(9000 + i)
        for _ in range(200):
            caps_a = rng.uniform(0.05, 1.5, graph.num_links)
            caps_b = rng.uniform(0.05, 1.5, graph.num_links)
            mid = solve_p1(graph, 0.5 * (caps_a + caps_b), LOG).utility
            chord = 0.5 * (
                solve_p1(graph, caps_a, LOG).utility
                + solve_p1(graph, caps_b, LOG).utility
            )
            worst = min(worst, mid - chord)
    report(
        "concavity over 1000 capacity midpoints",
        worst >= -5e-6,
        f"min U(mid) - mean(U) = {worst:.2e}",
    )


def test_baseline_ordering_on_bundled_sweep(heterogeneous_sweep):
    """On the bundled multi-cell scenario the wired-backhaul upper bound
    stays above the proposed scheme, which stays above both the fixed-share
    and single-timescale baselines, and the upper bound is the nearest of
    the three in every cell.  The whole sweep fits the runtime budget."""
    results, elapsed = heterogeneous_sweep
    ordered = True
    nearest = True
    min_gaps = {"fbc": np.inf, "fddsa": np.inf, "ttrsc": np.inf}
    for power in PICO_POWERS:
        utilities = {mode: results[(power, mode)].utility for mode in MODES}
        gap_fbc = utilities["fbc"] - utilities["proposed"]
        gap_fddsa = utilities["proposed"] - utilities["fddsa"]
        gap_ttrsc = utilities["proposed"] - utilities["ttrsc"]
        ordered &= gap_fbc >= 0.0 and gap_fddsa >= 0.0 and gap_ttrsc >= 0.0
        nearest &= gap_fbc <= gap_fddsa and gap_fbc <= gap_ttrsc
        min_gaps["fbc"] = min(min_gaps["fbc"], gap_fbc)
        min_gaps["fddsa"] = min(min_gaps["fddsa"], gap_fddsa)
        min_gaps["ttrsc"] = min(min_gaps["ttrsc"], gap_ttrsc)
    report(
        "baseline ordering across the pico power sweep",
        ordered and nearest and elapsed < 300.0,
        f"min gaps: upper bound {min_gaps['fbc']:.3f}, fixed shares "
        f"{min_gaps['fddsa']:.3f}, single timescale {min_gaps['ttrsc']:.3f}; "
        f"sweep took {elapsed:.1f}s",
    )


def test_convergence_within_fifteen_superframes(heterogeneous_sweep):
    """The proposed scheme reaches one percent of its final utility within
    fifteen superframes on the bundled multi-cell scenario, at every swept
    pico power."""
    results, _ = heterogeneous_sweep
    worst = 0
    for power in PICO_POWERS:
        utilities = results[(power, "proposed")].utilities
        final = utilities[-1]
        close = np.nonzero(np.abs(utilities - final) <= 0.01 * abs(final))[0]
        worst = max(worst, int(close[0]) + 1)
    report(
        "within 1% of final utility in at most 15 superframes",
        worst <= 15,
        f"slowest cell took {worst} superframes",
    )


def test_no_constraint_violations_across_runs(oracle_battery, stochastic_runs):
    """Scheduling admissibility, share simplex membership, link capacities,
    and flow conservation all hold on every run's converged operating point.
    (Per-subframe schedules are additionally re-checked inside the scheduler
    on every call, so any violation there would have aborted the runs.)"""
    violations = 0
    worst_overflow = -np.inf
    worst_balance = 0.0
    entries = [e[:5] for e in oracle_battery] + list(stochastic_runs)
    for _, graph, _, _, result in entries:
        state = result.state
        if np.any(state.shares < -1e-12) or abs(state.shares.sum() - 1.0) > 1e-9:
            violations += 1
        if not all(
            is_feasible_pattern(graph.interference, p) for p in state.patterns[state.member_index]
        ):
            violations += 1
        caps = graph.wired_base_capacity() + state.shares @ state.rate_rows
        flow = state.flow
        load = flow.link_flows.sum(axis=0)
        overflow = float(np.max(load - caps - 1e-6 * np.maximum(caps, 1.0)))
        worst_overflow = max(worst_overflow, overflow)
        if overflow > 0.0:
            violations += 1
        incidence = build_incidence(graph)
        for k, commodity in enumerate(graph.flows):
            balance = incidence @ flow.link_flows[k]
            expected = np.zeros(graph.num_nodes)
            expected[commodity.source] = flow.rates[k]
            expected[commodity.destination] = -flow.rates[k]
            err = float(np.max(np.abs(balance - expected)))
            worst_balance = max(worst_balance, err)
            if err > 1e-6:
                violations += 1
    report(
        "zero feasibility violations across all runs",
        violations == 0,
        f"violations = {violations}, max capacity overshoot = "
        f"{worst_overflow:.2e}, max conservation error = {worst_balance:.2e}",
    )


def test_deterministic_traces_are_byte_identical(tmp_path):
    """Running the bundled deterministic demo twice through the command line
    produces byte-identical trace files."""
    text = resources.files("hetnet_rrm").joinpath("scenarios/two_hop_demo.scenario").read_text()
    scenario_path = tmp_path / "demo.scenario"
    scenario_path.write_text(text)
    traces = []
    for name in ("first.trace", "second.trace"):
        out = tmp_path / name
        code = main(["run", "--scenario", str(scenario_path), "--out", str(out)])
        assert code == EXIT_OK
        traces.append(out.read_bytes())
    report(
        "byte-identical deterministic traces",
        traces[0] == traces[1],
        f"{len(traces[0])} bytes each",
    )
