"""The benchmark's three workloads.

Each workload builds its inputs from the seed (the set-up), then offers a
fixed list of operations (one round) and a check of their outputs.  The
program is always reached through its modules' attributes at call time, so a
traced run sees the wrapped functions.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from hetnet_rrm import cli, netopt, oracle, rrm, scenario, trace
from hetnet_rrm.netopt import UtilitySpec

import checks
from instances import det_model, instance_family

UTILITY = UtilitySpec(alpha=1.0, epsilon=1e-3)
# The pipeline and the oracle each stop at their own solver tolerance.
ORACLE_MATCH = 1e-4
SOLVER_TOL = 1e-6


def _warm_paths(graphs) -> None:
    """Path enumeration happens on a network's first flow solve; do it in
    set-up so every timed round pays the same."""
    for graph in graphs:
        netopt.solve_p1(graph, np.ones(graph.num_links), UTILITY)


class Fig7Sweep:
    """The bundled fading ``fig7_like`` scenario across pico power and scheme.

    The cells and their channel draws are the bundled experiment's; the seed
    only orders the cells, so every seed does the same work.
    """

    name = "fig7_sweep"
    powers = (29.0, 31.0, 33.0, 35.0)
    modes = ("proposed", "fbc", "fddsa", "ttrsc")
    spans = (
        "channel.rate_block", "channel.pattern_draws", "phy.schedule_links",
        "phy.station_contributions", "phy.rate_table_for_patterns",
        "phy.enumerate_feasible_patterns", "netopt.solve_p1", "netopt.optimize_time_sharing",
        "rrm.run_superframe", "rrm.certificate", "baselines.run_fddsa",
        "scenario.parse_scenario", "scenario.with_param", "trace.format_trace",
    )

    def __init__(self, seed: int):
        text = resources.files("hetnet_rrm").joinpath("scenarios/fig7_like.scenario").read_text()
        self.base = scenario.parse_scenario(text, path="fig7_like.scenario")
        cells = [(p, m) for p in self.powers for m in self.modes]
        order = np.random.default_rng([seed, 7]).permutation(len(cells))
        self.cells = [cells[i] for i in order]
        _warm_paths([self.base.graph])

    def operations(self):
        def cell(power: float, mode: str):
            swept = scenario.with_param(self.base, "p_pico_dbm", power)
            result, model = cli.run_experiment(swept, mode, swept.seed)
            return result, model, trace.format_trace(swept, mode, swept.seed, result)

        return [(f"{p}/{m}", lambda p=p, m=m: cell(p, m)) for p, m in self.cells]

    def signature(self, output) -> tuple:
        result, _, _ = output
        return (result.utility, len(result.records))

    def check(self, outputs: dict) -> list[str]:
        problems = []
        for (label, (result, model, text)) in outputs.items():
            where = f"{self.name} {label}"
            _, mode = label.split("/")
            if mode != "fddsa" and not result.converged:
                problems.append(f"{where}: did not converge")
            problems += [f"{where}: {p}" for p in checks.converged_point(model.graph, result)]
            lines = text.splitlines()
            rows = lines.index("[summary]") - lines.index("[iterations]") - 3
            if lines[0] != "hetnet-trace v1" or rows != len(result.records):
                problems.append(f"{where}: trace has {rows} iteration rows for {len(result.records)} superframes")
            if f"utility = {float(result.utility)!r}" not in lines:
                problems.append(f"{where}: trace summary does not carry the run's utility")
        for power in self.powers:
            if any(f"{power}/{m}" not in outputs for m in self.modes):
                continue  # a failed cell is counted in ``failed``, not here
            u = {m: outputs[f"{power}/{m}"][0].utility for m in self.modes}
            if not (u["fbc"] >= u["proposed"] >= u["fddsa"] and u["proposed"] >= u["ttrsc"]):
                problems.append(f"{self.name} {power} dBm: scheme ordering broken: {u}")
        return problems


class OracleBattery:
    """Small deterministic HetNets solved by the pipeline and by the oracle.

    The instances are drawn once from ``FAMILY_SEED``; the seed orders them.
    A few metres' move of one station can switch the oracle's joint interior
    point between about 15 ms and 85 ms, so a set drawn from the run's seed
    made one round's work differ by about 10% from seed to seed.
    """

    name = "oracle_battery"
    copies = 6
    FAMILY_SEED = 1504
    config = rrm.RrmConfig(subframes_per_superframe=40, max_superframes=40, utility=UTILITY)
    spans = (
        "channel.rate_block", "channel.pattern_draws", "phy.schedule_links",
        "phy.station_contributions", "phy.enumerate_feasible_patterns", "netopt.solve_p1",
        "netopt.optimize_time_sharing", "rrm.run_superframe", "rrm.certificate",
        "oracle.vertex_rate_rows",
    )

    def __init__(self, seed: int):
        family = [graph for _, graph in instance_family(self.FAMILY_SEED, self.copies)]
        order = np.random.default_rng([seed, 11]).permutation(len(family))
        self.instances = [family[i] for i in order]
        self.models = [det_model(graph) for graph in self.instances]
        _warm_paths(self.instances)

    def operations(self):
        def instance(model):
            return oracle.oracle_solve(model, UTILITY), rrm.run_to_convergence(model, self.config)

        return [(f"instance{i}", lambda m=m: instance(m)) for i, m in enumerate(self.models)]

    def signature(self, output) -> tuple:
        exact, result = output
        return (exact.utility, exact.n_vertices, result.utility, len(result.records))

    def check(self, outputs: dict) -> list[str]:
        problems = []
        for i, graph in enumerate(self.instances):
            if f"instance{i}" not in outputs:
                continue
            exact, result = outputs[f"instance{i}"]
            where = f"{self.name} instance{i}"
            if not result.converged:
                problems.append(f"{where}: pipeline did not converge")
            gap = result.utility - exact.utility
            if abs(gap) > ORACLE_MATCH or gap > SOLVER_TOL * max(1.0, abs(exact.utility)):
                problems.append(f"{where}: pipeline utility {result.utility!r} vs oracle {exact.utility!r}")
            problems += [f"{where}: {p}" for p in checks.converged_point(graph, result)]
            problems += [f"{where} oracle: {p}" for p in checks.on_simplex(exact.shares)]
            problems += [
                f"{where} oracle: {p}"
                for p in checks.flow_conservation(graph, exact.flow.link_flows, exact.flow.rates)
            ]
        return problems


class FlowPrices:
    """Single flow solves on seeded capacity vectors over the same family.

    Capacities are a seeded fraction of each link's best rate; every fifth
    vector starves one link (capacity 0), whose price the solver patches in.
    """

    name = "flow_prices"
    copies = 2
    vectors = 8
    spans = ("netopt.solve_p1", "phy.enumerate_feasible_patterns")

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 0xF10])
        self.cases = []
        for _, graph in instance_family(seed, self.copies):
            peak = det_model(graph).statistical_rates().sum(axis=1)
            for j in range(self.vectors):
                caps = peak * rng.uniform(0.05, 1.0, graph.num_links)
                if j % 5 == 4:
                    caps[int(rng.integers(graph.num_links))] = 0.0
                self.cases.append((graph, caps, j == 0))
        _warm_paths({id(g): g for g, _, _ in self.cases}.values())

    def operations(self):
        return [
            (f"solve{i}", lambda g=g, c=c: netopt.solve_p1(g, c, UTILITY))
            for i, (g, c, _) in enumerate(self.cases)
        ]

    def signature(self, output) -> tuple:
        return (output.utility,)

    def check(self, outputs: dict) -> list[str]:
        problems = []
        for i, (graph, caps, finite_diff) in enumerate(self.cases):
            if f"solve{i}" not in outputs:
                continue
            sol = outputs[f"solve{i}"]
            where = f"{self.name} solve{i}"
            problems += [f"{where}: {p}" for p in checks.flow_kkt(graph, caps, sol, UTILITY)]
            if finite_diff:
                problems += [
                    f"{where}: {p}"
                    for p in checks.price_finite_differences(graph, caps, sol, UTILITY, netopt.solve_p1)
                ]
        return problems


WORKLOADS = {w.name: w for w in (Fig7Sweep, OracleBattery, FlowPrices)}
