"""Command-line entry points: run, oracle, validate and sweep.

Exit codes: 0 success (run converged, or ``--help``), 2 run stopped at the
superframe limit, 3 configuration or scenario error (including a command-line
argument error, a sub-command's too, with the usage line; a
``HETNET_RRM_LOG`` that is not a logging level name; a scenario with more than
``phy.MAX_PATTERN_BS`` base stations or a link endpoint that is not a node, a
``--scenario`` path that is missing, a directory or not UTF-8, an ``--out``
path that cannot be written, and fbc on a network whose unwired pico has no
macro to wire it from; an ``--out`` naming no file or in a missing directory
and such an fbc are refused before any run, the fbc by validate too), 4 oracle
size caps exceeded, 5 the flow solver failed (``NetOptError``) or a flow has
too many simple paths to enumerate (``PathExplosionError``, which validate
checks too, on the network the scenario's mode runs on).  A run or sweep
cell that stops at the superframe limit logs one WARNING line naming the
convergence test it failed and by how much (:func:`rrm.stop_reason`).  Log
verbosity comes from the ``HETNET_RRM_LOG`` environment variable (a standard
logging level name); everything else is flags and files.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

from .baselines import augment_with_wired_backhaul, fbc_graph, run_fddsa, run_ttrsc
from .channel import ChannelModel
from .netopt import NetOptError, PathExplosionError, check_path_sets
from .oracle import OracleScaleError, oracle_solve
from .rrm import RrmResult, run_to_convergence, stop_reason
from .scenario import MODES, Scenario, ScenarioError, load_scenario, sweep_value, with_param
from .trace import BITS_PER_NAT, format_trace

EXIT_OK = 0
EXIT_MAX_ITERS = 2
EXIT_CONFIG = 3
EXIT_ORACLE_SCALE = 4
EXIT_SOLVER = 5

#: One row per mode; fbc is the proposed scheme on :func:`fbc_graph`'s network.
_RUNNERS = {
    "proposed": run_to_convergence,
    "fbc": run_to_convergence,
    "fddsa": run_fddsa,
    "ttrsc": run_ttrsc,
}

log = logging.getLogger("hetnet_rrm")


def run_experiment(
    scenario: Scenario, mode: str, seed: int
) -> tuple[RrmResult, ChannelModel]:
    """Run one pipeline; returns the result and the channel model it ran on
    (the backhaul-augmented one for fbc)."""
    model = scenario.channel_model(seed=seed)
    if mode == "fbc":
        model = replace(scenario, graph=fbc_graph(model)).channel_model(seed=seed)
    return _RUNNERS[mode](model, scenario.rrm), model


def _refuse_early(scenario: Scenario, modes, out: str | None) -> None:
    """Raise before the first run what would otherwise fail at its end: an
    ``--out`` naming no file or in a missing directory, and fbc where an
    unwired pico has no macro.  :func:`_emit` writes ``--out`` last."""
    if out not in (None, "-"):
        parent = os.path.dirname(out) or "."
        if not os.path.basename(out) or os.path.isdir(out):
            raise ScenarioError([f"--out '{out}' does not name a file"])
        if not os.path.isdir(parent):
            raise ScenarioError([f"--out '{out}': '{parent}' is not a directory"])
    if "fbc" in modes:
        try:
            augment_with_wired_backhaul(scenario.graph, 1.0)
        except ValueError as exc:
            raise ScenarioError([str(exc)]) from None


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:  # under the parser's rule, so the trace's config echo re-parses
        scenario = with_param(scenario, "seed", args.seed, flag="--seed")
    scenario = replace(scenario, mode=args.mode or scenario.mode)
    mode, seed = scenario.mode, scenario.seed
    _refuse_early(scenario, (mode,), args.out)
    log.info("running mode=%s seed=%d on %s", mode, seed, args.scenario)
    result, _ = run_experiment(scenario, mode, seed)
    if not result.converged:
        log.warning("run stopped at the superframe limit: %s", stop_reason(result, scenario.rrm))
    _emit(format_trace(scenario, mode, seed, result), args.out)
    return EXIT_OK if result.converged else EXIT_MAX_ITERS


def _cmd_oracle(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    if not scenario.deterministic:
        raise ScenarioError(
            [f"{args.scenario}: the oracle needs 'deterministic = true' in [radio]"]
        )
    _refuse_early(scenario, (), args.out)
    model = scenario.channel_model()
    solution = oracle_solve(model, scenario.rrm.utility)
    lines = [
        "oracle-report v1",
        f"scenario = {args.scenario}",
        f"utility = {solution.utility!r}",
        f"vertices = {solution.n_vertices}",
        "shares = " + ",".join(repr(float(q)) for q in solution.shares),
        "flow_rates_bits = "
        + ",".join(repr(float(r * BITS_PER_NAT)) for r in solution.flow.rates),
        "",
    ]
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    _refuse_early(scenario, (scenario.mode,), None)
    graph = scenario.graph
    check_path_sets(fbc_graph(scenario.channel_model()) if scenario.mode == "fbc" else graph)
    sys.stdout.write(
        f"ok: {graph.num_nodes} nodes, {graph.num_links} links, "
        f"{graph.num_flows} flows, {scenario.subbands} subbands\n"
    )
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    try:
        values = [sweep_value(args.param, v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ScenarioError([f"--values must be comma-separated numbers: {exc}"]) from exc
    if not values:
        raise ScenarioError(["--values must list at least one value"])
    modes = args.modes.split(",") if args.modes else MODES
    for mode in modes:
        if mode not in MODES:
            raise ScenarioError([f"unknown mode '{mode}' in --modes"])
    # Validate every value before the first run.
    sweeps = [(value, with_param(scenario, args.param, value)) for value in values]
    _refuse_early(scenario, modes, args.out)

    lines = [
        "sweep-report v1",
        f"scenario = {args.scenario}",
        f"param = {args.param}",
        "# value mode utility superframes converged",
    ]
    all_converged = True
    for value, swept in sweeps:
        for mode in modes:
            result, _ = run_experiment(swept, mode, swept.seed)
            all_converged &= result.converged
            if not result.converged:
                log.warning(
                    "sweep %s=%s mode=%s stopped at the superframe limit: %s",
                    args.param, value, mode, stop_reason(result, swept.rrm),
                )
            lines.append(
                f"{value!r} {mode} {result.utility!r} "
                f"{len(result.records)} {'true' if result.converged else 'false'}"
            )
            log.info("sweep %s=%s mode=%s utility=%s", args.param, value, mode, result.utility)
    lines.append("")
    _emit("\n".join(lines), args.out)
    return EXIT_OK if all_converged else EXIT_MAX_ITERS


class _ArgumentParser(argparse.ArgumentParser):
    """An argument error, a sub-command's too, exits 3 like any other
    configuration error: argparse's own exit code, 2, means here that a run
    stopped at its superframe limit."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ScenarioError([f"{self.prog}: {message}"])


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="hetnet-rrm",
        description="Two-timescale radio resource management experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment and write its trace")
    run.add_argument("--scenario", required=True)
    run.add_argument("--mode", choices=MODES, default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out", default=None, help="trace path (default: stdout)")
    run.set_defaults(func=_cmd_run)

    oracle = sub.add_parser("oracle", help="brute-force optimum on a small deterministic scenario")
    oracle.add_argument("--scenario", required=True)
    oracle.add_argument("--out", default=None)
    oracle.set_defaults(func=_cmd_oracle)

    val = sub.add_parser("validate", help="parse and validate a scenario file")
    val.add_argument("--scenario", required=True)
    val.set_defaults(func=_cmd_validate)

    sweep = sub.add_parser("sweep", help="re-run every mode across one swept parameter")
    sweep.add_argument("--scenario", required=True)
    sweep.add_argument("--param", required=True)
    sweep.add_argument("--values", required=True, help="comma-separated values")
    sweep.add_argument("--modes", default=None, help="comma-separated subset of modes")
    sweep.add_argument("--out", default=None)
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("HETNET_RRM_LOG", "WARNING")
    if not isinstance(logging.getLevelName(level.upper()), int):
        print(f"error: HETNET_RRM_LOG: unknown logging level '{level}'", file=sys.stderr)
        return EXIT_CONFIG
    logging.basicConfig(level=level.upper())
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ScenarioError as exc:
        for line in exc.errors:
            print(f"error: {line}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # a path that is missing, a directory or unwritable
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OracleScaleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE_SCALE
    except (NetOptError, PathExplosionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
