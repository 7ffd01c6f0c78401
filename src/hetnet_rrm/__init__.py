"""Two-timescale radio resource management for HetNets with wireless flexible backhaul."""

from .baselines import run_fbc, run_fddsa, run_proposed, run_ttrsc
from .channel import ChannelModel, LinkClassParams, PathlossParams
from .netopt import (
    FlowSolution,
    NetOptError,
    UtilitySpec,
    optimize_time_sharing,
    solve_p1,
)
from .oracle import OracleScaleError, OracleSolution, oracle_solve
from .phy import (
    enumerate_feasible_patterns,
    rate_table_for_patterns,
    schedule_links,
)
from .rrm import (
    CertificateReport,
    RrmConfig,
    RrmResult,
    RrmState,
    SuperframeRecord,
    block_pass,
    certificate,
    initial_state,
    run_to_convergence,
)
from .scenario import (
    SWEEPABLE_PARAMS,
    Scenario,
    ScenarioError,
    dump_scenario,
    load_scenario,
    parse_scenario,
    with_param,
)
from .topology import (
    Flow,
    Link,
    Node,
    NodeKind,
    TopologyGraph,
    interference_from_positions,
    validate,
)
from .trace import TraceData, format_trace, parse_trace, read_trace, write_trace

__version__ = "0.1.0"

__all__ = [
    "CertificateReport",
    "ChannelModel",
    "Flow",
    "FlowSolution",
    "Link",
    "LinkClassParams",
    "NetOptError",
    "Node",
    "NodeKind",
    "OracleScaleError",
    "OracleSolution",
    "PathlossParams",
    "RrmConfig",
    "RrmResult",
    "RrmState",
    "SWEEPABLE_PARAMS",
    "Scenario",
    "ScenarioError",
    "SuperframeRecord",
    "TopologyGraph",
    "TraceData",
    "UtilitySpec",
    "block_pass",
    "certificate",
    "dump_scenario",
    "enumerate_feasible_patterns",
    "format_trace",
    "initial_state",
    "interference_from_positions",
    "load_scenario",
    "optimize_time_sharing",
    "oracle_solve",
    "parse_scenario",
    "parse_trace",
    "rate_table_for_patterns",
    "read_trace",
    "run_fbc",
    "run_fddsa",
    "run_proposed",
    "run_to_convergence",
    "run_ttrsc",
    "schedule_links",
    "solve_p1",
    "validate",
    "with_param",
    "write_trace",
]
