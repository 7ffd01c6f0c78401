import math

import numpy as np
import pytest

from hetnet_rrm.rrm import run_to_convergence
from hetnet_rrm.scenario import dump_scenario, parse_scenario
from hetnet_rrm.trace import BITS_PER_NAT, format_trace

from trace_reader import parse_trace

SCENARIO = """\
hetnet-scenario v1

[nodes]
0 macro 0.0 0.0
1 user 120.0 40.0
2 user 90.0 -60.0

[links]
0 0 1
1 0 2

[backhaul]
0

[flows]
0 0 1
1 0 2

[radio]
subbands = 4
deterministic = true

[run]
seed = 5
subframes_per_superframe = 30
max_superframes = 20
"""


def _run(text=SCENARIO):
    scenario = parse_scenario(text)
    result = run_to_convergence(scenario.channel_model(), scenario.rrm)
    return scenario, result


def test_trace_roundtrip_preserves_everything():
    scenario, result = _run()
    trace = format_trace(scenario, "proposed", scenario.seed, result)
    data = parse_trace(trace)

    assert data.meta == {"mode": "proposed", "seed": "5", "deterministic": "true"}
    assert data.summary["converged"] == ("true" if result.converged else "false")
    assert int(data.summary["superframes"]) == len(result.records)
    assert float(data.summary["utility"]) == pytest.approx(result.utility, abs=1e-12)
    assert float(data.summary["certificate_gap"]) == pytest.approx(
        result.certificate.gap, abs=1e-12
    )
    assert len(data.iterations) == len(result.records)
    for row, rec in zip(data.iterations, result.records):
        assert row.index == rec.index
        assert row.utility == pytest.approx(rec.utility, abs=1e-12)
        assert row.members == rec.n_members
        assert np.asarray(row.shares) == pytest.approx(rec.shares, abs=1e-12)
        assert np.asarray(row.flow_rates_bits) == pytest.approx(
            rec.flow_rates * BITS_PER_NAT, abs=1e-9
        )
        assert np.asarray(row.served_rates_bits) == pytest.approx(
            rec.served_rates * BITS_PER_NAT, abs=1e-9
        )
    assert [row.utility for row in data.iterations] == pytest.approx(
        [r.utility for r in result.records]
    )


def test_rates_are_written_in_bits():
    scenario, result = _run()
    data = parse_trace(format_trace(scenario, "proposed", 5, result))
    nats = result.records[-1].flow_rates
    bits = np.asarray(data.iterations[-1].flow_rates_bits)
    assert bits == pytest.approx(nats / math.log(2.0), rel=1e-12)
    assert BITS_PER_NAT == pytest.approx(1.0 / math.log(2.0))


def test_deterministic_traces_zero_wall_clock_and_rerun_identically():
    scenario, result = _run()
    trace_a = format_trace(scenario, "proposed", scenario.seed, result)
    _, rerun = _run()
    trace_b = format_trace(scenario, "proposed", scenario.seed, rerun)
    assert trace_a == trace_b  # byte identical, wall clock included
    data = parse_trace(trace_a)
    assert all(row.wall_ms == 0.0 for row in data.iterations)
    assert data.summary["wall_ms"] == "0.0" and result.wall_ms > 0.0


def test_stochastic_traces_keep_wall_clock():
    text = SCENARIO.replace("deterministic = true", "deterministic = false")
    scenario, result = _run(text)
    data = parse_trace(format_trace(scenario, "proposed", scenario.seed, result))
    assert data.meta["deterministic"] == "false"
    assert any(row.wall_ms > 0.0 for row in data.iterations)
    # the run's total covers every row and what no row does
    assert float(data.summary["wall_ms"]) == result.wall_ms
    assert result.wall_ms >= sum(rec.wall_ms for rec in result.records) > 0.0


def test_config_echo_reproduces_the_scenario():
    scenario, result = _run()
    trace = format_trace(scenario, "proposed", scenario.seed, result)
    echoed = parse_trace(trace).config_text
    assert echoed == dump_scenario(scenario).rstrip("\n")
    assert dump_scenario(parse_scenario(echoed)) == dump_scenario(scenario)
    # every config line in the raw trace wears the quote prefix
    config_lines = [
        l for l in trace.splitlines() if l.startswith("> ") or l == ">"
    ]
    assert len(config_lines) == len(dump_scenario(scenario).splitlines())


def test_empty_vectors_roundtrip_as_dash():
    # A network with an empty [flows] runs, at utility 0.0, and writes no flow rate.
    scenario, result = _run(SCENARIO.replace("[flows]\n0 0 1\n1 0 2\n", "[flows]\n"))
    assert scenario.graph.num_flows == 0 and result.converged and result.utility == 0.0
    trace = format_trace(scenario, "proposed", scenario.seed, result)
    rows = trace.split("[iterations]\n", 1)[1].split("\n\n", 1)[0].splitlines()[1:]
    assert len(rows) == len(result.records)
    assert all(row.split()[4] == "-" for row in rows)
    assert all(row.flow_rates_bits == () for row in parse_trace(trace).iterations)
