import dataclasses
import importlib
import importlib.util
import logging
import os
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from hetnet_rrm import cli, netopt, rrm
from hetnet_rrm.cli import (
    _RUNNERS,
    EXIT_CONFIG,
    EXIT_MAX_ITERS,
    EXIT_OK,
    EXIT_ORACLE_SCALE,
    EXIT_SOLVER,
    main,
    run_experiment,
)
from hetnet_rrm.rrm import RrmConfig, run_to_convergence
from hetnet_rrm.scenario import MAX_BLOCK_ENTRIES, MODES, parse_scenario
from conftest import det_model, diamond_graph
from trace_reader import parse_trace

TWO_USER_DET = """\
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
max_superframes = 12
"""


def scenario_file(tmp_path, text=TWO_USER_DET, name="case.scenario"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--scenario", "x.scenario", "--seed", "abc"],
         "hetnet-rrm run: argument --seed: invalid int value: 'abc'"),
        (["run", "--scenario", "x.scenario", "--bogus"], "hetnet-rrm: unrecognized arguments: --bogus"),
        ([], "hetnet-rrm: the following arguments are required: command"),
        (["sweep", "--scenario", "x.scenario"],
         "hetnet-rrm sweep: the following arguments are required: --param, --values"),
    ],
    ids=["bad-seed", "unknown-flag", "no-command", "sub-command-missing-flags"],
)
def test_argument_errors_exit_config_not_the_superframe_limit_code(argv, message, capsys, monkeypatch):
    # argparse's own exit 2 would read as "superframe budget exhausted"
    _fail_runs(monkeypatch, AssertionError("a run started"))
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert err[0].startswith("usage: hetnet-rrm")
    assert err[-1] == f"error: {message}"
    assert captured.out == ""


def test_argument_error_is_the_process_exit_code_and_help_stays_ok():
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = [sys.executable, "-m", "hetnet_rrm.cli"]
    done = subprocess.run(run + ["run", "--seed", "abc"], capture_output=True, text=True, env=env)
    assert done.returncode == EXIT_CONFIG
    assert done.stderr.splitlines()[-1].startswith("error: hetnet-rrm run: ")
    for argv in (["--help"], ["run", "--help"]):
        done = subprocess.run(run + argv, capture_output=True, text=True, env=env)
        assert done.returncode == EXIT_OK and done.stderr == ""
        assert done.stdout.startswith("usage: hetnet-rrm")


@pytest.mark.parametrize("level", ["bogus", "5", ""])
def test_unknown_log_level_exits_config(level, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HETNET_RRM_LOG", level)
    assert main(["validate", "--scenario", scenario_file(tmp_path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"error: HETNET_RRM_LOG: unknown logging level '{level}'\n"
    assert captured.out == ""
    monkeypatch.setenv("HETNET_RRM_LOG", "debug")  # a level name in any case
    assert main(["validate", "--scenario", scenario_file(tmp_path)]) == EXIT_OK


def test_run_converged_trace_exit_zero(tmp_path):
    src = scenario_file(tmp_path)
    out = tmp_path / "run.trace"
    assert main(["run", "--scenario", src, "--out", str(out)]) == EXIT_OK
    data = parse_trace(out.read_text(encoding="utf-8"))
    assert data.summary["converged"] == "true"
    assert data.meta["mode"] == "proposed"
    assert float(data.summary["utility"]) > 0.0


def test_run_writes_to_stdout_by_default(tmp_path, capsys):
    src = scenario_file(tmp_path)
    assert main(["run", "--scenario", src]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert stdout.startswith("hetnet-trace v1")
    assert parse_trace(stdout).summary["converged"] == "true"


def test_run_deterministic_reruns_are_byte_identical(tmp_path):
    src = scenario_file(tmp_path)
    a, b = tmp_path / "a.trace", tmp_path / "b.trace"
    assert main(["run", "--scenario", src, "--out", str(a)]) == EXIT_OK
    assert main(["run", "--scenario", src, "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_run_mode_and_seed_overrides_reach_trace_and_echo(tmp_path):
    src = scenario_file(tmp_path)
    out = tmp_path / "o.trace"
    code = main(
        ["run", "--scenario", src, "--mode", "fddsa", "--seed", "9", "--out", str(out)]
    )
    text = out.read_text(encoding="utf-8")
    data = parse_trace(text)
    assert data.meta["mode"] == "fddsa" and data.meta["seed"] == "9"
    # the config echo must be re-runnable with the overrides applied
    assert "> mode = fddsa" in text.splitlines()
    assert "> seed = 9" in text.splitlines()
    # fixed pattern durations still converge, through the shared loop
    assert code == EXIT_OK
    assert data.summary["converged"] == "true"
    assert int(data.summary["superframes"]) == 3


def test_run_seed_obeys_the_parser(tmp_path, capsys):
    # A trace's config echo must re-parse, so --seed takes the parser's rule.
    src = scenario_file(tmp_path)
    out = tmp_path / "neg.trace"
    assert main(["run", "--scenario", src, "--seed", "-1", "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == "error: --seed: 'seed' must be >= 0, got -1\n"
    assert captured.out == ""
    assert not out.exists()


def test_run_seed_past_one_philox_key_word_exits_config(tmp_path, capsys, monkeypatch):
    # 2**64 would be keyed as seed 0 and rerun its draws under another name.
    _fail_runs(monkeypatch, AssertionError("a run started"))
    src = scenario_file(tmp_path)
    assert main(["run", "--scenario", src, "--seed", str(2**64)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"error: --seed: 'seed' must be <= {2**64 - 1}, got {2**64}\n"
    assert captured.out == ""
    src = scenario_file(tmp_path, TWO_USER_DET.replace("seed = 5", f"seed = {2**64}"))
    assert main(["validate", "--scenario", src]) == EXIT_CONFIG
    line = TWO_USER_DET.splitlines().index("seed = 5") + 1
    assert capsys.readouterr().err == f"error: {src}:{line}: 'seed' must be <= {2**64 - 1}, got {2**64}\n"


def test_oversized_superframe_block_exits_config(tmp_path, capsys, monkeypatch):
    """A block past the budget is refused by the parser, never allocated."""
    _fail_runs(monkeypatch, AssertionError("a run started"))
    demo = str(resources.files("hetnet_rrm").joinpath("scenarios/two_hop_demo.scenario"))
    for param, value, shape in [
        ("subbands", "1e12", "200 subframes x 3 links x 1000000000000 subbands"),
        ("subbands", "1e30", f"200 subframes x 3 links x {int(1e30)} subbands"),
        ("subframes_per_superframe", "1e13", "10000000000000 subframes x 3 links x 4 subbands"),
    ]:
        assert main(["sweep", "--scenario", demo, "--param", param, "--values", value]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: --param {param}: a superframe block of {shape} is ")
        assert captured.err.count("\n") == 1 and captured.out == ""
    src = scenario_file(tmp_path, TWO_USER_DET.replace("subbands = 4", "subbands = 1000000"))
    assert main(["validate", "--scenario", src]) == EXIT_CONFIG
    line = TWO_USER_DET.splitlines().index("subframes_per_superframe = 30") + 1
    assert capsys.readouterr().err == (
        f"error: {src}:{line}: a superframe block of 30 subframes x 2 links x 1000000 subbands "
        f"is 60000000 entries, above the {MAX_BLOCK_ENTRIES} allowed\n"
    )


def test_validate_reports_counts(tmp_path, capsys):
    src = scenario_file(tmp_path)
    assert main(["validate", "--scenario", src]) == EXIT_OK
    assert capsys.readouterr().out == "ok: 3 nodes, 2 links, 2 flows, 4 subbands\n"


def test_validate_enumerates_paths_on_the_network_the_mode_runs_on(tmp_path, monkeypatch):
    # two_hop_demo's pico has no backhaul, so fbc runs on a network with
    # one more (wired) link.
    demo = resources.files("hetnet_rrm").joinpath("scenarios/two_hop_demo.scenario").read_text()
    seen = []
    monkeypatch.setattr(cli, "check_path_sets", seen.append)
    for mode in ("proposed", "fbc"):
        src = scenario_file(tmp_path, demo.replace("mode = proposed", f"mode = {mode}"), f"{mode}.scenario")
        assert main(["validate", "--scenario", src]) == EXIT_OK
    assert [graph.num_links for graph in seen] == [seen[0].num_links, seen[0].num_links + 1]


def test_missing_file_exits_config(tmp_path, capsys):
    assert main(["run", "--scenario", str(tmp_path / "nope.scenario")]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("record", ["2 9 3", "2 1 -1"])
def test_out_of_range_link_endpoint_exits_config(tmp_path, capsys, record):
    demo = resources.files("hetnet_rrm").joinpath("scenarios/two_hop_demo.scenario").read_text()
    assert "\n2   1   3\n" in demo
    src = scenario_file(tmp_path, demo.replace("\n2   1   3\n", f"\n{record}\n"), "endpoint.scenario")
    for command in ("validate", "run"):
        assert main([command, "--scenario", src]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {src}: link 2 endpoint out of range\n"
            f"error: {src}: flow 1 destination 3 unreachable from source 0\n"
        )


def test_scenario_path_that_is_a_directory_exits_config(tmp_path, capsys):
    for command in ("validate", "run"):
        assert main([command, "--scenario", str(tmp_path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(tmp_path) in captured.err
        assert captured.err.count("\n") == 1


def test_scenario_that_is_not_utf8_exits_config(tmp_path, capsys):
    path = tmp_path / "latin1.scenario"
    path.write_bytes(TWO_USER_DET.replace("[radio]", "# caf\xe9\n[radio]").encode("latin-1"))
    assert main(["validate", "--scenario", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: not UTF-8 text")
    assert captured.err.count("\n") == 1


def _fail_runs(monkeypatch, error):
    """Make running an experiment or the oracle raise ``error``."""

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "run_experiment", fail)
    monkeypatch.setattr(cli, "oracle_solve", fail)


def test_run_out_that_is_a_directory_exits_config(tmp_path, capsys, monkeypatch):
    # An --out that cannot be a file is refused before any run starts.
    src = scenario_file(tmp_path)
    _fail_runs(monkeypatch, AssertionError("a run started"))
    sweep = ["sweep", "--param", "seed", "--values", "1,2"]
    for command in (["run"], ["oracle"], sweep):
        for out, message in [
            (str(tmp_path), f"--out '{tmp_path}' does not name a file"),
            ("", "--out '' does not name a file"),
            (f"{tmp_path}/missing/", f"--out '{tmp_path}/missing/' does not name a file"),
            (f"{tmp_path}/missing/x.out", f"--out '{tmp_path}/missing/x.out': '{tmp_path}/missing' is not a directory"),
        ]:
            assert main([*command, "--scenario", src, "--out", out]) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"


def test_a_failed_run_leaves_an_existing_out_alone(tmp_path, capsys, monkeypatch):
    _fail_runs(monkeypatch, netopt.NetOptError("solver failed"))
    src, out = scenario_file(tmp_path), tmp_path / "kept.out"
    out.write_text("earlier output\n", encoding="utf-8")
    for command in (["run"], ["oracle"], ["sweep", "--param", "seed", "--values", "1"]):
        assert main([*command, "--scenario", src, "--out", str(out)]) == EXIT_SOLVER
        assert capsys.readouterr().err == "error: solver failed\n"
        assert out.read_text(encoding="utf-8") == "earlier output\n"


@pytest.mark.parametrize(
    "key, value",
    [
        ("control_lead_subframes", "2"), ("utility", "alpha_fair"), ("share_gap_tol", "1e-5"),
        ("q_prune", "1e-12"), ("max_members", "64"),
    ],
    ids=["control_lead_subframes", "utility", "share_gap_tol", "q_prune", "max_members"],
)
def test_deleted_run_key_exits_config(tmp_path, capsys, key, value):
    # These keys set nothing a run reads, or are fixed constants now
    # (rrm.Q_PRUNE, rrm.MAX_MEMBERS); a file that still carries one is refused.
    demo = resources.files("hetnet_rrm").joinpath("scenarios/two_hop_demo.scenario").read_text()
    text = demo.replace("max_superframes = 40", f"max_superframes = 40\n{key} = {value}", 1)
    src = scenario_file(tmp_path, text, "old.scenario")
    line = text.splitlines().index(f"{key} = {value}") + 1
    assert main(["validate", "--scenario", src]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {src}:{line}: unknown [run] key '{key}'\n"


def test_fbc_without_a_macro_exits_config(tmp_path, capsys, monkeypatch):
    # a pico at node 0 still holds the backhaul, so the scenario validates
    demo = resources.files("hetnet_rrm").joinpath("scenarios/two_hop_demo.scenario").read_text()
    assert "\n0   macro " in demo
    src = scenario_file(tmp_path, demo.replace("\n0   macro ", "\n0   pico  "), "no_macro.scenario")
    assert main(["validate", "--scenario", src]) == EXIT_OK
    capsys.readouterr()
    _fail_runs(monkeypatch, AssertionError("a run started"))  # fbc is refused before any cell
    for argv in (
        ["run", "--mode", "fbc"],
        ["sweep", "--param", "seed", "--values", "1", "--modes", "proposed,fbc"],
    ):
        assert main([*argv, "--scenario", src]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: fbc cannot wire pico 1: the network has no macro node\n"


def test_validate_refuses_an_fbc_file_that_run_refuses(tmp_path, capsys):
    demo = resources.files("hetnet_rrm").joinpath("scenarios/two_hop_demo.scenario").read_text()
    text = demo.replace("\n0   macro ", "\n0   pico  ").replace("mode = proposed", "mode = fbc")
    src = scenario_file(tmp_path, text, "no_macro_fbc.scenario")
    for command in ("validate", "run"):
        assert main([command, "--scenario", src]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: fbc cannot wire pico 1: the network has no macro node\n"


def test_bad_scenario_reports_each_line_and_exits_config(tmp_path, capsys):
    text = TWO_USER_DET.replace("seed = 5", "seed = 5\nmode = psychic\nwarp = 1")
    src = scenario_file(tmp_path, text, "bad.scenario")
    assert main(["validate", "--scenario", src]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "mode must be one of" in err
    assert "unknown [run] key 'warp'" in err
    assert all(line.startswith("error: ") for line in err.strip().splitlines())


@pytest.mark.parametrize("raw", ["nan -16 4", "1.9 inf 4", "1.9 -16 nan"])
def test_non_finite_pathloss_exits_config(tmp_path, capsys, raw):
    demo = resources.files("hetnet_rrm").joinpath("scenarios/two_hop_demo.scenario").read_text()
    src = scenario_file(tmp_path, demo + f"\n[pathloss]\nbs_user = {raw}\n", "pl.scenario")
    line = len(demo.splitlines()) + 3
    for command in ("validate", "run"):
        assert main([command, "--scenario", src]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {src}:{line}: 'bs_user' needs three finite numbers, got '{raw}'\n"


@pytest.mark.parametrize(
    "raw, message",
    [
        ("1.9 5000.0 4.0", "ref_gain_db must lie in [-300, 300] dB, got '5000.0'"),
        ("-1e308 -16.0 4.0", "exponent must be >= 0, got '-1e308'"),
        ("1.9 -16.0 1e308", "shadow_sigma_db must lie in [0, 50] dB, got '1e308'"),
    ],
    ids=["ref_gain_db", "exponent", "shadow_sigma_db"],
)
def test_out_of_range_pathloss_exits_config(tmp_path, capsys, raw, message):
    """A finite triple outside a range is refused at its line by both
    commands; unrefused, these end ``run`` in a traceback or run it on gains
    of 0 or inf."""
    demo = resources.files("hetnet_rrm").joinpath("scenarios/two_hop_demo.scenario").read_text()
    src = scenario_file(tmp_path, demo + f"\n[pathloss]\nbs_user = {raw}\n", "pl.scenario")
    line = len(demo.splitlines()) + 3
    for command in ("validate", "run"):
        assert main([command, "--scenario", src]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {src}:{line}: 'bs_user' {message}\n"


def test_pathloss_range_edges_run_on_finite_gains(tmp_path, capsys):
    """At the edges of the [pathloss] ranges and of the power ranges, every
    gain times power over noise stays finite: a run warns nothing."""
    demo = resources.files("hetnet_rrm").joinpath("scenarios/two_hop_demo.scenario").read_text()
    for old, new in [("p_macro_dbm = 40.0", "p_macro_dbm = 300"), ("p_pico_dbm = 33.0", "p_pico_dbm = 300"),
                     ("noise_dbm = -100.0", "noise_dbm = -300")]:
        assert old in demo
        demo = demo.replace(old, new)
    for raw in ("0 300 50", "0 -300 50", "1e300 300 50"):
        triples = "".join(f"{key} = {raw}\n" for key in ("macro_macro", "bs_bs", "bs_user"))
        text = demo + f"\n[pathloss]\n{triples}"
        src = scenario_file(tmp_path, text, "edge.scenario")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--scenario", src]) in (EXIT_OK, EXIT_MAX_ITERS)
        assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "line, old, new, message",
    [
        (10, "1   pico   140.0", "1 pico {}", "node 1 position must be two finite numbers, got '{} 0.0'"),
        (12, "3   user   200.0   40.0", "3 user 200.0 {}", "node 3 position must be two finite numbers, got '200.0 {}'"),
        (10, "1   pico   140.0    0.0", "1 pico 140.0 0.0 {}", "node 1 power must be a finite number, got '{}'"),
        (18, "2   1   3", "2 1 3 wired {}", "link 2 wired capacity must be a finite number, got '{}'"),
    ],
    ids=["x", "y", "power", "wired"],
)
def test_non_finite_record_numbers_exit_config(tmp_path, capsys, raw, line, old, new, message):
    demo = resources.files("hetnet_rrm").joinpath("scenarios/two_hop_demo.scenario").read_text()
    assert demo.splitlines()[line - 1].startswith(old)
    src = scenario_file(tmp_path, demo.replace(old, new.format(raw), 1), "record.scenario")
    for command in ("validate", "run"):
        assert main([command, "--scenario", src]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {src}:{line}: {message.format(raw)}\n"


@pytest.mark.parametrize(
    "line, old, new, message",
    [
        (30, "p_macro_dbm = 40.0", "p_macro_dbm = -301", "'p_macro_dbm' must lie in [-300, 300] dBm, got '-301'"),
        (31, "p_pico_dbm = 33.0", "p_pico_dbm = 1e308", "'p_pico_dbm' must lie in [-300, 300] dBm, got '1e308'"),
        (32, "noise_dbm = -100.0", "noise_dbm = -1e308", "'noise_dbm' must lie in [-300, 300] dBm, got '-1e308'"),
        (32, "noise_dbm = -100.0", "noise_dbm = 1e308", "'noise_dbm' must lie in [-300, 300] dBm, got '1e308'"),
        (10, "1   pico   140.0    0.0", "1 pico 140.0 0.0 300.5", "node 1 power must lie in [-300, 300] dBm, got '300.5'"),
        (42, "epsilon_converge = 1e-6", "epsilon_converge = -1.0", "'epsilon_converge' must be > 0, got '-1.0'"),
        (42, "epsilon_converge = 1e-6", "epsilon_converge = 0", "'epsilon_converge' must be > 0, got '0'"),
        (43, "gap_converge_rel = 1e-6", "gap_converge_rel = -1.0", "'gap_converge_rel' must be >= 0, got '-1.0'"),
        (34, "macro_radius_m = 150.0", "macro_radius_m = -150", "'macro_radius_m' must be >= 0, got '-150'"),
        (35, "pico_radius_m = 100.0", "pico_radius_m = -1e-9", "'pico_radius_m' must be >= 0, got '-1e-9'"),
        (44, "alpha = 1.0", "alpha = -1", "'alpha' must be > 0, got '-1'"),
        (45, "utility_epsilon = 0.001", "utility_epsilon = 0", "'utility_epsilon' must be > 0, got '0'"),
    ],
    ids=[
        "p_macro", "p_pico", "noise_low", "noise_high", "power", "epsilon", "epsilon_zero", "gap_rel",
        "macro_radius", "pico_radius", "alpha", "utility_epsilon",
    ],
)
def test_out_of_range_numbers_exit_config(tmp_path, capsys, line, old, new, message):
    demo = resources.files("hetnet_rrm").joinpath("scenarios/two_hop_demo.scenario").read_text()
    assert demo.splitlines()[line - 1].startswith(old)
    src = scenario_file(tmp_path, demo.replace(old, new, 1), "range.scenario")
    for command in ("validate", "run"):
        assert main([command, "--scenario", src]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {src}:{line}: {message}\n"


def test_oracle_report(tmp_path, capsys):
    src = scenario_file(tmp_path)
    assert main(["oracle", "--scenario", src]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "oracle-report v1"
    fields = dict(line.split(" = ", 1) for line in lines[1:] if " = " in line)
    assert float(fields["utility"]) > 0.0
    assert int(fields["vertices"]) == 3
    shares = [float(v) for v in fields["shares"].split(",")]
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)
    rates = [float(v) for v in fields["flow_rates_bits"].split(",")]
    assert len(rates) == 2 and min(rates) > 0.0


def test_oracle_demands_deterministic_mode(tmp_path, capsys):
    text = TWO_USER_DET.replace("deterministic = true", "deterministic = false")
    src = scenario_file(tmp_path, text)
    assert main(["oracle", "--scenario", src]) == EXIT_CONFIG
    assert "deterministic = true" in capsys.readouterr().err


def test_oracle_scale_cap_exit(tmp_path, capsys):
    nodes = ["0 macro 0.0 0.0"]
    links, flows = [], []
    for b in range(1, 7):
        nodes.append(f"{b} pico {1000.0 * b} 0.0")
    for b in range(7):
        u = 7 + b
        nodes.append(f"{u} user {1000.0 * b + 40.0} 30.0")
        links.append(f"{b} {b} {u}")
        flows.append(f"{b} {b} {u}")
    text = "\n".join(
        ["hetnet-scenario v1", "[nodes]", *nodes, "[links]", *links,
         "[backhaul]", "0 1 2 3 4 5 6", "[flows]", *flows,
         "[radio]", "deterministic = true", "[run]", "seed = 0", ""]
    )
    src = scenario_file(tmp_path, text, "big.scenario")
    assert main(["oracle", "--scenario", src]) == EXIT_ORACLE_SCALE
    assert "exceed oracle cap" in capsys.readouterr().err


def test_too_many_base_stations_is_a_config_error(tmp_path, capsys):
    # 21 stations, one user each, all backhauled: one more than pattern
    # enumeration supports, so the parser must refuse it before any run.
    nodes = ["0 macro 0.0 0.0"]
    nodes += [f"{b} pico {700.0 * b} 0.0" for b in range(1, 21)]
    nodes += [f"{21 + b} user {700.0 * b + 40.0} 30.0" for b in range(21)]
    pairs = [f"{b} {b} {21 + b}" for b in range(21)]
    text = "\n".join(
        ["hetnet-scenario v1", "[nodes]", *nodes, "[links]", *pairs,
         "[backhaul]", " ".join(str(b) for b in range(21)), "[flows]", *pairs,
         "[radio]", "deterministic = true", "[run]", "seed = 0", ""]
    )
    src = scenario_file(tmp_path, text, "crowded.scenario")
    expected = f"error: {src}:23: node 20 is base station number 21; at most 20 base stations are supported\n"
    for command in ("validate", "run"):
        assert main([command, "--scenario", src]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == expected
        assert captured.out == ""


def test_path_explosion_exits_solver(tmp_path, capsys):
    # Eight fully meshed stations that all reach the user: 13,700 simple
    # paths, beyond the flow solver's per-flow cap.
    stations = 8
    nodes = ["0 macro 0.0 0.0"]
    nodes += [f"{b} pico {300.0 * b} {200.0 * (b % 2)}" for b in range(1, stations)]
    nodes.append(f"{stations} user 1000.0 500.0")
    ends = [(h, t) for h in range(stations) for t in range(stations) if h != t]
    ends += [(h, stations) for h in range(stations)]
    links = [f"{i} {h} {t}" for i, (h, t) in enumerate(ends)]
    text = "\n".join(
        ["hetnet-scenario v1", "[nodes]", *nodes, "[links]", *links,
         "[backhaul]", "0", "[flows]", f"0 0 {stations}",
         "[radio]", "deterministic = true", "[run]", "seed = 0", ""]
    )
    src = scenario_file(tmp_path, text, "mesh.scenario")
    # validate enumerates the paths as run's first solve does
    for command in ("validate", "run"):
        assert main([command, "--scenario", src]) == EXIT_SOLVER
        captured = capsys.readouterr()
        assert captured.err == f"error: flow 0->{stations} exceeds 4000 simple paths; refusing to enumerate\n"
        assert captured.out == ""


def test_flow_solver_failure_exits_solver(tmp_path, capsys, monkeypatch):
    def never_positive_definite(matrix, rhs, **kwargs):
        return matrix, rhs, 1

    monkeypatch.setattr(netopt, "_posv", never_positive_definite)
    src = scenario_file(tmp_path)
    assert main(["run", "--scenario", src]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.err == "error: interior-point Newton system not positive definite\n"
    assert captured.out == ""


def test_overflowing_starved_flow_price_exits_solver(tmp_path, capsys):
    # The first superframe starves flow 0, priced at utility_epsilon ** -alpha,
    # which overflows at alpha = 150: a solver error naming it, with no warning.
    demo = resources.files("hetnet_rrm").joinpath("scenarios/two_hop_demo.scenario").read_text()
    src = scenario_file(tmp_path, demo.replace("alpha = 1.0", "alpha = 150"), "steep.scenario")
    assert main(["run", "--scenario", src]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.err == (
        "error: flow 0's marginal utility (0.0 + 0.001) ** -150.0 = inf overflows: "
        "the utility or a capacity price is not finite\n"
    )
    assert captured.out == ""


def test_sweep_report_covers_values_and_modes(tmp_path, capsys):
    src = scenario_file(tmp_path)
    code = main(
        [
            "sweep", "--scenario", src, "--param", "p_macro_dbm",
            "--values", "37,40", "--modes", "proposed,ttrsc",
        ]
    )
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "sweep-report v1"
    assert lines[2] == "param = p_macro_dbm"
    rows = [l.split() for l in lines[4:] if l]
    assert [(r[0], r[1]) for r in rows] == [
        ("37.0", "proposed"), ("37.0", "ttrsc"), ("40.0", "proposed"), ("40.0", "ttrsc"),
    ]
    for r in rows:
        assert float(r[2]) > 0.0 and int(r[3]) >= 1 and r[4] == "true"
    # deterministic channels make ttrsc coincide with the proposed scheme
    assert float(rows[0][2]) == pytest.approx(float(rows[1][2]), abs=1e-9)
    # more transmit power can only help in this single-cell deployment
    assert float(rows[2][2]) > float(rows[0][2])


def test_sweep_exit_two_when_any_mode_stalls(tmp_path):
    src = scenario_file(tmp_path)
    out = tmp_path / "sweep.report"
    code = main(
        [
            "sweep", "--scenario", src, "--param", "max_superframes",
            "--values", "1", "--modes", "proposed", "--out", str(out),
        ]
    )
    # one superframe cannot show the utility plateau convergence needs
    assert code == EXIT_MAX_ITERS
    rows = [l.split() for l in out.read_text(encoding="utf-8").splitlines()[4:] if l]
    assert [(r[1], r[3], r[4]) for r in rows] == [("proposed", "1", "false")]


ONE_SUPERFRAME = TWO_USER_DET.replace("max_superframes = 12", "max_superframes = 1")


def _messages(caplog, name: str, level: int) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.name == name and r.levelno == level]


def test_run_at_superframe_limit_warns_why_and_leaves_stdout_alone(tmp_path, capsys, caplog):
    src = scenario_file(tmp_path, ONE_SUPERFRAME)
    assert main(["run", "--scenario", src]) == EXIT_MAX_ITERS
    quiet = capsys.readouterr().out
    assert _messages(caplog, "hetnet_rrm", logging.WARNING) == [
        "run stopped at the superframe limit: "
        "1 superframe(s) ran; the utility step test needs two"
    ]
    assert not _messages(caplog, "hetnet_rrm.rrm", logging.INFO)

    caplog.clear()
    caplog.set_level(logging.INFO, logger="hetnet_rrm")
    assert main(["run", "--scenario", src]) == EXIT_MAX_ITERS
    assert capsys.readouterr().out == quiet
    (line,) = _messages(caplog, "hetnet_rrm.rrm", logging.INFO)
    assert line.startswith("superframe 0: utility ")
    assert " members, " in line and " Newton iterations, " in line
    assert " refinement steps, banked False, " in line
    assert line.endswith(" ms")


def test_sweep_cell_at_superframe_limit_warns_why(tmp_path, caplog):
    src = scenario_file(tmp_path)
    code = main(
        [
            "sweep", "--scenario", src, "--param", "max_superframes",
            "--values", "1,12", "--modes", "proposed", "--out", str(tmp_path / "s"),
        ]
    )
    assert code == EXIT_MAX_ITERS
    assert _messages(caplog, "hetnet_rrm", logging.WARNING) == [
        "sweep max_superframes=1 mode=proposed stopped at the superframe limit: "
        "1 superframe(s) ran; the utility step test needs two"
    ]


def test_converged_run_logs_one_info_line_per_superframe(tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="hetnet_rrm")
    out = tmp_path / "run.trace"
    assert main(["run", "--scenario", scenario_file(tmp_path), "--out", str(out)]) == EXIT_OK
    lines = _messages(caplog, "hetnet_rrm.rrm", logging.INFO)
    superframes = int(parse_trace(out.read_text(encoding="utf-8")).summary["superframes"])
    assert [l.split(":")[0] for l in lines] == [f"superframe {i}" for i in range(superframes)]
    assert not _messages(caplog, "hetnet_rrm", logging.WARNING)
    # The last superframe adds no member, so it reuses the solve before it.
    assert ", 0 Newton iterations, 0 refinement steps (share solve reused), banked False, " in lines[-1]
    assert not any("reused" in l for l in lines[:-1])


def test_stop_reason_names_the_failed_test_and_its_margin(tmp_path, caplog, monkeypatch):
    two = TWO_USER_DET.replace("max_superframes = 12", "max_superframes = 2")
    assert main(["run", "--scenario", scenario_file(tmp_path, two)]) == EXIT_MAX_ITERS
    (warning,) = _messages(caplog, "hetnet_rrm", logging.WARNING)
    assert "utility step " in warning and " >= epsilon_converge 1e-06 (by " in warning

    # A certificate one nat short of optimal never lets the run stop.
    certify = rrm.certificate

    def short(state, block):
        report = certify(state, block)
        return dataclasses.replace(report, gap=report.gap + 1.0)

    monkeypatch.setattr(rrm, "certificate", short)
    caplog.clear()
    assert main(["run", "--scenario", scenario_file(tmp_path)]) == EXIT_MAX_ITERS
    (warning,) = _messages(caplog, "hetnet_rrm", logging.WARNING)
    assert warning.startswith("run stopped at the superframe limit: certificate gap 1 > tolerance ")
    assert " + gap_converge_rel slack " in warning and warning.endswith(")")
    by = float(warning.rsplit("(by ", 1)[1][:-1])
    assert 0.99 < by <= 1.0


@pytest.mark.parametrize("seed", [2**53 + 1, 2**64 - 1])
def test_sweep_runs_an_integer_value_with_every_digit(seed, tmp_path, caplog, monkeypatch):
    """A seed past 2^53 is not rounded through a float: the cell runs with
    the seed given, and the report and the WARNING name it as given."""
    demo = str(resources.files("hetnet_rrm").joinpath("scenarios/two_hop_demo.scenario"))
    seeds = []

    def recorded(scenario, mode, seed):  # one superframe, so the cell warns
        seeds.append((scenario.seed, seed))
        one = dataclasses.replace(scenario.rrm, max_superframes=1)
        return run_experiment(dataclasses.replace(scenario, rrm=one), mode, seed)

    monkeypatch.setattr(cli, "run_experiment", recorded)
    out = tmp_path / "sweep.report"
    argv = ["sweep", "--scenario", demo, "--param", "seed", "--values", str(seed), "--modes", "proposed"]
    assert main([*argv, "--out", str(out)]) == EXIT_MAX_ITERS
    assert seeds == [(seed, seed)]
    rows = [l.split() for l in out.read_text(encoding="utf-8").splitlines()[4:] if l]
    assert [(r[0], r[1]) for r in rows] == [(str(seed), "proposed")]
    (warning,) = _messages(caplog, "hetnet_rrm", logging.WARNING)
    assert warning.startswith(f"sweep seed={seed} mode=proposed stopped at the superframe limit: ")


def test_sweep_argument_validation(tmp_path, capsys):
    src = scenario_file(tmp_path)
    base = ["sweep", "--scenario", src]
    assert main(base + ["--param", "p_macro_dbm", "--values", "a,b"]) == EXIT_CONFIG
    assert main(base + ["--param", "p_macro_dbm", "--values", ""]) == EXIT_CONFIG
    assert main(base + ["--param", "alpha", "--values", "1"]) == EXIT_CONFIG
    assert (
        main(base + ["--param", "p_macro_dbm", "--values", "40", "--modes", "psychic"])
        == EXIT_CONFIG
    )
    err = capsys.readouterr().err
    assert "not sweepable" in err
    assert "unknown mode 'psychic'" in err


@pytest.mark.parametrize(
    "param, value, message",
    [
        ("subbands", "0", "'subbands' must be >= 1, got 0"),
        ("max_superframes", "0", "'max_superframes' must be >= 1, got 0"),
        ("p_pico_dbm", "nan", "'p_pico_dbm' must be a finite number, got 'nan'"),
        ("p_pico_dbm", "1e308", "'p_pico_dbm' must lie in [-300, 300] dBm, got '1e+308'"),
        ("seed", "-1", "'seed' must be >= 0, got -1"),
        ("seed", "18446744073709551616", "'seed' must be <= 18446744073709551615, got 18446744073709551616"),
    ],
)
def test_sweep_rejects_values_the_parser_would(param, value, message, capsys):
    fig7 = str(resources.files("hetnet_rrm").joinpath("scenarios/fig7_like.scenario"))
    code = main(["sweep", "--scenario", fig7, "--param", param, "--values", value])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"error: --param {param}: {message}\n"
    assert captured.out == ""


def _perfbench_module(name: str, monkeypatch):
    """``perfbench/<name>.py``, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_traced_functions_and_runners_resolve(monkeypatch):
    """Every function the benchmark's tracer wraps, and every mode's runner,
    exists under its name: a traced benchmark run looks them up by name."""
    tracing = _perfbench_module("tracing", monkeypatch)
    assert len(tracing.TRACED) >= 16
    for _, module_name, attr in tracing.TRACED:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"
    assert set(_RUNNERS) == set(MODES)
    assert all(callable(runner) for runner in _RUNNERS.values())


def test_benchmark_output_check_passes_on_converged_runs(monkeypatch):
    """The benchmark's own check of a converged point passes on a
    deterministic run and on a fading ``fig7_like`` run, so a change to the
    optimizer state that breaks the check fails here too.  A member pattern
    that activates conflicting stations is caught."""
    checks = _perfbench_module("checks", monkeypatch)
    graph = diamond_graph()
    deterministic = run_to_convergence(det_model(graph), RrmConfig(subframes_per_superframe=40))
    fig7_path = resources.files("hetnet_rrm").joinpath("scenarios/fig7_like.scenario")
    fig7 = parse_scenario(fig7_path.read_text(), path="fig7_like.scenario")
    fading, model = run_experiment(fig7, "proposed", fig7.seed)
    assert deterministic.converged and fading.converged
    assert checks.converged_point(graph, deterministic) == []
    assert checks.converged_point(model.graph, fading) == []
    state = deterministic.state
    all_on = dataclasses.replace(state, patterns=np.ones_like(state.patterns))
    problems = checks.converged_point(graph, dataclasses.replace(deterministic, state=all_on))
    assert problems and all("activates conflicting stations" in p for p in problems)
