import dataclasses
import importlib
import importlib.util
import logging
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from hetnet_rrm import netopt, rrm
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
from hetnet_rrm.scenario import MODES, parse_scenario
from hetnet_rrm.trace import parse_trace

from conftest import det_model, diamond_graph

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
    assert captured.err == "error: --param seed: 'seed' must be >= 0, got -1\n"
    assert captured.out == ""
    assert not out.exists()


def test_validate_reports_counts(tmp_path, capsys):
    src = scenario_file(tmp_path)
    assert main(["validate", "--scenario", src]) == EXIT_OK
    assert capsys.readouterr().out == "ok: 3 nodes, 2 links, 2 flows, 4 subbands\n"


def test_missing_file_exits_config(tmp_path, capsys):
    assert main(["run", "--scenario", str(tmp_path / "nope.scenario")]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


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
        (43, "epsilon_converge = 1e-6", "epsilon_converge = -1.0", "'epsilon_converge' must be > 0, got '-1.0'"),
        (43, "epsilon_converge = 1e-6", "epsilon_converge = 0", "'epsilon_converge' must be > 0, got '0'"),
        (44, "gap_converge_rel = 1e-6", "gap_converge_rel = -1.0", "'gap_converge_rel' must be >= 0, got '-1.0'"),
        (45, "utility = alpha_fair", "share_gap_tol = -1.0\nutility = alpha_fair", "'share_gap_tol' must be > 0, got '-1.0'"),
        (34, "macro_radius_m = 150.0", "macro_radius_m = -150", "'macro_radius_m' must be >= 0, got '-150'"),
        (35, "pico_radius_m = 100.0", "pico_radius_m = -1e-9", "'pico_radius_m' must be >= 0, got '-1e-9'"),
        (45, "utility = alpha_fair", "q_prune = 2\nutility = alpha_fair", "'q_prune' must lie in [0, 1), got '2'"),
        (45, "utility = alpha_fair", "max_members = 1\nutility = alpha_fair", "'max_members' must be >= 2, got 1"),
        (46, "alpha = 1.0", "alpha = -1", "'alpha' must be > 0, got '-1'"),
        (47, "utility_epsilon = 0.001", "utility_epsilon = 0", "'utility_epsilon' must be > 0, got '0'"),
    ],
    ids=[
        "p_macro", "p_pico", "noise_low", "noise_high", "power", "epsilon", "epsilon_zero", "gap_rel",
        "share_gap", "macro_radius", "pico_radius", "q_prune", "max_members", "alpha", "utility_epsilon",
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
    assert main(["run", "--scenario", src]) == EXIT_SOLVER
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
        "sweep max_superframes=1.0 mode=proposed stopped at the superframe limit: "
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

    def short(state, config, block):
        report = certify(state, config, block)
        return dataclasses.replace(report, gap=report.gap + 1.0)

    monkeypatch.setattr(rrm, "certificate", short)
    caplog.clear()
    assert main(["run", "--scenario", scenario_file(tmp_path)]) == EXIT_MAX_ITERS
    (warning,) = _messages(caplog, "hetnet_rrm", logging.WARNING)
    assert warning.startswith("run stopped at the superframe limit: certificate gap 1 > tolerance ")
    assert " + gap_converge_rel slack " in warning and warning.endswith(")")
    by = float(warning.rsplit("(by ", 1)[1][:-1])
    assert 0.99 < by <= 1.0


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
    # fbc runs through run_fbc, which also returns its augmented model
    assert set(_RUNNERS) == set(MODES) - {"fbc"}
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
