import logging
import re
import time
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from hetnet_rrm import netopt, phy, rrm
from hetnet_rrm.baselines import run_fddsa
from hetnet_rrm.channel import ChannelModel
from hetnet_rrm.cli import run_experiment
from hetnet_rrm.netopt import UtilitySpec, optimize_time_sharing, solve_p1
from hetnet_rrm.rrm import (
    RrmConfig,
    _sample_member_indices,
    block_pass,
    certificate,
    initial_state,
    run_superframe,
    run_to_convergence,
)
from hetnet_rrm.scenario import MODES, Scenario, parse_scenario, with_param
from hetnet_rrm.topology import Flow, Link, Node, NodeKind

from conftest import (
    assert_same_flow_bits,
    build_graph,
    det_model,
    diamond_graph,
    multicell_graph,
    random_instance,
    relay_grid_graph,
    single_link_graph,
)
from reference import subband_sum

LOG = UtilitySpec(alpha=1.0, epsilon=1e-3)


def fast_config(**kwargs):
    defaults = dict(subframes_per_superframe=40, max_superframes=30, utility=LOG)
    defaults.update(kwargs)
    return RrmConfig(**defaults)


def test_initial_state_starts_from_densest_pattern():
    g = single_link_graph()
    state = initial_state(det_model(g))
    assert state.patterns[state.member_index].tolist() == [[True]]
    assert state.shares == pytest.approx([1.0])
    assert np.all(state.weights == 1.0)

    d = diamond_graph()
    state = initial_state(det_model(d))
    # the all-on pattern conflicts, so the start is the last admissible one
    assert not state.patterns.all(axis=1).any()
    assert state.member_index.tolist() == [len(state.patterns) - 1]
    assert state.patterns[-1].sum() >= 1


def test_initial_state_starts_from_the_lexicographically_last_pattern():
    """The start is the last admissible pattern in lexicographic order, which
    is all-on when that is admissible but need not be the densest one."""
    nodes = [
        Node(0, NodeKind.MACRO, (0.0, 0.0)),
        Node(1, NodeKind.PICO, (300.0, 0.0)),
        Node(2, NodeKind.PICO, (-300.0, 0.0)),
        Node(3, NodeKind.USER, (340.0, 30.0)),
        Node(4, NodeKind.USER, (-340.0, 30.0)),
    ]
    links = [Link(0, 0, 1), Link(1, 0, 2), Link(2, 1, 3), Link(3, 2, 4)]
    g = build_graph(nodes, links, [Flow(0, 0, 3), Flow(1, 0, 4)], {0})
    assert np.array_equal(g.interference, [[0, 1, 1], [1, 0, 0], [1, 0, 0]])
    state = initial_state(det_model(g))
    assert state.patterns.astype(int).tolist() == [[0, 0, 0], [0, 1, 1], [1, 0, 0]]
    assert state.member_index.tolist() == [2]
    # the start member reads row 0 of a one-row stack: the neutral weights
    assert state.member_row.tolist() == [0]
    assert np.array_equal(state.weight_stack, np.ones((1, g.num_links)))


def test_config_validation():
    with pytest.raises(ValueError):
        RrmConfig(subframes_per_superframe=0)
    with pytest.raises(ValueError):
        RrmConfig(max_superframes=0)
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="must be positive"):
            RrmConfig(epsilon_converge=bad)
    # the share solve's tolerance and the prune threshold and cap are fixed, not settings
    for old in ("share_gap_tol", "q_prune", "max_members"):
        with pytest.raises(TypeError):
            RrmConfig(**{old: 1})
    for bad in (-1.0, np.nan):
        with pytest.raises(ValueError, match="must be non-negative"):
            RrmConfig(gap_converge_rel=bad)
    assert RrmConfig(gap_converge_rel=0.0, epsilon_converge=1e-300).gap_converge_rel == 0.0


def test_sample_member_indices_partitions_unit_interval():
    shares = np.array([0.25, 0.5, 0.25])
    draws = np.array([0.0, 0.2499, 0.25, 0.7499, 0.75, 0.999999])
    assert _sample_member_indices(shares, draws).tolist() == [0, 0, 1, 1, 2, 2]
    # a share vector summing just under one still maps the top of the interval
    shares = np.array([0.5, 0.5 - 1e-12])
    assert _sample_member_indices(shares, np.array([0.9999999])).tolist() == [1]


def test_single_link_superframe_matches_hand_computation():
    g = single_link_graph()
    model = det_model(g)
    r = float(model.statistical_rates()[0].sum())
    config = fast_config()
    state = initial_state(model)
    state, record = run_superframe(model, state, config, block_pass(model, state, config))

    assert record.index == 0
    assert record.n_members == 1
    assert record.served_rates[0] == pytest.approx(r, rel=1e-12)
    assert record.flow_rates[0] == pytest.approx(r, rel=1e-9)
    assert record.utility == pytest.approx(np.log(r + LOG.epsilon), abs=1e-9)
    # the next weights are the capacity prices of the embedded flow problem
    assert state.weights[0] == pytest.approx(1.0 / (r + LOG.epsilon), rel=1e-6)
    assert state.flow is not None and state.superframe == 1

    result = run_to_convergence(model, config)
    assert result.converged
    assert len(result.records) == 2
    assert result.utility == pytest.approx(np.log(r + LOG.epsilon), abs=1e-9)
    assert result.certificate.gap <= result.certificate.tolerance + 1e-9


def test_deterministic_ascent_is_monotone():
    for graph in (relay_grid_graph(), diamond_graph(), random_instance(31)):
        model = det_model(graph)
        result = run_to_convergence(model, fast_config())
        steps = np.diff([r.utility for r in result.records])
        assert np.all(steps >= -1e-9)
        assert result.converged


def test_weights_track_flow_prices():
    model = det_model(relay_grid_graph())
    result = run_to_convergence(model, fast_config())
    assert np.allclose(result.state.weights, result.state.flow.prices)


def test_multi_hop_discovery_climbs_a_staircase():
    """Two-hop routes need patterns discovered one superframe at a time, so a
    plateau alone must not stop the run while the certificate gap is large."""
    model = det_model(diamond_graph())
    result = run_to_convergence(model, fast_config())
    assert result.converged
    assert len(result.records) >= 3
    assert result.records[-1].utility > result.records[0].utility + 1.0
    # every flow ends with usable rate despite the all-starved start
    assert np.all(result.state.flow.rates > 0.01)


def test_certificate_nonnegative_gap_deterministic():
    model = det_model(relay_grid_graph())
    config = fast_config()
    result = run_to_convergence(model, config)
    report = result.certificate
    assert report.gap >= -1e-9
    assert report.tolerance <= 1e-6  # no Monte Carlo noise in deterministic mode
    assert (result.state.patterns == report.best_pattern).all(axis=1).any()
    assert report.pattern_values.shape == (len(result.state.patterns),)
    assert report.policy_value == pytest.approx(
        float(result.state.weights @ (result.state.shares @ result.state.rate_rows)),
        rel=1e-9,
    )


def test_certificate_fresh_draws_consistency():
    model = det_model(diamond_graph())
    config = fast_config()
    result = run_to_convergence(model, config)
    again = certificate(result.state, block_pass(model, result.state, config, t0=10_000))
    # deterministic channels make the certificate independent of the block
    assert again.gap == pytest.approx(result.certificate.gap, abs=1e-12)


def test_max_members_cap_is_enforced(monkeypatch):
    monkeypatch.setattr(rrm, "MAX_MEMBERS", 2)
    model = det_model(random_instance(47))
    config = fast_config(max_superframes=6)
    result = run_to_convergence(model, config)
    assert result.state.member_index.size <= 2
    assert all(rec.n_members <= 2 for rec in result.records)


def test_a_binding_max_members_cap_warns(caplog, monkeypatch):
    """multicell_graph needs more than two members: a cap of two cuts members
    the share solve gave a share above Q_PRUNE, and the run says so once per
    superframe it happens.  The default cap never binds there."""
    model = det_model(multicell_graph())
    with monkeypatch.context() as patch, caplog.at_level(logging.WARNING, logger="hetnet_rrm.rrm"):
        patch.setattr(rrm, "MAX_MEMBERS", 2)
        result = run_to_convergence(model, fast_config())
    warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert not result.converged and warned
    assert all(re.fullmatch(r"superframe \d+: MAX_MEMBERS = 2 cut a member of share \S+", w) for w in warned)
    assert len({w.split(":")[0] for w in warned}) == len(warned)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="hetnet_rrm.rrm"):
        assert run_to_convergence(model, fast_config()).converged
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


def test_max_members_caps_each_duration_group(monkeypatch):
    # fddsa on the relay grid: J = 3 patterns, each its own group of 1/3.
    # A cap of two applies per group, so every pattern keeps its incumbent
    # and its newcomer and the ascent stays monotone.
    monkeypatch.setattr(rrm, "MAX_MEMBERS", 2)
    model = det_model(relay_grid_graph())
    config = fast_config(fixed_pattern_durations=True)
    result = run_fddsa(model, config)
    assert len(result.state.patterns) == 3
    assert result.converged
    assert np.all(np.diff([r.utility for r in result.records]) >= -1e-9)
    for record in result.records:
        assert 3 <= record.n_members <= 6
    # Q_PRUNE is a fraction of the group total; pruning every member of a
    # group still keeps its largest, so no pattern loses its 1/3.
    monkeypatch.setattr(rrm, "Q_PRUNE", 0.99)
    state = initial_state(model, fixed_pattern_durations=True)
    for _ in range(4):
        state, record = run_superframe(model, state, config, block_pass(model, state, config))
        assert sorted(state.member_index.tolist()) == [0, 1, 2]
        assert np.allclose(state.shares, 1.0 / 3.0, rtol=0.0, atol=1e-12)


def test_wall_ms_counts_the_block_pass(monkeypatch):
    """Each superframe is timed from the start of its block pass, so a slow
    pass shows in every record's wall_ms."""
    delay_s, slow = 0.02, rrm.block_pass

    def slowed(*args, **kwargs):
        block = slow(*args, **kwargs)
        time.sleep(delay_s)
        return block

    monkeypatch.setattr(rrm, "block_pass", slowed)
    result = run_to_convergence(det_model(diamond_graph()), fast_config())
    assert len(result.records) >= 2
    assert all(record.wall_ms >= 1e3 * delay_s for record in result.records)


def test_run_wall_ms_counts_what_no_record_does(monkeypatch):
    """The run's wall_ms spans the initial state and the final block pass as
    well as every superframe, so a slow initial state shows in it and in no
    record."""
    delay_s, slow = 0.02, rrm.initial_state

    def slowed(*args, **kwargs):
        time.sleep(delay_s)
        return slow(*args, **kwargs)

    monkeypatch.setattr(rrm, "initial_state", slowed)
    result = run_to_convergence(det_model(diamond_graph()), fast_config())
    assert len(result.records) >= 2
    assert result.wall_ms >= sum(record.wall_ms for record in result.records) + 1e3 * delay_s


def test_budget_exhaustion_reports_not_converged():
    model = det_model(diamond_graph())
    config = fast_config(max_superframes=2)
    result = run_to_convergence(model, config)
    assert not result.converged
    assert len(result.records) == 2
    assert result.certificate is not None


def test_stochastic_run_keeps_feasible_schedules_and_converges():
    g = random_instance(58)
    model = det_model(g, num_subbands=2, seed=3)
    det_result = run_to_convergence(model, fast_config())
    from hetnet_rrm.channel import ChannelModel

    noisy = ChannelModel(g, 2, p_macro_dbm=40.0, p_pico_dbm=33.0, seed=3)
    config = fast_config(
        subframes_per_superframe=150,
        epsilon_converge=0.02,
        gap_converge_rel=0.02,
        max_superframes=25,
    )
    result = run_to_convergence(noisy, config)
    assert result.converged
    # fading preserves the mean, so the stochastic optimum lands near the
    # deterministic one on the utility scale (log rates, generous margin)
    assert result.utility == pytest.approx(det_result.utility, abs=2.0)


def test_utility_never_depends_on_served_noise():
    """The long-timescale state is driven by rate rows, not by which patterns
    the short-timescale sampler happened to draw."""
    g = relay_grid_graph()
    model = det_model(g)
    config = fast_config()
    r1 = run_to_convergence(model, config)
    r2 = run_to_convergence(det_model(g, seed=0), config)
    assert r1.utility == pytest.approx(r2.utility, abs=1e-12)
    assert [rec.utility for rec in r1.records] == pytest.approx(
        [rec.utility for rec in r2.records], abs=1e-12
    )


def _fig7_like():
    text = resources.files("hetnet_rrm").joinpath("scenarios/fig7_like.scenario").read_text()
    return parse_scenario(text, path="fig7_like.scenario")


def test_one_kernel_pass_per_superframe_read_by_the_certificate(monkeypatch):
    """Each superframe makes one kernel pass for the current weights and every
    member's weights.  The certificate reduces, with no kernel call, the pass
    the next superframe schedules with, so a run makes one pass more than it
    has superframes and returns the certificate of its last pass."""
    passes, certified = [], []
    kernel, cert = phy.block_winners, rrm.certificate

    def counted_kernel(*args, **kwargs):
        passes.append(None)
        return kernel(*args, **kwargs)

    def counted_certificate(state, block):
        made = len(passes)
        report = cert(state, block)
        assert len(passes) == made
        certified.append(block.t0)
        return report

    monkeypatch.setattr(phy, "block_winners", counted_kernel)
    monkeypatch.setattr(rrm, "certificate", counted_certificate)
    fig7 = _fig7_like()
    cases = [
        (fig7.channel_model(seed=1), fig7.rrm),
        (fig7.channel_model(seed=1), replace(fig7.rrm, fixed_pattern_durations=True)),
        (det_model(random_instance(1)), fast_config()),
        (det_model(random_instance(1)), fast_config(fixed_pattern_durations=True)),
    ]
    failed = 0
    for model, config in cases:
        passes.clear()
        certified.clear()
        result = run_to_convergence(model, config)
        assert len(passes) == len(result.records) + 1
        assert certified[-1] == len(result.records) * config.subframes_per_superframe
        failed += len(certified) - result.converged
        again = cert(result.state, block_pass(model, result.state, config))
        assert (again.gap, again.tolerance) == (result.certificate.gap, result.certificate.tolerance)
        assert np.array_equal(again.pattern_values, result.certificate.pattern_values)
    assert failed >= 2  # random_instance(1) fails two certificates before converging


def test_a_deterministic_block_pass_scores_its_one_draw():
    """A deterministic pass scores the channel's one draw, a (1, L, M) block:
    every row it yields is exact, with a standard error of exactly zero.  The
    short timescale still samples and schedules all S subframes, and serves
    the bits the S-fold repeated block serves, at 4 subbands and at 10: the
    kernel adds the subbands in subband order on a one-subframe block too,
    where numpy's own sum of a contiguous (M,) run goes pairwise from eight
    subbands on."""
    for n_subbands in (4, 10):
        model = det_model(multicell_graph(), num_subbands=n_subbands)
        config = fast_config()
        n_samples = config.subframes_per_superframe
        state = initial_state(model)
        for _ in range(4):
            block = block_pass(model, state, config)
            assert block.rate_block.shape == block.winners.shape == (1, model.num_links, n_subbands)
            for sem in (block.member_stderr, block.pattern_sem, block.best_stderr):
                assert not np.any(sem)
            repeated = model.rate_block(block.t0, n_samples)
            assert np.array_equal(repeated, np.repeat(block.rate_block, n_samples, axis=0))
            draws = model.pattern_draws(block.t0, n_samples)
            active = state.patterns[state.member_index[_sample_member_indices(state.shares, draws)]]
            winners, rates, _, _ = phy.station_contributions(model.graph, state.weight_stack[:1], repeated)
            served = phy.schedule_block(model.graph, active, state.weights, repeated, winners, rates)
            state, record = run_superframe(model, state, config, block)
            assert record.served_rates.tobytes() == served.tobytes(), n_subbands


@pytest.mark.parametrize("kind", ["fading", "statistical", "deterministic"])
def test_a_block_pass_serves_row_zeros_masked_products(kind):
    """A pass's ``served[l, s]`` is row 0's winners times the block's rates,
    summed over the subbands in subband order, bit for bit, on
    ``fig7_like``'s ten subbands: on a fading block and on a deterministic
    one-draw block alike."""
    fig7 = replace(_fig7_like(), deterministic=kind == "deterministic")
    model = fig7.channel_model(seed=1)
    config = replace(fig7.rrm, statistical_scheduling=kind == "statistical")
    state = initial_state(model)
    for _ in range(3):
        block = block_pass(model, state, config)
        assert block.served.shape == (model.num_links, block.rate_block.shape[0])
        product = subband_sum(block.rate_block * block.winners).T
        assert block.served.tobytes() == product.tobytes()
        state, _ = run_superframe(model, state, config, block)


@pytest.mark.parametrize("fixed", [False, True], ids=["one group", "fixed durations"])
@pytest.mark.parametrize("deterministic", [False, True], ids=["fading", "deterministic"])
def test_pattern_values_are_one_pattern_table_times_the_weights(fixed, deterministic):
    """A pass's pattern values and their weighted standard errors are the rows
    of one ``rate_table_for_patterns`` table under row 0 times the current
    weights, and the group bests' rate rows are that table's rows."""
    model = ChannelModel(multicell_graph(), 3, 40.0, 33.0, seed=4, deterministic=deterministic)
    config = fast_config(fixed_pattern_durations=fixed)
    state = initial_state(model, fixed)
    for _ in range(3):
        block = block_pass(model, state, config)
        _, _, mean, stderr = phy.station_contributions(model.graph, state.weight_stack[:1], block.rate_block)
        rows, sems = phy.rate_table_for_patterns(model.graph, state.patterns, mean[0], stderr[0])
        assert np.array_equal(block.pattern_values, rows @ state.weights)
        assert np.array_equal(block.pattern_sem, sems @ state.weights)
        assert np.array_equal(block.best_rates, rows[block.group_best])
        assert np.array_equal(block.best_stderr, sems[block.group_best])
        state, _ = run_superframe(model, state, config, block)


def test_a_deterministic_certificate_tolerance_is_its_floor_alone():
    """With exact rows the certificate widens its check by no standard error:
    its tolerance is the 1e-9 floor, in every mode."""
    text = resources.files("hetnet_rrm").joinpath("scenarios/two_hop_demo.scenario").read_text()
    demo = parse_scenario(text, path="two_hop_demo.scenario")
    for mode in MODES:
        result, _ = run_experiment(demo, mode, demo.seed)
        assert result.certificate.tolerance == 1e-9, mode


def test_a_block_pass_from_another_block_is_refused():
    model = det_model(diamond_graph())
    config = fast_config()
    state = initial_state(model)
    block = block_pass(model, state, config, t0=40)
    with pytest.raises(ValueError, match="starts at subframe 40, superframe at 0"):
        run_superframe(model, state, config, block)
    assert block_pass(model, state, config).t0 == 0


@pytest.mark.parametrize(
    "setup",
    [
        lambda: (Scenario(graph=diamond_graph(), subbands=4, deterministic=True, rrm=fast_config()), 0),
        lambda: (Scenario(graph=multicell_graph(), subbands=4, deterministic=True, rrm=fast_config()), 0),
        lambda: (_fig7_like(), 1),
    ],
    ids=["diamond", "multicell", "fig7_like"],
)
def test_member_rows_equal_a_full_restack(monkeypatch, setup):
    """Every superframe's block pass gives each member the row a pass that
    stacks every member's weights on the same block gives, bit for bit.  A
    deterministic pass reads the rows the state carries in place of
    re-stacking them; a fading one re-measures them on its fresh draws.
    After every superframe each stack row but row 0 is read by some member."""
    step = rrm.run_superframe
    pinned_elsewhere = []

    def checked_step(model, state, config, block):
        state, record = step(model, state, config, block)
        block = block_pass(model, state, config)
        stack = np.vstack([state.weights, state.weight_stack[state.member_row]])
        _, _, mean, stderr = phy.station_contributions(model.graph, stack, block.rate_block, block.winner_rates)
        patterns = state.patterns[state.member_index]
        rows, row_stderr = phy.rate_table_for_patterns(model.graph, patterns, mean[1:], stderr[1:])
        assert rows.tobytes() == block.member_rates.tobytes()
        assert row_stderr.tobytes() == block.member_stderr.tobytes()
        if model.deterministic:
            assert block.member_rates is state.rate_rows and block.member_stderr is state.row_stderr
        pinned_elsewhere.append(np.any(state.weight_stack[state.member_row] != state.weights))
        # the stack keeps no row beyond the current weights that no member reads
        assert np.all(np.bincount(state.member_row, minlength=len(state.weight_stack))[1:] > 0)
        return state, record

    monkeypatch.setattr(rrm, "run_superframe", checked_step)
    scenario, seed = setup()
    for mode in MODES:
        pinned_elsewhere.clear()
        result, _ = run_experiment(scenario, mode, seed)
        assert len(pinned_elsewhere) == len(result.records)
        assert any(pinned_elsewhere)  # some member is re-measured under other weights


def _count_share_solves(monkeypatch) -> list:
    solves, solve = [], rrm.optimize_time_sharing

    def counted(*args, **kwargs):
        solves.append(None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(rrm, "optimize_time_sharing", counted)
    return solves


@pytest.mark.parametrize("fixed", [False, True])
def test_each_superframe_builds_its_duration_groups_once(monkeypatch, fixed):
    """The partition a superframe prunes with is the one its share solve
    takes, built once."""
    builds, build = [], netopt.duration_groups

    def counted(labels):
        builds.append(None)
        return build(labels)

    monkeypatch.setattr(netopt, "duration_groups", counted)
    monkeypatch.setattr(rrm, "duration_groups", counted)
    result = run_to_convergence(det_model(relay_grid_graph()), fast_config(fixed_pattern_durations=fixed))
    assert len(result.records) >= 2
    assert len(builds) == len(result.records)


def test_fddsa_first_superframe_solves_its_one_row_groups_jointly(monkeypatch):
    """fddsa starts with one member per pattern, each in its own duration
    group; that program goes through the joint path, not ``solve_p1``, and
    its flow is ``solve_p1``'s for the capacities its shares give."""
    direct = netopt.solve_p1

    def refused(*args):
        raise AssertionError("solve_p1 called")

    monkeypatch.setattr(netopt, "solve_p1", refused)
    fig7 = _fig7_like()
    model, config = fig7.channel_model(seed=1), replace(fig7.rrm, fixed_pattern_durations=True)
    state = initial_state(model, fixed_pattern_durations=True)
    block = block_pass(model, state, config)
    new_state, _ = run_superframe(model, state, config, block)
    n_patterns = len(state.patterns)
    assert new_state.member_index.tolist() == list(range(n_patterns))
    _, shares, flow = new_state.solve
    assert shares.tobytes() == np.full(n_patterns, 1.0 / n_patterns).tobytes()
    capacities = model.graph.wired_base_capacity() + shares @ block.member_rates
    assert_same_flow_bits(flow, direct(model.graph, capacities, config.utility))


@pytest.mark.parametrize("fixed", [False, True])
def test_an_unchanged_share_program_reuses_its_solve(monkeypatch, fixed):
    """A deterministic run's last superframe adds no member and poses the
    program the one before it solved, so it makes no share solve of its own;
    the shares and prices it keeps are a direct solve's bits."""
    solves = _count_share_solves(monkeypatch)
    model = det_model(relay_grid_graph())
    config = fast_config(fixed_pattern_durations=fixed)
    result = run_to_convergence(model, config)
    assert result.converged
    assert len(solves) == len(result.records) - 1

    state = result.state
    labels = state.member_index if fixed else np.zeros(state.member_index.size, dtype=int)
    shares, flow = optimize_time_sharing(
        state.rate_rows, model.graph, config.utility, groups=netopt.duration_groups(labels)
    )
    assert shares.tobytes() == state.shares.tobytes()
    assert flow.prices.tobytes() == state.flow.prices.tobytes() == state.weights.tobytes()

    # Rows that moved pose another program, though no member joins.
    block = block_pass(model, state, config)
    moved = replace(block, member_rates=2.0 * block.member_rates, best_rates=2.0 * block.best_rates)
    solved = len(solves)
    run_superframe(model, state, config, block)
    assert len(solves) == solved
    run_superframe(model, state, config, moved)
    assert len(solves) == solved + 1


def test_fading_runs_solve_the_share_program_every_superframe(monkeypatch):
    """Fresh draws move every row, so no fading superframe reuses a solve."""
    solves = _count_share_solves(monkeypatch)
    fig7 = _fig7_like()
    result = run_to_convergence(fig7.channel_model(seed=1), fig7.rrm)
    assert len(result.records) >= 3
    assert len(solves) == len(result.records)


def test_fig7_like_fbc_share_solves_end_near_the_floor_without_a_stall(monkeypatch):
    """Without the refinement step, fbc's joint solves on ``fig7_like`` stall
    near the complementarity floor: at 31 dBm one takes 134 Newton
    iterations, and at 33 and 35 dBm three return a banked iterate after
    58-62.  Every solve of these cells must reach the floor within 25."""
    results, solve = [], netopt._interior_point

    def recorded(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(netopt, "_interior_point", recorded)
    fig7 = _fig7_like()
    for power in (31.0, 33.0, 35.0):
        swept = with_param(fig7, "p_pico_dbm", power)
        n_before = len(results)
        result, _ = run_experiment(swept, "fbc", swept.seed)
        assert result.converged
        assert len(results) - n_before == len(result.records)
    assert all(not r.banked and r.newton_iters <= 25 for r in results)
    assert any(r.refinements for r in results)


def _reuse_layout():
    """``fig7_like`` with reuse conflicts: 150 m macro and 100 m pico radii.
    ``with_param`` refuses the radii, so the scenario text is edited."""
    text = resources.files("hetnet_rrm").joinpath("scenarios/fig7_like.scenario").read_text()
    for key, value in (("macro_radius_m", "150.0"), ("pico_radius_m", "100.0")):
        assert f"{key} = 40.0" in text
        text = text.replace(f"{key} = 40.0", f"{key} = {value}")
    return parse_scenario(text, path="reuse.scenario")


@pytest.mark.xfail(strict=True, raises=netopt.NetOptError, reason="known share-solve failure on degenerate programs")
@pytest.mark.parametrize(
    "power, seed, mode",
    [(33.0, 3, "fddsa"), (27.0, 2, "ttrsc")],
    ids=["33dBm seed 3 fddsa, superframe 2", "27dBm seed 2 ttrsc, superframe 15"],
)
def test_reuse_layout_runs_end_without_a_solver_error(power, seed, mode):
    """Two shipped-settings runs on the reuse layout whose share solves end in
    "interior point did not converge in 300 iterations": (a) at superframe
    2 and (b) at superframe 15.  Both programs are degenerate, and member
    order decides whether the interior point passes them."""
    swept = with_param(_reuse_layout(), "p_pico_dbm", power)
    result, _ = run_experiment(swept, mode, seed)
    assert len(result.records) >= 1


@pytest.mark.xfail(strict=True, raises=netopt.NetOptError, reason="known share-solve failure on degenerate programs")
def test_forced_fig7_like_run_ends_without_a_solver_error():
    """A run of the bundled layout held to 60 superframes (``max_superframes =
    60``, ``epsilon_converge = 1e-9``) at 31 dBm, seed 2, ttrsc: its share
    solve in superframe 18 ends in "interior point did not converge in 300
    iterations".  Before the subframe-contiguous kernel pass, which moved
    fading numbers by rounding only, it ran all 60 superframes to U =
    30.03278757459155.  Like the reuse layout's programs above, the failing
    one has capacity rows at ``CAPACITY_FLOOR`` and stalls once
    complementarity reaches its floor."""
    text = resources.files("hetnet_rrm").joinpath("scenarios/fig7_like.scenario").read_text()
    for key, shipped, forced in (("max_superframes", "25", "60"), ("epsilon_converge", "0.02", "1e-9")):
        assert f"{key} = {shipped}" in text
        text = text.replace(f"{key} = {shipped}", f"{key} = {forced}")
    swept = with_param(parse_scenario(text, path="fig7_like.scenario"), "p_pico_dbm", 31.0)
    result, _ = run_experiment(swept, "ttrsc", 2)
    assert len(result.records) == 60
