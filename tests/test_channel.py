import tracemalloc
from collections import Counter
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from hetnet_rrm import channel, phy
from hetnet_rrm.baselines import augment_with_wired_backhaul, fbc_graph
from hetnet_rrm.channel import (
    STREAM_FADING,
    STREAM_PATTERN,
    ChannelModel,
    LinkClassParams,
    PathlossParams,
    dbm_to_watts,
    keyed_generator,
    large_scale_gains,
    snr_term,
)
from hetnet_rrm.cli import EXIT_OK, main
from hetnet_rrm.scenario import parse_scenario
from hetnet_rrm.topology import Flow, Link, Node, NodeKind

from conftest import build_graph, det_model, random_instance, single_link_graph
from reference import keyed_channel_draws

MACRO, PICO, USER = NodeKind.MACRO, NodeKind.PICO, NodeKind.USER

NO_SHADOW = PathlossParams(
    macro_macro=LinkClassParams(1.6, -20.0, 0.0),
    bs_bs=LinkClassParams(1.75, -18.0, 0.0),
    bs_user=LinkClassParams(1.9, -16.0, 0.0),
)


def test_dbm_to_watts():
    assert dbm_to_watts(0.0) == pytest.approx(1e-3)
    assert dbm_to_watts(30.0) == pytest.approx(1.0)
    assert dbm_to_watts(33.0) == pytest.approx(10 ** 3.3 * 1e-3)


def test_snr_term_formula():
    h2 = np.array([0.0, 1.0, 3.0])
    assert np.allclose(snr_term(h2, 2.0), np.log1p(2.0 * h2))


def test_pathloss_class_selection_and_formula():
    nodes = [
        Node(0, MACRO, (0.0, 0.0)),
        Node(1, MACRO, (200.0, 0.0)),
        Node(2, PICO, (0.0, 50.0)),
        Node(3, USER, (0.0, -80.0)),
    ]
    links = [Link(0, 0, 1), Link(1, 0, 2), Link(2, 0, 3)]
    g = build_graph(nodes, links, [Flow(0, 0, 3)], {0, 1},
                    macro_radius=10.0, pico_radius=5.0)
    gains = large_scale_gains(g, NO_SHADOW, seed=0)
    assert gains[0] == pytest.approx(10 ** (-20 / 20) * 200.0 ** -1.6)
    assert gains[1] == pytest.approx(10 ** (-18 / 20) * 50.0 ** -1.75)
    assert gains[2] == pytest.approx(10 ** (-16 / 20) * 80.0 ** -1.9)


def test_pathloss_minimum_distance_clamp():
    nodes = [Node(0, MACRO, (0.0, 0.0)), Node(1, USER, (0.2, 0.0))]
    g = build_graph(nodes, [Link(0, 0, 1)], [Flow(0, 0, 1)], {0})
    gains = large_scale_gains(g, NO_SHADOW, seed=0)
    assert gains[0] == pytest.approx(10 ** (-16 / 20))  # clamped to 1 m


def test_shadowing_is_seeded_and_stationary():
    g = single_link_graph()
    a = large_scale_gains(g, PathlossParams(), seed=11)
    b = large_scale_gains(g, PathlossParams(), seed=11)
    c = large_scale_gains(g, PathlossParams(), seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_wired_links_carry_no_gain():
    nodes = [Node(0, MACRO, (0.0, 0.0)), Node(1, PICO, (150.0, 0.0)),
             Node(2, USER, (220.0, 0.0))]
    links = [Link(0, 0, 1, wired_capacity=4.0), Link(1, 1, 2)]
    g = build_graph(nodes, links, [Flow(0, 0, 2)], {0, 1})
    m = ChannelModel(g, 3, 40.0, 33.0, seed=0)
    assert m.tx_powers[0] == 0.0 and m.tx_powers[1] > 0.0
    block = m.rate_block(0, 4)
    assert np.all(block[:, 0, :] == 0.0)


def test_noise_normalization_and_power_overrides():
    nodes = [Node(0, MACRO, (0.0, 0.0)), Node(1, PICO, (100.0, 50.0)),
             Node(2, USER, (30.0, -40.0)), Node(3, USER, (130.0, 60.0))]
    links = [Link(0, 0, 2), Link(1, 1, 3), Link(2, 0, 1)]
    g = build_graph(nodes, links, [Flow(0, 0, 2), Flow(1, 0, 3)], {0})
    m = ChannelModel(g, 2, 40.0, 33.0, seed=0, noise_dbm=-100.0)
    assert m.tx_powers[0] == pytest.approx(dbm_to_watts(40.0) / dbm_to_watts(-100.0))
    assert m.tx_powers[1] == pytest.approx(dbm_to_watts(33.0) / dbm_to_watts(-100.0))
    over = ChannelModel(g, 2, 40.0, 33.0, seed=0, noise_dbm=-100.0,
                        power_overrides={1: 21.0})
    assert over.tx_powers[1] == pytest.approx(dbm_to_watts(21.0) / dbm_to_watts(-100.0))
    assert over.tx_powers[0] == m.tx_powers[0]
    assert over.tx_powers[2] == m.tx_powers[2]


def test_small_scale_fading_is_unit_mean():
    g = single_link_graph()
    m = ChannelModel(g, 10, 40.0, 33.0, seed=5)
    block = m.draw_block(0, 10_000)  # 1e5 exponential draws
    small = block[:, 0, :] / m.large_gains[0] ** 2
    assert small.mean() == pytest.approx(1.0, abs=0.02)
    assert small.min() >= 0.0


def test_draws_replay_by_counter():
    g = random_instance(3)
    m = ChannelModel(g, 4, 40.0, 33.0, seed=9)
    later = m.draw_block(5, 1)[0].copy()
    _ = m.draw_block(7, 1)[0]
    again = m.draw_block(5, 1)[0]
    assert np.array_equal(later, again)
    twin = ChannelModel(g, 4, 40.0, 33.0, seed=9)
    assert np.array_equal(twin.draw_block(5, 1)[0], later)
    other = ChannelModel(g, 4, 40.0, 33.0, seed=10)
    assert not np.array_equal(other.draw_block(5, 1)[0], later)


def test_block_draws_equal_a_fresh_keyed_generator_per_subframe():
    g = augment_with_wired_backhaul(random_instance(6), wired_capacity=100.0)
    assert g.wired_links
    models = [ChannelModel(g, 3, 40.0, 33.0, seed=8) for _ in range(2)]
    models.append(det_model(g, num_subbands=3, seed=8))
    names = ("draw_block", "rate_block", "pattern_draws")
    calls = [(m, name, t) for t in (0, 9, 2**40 - 2, 2**40) for m in models for name in names]
    # Interleave both streams and both same-seed models in a scrambled order.
    for i in np.random.default_rng(0).permutation(len(calls)):
        m, name, t = calls[i]
        got = getattr(m, name)(t, 3)
        expected = keyed_channel_draws(m, t, 3)[names.index(name)]
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes(), (name, t, m.deterministic)
    # A negative subframe never wraps around to a large counter.
    for m in models:
        with pytest.raises(OverflowError):
            m.pattern_draws(-1, 2)
        if not m.deterministic:
            with pytest.raises(OverflowError):
                m.draw_block(-2, 4)
        draws, _, uniforms = keyed_channel_draws(m, 5, 2)
        assert m.draw_block(5, 2).tobytes() == draws.tobytes()
        assert m.pattern_draws(5, 2).tobytes() == uniforms.tobytes()


def test_keyed_generator_streams_are_independent():
    a = keyed_generator(1, 1, 0).random(4)
    b = keyed_generator(1, 2, 0).random(4)
    c = keyed_generator(1, 1, 1).random(4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.array_equal(a, keyed_generator(1, 1, 0).random(4))


def test_deterministic_mode_freezes_time():
    g = random_instance(4)
    m = det_model(g, num_subbands=3, seed=2)
    b = m.rate_block(0, 5)
    assert np.allclose(b, b[0])
    stat = m.statistical_rates()
    assert np.allclose(b[0], stat)
    wl = list(g.wireless_links)
    assert np.allclose(
        stat[wl], np.log1p(m.tx_powers[wl, None] * m.large_gains[wl, None] ** 2)
    )


def test_statistical_rates_flat_across_subbands():
    g = random_instance(6)
    m = ChannelModel(g, 6, 40.0, 33.0, seed=1)
    stat = m.statistical_rates()
    assert np.allclose(stat, stat[:, :1])


def test_pattern_draws_replay_and_range():
    g = single_link_graph()
    m = ChannelModel(g, 2, 40.0, 33.0, seed=4)
    u = m.pattern_draws(10, 50)
    assert u.shape == (50,)
    assert np.all((0.0 <= u) & (u < 1.0))
    assert np.array_equal(u[5:], m.pattern_draws(15, 45))


def test_wired_augmentation_keeps_wireless_draws():
    for seed in range(8):
        g = random_instance(seed)
        if not any(n.kind is PICO and n.index not in g.backhaul for n in g.nodes):
            continue
        aug = augment_with_wired_backhaul(g, wired_capacity=100.0)
        assert aug.num_links > g.num_links
        base = ChannelModel(g, 4, 40.0, 33.0, seed=seed)
        wired = ChannelModel(aug, 4, 40.0, 33.0, seed=seed)
        rb = base.rate_block(0, 6)
        rw = wired.rate_block(0, 6)
        assert np.array_equal(rb, rw[:, : g.num_links, :])
        assert np.array_equal(base.large_gains, wired.large_gains[: g.num_links])


def test_zero_subbands_is_refused():
    with pytest.raises(ValueError, match="at least one subband"):
        ChannelModel(single_link_graph(), 0, 40.0, 33.0, seed=0)


def test_seeds_outside_64_bits_are_refused_not_wrapped():
    # Masked to 64 bits, 2**64 + 5 would rerun seed 5 and -1 seed 2**64 - 1.
    g = single_link_graph()
    for seed in (-1, -(2**64) + 5, 2**64, 2**64 + 5):
        for call in (
            lambda: keyed_generator(seed, 0),
            lambda: ChannelModel(g, 2, 40.0, 33.0, seed=seed),
            lambda: ChannelModel(g, 2, 40.0, 33.0, seed=seed, deterministic=True),
        ):
            with pytest.raises(ValueError, match=rf"seed must lie in \[0, 2\*\*64\), got {seed}"):
                call()
    top = ChannelModel(g, 2, 40.0, 33.0, seed=2**64 - 1)
    assert top.draw_block(0, 2).shape == (2, 1, 2)


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty draw memo for one test, so store counts do not depend on what
    earlier tests drew."""
    memo = channel._DrawMemo()
    monkeypatch.setattr(channel, "_memo", memo)
    return memo


def test_memoized_draws_of_one_seed_match_the_reference_across_powers_and_fbc(fresh_memo):
    g = random_instance(6)
    aug = augment_with_wired_backhaul(g, wired_capacity=100.0)
    assert aug.num_links > g.num_links
    models = [
        ChannelModel(g, 3, 40.0, 33.0, seed=8),
        ChannelModel(g, 3, 43.0, 27.0, seed=8, noise_dbm=-90.0),
        ChannelModel(aug, 3, 40.0, 33.0, seed=8),
    ]
    names = ("draw_block", "rate_block", "pattern_draws")
    for t in (0, 9):
        for m in models:
            expected = keyed_channel_draws(m, t, 4)
            for name, want in zip(names, expected):
                assert getattr(m, name)(t, 4).tobytes() == want.tobytes(), (name, t)
    # one fading and one pattern entry per block, shared by all three models
    assert len(fresh_memo.entries) == 4


def test_a_rate_block_is_laid_out_for_the_kernel_to_read_in_place():
    """``rate_block`` is :func:`snr_term` of ``draw_block`` bit for bit,
    finished in the draw's own buffer: its (L, M, S) transpose is
    C-contiguous, so ``block_winners`` reads it without a copy, while a
    C-contiguous (S, L, M) block costs the pass one more block of memory.
    Checked on ``fig7_like`` and on its fbc network, whose wired links carry
    zero rates."""
    text = resources.files("hetnet_rrm").joinpath("scenarios/fig7_like.scenario").read_text()
    fig7 = parse_scenario(text, path="fig7_like.scenario")
    base = fig7.channel_model(seed=1)
    fbc = replace(fig7, graph=fbc_graph(base)).channel_model(seed=1)
    assert fbc.graph.wired_links and not base.graph.wired_links
    n_samples = fig7.rrm.subframes_per_superframe
    for model in (base, fbc):
        rates = model.rate_block(400, n_samples)
        expected = snr_term(model.draw_block(400, n_samples), model.tx_powers[None, :, None])
        assert rates.shape == (n_samples, model.num_links, model.num_subbands)
        assert rates.tobytes() == expected.tobytes()
        assert rates.transpose(1, 2, 0).flags.c_contiguous
        assert not np.any(rates[:, list(model.graph.wired_links)])
        weights = np.ones((1, model.num_links))
        phy.block_winners(model.graph, weights, rates)  # builds the per-graph tables
        peaks = []
        for block in (rates, np.ascontiguousarray(rates)):
            tracemalloc.start()
            try:
                phy.block_winners(model.graph, weights, block)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] > 0.99 * rates.nbytes  # less a few array headers


def test_writes_into_draw_results_leave_the_memo_intact(fresh_memo):
    m = ChannelModel(random_instance(3), 4, 40.0, 33.0, seed=9)
    draws, rates, uniforms = keyed_channel_draws(m, 5, 3)
    m.draw_block(5, 3)[:] = -1.0
    m.rate_block(5, 3)[:] = 7.0
    assert m.draw_block(5, 3).tobytes() == draws.tobytes()
    assert m.rate_block(5, 3).tobytes() == rates.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        m.pattern_draws(5, 3)[0] = 2.0
    assert m.pattern_draws(5, 3).tobytes() == uniforms.tobytes()


def test_sweep_rewinds_each_stream_once_per_distinct_subframe(fresh_memo, monkeypatch, tmp_path):
    rewinds = Counter()
    at = channel._KeyedStream.at

    def spy(self, t):
        rewinds[self._state["state"]["key"][1], t] += 1
        return at(self, t)

    monkeypatch.setattr(channel._KeyedStream, "at", spy)
    fig7 = resources.files("hetnet_rrm").joinpath("scenarios/fig7_like.scenario")
    code = main([
        "sweep", "--scenario", str(fig7), "--param", "p_pico_dbm", "--values", "29,33",
        "--modes", "proposed,fbc", "--out", str(tmp_path / "sweep.txt"),
    ])
    assert code == EXIT_OK
    assert set(rewinds.values()) == {1}
    for stream in (STREAM_FADING, STREAM_PATTERN):
        subframes = sorted(t for s, t in rewinds if s == stream)
        assert subframes == list(range(len(subframes))) and subframes


def test_overflowing_draws_store_nothing(fresh_memo):
    m = ChannelModel(random_instance(3), 4, 40.0, 33.0, seed=9)
    for call in (
        lambda: m.draw_block(-2, 4),
        lambda: m.draw_block(2**64 - 2, 4),
        lambda: m.pattern_draws(-1, 2),
        lambda: m.pattern_draws(2**64 - 1, 2),
    ):
        with pytest.raises(OverflowError):
            call()
    assert not fresh_memo.entries and fresh_memo.nbytes == 0


def test_memo_keeps_its_byte_budget(fresh_memo, monkeypatch):
    m = ChannelModel(single_link_graph(), 4, 40.0, 33.0, seed=3)
    block_bytes = 10 * 1 * 4 * 8
    monkeypatch.setattr(channel, "DRAW_MEMO_BYTES", 2 * block_bytes)
    big = m.draw_block(0, 30)  # over budget: returned, not retained
    assert big.tobytes() == keyed_channel_draws(m, 0, 30)[0].tobytes()
    assert not fresh_memo.entries
    for t in (0, 10, 20):
        m.draw_block(t, 10)
    # the least recently used block made room for the third
    assert [key[4] for key in fresh_memo.entries] == [10, 20]
    assert fresh_memo.nbytes == 2 * block_bytes
