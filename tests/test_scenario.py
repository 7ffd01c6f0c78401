import dataclasses
import math
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from hetnet_rrm.channel import LinkClassParams, PathlossParams
from hetnet_rrm.netopt import UtilitySpec
from hetnet_rrm.rrm import RrmConfig
from hetnet_rrm.scenario import (
    _SETTINGS,
    MAX_BLOCK_ENTRIES,
    NATS_PER_BIT,
    SWEEPABLE_PARAMS,
    Scenario,
    ScenarioError,
    dump_scenario,
    load_scenario,
    parse_scenario,
    with_param,
)

BASE = """\
hetnet-scenario v1

[nodes]
0 macro 0.0 0.0
1 pico 300.0 0.0
2 user 30.0 10.0
3 user 330.0 10.0

[links]
0 0 2
1 1 3

[backhaul]
0 1

[flows]
0 0 2
1 1 3

[radio]
subbands = 4
deterministic = true

[run]
seed = 3
"""


def test_parse_minimal_scenario_and_defaults():
    s = parse_scenario(BASE)
    assert s.graph.num_links == 2 and s.graph.num_flows == 2
    assert s.subbands == 4 and s.deterministic
    assert s.seed == 3 and s.mode == "proposed"
    assert s.p_macro_dbm == 40.0 and s.p_pico_dbm == 33.0
    assert s.noise_dbm == -100.0
    assert s.macro_radius_m == 420.0 and s.pico_radius_m == 260.0
    assert s.rrm.subframes_per_superframe == 200
    assert s.rrm.utility.alpha == 1.0 and s.rrm.utility.epsilon == 1e-3
    assert s.power_overrides == {}
    assert s.graph.interference[0, 1]  # 300 m < the 420 m macro radius
    # A setting the file leaves out takes its dataclass default, field by field.
    assert s.rrm == RrmConfig() and s.rrm.utility == UtilitySpec()
    given, default = {"subbands": 4, "deterministic": True, "seed": 3}, Scenario(graph=s.graph)
    for f in dataclasses.fields(Scenario):
        assert getattr(s, f.name) == given.get(f.name, getattr(default, f.name)), f.name


def test_dump_parse_roundtrip_is_byte_stable():
    first = dump_scenario(parse_scenario(BASE))
    second = dump_scenario(parse_scenario(first))
    assert first == second
    reparsed = parse_scenario(second)
    assert reparsed.graph.nodes == parse_scenario(BASE).graph.nodes
    assert reparsed.rrm == parse_scenario(BASE).rrm


def test_comments_and_blank_lines_are_ignored():
    text = BASE.replace("[links]", "# topology\n[links]  # section")
    text = text.replace("0 0 2\n1 1 3\n\n[backhaul]", "0 0 2 # macro row\n1 1 3\n\n[backhaul]", 1)
    s = parse_scenario(text)
    assert s.graph.num_links == 2


def test_error_collection_reports_all_problems_with_locations():
    text = "\n".join(
        [
            "hetnet-scenario v1",
            "[nodes]",
            "0 macro 0.0 0.0",
            "1 pico 300.0 0.0",
            "2 user 20.0 0.0 19.0",    # users cannot carry power
            "3 blimp 10.0 0.0",        # bad kind
            "[links]",
            "0 0 2",
            "2 0 2",                   # out of order
            "[backhaul]",
            "0 0",                     # duplicate entry
            "[flows]",
            "0 0 2",
            "[radio]",
            "subbands = many",         # not an integer
            "warp = 9",                # unknown key
            "[run]",
            "seed = 1",
            "seed = 2",                # duplicate key
            "mode = psychic",          # unknown mode
        ]
    )
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text, path="bad.scenario")
    messages = err.value.errors
    assert len(messages) >= 8
    assert all(m.startswith("bad.scenario:") for m in messages)
    joined = "\n".join(messages)
    assert "cannot carry a transmit power" in joined
    assert "unknown node kind 'blimp'" in joined
    assert "link id 2 out of order" in joined
    assert "duplicate backhaul entry 0" in joined
    assert "'subbands' must be an integer" in joined
    assert "unknown [radio] key 'warp'" in joined
    assert "duplicate [run] key 'seed'" in joined
    assert "mode must be one of proposed, fbc, fddsa, ttrsc" in joined
    # each message carries its source line number
    assert any(m.startswith("bad.scenario:6:") and "blimp" in m for m in messages)


def test_header_and_section_structure_errors():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("", path="x")
    assert "empty scenario" in err.value.errors[0]

    with pytest.raises(ScenarioError) as err:
        parse_scenario("hetnet-topology v9\n[nodes]\n")
    assert "expected header" in err.value.errors[0]

    no_flows = BASE.replace("[flows]\n0 0 2\n1 1 3\n\n", "")
    with pytest.raises(ScenarioError) as err:
        parse_scenario(no_flows)
    assert "missing required section [flows]" in "\n".join(err.value.errors)

    stray = BASE.replace("[nodes]", "stray = 1\n[nodes]")
    with pytest.raises(ScenarioError) as err:
        parse_scenario(stray)
    assert "line outside any recognized section" in "\n".join(err.value.errors)

    with pytest.raises(ScenarioError) as err:
        parse_scenario(BASE + "\n[radio]\nsubbands = 4\n")
    assert "duplicate section [radio]" in "\n".join(err.value.errors)

    with pytest.raises(ScenarioError) as err:
        parse_scenario(BASE + "\n[chromatics]\nhue = 3\n")
    assert "unknown section [chromatics]" in "\n".join(err.value.errors)


def test_wired_capacity_converts_bits_to_nats():
    text = BASE.replace("[links]\n0 0 2\n1 1 3", "[links]\n0 0 2\n1 1 3\n2 0 1 wired 2.0")
    s = parse_scenario(text)
    wire = s.graph.links[2]
    assert wire.is_wired
    assert wire.wired_capacity == pytest.approx(2.0 * math.log(2.0))
    assert NATS_PER_BIT == pytest.approx(math.log(2.0))

    bad = BASE.replace("0 0 2\n1 1 3\n\n[backhaul]", "0 0 2\n1 1 3\n2 0 1 wired -1.0\n\n[backhaul]", 1)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(bad)
    assert "wired capacity must be positive" in "\n".join(err.value.errors)


def test_one_bad_record_gives_one_error():
    # A record whose id is in order counts toward the next id, so the records
    # after it are not also reported out of order.
    for old, new, message in [
        ("0 0 2\n", "0 0 2 wired -inf\n", "10: link 0 wired capacity must be a finite number, got '-inf'"),
        ("0 0 2\n", "0 0 2 wired 0\n", "10: link 0 wired capacity must be positive, got 0.0"),
        ("1 pico 300.0 0.0", "1 pico far 0.0", "5: node 1 position must be two finite numbers, got 'far 0.0'"),
        ("1 pico 300.0 0.0", "1 pico nan 0.0", "5: node 1 position must be two finite numbers, got 'nan 0.0'"),
        ("1 pico 300.0 0.0", "1 pico 300.0 0.0 loud", "5: node 1 power must be a finite number, got 'loud'"),
        ("1 pico 300.0 0.0", "1 pico 300.0", "5: [nodes] record needs 'id kind x y [power_dbm]', got '1 pico 300.0'"),
    ]:
        with pytest.raises(ScenarioError) as err:
            parse_scenario(BASE.replace(old, new, 1), path="one.scenario")
        assert err.value.errors == [f"one.scenario:{message}"]


def test_per_node_power_override():
    text = BASE.replace("1 pico 300.0 0.0", "1 pico 300.0 0.0 21.5")
    s = parse_scenario(text)
    assert s.power_overrides == {1: 21.5}
    model = s.channel_model()
    # the override applies to the pico's outgoing link, not the macro's
    assert model.tx_powers[1] == pytest.approx(10 ** ((21.5 + 100.0) / 10.0))
    assert model.tx_powers[0] == pytest.approx(10 ** ((40.0 + 100.0) / 10.0))


def test_pathloss_section_overrides_one_class():
    text = BASE + "\n[pathloss]\nbs_user = 3.0 -20.0 5.0\n"
    s = parse_scenario(text)
    assert s.pathloss.bs_user == LinkClassParams(3.0, -20.0, 5.0)
    defaults = Scenario(graph=s.graph).pathloss
    assert s.pathloss.macro_macro == defaults.macro_macro
    assert s.pathloss.bs_bs == defaults.bs_bs

    with pytest.raises(ScenarioError) as err:
        parse_scenario(BASE + "\n[pathloss]\nbs_user = 3.0 fast\n")
    assert "needs three numbers" in "\n".join(err.value.errors)


def test_removed_flow_tol_key_is_an_error_not_ignored():
    # No runtime code reads a flow tolerance, so the key is refused.
    with pytest.raises(ScenarioError) as err:
        parse_scenario(BASE.replace("seed = 3", "seed = 3\nflow_tol = 1e-6"))
    assert "unknown [run] key 'flow_tol'" in "\n".join(err.value.errors)


def test_topology_validation_failures_become_scenario_errors():
    # flow destined to a base station instead of a user
    text = BASE.replace("[flows]\n0 0 2\n1 1 3", "[flows]\n0 0 1\n1 1 3")
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text, path="topo.scenario")
    joined = "\n".join(err.value.errors)
    assert joined.startswith("topo.scenario:")
    assert "not a user node" in joined


def test_with_param_sweeps_and_casts():
    s = parse_scenario(BASE)
    assert with_param(s, "p_pico_dbm", 35.0).p_pico_dbm == 35.0
    # the topology is not swept, so caches keyed on the graph stay warm
    assert with_param(s, "p_pico_dbm", 35.0).graph is s.graph
    assert with_param(s, "seed", 9.0).seed == 9
    assert with_param(s, "seed", 2**60 + 1).seed == 2**60 + 1  # an int keeps every digit
    assert with_param(s, "subbands", 6.0).subbands == 6
    swept = with_param(s, "subframes_per_superframe", 100.0)
    assert swept.rrm.subframes_per_superframe == 100
    assert with_param(s, "max_superframes", 7).rrm.max_superframes == 7
    assert "alpha" not in SWEEPABLE_PARAMS
    with pytest.raises(ScenarioError):
        with_param(s, "alpha", 2.0)


def test_non_finite_numbers_are_rejected():
    text = BASE.replace("deterministic = true", "deterministic = true\np_pico_dbm = nan\nnoise_dbm = -inf")
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text, path="nan.scenario")
    messages = err.value.errors
    assert any(m.startswith("nan.scenario:") and "'p_pico_dbm' must be a finite number" in m for m in messages)
    assert any("'noise_dbm' must be a finite number, got '-inf'" in m for m in messages)

    pathloss = {"bs_user": "nan -16 4", "bs_bs": "1.9 inf 4", "macro_macro": "1.9 -16 -inf"}
    text = BASE + "\n[pathloss]\n" + "".join(f"{k} = {v}\n" for k, v in pathloss.items())
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text, path="nan.scenario")
    lines = text.splitlines()
    assert sorted(err.value.errors) == sorted(
        f"nan.scenario:{lines.index(f'{k} = {v}') + 1}: '{k}' needs three finite numbers, got '{v}'"
        for k, v in pathloss.items()
    )


def test_float_ranges_hold_their_edges_and_nothing_past_them():
    radio, run = "deterministic = true", "seed = 3"
    edges = {
        radio: "p_pico_dbm = 300\nnoise_dbm = -300\nmacro_radius_m = 0\npico_radius_m = 0",
        run: "gap_converge_rel = 0",
    }
    text = BASE
    for anchor, lines in edges.items():
        text = text.replace(anchor, f"{anchor}\n{lines}")
    s = parse_scenario(text)
    assert (s.p_pico_dbm, s.noise_dbm, s.rrm.gap_converge_rel) == (300.0, -300.0, 0.0)
    assert (s.macro_radius_m, s.pico_radius_m) == (0.0, 0.0)
    assert parse_scenario(BASE.replace("1 pico 300.0 0.0", "1 pico 300.0 0.0 -300")).power_overrides == {1: -300.0}
    assert with_param(s, "p_macro_dbm", -300.0).p_macro_dbm == -300.0
    for anchor, line, message in [
        (radio, "p_macro_dbm = 300.0001", "'p_macro_dbm' must lie in [-300, 300] dBm, got '300.0001'"),
        (run, "epsilon_converge = -0.0", "'epsilon_converge' must be > 0, got '-0.0'"),
        (run, "gap_converge_rel = -1e-300", "'gap_converge_rel' must be >= 0, got '-1e-300'"),
        (radio, "macro_radius_m = -150.0", "'macro_radius_m' must be >= 0, got '-150.0'"),
        (run, "alpha = 0", "'alpha' must be > 0, got '0'"),
        (run, "utility_epsilon = 0", "'utility_epsilon' must be > 0, got '0'"),
    ]:
        text = BASE.replace(anchor, f"{anchor}\n{line}")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text, path="r.scenario")
        assert err.value.errors == [f"r.scenario:{text.splitlines().index(line) + 1}: {message}"]
    # The rules RrmConfig and UtilitySpec also check: each bad value is reported
    # at its own line, all four at once.
    bad = ["max_superframes = 0", "epsilon_converge = 0", "alpha = -1", "utility_epsilon = 0"]
    text = BASE.replace(run, "\n".join([run, *bad]))
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text, path="r.scenario")
    assert [e.split(":")[1] for e in err.value.errors] == [
        str(text.splitlines().index(line) + 1) for line in bad
    ]


def test_with_param_applies_the_parser_rules():
    s = parse_scenario(BASE)
    for name, value, message in [
        ("subbands", 2.5, "'subbands' must be an integer, got '2.5'"),
        ("seed", math.inf, "'seed' must be an integer, got 'inf'"),
        ("max_superframes", 0.0, "'max_superframes' must be >= 1, got 0"),
        ("noise_dbm", math.nan, "'noise_dbm' must be a finite number, got 'nan'"),
        ("subframes_per_superframe", 0, "'subframes_per_superframe' must be >= 1, got 0"),
    ]:
        with pytest.raises(ScenarioError) as err:
            with_param(s, name, value)
        assert err.value.errors == [f"--param {name}: {message}"]
    # No other setting bounds the superframe length: one subframe is a superframe.
    assert with_param(s, "subframes_per_superframe", 1).rrm.subframes_per_superframe == 1


def test_seed_must_fit_one_philox_key_word():
    # A larger seed would be keyed modulo 2**64: another seed's run.
    largest = 2**64 - 1
    assert parse_scenario(BASE.replace("seed = 3", f"seed = {largest}")).seed == largest
    text = BASE.replace("seed = 3", f"seed = {largest + 1}")
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text, path="r.scenario")
    message = f"'seed' must be <= {largest}, got {largest + 1}"
    assert err.value.errors == [f"r.scenario:{text.splitlines().index(f'seed = {largest + 1}') + 1}: {message}"]
    with pytest.raises(ScenarioError) as err:
        with_param(parse_scenario(BASE), "seed", 2.0**64)
    assert err.value.errors == [f"--param seed: {message}"]


def test_superframe_block_must_fit_its_budget():
    """subframes x links x subbands float64 entries past MAX_BLOCK_ENTRIES are
    refused at the later of the two keys the file sets; these values are only
    parsed, never run."""
    s = parse_scenario(BASE)  # 2 links, 200 subframes by default
    fits = MAX_BLOCK_ENTRIES // (2 * 200)
    assert with_param(s, "subbands", fits).subbands == fits
    run = "seed = 3\nsubframes_per_superframe = 200"
    for radio, run_lines, at in [
        (f"subbands = {fits + 1}", "seed = 3", f"subbands = {fits + 1}"),
        (f"subbands = {fits + 1}", run, "subframes_per_superframe = 200"),
    ]:
        text = BASE.replace("subbands = 4", radio).replace("seed = 3", run_lines)
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text, path="r.scenario")
        entries = 200 * 2 * (fits + 1)
        assert err.value.errors == [
            f"r.scenario:{text.splitlines().index(at) + 1}: a superframe block of 200 subframes x 2 links x "
            f"{fits + 1} subbands is {entries} entries, above the {MAX_BLOCK_ENTRIES} allowed"
        ]
    for name, value in [("subbands", 1e12), ("subbands", 1e30), ("subframes_per_superframe", 1e13)]:
        with pytest.raises(ScenarioError) as err:
            with_param(s, name, value)
        [error] = err.value.errors
        assert error.startswith(f"--param {name}: a superframe block of ")
        assert error.endswith(f"entries, above the {MAX_BLOCK_ENTRIES} allowed")


def test_bundled_scenarios_parse_and_describe_themselves():
    root = resources.files("hetnet_rrm").joinpath("scenarios")
    demo = parse_scenario(root.joinpath("two_hop_demo.scenario").read_text())
    assert demo.deterministic and demo.seed == 7
    assert demo.graph.num_links == 3 and demo.graph.num_flows == 2

    fig = parse_scenario(root.joinpath("fig7_like.scenario").read_text())
    assert not fig.deterministic
    assert len(fig.graph.nodes) == 21
    assert fig.graph.num_links == 18 and fig.graph.num_flows == 9
    assert fig.noise_dbm == -82.0
    # conflict-free deployment: every admissible check passes at load time
    assert not fig.graph.interference.any()


def test_load_scenario_reads_files(tmp_path):
    p = tmp_path / "case.scenario"
    p.write_text(BASE, encoding="utf-8")
    s = load_scenario(str(p))
    assert s.seed == 3
    with pytest.raises(ScenarioError) as err:
        bad = tmp_path / "bad.scenario"
        bad.write_text(BASE.replace("hetnet-scenario v1", "nope"), encoding="utf-8")
        load_scenario(str(bad))
    assert str(bad) in err.value.errors[0]


BUNDLED = [
    parse_scenario(resources.files("hetnet_rrm").joinpath(f"scenarios/{name}").read_text())
    for name in ("two_hop_demo.scenario", "fig7_like.scenario")
]


def _in_range(name: str, scenario: Scenario):
    """Values of a sweepable parameter the parser accepts in ``scenario``, as
    ``with_param`` takes them: a block length stays within the block budget."""
    row = _SETTINGS[name]
    if row.kind is int:
        low, high = row.limit
        others = {"subbands": scenario.rrm.subframes_per_superframe, "subframes_per_superframe": scenario.subbands}
        if name in others:
            high = MAX_BLOCK_ENTRIES // (others[name] * scenario.graph.num_links)
        return st.integers(low, min(high, 2**53)).map(float)
    low, high, _ = row.limit
    return st.floats(low, high)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_swept_values_survive_dump_and_parse(data):
    for base in BUNDLED:
        swept = base
        for name in SWEEPABLE_PARAMS:
            swept = with_param(swept, name, data.draw(_in_range(name, swept), label=name))
        text = dump_scenario(swept)
        again = parse_scenario(text)
        assert dump_scenario(again) == text
        assert again.rrm == swept.rrm
        assert again.graph.nodes == swept.graph.nodes
        for key in (
            "subbands", "p_macro_dbm", "p_pico_dbm", "noise_dbm", "deterministic",
            "macro_radius_m", "pico_radius_m", "pathloss", "power_overrides", "seed",
        ):
            assert getattr(again, key) == getattr(swept, key), key


def test_every_setting_survives_dump_and_parse():
    # One value per row of the table, each off its default.
    values = {
        "subbands": "5", "p_macro_dbm": "41.5", "p_pico_dbm": "30.25", "noise_dbm": "-95.5",
        "deterministic": "true", "macro_radius_m": "500.0", "pico_radius_m": "120.0",
        "macro_macro": "1.5 -21.0 2.5", "bs_bs": "1.8 -17.5 3.25", "bs_user": "2.0 -15.0 4.5",
        "seed": "12", "mode": "fddsa", "subframes_per_superframe": "80",
        "max_superframes": "9", "epsilon_converge": "2e-05", "gap_converge_rel": "0.001",
        "alpha": "2.5", "utility_epsilon": "0.01",
    }
    assert list(values) == list(_SETTINGS)
    blocks = {"radio": "", "pathloss": "", "run": ""}
    for key, value in values.items():
        blocks[_SETTINGS[key].section] += f"{key} = {value}\n"
    text = BASE.split("[radio]")[0] + "".join(f"[{name}]\n{lines}\n" for name, lines in blocks.items())
    s = parse_scenario(text)
    defaults = {
        Scenario: Scenario(graph=s.graph), RrmConfig: RrmConfig(), UtilitySpec: UtilitySpec(),
        PathlossParams: PathlossParams(),
    }
    parsed = {Scenario: s, RrmConfig: s.rrm, UtilitySpec: s.rrm.utility, PathlossParams: s.pathloss}
    for key, row in _SETTINGS.items():
        name = row.field or key
        assert getattr(parsed[row.owner], name) != getattr(defaults[row.owner], name), key

    dumped = dump_scenario(s)
    assert [line for line in dumped.splitlines() if line.split(" = ")[0] in values] == [
        f"{key} = {value}" for key, value in values.items()
    ]
    again = parse_scenario(dumped)
    assert dump_scenario(again) == dumped
    for f in dataclasses.fields(Scenario):
        if f.name != "graph":
            assert getattr(again, f.name) == getattr(s, f.name), f.name
