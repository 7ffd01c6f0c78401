"""Scenario files: the on-disk description of one experiment.

A scenario is a line-oriented text file (header ``hetnet-scenario v1``) with
bracketed sections.  Record sections list one item per line in index order;
setting sections hold ``key = value`` pairs.  Unknown sections and keys are
rejected so typos fail loudly, and every parse or validation problem is
reported with its file line.  On the wire, powers are in dBm, positions in
meters, and wired capacities in bits per subframe; rates are converted to
nats internally.

Sections: ``[nodes]`` (``id kind x y [power_dbm]``), ``[links]``
(``id head tail [wired <bits>]``), ``[backhaul]`` (node ids), ``[flows]``
(``id source destination``), ``[radio]``, ``[pathloss]`` (optional, one
``exponent ref_gain_db shadow_sigma_db`` triple per link class) and ``[run]``.

Each ``[radio]``, ``[pathloss]`` and ``[run]`` key is declared once, in
:data:`_SETTINGS`, which the parser, :func:`dump_scenario` and
:func:`with_param` all read.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields, replace
from typing import NamedTuple

from .channel import ChannelModel, LinkClassParams, PathlossParams
from .netopt import UtilitySpec
from .phy import MAX_PATTERN_BS
from .rrm import RrmConfig
from .topology import (
    Flow,
    Link,
    Node,
    NodeKind,
    TopologyGraph,
    interference_from_positions,
    validate,
)

SCENARIO_HEADER = "hetnet-scenario v1"
NATS_PER_BIT = math.log(2.0)

#: The sections of ``key = value`` settings, in the order they are dumped.
_SETTING_SECTIONS = ("radio", "pathloss", "run")
_SECTIONS = ("nodes", "links", "backhaul", "flows", *_SETTING_SECTIONS)
_REQUIRED_SECTIONS = ("nodes", "links", "backhaul", "flows", "radio", "run")

#: Every scheme a scenario's ``mode`` or the command line may name.
MODES = ("proposed", "fbc", "fddsa", "ttrsc")

#: Parameters the sweep command may vary without editing the file.
SWEEPABLE_PARAMS = (
    "p_macro_dbm", "p_pico_dbm", "noise_dbm", "seed", "subbands", "subframes_per_superframe", "max_superframes"
)


class ScenarioError(ValueError):
    """One or more parse or validation problems; ``errors`` lists them all."""

    def __init__(self, errors: list[str]):
        super().__init__("\n".join(errors))
        self.errors = list(errors)


@dataclass(frozen=True)
class Scenario:
    """Fully validated experiment description.

    ``power_overrides`` maps node index to an explicit transmit power for
    nodes whose record carried one; everything else uses the class-wide
    ``p_macro_dbm`` / ``p_pico_dbm`` values (which is what the power sweep
    varies).
    """

    graph: TopologyGraph
    power_overrides: dict[int, float] = field(default_factory=dict)
    subbands: int = 10
    p_macro_dbm: float = 40.0
    p_pico_dbm: float = 33.0
    noise_dbm: float = -100.0
    deterministic: bool = False
    macro_radius_m: float = 420.0
    pico_radius_m: float = 260.0
    pathloss: PathlossParams = field(default_factory=PathlossParams)
    seed: int = 0
    mode: str = "proposed"
    rrm: RrmConfig = field(default_factory=RrmConfig)

    def channel_model(self, seed: int | None = None) -> ChannelModel:
        return ChannelModel(
            self.graph,
            num_subbands=self.subbands,
            p_macro_dbm=self.p_macro_dbm,
            p_pico_dbm=self.p_pico_dbm,
            seed=self.seed if seed is None else seed,
            deterministic=self.deterministic,
            pathloss=self.pathloss,
            noise_dbm=self.noise_dbm,
            power_overrides=self.power_overrides,
        )


# Closed ranges ``(low, high, need)`` of float values.  Within +-300 dBm every
# power and power ratio is finite and nonzero.
_DBM = (-300.0, 300.0, "lie in [-300, 300] dBm")
_POSITIVE = (math.ulp(0.0), math.inf, "be > 0")  # the least float above zero
_NON_NEGATIVE = (0.0, math.inf, "be >= 0")
# A [pathloss] triple's exponent, ref_gain_db and shadow_sigma_db.  With the
# powers in range these keep every received power finite (README).
_PATHLOSS = (_NON_NEGATIVE, (-300.0, 300.0, "lie in [-300, 300] dB"), (0.0, 50.0, "lie in [0, 50] dB"))
MAX_BLOCK_ENTRIES = 2**24  # float64 subframes x links x subbands of a superframe block, 128 MiB


class _Setting(NamedTuple):
    """One ``[radio]``, ``[pathloss]`` or ``[run]`` key.  Its value sets
    field ``field`` (the key when empty) of ``owner``; a file that leaves the
    key out keeps the field's dataclass default.  ``limit`` is an ``int``'s
    closed range, a ``float``'s range, a ``LinkClassParams``' three ranges or
    the words a ``bool`` or ``str`` allows."""

    key: str
    section: str
    owner: type
    kind: type
    limit: object
    field: str = ""


#: Every setting: the one place a key is declared, in the order
#: :func:`dump_scenario` writes them.
_SETTINGS = {
    row.key: row
    for row in (
        _Setting("subbands", "radio", Scenario, int, (1, math.inf)),
        _Setting("p_macro_dbm", "radio", Scenario, float, _DBM),
        _Setting("p_pico_dbm", "radio", Scenario, float, _DBM),
        _Setting("noise_dbm", "radio", Scenario, float, _DBM),
        _Setting("deterministic", "radio", Scenario, bool, ("true", "false")),
        _Setting("macro_radius_m", "radio", Scenario, float, _NON_NEGATIVE),
        _Setting("pico_radius_m", "radio", Scenario, float, _NON_NEGATIVE),
        _Setting("macro_macro", "pathloss", PathlossParams, LinkClassParams, _PATHLOSS),
        _Setting("bs_bs", "pathloss", PathlossParams, LinkClassParams, _PATHLOSS),
        _Setting("bs_user", "pathloss", PathlossParams, LinkClassParams, _PATHLOSS),
        _Setting("seed", "run", Scenario, int, (0, 2**64 - 1)),  # one Philox key word
        _Setting("mode", "run", Scenario, str, MODES),
        _Setting("subframes_per_superframe", "run", RrmConfig, int, (1, math.inf)),
        _Setting("max_superframes", "run", RrmConfig, int, (1, math.inf)),
        _Setting("epsilon_converge", "run", RrmConfig, float, _POSITIVE),
        _Setting("gap_converge_rel", "run", RrmConfig, float, _NON_NEGATIVE),
        _Setting("alpha", "run", UtilitySpec, float, _POSITIVE),
        _Setting("utility_epsilon", "run", UtilitySpec, float, _POSITIVE, "epsilon"),
    )
}


class _Cursor:
    """Line stream with error accumulation tagged by source line."""

    def __init__(self, path: str, text: str):
        self.path = path
        self.errors: list[str] = []
        self.lines: list[tuple[int, str]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0].strip()
            if body:
                self.lines.append((lineno, body))

    def error(self, lineno: int, message: str) -> None:
        self.errors.append(f"{self.path}:{lineno}: {message}")


def _parse_sections(cur: _Cursor) -> dict[str, list[tuple[int, str]]]:
    if not cur.lines:
        cur.error(
            0,
            "empty scenario: expected header '%s' and sections %s"
            % (SCENARIO_HEADER, ", ".join(f"[{s}]" for s in _REQUIRED_SECTIONS)),
        )
        return {}
    lineno, head = cur.lines[0]
    if head != SCENARIO_HEADER:
        cur.error(lineno, f"expected header '{SCENARIO_HEADER}', got '{head}'")
        return {}

    sections: dict[str, list[tuple[int, str]]] = {}
    current: list[tuple[int, str]] | None = None
    for lineno, body in cur.lines[1:]:
        if body.startswith("[") and body.endswith("]"):
            name = body[1:-1].strip()
            if name not in _SECTIONS:
                cur.error(lineno, f"unknown section [{name}]")
                current = None
            elif name in sections:
                cur.error(lineno, f"duplicate section [{name}]")
                current = None
            else:
                current = sections.setdefault(name, [])
        elif current is None:
            cur.error(lineno, f"line outside any recognized section: '{body}'")
        else:
            current.append((lineno, body))

    for name in _REQUIRED_SECTIONS:
        if name not in sections:
            cur.error(0, f"missing required section [{name}]")
    return sections


def _parse_settings(
    cur: _Cursor, records: list[tuple[int, str]], section: str, keys: tuple[str, ...]
) -> dict[str, tuple[int, str]]:
    out: dict[str, tuple[int, str]] = {}
    for lineno, body in records:
        if "=" not in body:
            cur.error(lineno, f"[{section}] expects 'key = value', got '{body}'")
            continue
        key, value = (part.strip() for part in body.split("=", 1))
        if key not in keys:
            cur.error(lineno, f"unknown [{section}] key '{key}'")
        elif key in out:
            cur.error(lineno, f"duplicate [{section}] key '{key}'")
        else:
            out[key] = (lineno, value)
    return out


def _finite(cur: _Cursor, lineno: int, tokens: list[str], need: str) -> list[float] | None:
    """The rule for every number a scenario holds: each token must parse as a
    finite float.  Otherwise ``need`` is recorded at ``lineno`` with the
    offending text and None returned."""
    try:
        values = [float(token) for token in tokens]
    except ValueError:
        values = [math.nan]
    if all(map(math.isfinite, values)):
        return values
    cur.error(lineno, f"{need}, got '{' '.join(tokens)}'")
    return None


def _bounded(cur: _Cursor, lineno: int, raw: str, limit: tuple, name: str) -> float | None:
    """One number under the finite-number rule and the closed range
    ``limit``, or None after an error that calls it ``name``."""
    value = _finite(cur, lineno, [raw], f"{name} must be a finite number")
    if value is None:
        return None
    low, high, need = limit
    if low <= value[0] <= high:
        return value[0]
    cur.error(lineno, f"{name} must {need}, got '{raw}'")
    return None


def _setting(cur: _Cursor, key: str, lineno: int, raw: str):
    """``raw`` read under ``key``'s rule in :data:`_SETTINGS`, or None after
    an error at ``lineno``."""
    row = _SETTINGS[key]
    if row.kind is float:
        return _bounded(cur, lineno, raw, row.limit, f"'{key}'")
    if row.kind is LinkClassParams:
        parts = raw.split()
        if len(parts) == 3:
            if _finite(cur, lineno, parts, f"'{key}' needs three finite numbers") is None:
                return None
            values = [
                _bounded(cur, lineno, part, limit, f"'{key}' {f.name}")
                for part, limit, f in zip(parts, row.limit, fields(LinkClassParams))
            ]
            return None if None in values else LinkClassParams(*values)
        cur.error(lineno, f"'{key}' needs three numbers 'exponent ref_gain_db shadow_sigma_db', got '{raw}'")
        return None
    if row.kind is int:
        try:
            value = int(raw)
        except ValueError:
            cur.error(lineno, f"'{key}' must be an integer, got '{raw}'")
            return None
        low, high = row.limit
        if low <= value <= high:
            return value
        cur.error(lineno, f"'{key}' must be {f'>= {low}' if value < low else f'<= {high}'}, got {value}")
    elif raw in row.limit:
        return raw == "true" if row.kind is bool else raw
    else:
        cur.error(lineno, f"{key} must be one of {', '.join(row.limit)}, got '{raw}'")
    return None


def _numbered(cur: _Cursor, records: list[tuple[int, str]], section: str, item: str):
    """Yield ``(lineno, body, id, fields)`` for each record whose leading id
    is the next in order; report the others.  An in-order id counts whatever
    the rest of its record holds, so one bad record gives one error."""
    expected = 0
    for lineno, body in records:
        parts = body.split()
        try:
            idx = int(parts[0])
        except ValueError:
            cur.error(lineno, f"[{section}] record has a non-integer id: '{body}'")
            continue
        if idx != expected:
            cur.error(lineno, f"{item} id {idx} out of order; expected {expected}")
            continue
        expected += 1
        yield lineno, body, idx, parts


def _parse_nodes(
    cur: _Cursor, records: list[tuple[int, str]]
) -> tuple[list[Node], dict[int, float]]:
    nodes: list[Node] = []
    overrides: dict[int, float] = {}
    kinds = {k.value: k for k in NodeKind}
    num_bs = 0
    for lineno, body, idx, parts in _numbered(cur, records, "nodes", "node"):
        if len(parts) not in (4, 5):
            cur.error(lineno, f"[nodes] record needs 'id kind x y [power_dbm]', got '{body}'")
            continue
        if parts[1] not in kinds:
            cur.error(lineno, f"unknown node kind '{parts[1]}' (macro, pico or user)")
            continue
        kind = kinds[parts[1]]
        position = _finite(cur, lineno, parts[2:4], f"node {idx} position must be two finite numbers")
        if position is None:
            continue
        if len(parts) == 5:
            if kind is NodeKind.USER:
                cur.error(lineno, f"user node {idx} cannot carry a transmit power")
                continue
            power = _bounded(cur, lineno, parts[4], _DBM, f"node {idx} power")
            if power is None:
                continue
            overrides[idx] = power
        nodes.append(Node(index=idx, kind=kind, position=tuple(position)))
        if kind.is_base_station:
            num_bs += 1
            if num_bs == MAX_PATTERN_BS + 1:
                cur.error(
                    lineno,
                    f"node {idx} is base station number {num_bs}; at most "
                    f"{MAX_PATTERN_BS} base stations are supported",
                )
    return nodes, overrides


def _parse_links(cur: _Cursor, records: list[tuple[int, str]]) -> list[Link]:
    links: list[Link] = []
    for lineno, body, idx, parts in _numbered(cur, records, "links", "link"):
        if len(parts) not in (3, 5) or (len(parts) == 5 and parts[3] != "wired"):
            cur.error(lineno, f"[links] record needs 'id head tail [wired <bits>]', got '{body}'")
            continue
        try:
            head, tail = int(parts[1]), int(parts[2])
        except ValueError:
            cur.error(lineno, f"[links] record has non-integer ids: '{body}'")
            continue
        capacity = None
        if len(parts) == 5:
            bits = _finite(cur, lineno, parts[4:], f"link {idx} wired capacity must be a finite number")
            if bits is None:
                continue
            if bits[0] <= 0:
                cur.error(lineno, f"link {idx} wired capacity must be positive, got {bits[0]}")
                continue
            capacity = bits[0] * NATS_PER_BIT
        links.append(Link(index=idx, head=head, tail=tail, wired_capacity=capacity))
    return links


def _parse_backhaul(cur: _Cursor, records: list[tuple[int, str]]) -> set[int]:
    out: set[int] = set()
    for lineno, body in records:
        for token in body.split():
            try:
                node = int(token)
            except ValueError:
                cur.error(lineno, f"[backhaul] entries must be node ids, got '{token}'")
                continue
            if node in out:
                cur.error(lineno, f"duplicate backhaul entry {node}")
            out.add(node)
    return out


def _parse_flows(cur: _Cursor, records: list[tuple[int, str]]) -> list[Flow]:
    flows: list[Flow] = []
    for lineno, body, idx, parts in _numbered(cur, records, "flows", "flow"):
        if len(parts) != 3:
            cur.error(lineno, f"[flows] record needs 'id source destination', got '{body}'")
            continue
        try:
            src, dst = int(parts[1]), int(parts[2])
        except ValueError:
            cur.error(lineno, f"[flows] record has non-integer ids: '{body}'")
            continue
        flows.append(Flow(index=idx, source=src, destination=dst))
    return flows


def parse_scenario(text: str, path: str = "<scenario>") -> Scenario:
    """Parse and validate scenario text; raises :class:`ScenarioError` listing
    every problem found (never just the first one)."""
    cur = _Cursor(path, text)
    sections = _parse_sections(cur)
    if cur.errors:
        raise ScenarioError(cur.errors)

    nodes, overrides = _parse_nodes(cur, sections["nodes"])
    links = _parse_links(cur, sections["links"])
    backhaul = _parse_backhaul(cur, sections["backhaul"])
    flows = _parse_flows(cur, sections["flows"])

    given: dict[str, tuple[int, str]] = {}
    for section in _SETTING_SECTIONS:
        keys = tuple(key for key, row in _SETTINGS.items() if row.section == section)
        given.update(_parse_settings(cur, sections.get(section, []), section, keys))
    kwargs: dict = {row.owner: {} for row in _SETTINGS.values()}
    for key, (lineno, raw) in given.items():
        row, value = _SETTINGS[key], _setting(cur, key, lineno, raw)
        if value is not None:
            kwargs[row.owner][row.field or key] = value
    # Only values that met their rule reach the constructors, and the table's
    # rules are at least as strict as their checks, so none of them raises.
    # The graph follows once the topology is validated.
    rrm = RrmConfig(utility=UtilitySpec(**kwargs[UtilitySpec]), **kwargs[RrmConfig])
    pathloss = PathlossParams(**kwargs[PathlossParams])
    scenario = Scenario(graph=None, power_overrides=overrides, pathloss=pathloss, rrm=rrm, **kwargs[Scenario])
    shape = (rrm.subframes_per_superframe, len(links), scenario.subbands)
    if math.prod(shape) > MAX_BLOCK_ENTRIES:  # at the later of the two keys the file sets
        lineno = max((given[k][0] for k in ("subbands", "subframes_per_superframe") if k in given), default=0)
        cur.error(lineno, "a superframe block of %d subframes x %d links x %d subbands is %d entries, above the "
                  "%d allowed" % (*shape, math.prod(shape), MAX_BLOCK_ENTRIES))
    if cur.errors:
        raise ScenarioError(cur.errors)

    interference = interference_from_positions(tuple(nodes), scenario.macro_radius_m, scenario.pico_radius_m)
    graph = TopologyGraph(
        nodes=tuple(nodes),
        links=tuple(links),
        flows=tuple(flows),
        backhaul=frozenset(backhaul),
        interference=interference,
    )
    problems = validate(graph)
    if problems:
        raise ScenarioError([f"{path}: {p}" for p in problems])
    return replace(scenario, graph=graph)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ScenarioError([f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"]) from None
    return parse_scenario(text, path=str(path))


def _fmt(value: float) -> str:
    return repr(float(value))


def _dump_settings(scenario: Scenario, section: str) -> list[str]:
    """The ``[section]`` block of :func:`dump_scenario` in table order, a
    bool written ``true`` or ``false`` and a link class as its three numbers."""
    rrm = scenario.rrm
    owners = {Scenario: scenario, RrmConfig: rrm, UtilitySpec: rrm.utility, PathlossParams: scenario.pathloss}
    out = ["", f"[{section}]"]
    for key, row in _SETTINGS.items():
        if row.section != section:
            continue
        value = getattr(owners[row.owner], row.field or key)
        if row.kind is LinkClassParams:
            value = " ".join(map(_fmt, astuple(value)))
        out.append(f"{key} = {_fmt(value) if row.kind is float else str(value).lower()}")
    return out


def dump_scenario(scenario: Scenario) -> str:
    """Canonical text form; ``parse_scenario(dump_scenario(s))`` reproduces
    ``s`` exactly, which is what makes the trace's config echo re-runnable."""
    graph = scenario.graph
    out = [SCENARIO_HEADER, "", "[nodes]"]
    for node in graph.nodes:
        line = f"{node.index} {node.kind.value} {_fmt(node.position[0])} {_fmt(node.position[1])}"
        if node.index in scenario.power_overrides:
            line += f" {_fmt(scenario.power_overrides[node.index])}"
        out.append(line)
    out += ["", "[links]"]
    for link in graph.links:
        line = f"{link.index} {link.head} {link.tail}"
        if link.is_wired:
            line += f" wired {_fmt(link.wired_capacity / NATS_PER_BIT)}"
        out.append(line)
    out += ["", "[backhaul]"]
    if graph.backhaul:
        out.append(" ".join(str(n) for n in sorted(graph.backhaul)))
    out += ["", "[flows]"]
    for flow in graph.flows:
        out.append(f"{flow.index} {flow.source} {flow.destination}")
    for section in _SETTING_SECTIONS:
        out += _dump_settings(scenario, section)
    return "\n".join(out + [""])


def sweep_value(name: str, text: str) -> int | float:
    """One ``sweep --values`` entry for parameter ``name``: an integral value
    of an integer setting as an exact ``int`` (``9007199254740993`` keeps
    every digit, ``9.0`` is 9), anything else as a float.  Text that is not
    a number raises ValueError."""
    if name in _SETTINGS and _SETTINGS[name].kind is int:
        try:
            return int(text)
        except ValueError:
            value = float(text)
            return int(value) if value.is_integer() else value
    return float(text)


def with_param(scenario: Scenario, name: str, value: float, flag: str | None = None) -> Scenario:
    """Return a copy with one swept parameter replaced.

    Only :data:`SWEEPABLE_PARAMS` are accepted; anything else needs a real
    edit to the scenario file so sweeps stay reviewable.  The value replaces
    its line in :func:`dump_scenario`'s text, which :func:`parse_scenario`
    then reads, so a swept value obeys exactly the parser's rules.  An
    integral value of an integer setting is written as an integer: a seed of
    ``9.0`` is 9, and an ``int`` keeps every digit.  Errors keep the parser's
    wording, prefixed with the command-line ``flag`` that set the value
    (``--param <name>`` by default) and a colon.
    """
    if name not in SWEEPABLE_PARAMS:
        raise ScenarioError(
            [f"parameter '{name}' is not sweepable (choose from {', '.join(SWEEPABLE_PARAMS)})"]
        )
    integral = isinstance(value, int) or float(value).is_integer()
    raw = str(int(value)) if _SETTINGS[name].kind is int and integral else repr(float(value))
    prefix = f"{name} = "
    lines = [
        prefix + raw if line.startswith(prefix) else line
        for line in dump_scenario(scenario).split("\n")
    ]
    try:
        swept = parse_scenario("\n".join(lines))
    except ScenarioError as exc:
        # Drop the "<scenario>:<line>:" location of text the user never saw.
        flag = flag or f"--param {name}"
        raise ScenarioError([f"{flag}: {error.split(': ', 1)[1]}" for error in exc.errors]) from None
    # No sweepable parameter touches the topology; keeping the graph object
    # keeps the caches keyed on it (the flow solver's path sets) warm.
    return replace(swept, graph=scenario.graph)
