"""Read a trace back for the tests; the package only writes them
(``hetnet_rrm.trace.format_trace``).  Beyond the header nothing is checked."""

from typing import NamedTuple

from hetnet_rrm.trace import TRACE_HEADER


class Row(NamedTuple):
    """One ``[iterations]`` row: a superframe, rates in bits per subframe."""

    index: int
    utility: float
    members: int
    shares: tuple[float, ...]
    flow_rates_bits: tuple[float, ...]
    served_rates_bits: tuple[float, ...]
    wall_ms: float


class Trace(NamedTuple):
    config_text: str
    meta: dict[str, str]
    summary: dict[str, str]
    iterations: list[Row]


def _vec(token: str) -> tuple[float, ...]:
    return () if token == "-" else tuple(float(part) for part in token.split(","))


def parse_trace(text: str) -> Trace:
    lines = text.splitlines()
    if lines[:1] != [TRACE_HEADER]:
        raise ValueError(f"not a trace: expected header '{TRACE_HEADER}'")
    config, meta, summary, rows, section = [], {}, {}, [], None
    for line in lines[1:]:
        if section == "config" and line.startswith(">"):
            config.append(line[2:])
        elif line.startswith("["):
            section = line[1:-1]
        elif section == "iterations" and line and not line.startswith("#"):
            i, utility, members, shares, flows, served, wall = line.split()
            rows.append(Row(int(i), float(utility), int(members), _vec(shares), _vec(flows), _vec(served), float(wall)))
        elif section in ("meta", "summary") and line:
            key, value = line.split(" = ", 1)
            (meta if section == "meta" else summary)[key] = value
    return Trace("\n".join(config), meta, summary, rows)
