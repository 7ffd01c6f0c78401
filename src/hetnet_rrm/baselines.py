"""Reference schemes the adaptive scheme is compared against.

Three baselines share the proposed scheme's trace shape so sweeps can plot
them side by side:

* fixed backhaul connection (FBC): a change of network, not of scheme.
  :func:`fbc_graph` gives every pico lacking backhaul a generous wired link
  from its nearest macro (its wireless relay links stay), and the full
  adaptive scheme runs on a model built from that graph.  An upper reference,
  since relay traffic can move onto wires.
* fixed-duration dynamic spectrum allocation (FDDSA): every admissible
  pattern, the all-silent one included, is on for a fixed 1/J of the time
  (J patterns).  It runs the adaptive loop with each pattern in its own
  duration group (``RrmConfig.fixed_pattern_durations``): members are still
  discovered and pinned to their discovery weights, flow control and
  price-based weights still adapt, but no time moves between patterns.
* two-timescale rate-statistics coordination (TTRSC): the adaptive scheme but
  with subband winners chosen from statistical (fading-averaged) rates rather
  than per-subframe realizations.  Identical to the proposed scheme when the
  channel is deterministic.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .channel import ChannelModel
from .rrm import RrmConfig, RrmResult, run_to_convergence
from .topology import Link, NodeKind, TopologyGraph

FBC_CAPACITY_MARGIN = 10.0


def run_ttrsc(model: ChannelModel, config: RrmConfig) -> RrmResult:
    return run_to_convergence(model, replace(config, statistical_scheduling=True))


def run_fddsa(model: ChannelModel, config: RrmConfig) -> RrmResult:
    return run_to_convergence(model, replace(config, fixed_pattern_durations=True))


def nearest_macro(graph: TopologyGraph, pico_index: int) -> int:
    """Index of the closest macro node (lowest index wins ties).  Without a
    macro, fbc cannot wire the pico: a ``ValueError``."""
    px, py = graph.nodes[pico_index].position
    best, best_dist = -1, np.inf
    for node in graph.nodes:
        if node.kind is not NodeKind.MACRO:
            continue
        dist = float(np.hypot(node.position[0] - px, node.position[1] - py))
        if dist < best_dist - 1e-12:
            best, best_dist = node.index, dist
    if best < 0:
        raise ValueError(f"fbc cannot wire pico {pico_index}: the network has no macro node")
    return best


def augment_with_wired_backhaul(
    graph: TopologyGraph, wired_capacity: float
) -> TopologyGraph:
    """Give every pico without backhaul a wired link from its nearest macro.

    New links are appended after all existing ones so wireless channel draws
    stay aligned with the unmodified network; returns the original graph when
    every base station already has backhaul.
    """
    missing = [
        n.index
        for n in graph.nodes
        if n.kind is NodeKind.PICO and n.index not in graph.backhaul
    ]
    if not missing:
        return graph
    links = list(graph.links)
    for pico in missing:
        links.append(
            Link(
                index=len(links),
                head=nearest_macro(graph, pico),
                tail=pico,
                wired_capacity=wired_capacity,
            )
        )
    return TopologyGraph(
        nodes=graph.nodes,
        links=tuple(links),
        flows=graph.flows,
        backhaul=frozenset(graph.backhaul | set(missing)),
        interference=graph.interference,
    )


def fbc_graph(model: ChannelModel) -> TopologyGraph:
    """The network fbc runs on: ``model.graph`` with wired backhaul added.

    The wired capacity is a wide margin above the best single-link wireless
    rate, so the added backhaul never bottlenecks.  Returns ``model.graph``
    itself when nothing needs wiring.
    """
    peak = float(model.statistical_rates().sum(axis=1).max())
    return augment_with_wired_backhaul(model.graph, FBC_CAPACITY_MARGIN * max(peak, 1.0))
