"""Spans around the program's layer functions, recorded from outside.

A traced run replaces each layer function with a wrapper that records a span
(name, duration, time covered by child spans) and a few counts.  Python binds
names at import, so ``from .phy import schedule_links`` leaves a second
reference in ``rrm``; the wrapper is therefore installed at every module
attribute (and every ``cli._RUNNERS`` entry) that holds the original
function, not only in the defining module.  Spans are kept in memory per
operation and handed to the benchmark loop, which scales them by that
operation's calibration factor.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

#: (metric prefix, module, attribute).  ``Class.method`` patches the class.
TRACED = (
    ("channel.rate_block", "hetnet_rrm.channel", "ChannelModel.rate_block"),
    ("channel.pattern_draws", "hetnet_rrm.channel", "ChannelModel.pattern_draws"),
    ("phy.schedule_links", "hetnet_rrm.phy", "schedule_links"),
    ("phy.station_contributions", "hetnet_rrm.phy", "station_contributions"),
    ("phy.rate_table_for_patterns", "hetnet_rrm.phy", "rate_table_for_patterns"),
    ("phy.enumerate_feasible_patterns", "hetnet_rrm.phy", "enumerate_feasible_patterns"),
    ("netopt.solve_p1", "hetnet_rrm.netopt", "solve_p1"),
    ("netopt.optimize_time_sharing", "hetnet_rrm.netopt", "optimize_time_sharing"),
    ("rrm.run_superframe", "hetnet_rrm.rrm", "run_superframe"),
    ("rrm.certificate", "hetnet_rrm.rrm", "certificate"),
    ("rrm.run_to_convergence", "hetnet_rrm.rrm", "run_to_convergence"),
    ("baselines.run_fddsa", "hetnet_rrm.baselines", "run_fddsa"),
    ("oracle.vertex_rate_rows", "hetnet_rrm.oracle", "vertex_rate_rows"),
    ("scenario.parse_scenario", "hetnet_rrm.scenario", "parse_scenario"),
    ("scenario.with_param", "hetnet_rrm.scenario", "with_param"),
    ("trace.format_trace", "hetnet_rrm.trace", "format_trace"),
)


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)


class Tracer:
    """Collects spans while ``enabled``; wrappers cost one flag test when not."""

    def __init__(self) -> None:
        self.enabled = False
        self.clock: Callable[[], float] = time.perf_counter
        self._stack: list[list] = []
        self.layers: dict[str, LayerStats] = defaultdict(LayerStats)
        self.counts: dict[str, int] = defaultdict(int)
        self.sites: dict[str, int] = {}

    def take(self) -> tuple[dict[str, LayerStats], dict[str, int]]:
        """Return and reset what was recorded since the last call."""
        layers, counts = self.layers, self.counts
        self.layers, self.counts = defaultdict(LayerStats), defaultdict(int)
        return layers, counts

    def _count(self, name: str, args: tuple, result) -> None:
        counts = self.counts
        if name == "channel.rate_block":
            counts["channel.rate_block.subframes"] += int(args[2])
        elif name == "netopt.solve_p1":
            if any(frame[0] == "netopt.optimize_time_sharing" for frame in self._stack):
                counts["netopt.optimize_time_sharing.inner_solves"] += 1
        elif name in ("rrm.run_to_convergence", "baselines.run_fddsa"):
            # run_fbc and run_ttrsc reach run_to_convergence, so this sees
            # every scheme's superframes exactly once.
            counts["rrm.superframes"] += len(result.records)
        elif name == "oracle.vertex_rate_rows":
            counts["oracle.vertices"] += int(result.shape[0])
        elif name == "trace.format_trace":
            counts["trace.bytes"] += len(result.encode("utf-8"))

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            self._stack.append(frame)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.clock() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += span
                stats = self.layers[name]
                stats.calls += 1
                stats.self_s += span - frame[1]
                stats.durations.append(span)
            self._count(name, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function at every place the package binds it."""
        import hetnet_rrm.cli  # loads every module that binds a traced name

        package = [m for n, m in sys.modules.items() if n == "hetnet_rrm" or n.startswith("hetnet_rrm.")]
        for name, module_name, attr in TRACED:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(name, getattr(cls, method)))
                self.sites[name] = 1
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            sites = 0
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        sites += 1
            runners = hetnet_rrm.cli._RUNNERS
            for key, value in list(runners.items()):
                if value is original:
                    runners[key] = wrapper
                    sites += 1
            self.sites[name] = sites
