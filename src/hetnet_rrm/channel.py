"""Two-scale fading channel with counter-based, coordinate-keyed randomness.

Every random draw is a pure function of ``(seed, stream, subframe, link,
subband)``: we key a Philox counter-based generator on the seed and stream id
and place the subframe index in a high counter word, so identical coordinates
reproduce identical values on any machine and in any call order.

The per-link gain factors as ``h = h_small * h_large``.  The large-scale part
is a log-distance law with optional lognormal shadowing and is fixed for a
scenario realization; the small-scale part is unit-mean Rayleigh block fading,
redrawn independently per subframe and subband (``|h_small|^2`` exponential
with mean 1).  In deterministic mode ``h_small`` is pinned to 1.

Because the draws are pure in their coordinates, the two keyed draws are
module-level functions memoized per block: :func:`fading_draws` (the
small-scale ``|h_small|^2`` of a block, held subframe-contiguous as
(L_wireless, M, S)) and :func:`pattern_uniforms` (its pattern-sampling
uniforms).  Every model with the same seed, wireless link count and subband
count shares them, so a sweep over powers, noise or the superframe budget
(and fbc's augmented graph, which keeps the wireless links) draws each block
once per process.  Entries are kept in one least-recently-used store of at
most :data:`DRAW_MEMO_BYTES`; a block larger than that is returned uncached.
Stored arrays are read-only, and :meth:`ChannelModel.draw_block` scales them
into a fresh (L, M, S) buffer, which :meth:`ChannelModel.rate_block`
finishes in place, so no caller can write into the store.  Both return
their buffer's (S, L, M) view: the block kernel reads it subframe-contiguous
without a copy.

Note on conventions: the configured path-loss ``exponent`` applies to the
amplitude-like ``h_large`` directly (received power therefore decays at twice
that exponent), and ``ref_gain_db`` is the power gain at 1 m, already
normalized so the receiver noise power is 1.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .topology import NodeKind, TopologyGraph

# Stream ids keep independent random purposes on disjoint Philox keys.
STREAM_FADING = 1
STREAM_SHADOWING = 2
STREAM_PATTERN = 3

_MIN_DISTANCE_M = 1.0

#: Byte budget of the draw memo; ``fig7_like``'s 13 fading blocks take 3.7 MB.
DRAW_MEMO_BYTES = 16 * 2**20


@dataclass(frozen=True)
class LinkClassParams:
    """Log-distance parameters for one link class."""

    exponent: float
    ref_gain_db: float
    shadow_sigma_db: float


@dataclass(frozen=True)
class PathlossParams:
    macro_macro: LinkClassParams = LinkClassParams(1.6, -20.0, 2.0)
    bs_bs: LinkClassParams = LinkClassParams(1.75, -18.0, 3.0)
    bs_user: LinkClassParams = LinkClassParams(1.9, -16.0, 4.0)

    def for_link(self, graph: TopologyGraph, link_index: int) -> LinkClassParams:
        link = graph.links[link_index]
        head, tail = graph.nodes[link.head], graph.nodes[link.tail]
        if tail.kind is NodeKind.USER:
            return self.bs_user
        if head.kind is NodeKind.MACRO and tail.kind is NodeKind.MACRO:
            return self.macro_macro
        return self.bs_bs


def _philox_key(seed: int, stream: int) -> np.ndarray:
    """A seed outside ``[0, 2**64)`` raises ``ValueError``; it never wraps
    onto another seed."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return np.array([seed, stream], dtype=np.uint64)


def keyed_generator(seed: int, stream: int, t: int = 0) -> Generator:
    """Philox generator whose output depends only on (seed, stream, t)."""
    counter = np.array([0, 0, t, 0], dtype=np.uint64)
    return Generator(Philox(key=_philox_key(seed, stream), counter=counter))


class _KeyedStream:
    """One reusable generator for a (seed, stream) pair.

    ``at(t)`` resets its Philox to exactly the state ``keyed_generator(seed,
    stream, t)`` starts in: the same key, counter ``[0, 0, t, 0]``, and an
    empty output buffer with no cached 32-bit half.  The state dict is built
    once and holds plain Python ints, because numpy's state setter reads it
    entry by entry and every read from a numpy array would make a scalar;
    ``at`` only writes ``t`` into counter word 2 and assigns the same dict.
    A ``t`` outside ``[0, 2**64)`` raises ``OverflowError``; it never wraps.
    """

    def __init__(self, seed: int, stream: int):
        key = _philox_key(seed, stream)
        self._bits = Philox(key=key)
        self._generator = Generator(self._bits)
        self._counter = [0, 0, 0, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter, "key": tuple(int(k) for k in key)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def at(self, t: int) -> Generator:
        self._counter[2] = t
        self._bits.state = self._state
        return self._generator


class _DrawMemo:
    """Least-recently-used store of read-only draws, at most
    :data:`DRAW_MEMO_BYTES` in all (read at every store)."""

    def __init__(self):
        self.entries: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self.nbytes = 0

    def get(self, key: tuple, draw: Callable[[], np.ndarray]) -> np.ndarray:
        value = self.entries.get(key)
        if value is not None:
            self.entries.move_to_end(key)
            return value
        value = draw()
        value.flags.writeable = False
        if value.nbytes <= DRAW_MEMO_BYTES:
            self.entries[key] = value
            self.nbytes += value.nbytes
            while self.nbytes > DRAW_MEMO_BYTES:
                self.nbytes -= self.entries.popitem(last=False)[1].nbytes
        return value


_memo = _DrawMemo()


def fading_draws(
    seed: int, n_wireless: int, n_subbands: int, t_start: int, n_subframes: int
) -> np.ndarray:
    """Small-scale ``|h_small|^2`` of subframes ``t_start .. t_start + n - 1``
    on the wireless links: (L_wireless, M, S), subframe-contiguous,
    read-only and memoized.  A subframe outside ``[0, 2**64)`` raises
    ``OverflowError``."""

    def draw() -> np.ndarray:
        stream = _KeyedStream(seed, STREAM_FADING)
        small = np.empty((n_subframes, n_wireless, n_subbands))
        for s in range(n_subframes):
            stream.at(t_start + s).standard_exponential(out=small[s])
        return np.ascontiguousarray(small.transpose(1, 2, 0))

    return _memo.get((STREAM_FADING, seed, n_wireless, n_subbands, t_start, n_subframes), draw)


def pattern_uniforms(seed: int, t_start: int, n_subframes: int) -> np.ndarray:
    """Uniform(0,1) pattern-sampling draws, one per subframe: (S,), read-only
    and memoized."""

    def draw() -> np.ndarray:
        stream = _KeyedStream(seed, STREAM_PATTERN)
        return np.array([stream.at(t_start + s).random() for s in range(n_subframes)])

    return _memo.get((STREAM_PATTERN, seed, t_start, n_subframes), draw)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def large_scale_gains(graph: TopologyGraph, params: PathlossParams, seed: int) -> np.ndarray:
    """Per-link amplitude gains ``h_large > 0``; wired links get a placeholder 1.

    Shadowing draws consume one normal per wireless link, in link order, from
    the dedicated shadowing stream, so gains are reproducible per seed.
    """
    gains = np.ones(graph.num_links)
    shadows = keyed_generator(seed, STREAM_SHADOWING).standard_normal(len(graph.wireless_links))
    for pos, l in enumerate(graph.wireless_links):
        link = graph.links[l]
        a = graph.nodes[link.head].position
        b = graph.nodes[link.tail].position
        dist = max(float(np.hypot(a[0] - b[0], a[1] - b[1])), _MIN_DISTANCE_M)
        cls = params.for_link(graph, l)
        shadow_db = cls.shadow_sigma_db * shadows[pos]
        gains[l] = 10.0 ** ((cls.ref_gain_db + shadow_db) / 20.0) * dist ** (-cls.exponent)
    return gains


def snr_term(h_squared: np.ndarray, power: np.ndarray | float) -> np.ndarray:
    """Instantaneous spectral efficiency ``log(1 + |h|^2 p)`` in nats."""
    return np.log1p(h_squared * power)


class ChannelModel:
    """Fading state generator for one scenario realization.

    Holds the static per-link transmit powers (noise-normalized linear watts)
    and large-scale gains; produces per-subframe squared channel magnitudes
    and the derived per-subband rate tables used by the scheduler.
    """

    def __init__(
        self,
        graph: TopologyGraph,
        num_subbands: int,
        p_macro_dbm: float,
        p_pico_dbm: float,
        seed: int,
        deterministic: bool = False,
        pathloss: PathlossParams | None = None,
        noise_dbm: float = -100.0,
        power_overrides: dict[int, float] | None = None,
    ):
        if num_subbands < 1:
            raise ValueError("need at least one subband")
        self.graph = graph
        self.num_subbands = num_subbands
        self.seed = int(seed)
        self.deterministic = bool(deterministic)
        self.large_gains = large_scale_gains(graph, pathloss or PathlossParams(), self.seed)

        noise_watts = dbm_to_watts(noise_dbm)
        overrides = power_overrides or {}
        self.tx_powers = np.zeros(graph.num_links)
        for l in graph.links:
            if l.is_wired:
                continue
            kind = graph.nodes[l.head].kind
            dbm = overrides.get(l.head, p_macro_dbm if kind is NodeKind.MACRO else p_pico_dbm)
            self.tx_powers[l.index] = dbm_to_watts(dbm) / noise_watts

        self._wireless = np.array(graph.wireless_links, dtype=int)

    @property
    def num_links(self) -> int:
        return self.graph.num_links

    def draw_block(self, t_start: int, n_subframes: int) -> np.ndarray:
        """Squared magnitudes ``|h|^2`` for subframes ``t_start .. t_start + n - 1``:
        (S, L, M), the view of a fresh subframe-contiguous (L, M, S) buffer.
        Wired links carry zeros; they never enter the radio scheduler."""
        out = np.zeros((self.num_links, self.num_subbands, n_subframes))
        large_sq = self.large_gains[self._wireless] ** 2
        if self.deterministic:
            out[self._wireless] = large_sq[:, None, None]
        else:
            small = fading_draws(
                self.seed, len(self._wireless), self.num_subbands, t_start, n_subframes
            )
            out[self._wireless] = small * large_sq[:, None, None]
        return out.transpose(2, 0, 1)

    def rate_block(self, t_start: int, n_subframes: int) -> np.ndarray:
        """Per-subband achievable rates (nats) for a run of subframes: (S, L, M),
        :func:`snr_term` of :meth:`draw_block` computed in its buffer."""
        h_squared = self.draw_block(t_start, n_subframes)
        np.multiply(h_squared, self.tx_powers[None, :, None], out=h_squared)
        return np.log1p(h_squared, out=h_squared)

    def statistical_rates(self) -> np.ndarray:
        """Rates with ``h_small`` replaced by its unit mean: (L, M), constant in t."""
        h2 = np.zeros((self.num_links, self.num_subbands))
        h2[self._wireless, :] = (self.large_gains[self._wireless] ** 2)[:, None]
        return snr_term(h2, self.tx_powers[:, None])

    def pattern_draws(self, t_start: int, n_subframes: int) -> np.ndarray:
        """Uniform(0,1) stream for per-subframe pattern sampling, one per
        subframe (read-only: :func:`pattern_uniforms`)."""
        return pattern_uniforms(self.seed, t_start, n_subframes)
