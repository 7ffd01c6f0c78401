"""Frozen calibration kernel: a yardstick for the host's momentary speed.

The kernel is a fixed mix of the operations the program spends its time on
per call: small numpy element-wise ops and reductions, a small matrix-vector
product, per-group argmaxes, Python list and dict handling, and a small
``scipy.linalg`` Cholesky factor and solve.  It imports nothing from
``hetnet_rrm``, so a change to the program never changes the yardstick.

Timed spans are scaled by ``REFERENCE_KERNEL_S / measured kernel time``, so a
span is reported in seconds at the reference speed.  Editing the kernel or
the reference changes every calibrated figure and needs a new baseline.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time

import numpy as np
import scipy.linalg

#: Kernel duration that defines "reference speed" (seconds).  Frozen: it is
#: the median of the kernel on the machine the README's figures come from.
REFERENCE_KERNEL_S = 0.0022
#: Interval between kernel samples during a round (seconds).
PERIOD_S = 0.04

#: Set-up happens before numpy is imported, and it is mostly imports, which
#: the kernel tracks poorly.  Set-up is scaled instead by a fresh interpreter
#: that imports the same libraries, with this frozen reference duration.
STARTUP_CMD = (sys.executable, "-c", "import numpy, scipy.linalg")
REFERENCE_STARTUP_S = 0.5

_ROUNDS = 24
_rng = np.random.default_rng(1504_03957)
_LINKS = _rng.random((18, 30))
_FACTOR = _rng.random((10, 10))
_SPD = _FACTOR @ _FACTOR.T + 10.0 * np.eye(10)
_RHS = _rng.random(10)
_BLOCK = _rng.random((20, 6, 4))
_WEIGHTS = _rng.random(6)
_GROUPS = [tuple(range(k, 6, 2)) for k in range(2)]


def kernel() -> float:
    """One pass of the fixed mix; returns a checksum so no work is skipped."""
    acc = 0.0
    for i in range(_ROUNDS):
        column = _LINKS[:, i % 30]
        load = _LINKS.T @ column
        rate = np.log1p(np.maximum(load, 0.1) * 2.0)
        acc += float(rate.sum()) + float(np.max(rate / (load + 1.0)))
        for group in _GROUPS:
            cand = np.array(group, dtype=int)
            scores = _WEIGHTS[cand, None] * _BLOCK[i % 20][cand, :]
            winner = cand[np.argmax(scores, axis=0)]
            acc += int(winner.sum())
        served = {int(w): float(rate[w]) for w in range(6)}
        acc += sum(served.values())
        cho = scipy.linalg.cho_factor(_SPD, lower=True)
        acc += float(scipy.linalg.cho_solve(cho, _RHS)[0])
        acc += int(np.flatnonzero(rate > 1.0).size)
    return acc


def time_kernel() -> float:
    """Wall time of one kernel pass, in seconds."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def time_startup() -> float:
    """Wall time of the start-up yardstick, in seconds."""
    start = time.perf_counter()
    subprocess.run(STARTUP_CMD, check=True, timeout=120)
    return time.perf_counter() - start


class Calibrator:
    """Samples the kernel on an interval timer and keeps it out of every span.

    Spans are read from :meth:`now`, a clock that stops while the kernel
    runs, so calibration never lands inside a timed span.  A span is cut into
    pieces at each kernel sample; a piece is scaled by the mean of the two
    samples around it.  Sampling every few tens of milliseconds follows the
    host's speed changes even inside a single long operation.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._paused = 0.0
        self._piece_start: float | None = None
        self._pieces: list[tuple[float, int]] = []
        self._in_handler = False

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def sample(self) -> None:
        start = time.perf_counter()
        self.samples.append(time_kernel())
        self._paused += time.perf_counter() - start

    def _on_timer(self, signum, frame) -> None:
        if self._in_handler:  # a late tick while the kernel still runs
            return
        self._in_handler = True
        if self._piece_start is not None:
            self._pieces.append((self.now() - self._piece_start, len(self.samples)))
        self.sample()
        if self._piece_start is not None:
            self._piece_start = self.now()
        self._in_handler = False

    def start(self) -> None:
        """Take a first sample and start the timer."""
        self.sample()
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stop the timer and take the sample that closes the last pieces."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)  # a tick already raised must not kill
        self.sample()

    def begin(self) -> None:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        self._pieces = []
        self._piece_start = self.now()
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def end(self) -> list[tuple[float, int]]:
        """Close the span; its pieces are resolved by :meth:`calibrated` once
        the sample after them exists."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        self._pieces.append((self.now() - self._piece_start, len(self.samples)))
        pieces, self._pieces, self._piece_start = self._pieces, [], None
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        return pieces

    def calibrated(self, pieces: list[tuple[float, int]]) -> float:
        """Seconds at reference speed for a closed span."""
        return sum(
            raw * REFERENCE_KERNEL_S / (0.5 * (self.samples[j - 1] + self.samples[j]))
            for raw, j in pieces
        )
