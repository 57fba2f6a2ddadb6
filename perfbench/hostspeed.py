"""Host-speed normalisation of the benchmark's host times.

The benchmark's host shares its cores: its speed switches between
states that last from seconds to minutes, by 40 % and more, and the
process's CPU time slows as much as its wall time.  Over a set of runs
minutes long, no statistic of raw pass times resolves a 25 % change.

So the timed passes run under :class:`HostClock`.  Every
``PERIOD_S`` of a pass a signal handler runs :func:`reference`, a
fixed, self-contained event loop of the same kind as the program's
(a heap of timed events, slotted objects, dicts, a seeded RNG), and
times it.  Each stretch of the pass between two reference rounds is
scaled by ``NOMINAL_S`` over the mean of those two rounds, and the
scaled stretches are summed.  The result is the pass's time in seconds
of a host on which one reference round takes ``NOMINAL_S``; the
reference rounds themselves are not part of it.  The reference code
lives here and never changes with the program, so a faster program
reads faster.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
from time import perf_counter

#: Time between reference rounds during a timed pass.
PERIOD_S = 0.5

#: Reference round time of the host that normalised times refer to
#: (about the median round on a 2.1 GHz Xeon 2-vCPU virtual machine).
NOMINAL_S = 0.02

#: Events handled by one reference round.
_EVENTS = 20_000


class _Node:
    __slots__ = ("peers", "seen", "log")

    def __init__(self, peers: list[int]) -> None:
        self.peers = peers
        self.seen: dict[int, int] = {}
        self.log: list[tuple[float, int]] = []


def reference() -> int:
    """One reference round: gossip among 64 nodes on a timed event
    heap.  Returns the events handled (always ``_EVENTS``).

    A round builds no reference cycles, so all it allocates (about
    0.6 MB at its peak) is freed when it returns, and the cyclic
    collector is off while it runs: a collection of the program's heap
    must not land in a round.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _gossip()
    finally:
        if enabled:
            gc.enable()


def _gossip() -> int:
    rng = random.Random(5)
    nodes = [_Node(rng.sample(range(64), 4)) for _ in range(64)]
    queue = [(0.0, 0, 0, 0)]
    seq = 1
    handled = 0
    while handled < _EVENTS:
        at, _, dest, msg = heapq.heappop(queue)
        node = nodes[dest]
        handled += 1
        if msg in node.seen:
            node.seen[msg] += 1
            continue
        node.seen[msg] = 1
        node.log.append((at, msg))
        for peer in node.peers:
            heapq.heappush(queue, (at + rng.random(), seq, peer, msg))
            seq += 1
        if handled % 7 == 0:
            heapq.heappush(queue, (at + 1.0, seq, dest, msg + 1))
            seq += 1
    return handled


class HostClock:
    """Times calls in normalised seconds, sampling the host's speed
    with :func:`reference` rounds before, during and after each call.

    ``stolen`` is the host time spent in reference rounds so far; code
    inside a timed call reads its own host time free of them with
    :meth:`work_time`.
    """

    def __init__(self) -> None:
        self.stolen = 0.0
        self.rounds: list[float] = []
        self._samples: list[tuple[float, float]] = []

    def work_time(self) -> float:
        """``perf_counter()`` less the time of the reference rounds."""
        return perf_counter() - self.stolen

    def _sample(self) -> None:
        started = perf_counter()
        reference()
        ended = perf_counter()
        self._samples.append((started, ended))
        self.rounds.append(ended - started)
        self.stolen += ended - started

    def _on_alarm(self, _signum, _frame) -> None:
        self._sample()

    def timed(self, call):
        """Run ``call()``; (its result, host seconds, normalised
        seconds), both without the reference rounds."""
        self._samples = []
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            result = call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self._sample()
        host = normalised = 0.0
        for (left_start, left_end), (right_start, right_end) in zip(
                self._samples, self._samples[1:]):
            stretch = right_start - left_end
            mean_round = (left_end - left_start + right_end - right_start) / 2
            host += stretch
            normalised += stretch * NOMINAL_S / mean_round
        return result, host, normalised

    def normalise(self, measure) -> float:
        """Normalised seconds of ``measure()``, which returns host
        seconds it timed itself (a child process, say), scaled by one
        reference round just before and one just after it."""
        self._sample()
        seconds = measure()
        self._sample()
        return seconds * NOMINAL_S / ((self.rounds[-2] + self.rounds[-1]) / 2)


#: The clock of the timed passes; workloads read :meth:`work_time` from it.
CLOCK = HostClock()
