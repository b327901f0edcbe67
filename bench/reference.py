"""A fixed pure-Python kernel that gauges how fast the host runs right now.

On a shared host the same code runs up to 1.7 times slower in phases that
last from milliseconds to minutes, and a whole run can fall inside one.
The benchmark therefore times this kernel between the items it measures
and every 50 ms within them, and scales each item's time by NOMINAL_S
over the kernel's mean time during and right around the item.  A
normalized time is what the item would take on a host where the kernel
takes NOMINAL_S.  The kernel does not change with the library, so a
change to slat moves normalized times in the same proportion as raw
ones, while a change in host speed moves the item and the kernel
together and mostly cancels.  It cancels only as far as the host's slow
phases slow slat's code and the kernel alike, which is why the kernel is
made of the same operations.

The kernel uses what slat's code is made of: integer-indexed tables,
frozensets, generator expressions under all() and any(), combinations,
small objects, string prefixes, dicts and sorting with a key.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import time
from dataclasses import dataclass

# About the kernel's typical time on the host the benchmark was tuned on,
# a shared 2-vCPU Xeon virtual machine, so normalized times read close to
# raw ones there.
NOMINAL_S = 0.003

_N = 16  # elements of the fixed semilattice: subsets of a 4-element set


@dataclass(frozen=True)
class _Table:
    meet: tuple[tuple[int, ...], ...]

    def leq(self, e: int, f: int) -> bool:
        return self.meet[e][f] == e


_TABLE = _Table(tuple(tuple(e & f for f in range(_N)) for e in range(_N)))
_WORDS = tuple("".join(w) for d in range(1, 5) for w in itertools.product("abc", repeat=d))


def kernel() -> int:
    """A fixed amount of work; the result only keeps it from being skipped."""
    S = _TABLE
    total = 0
    ups = [frozenset(f for f in range(_N) if S.leq(e, f)) for e in range(_N)]
    for e in range(1, _N):
        outside = [f for f in range(1, _N) if f not in ups[e]]
        for Y in itertools.combinations(outside[:6], 2):
            target = frozenset(x for x in range(_N)
                               if S.leq(x, e) and all(S.meet[x][y] == 0 for y in Y))
            total += all(any(S.meet[x][z] for z in ups[e]) for x in target if x)
    counts: dict[str, int] = {}
    for w in _WORDS:
        for i in range(1, len(w) + 1):
            counts[w[:i]] = counts.get(w[:i], 0) + 1
    ranked = sorted(counts, key=lambda w: (len(w), w))
    return total + len(ranked) + sum(1 for a, b in zip(ranked, ranked[1:]) if b.startswith(a))


class HostSpeed:
    """Kernel runs taken while items are measured, to normalize their times.

    The caller runs sample() between items.  While the object is entered, a
    SIGALRM handler also runs the kernel every PERIOD_S, between two
    bytecodes of whatever is running, so a long item is sampled while it
    runs and not only around it.  All kernel time is added to `paused`, so
    that the caller can take it out of the item it interrupted.
    """

    PERIOD_S = 0.05

    def __init__(self) -> None:
        self.at: list[float] = []    # when each kernel run ended
        self.took: list[float] = []  # how long it took
        self.paused = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        try:
            kernel()
        except RecursionError:
            # Interrupted deep in a recursion: too little stack left for
            # the kernel, so this sample is dropped.
            pass
        else:
            t1 = time.perf_counter()
            self.at.append(t1)
            self.took.append(t1 - t0)
        finally:
            self.paused += time.perf_counter() - t0

    def __enter__(self) -> "HostSpeed":
        self._handler = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.sample()

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the kernel's mean time from `start` to `end`.

        The mean takes the kernel runs that ended inside the interval, the
        last one before it and the first one after it, and no others: the
        host's speed drifts by a few percent within milliseconds and by 15%
        within half a second, so only the nearest runs tell how fast it ran.
        """
        lo = max(bisect.bisect_right(self.at, start) - 1, 0)
        hi = bisect.bisect_right(self.at, end) + 1
        took = self.took[lo:hi]
        return NOMINAL_S * len(took) / sum(took)
