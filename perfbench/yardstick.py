"""A fixed piece of pure-Python work that the benchmark times between commands.

The host's speed drifts: on the shared 2-CPU machine the benchmark was
defined on, the same command takes up to a third longer for tens of seconds
at a time, and every command of a run moves together. The yardstick does
the same work on every call, with no ``sinkeq`` code in it, so its time
tracks only the host. ``run.py`` divides each command's wall time by the
yardstick's local time (``Speed``) and multiplies by ``NOMINAL_S``, so the
figures read as seconds on that host at its usual speed.

The work resembles the program's own: best-response search on a small
congestion game, with profiles as tuples of about a hundred strategies,
per-resource loads, tuple slicing for moves and a visited set, plus a
lookup of every key of a table of about 5 MB, in scattered order, so that
the working set is larger than the 2 MB L2 cache. The lookups matter: the
program works on heaps of tens of megabytes, and a yardstick that stayed
inside the cache sped up more than the program did in the host's fast
spells.
Nothing here depends on the workload seed or on the code under test.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

PLAYERS = 96
RESOURCES = 64
STATES = 16  # profiles expanded per call
TABLE = 30_000  # keys in the lookup table, all looked up on every call
# The yardstick's median time between commands on the 2-CPU Xeon host
# (Python 3.11.7) the benchmark was defined on: about 10 ms alone, but the
# commands push its table out of the cache. A time divided by the
# yardstick's is multiplied by this to read in seconds on that host.
NOMINAL_S = 0.019

_rng = random.Random("perfbench-yardstick")
_STRATEGIES = [
    [tuple(_rng.sample(range(RESOURCES), 3)) for _ in range(2)] for _ in range(PLAYERS)
]
_DELAY = [[0] + [_rng.randrange(1, 20) * load for load in range(1, PLAYERS + 1)]
          for _ in range(RESOURCES)]
_START = tuple(_rng.randrange(2) for _ in range(PLAYERS))
_TABLE = {tuple(_rng.randbytes(8)): k for k in range(TABLE)}
_PROBES = _rng.sample(list(_TABLE), len(_TABLE))  # every key, in scattered order


def _work() -> int:
    seen = {_START}
    frontier = [_START]
    expanded = 0
    while frontier and expanded < STATES:
        profile = frontier.pop(0)
        expanded += 1
        loads = [0] * RESOURCES
        for player, s in enumerate(profile):
            for e in _STRATEGIES[player][s]:
                loads[e] += 1
        for player, s in enumerate(profile):
            here = sum(_DELAY[e][loads[e]] for e in _STRATEGIES[player][s])
            other = 1 - s
            there = sum(_DELAY[e][loads[e] + (e not in _STRATEGIES[player][s])]
                        for e in _STRATEGIES[player][other])
            if there < here:
                moved = profile[:player] + (other,) + profile[player + 1:]
                if moved not in seen:
                    seen.add(moved)
                    frontier.append(moved)
    check = len(seen)
    for key in _PROBES:
        check += _TABLE[key]
    return check


_EXPECTED = _work()


def measure() -> float:
    """Wall time of one call; fails if the work was not the same as always."""
    started = time.perf_counter()
    check = _work()
    elapsed = time.perf_counter() - started
    if check != _EXPECTED:
        raise RuntimeError("yardstick did different work")
    return elapsed


class Speed:
    """Yardstick samples taken through a run, each with its start time."""

    EVERY_S = 0.2  # a sample when this long has passed since the last one
    NEAREST = 5  # samples that set the host's speed at one moment

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        self.at.append(time.perf_counter())
        self.took.append(measure())

    def sample_if_due(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= self.EVERY_S:
            self.sample()

    def scale(self, at: float) -> float:
        """``NOMINAL_S`` over the median yardstick time of the samples
        nearest to ``at``: multiply a wall time taken then by this."""
        k = bisect.bisect(self.at, at)
        lo = max(0, min(k - self.NEAREST // 2, len(self.at) - self.NEAREST))
        return NOMINAL_S / statistics.median(self.took[lo:lo + self.NEAREST])
