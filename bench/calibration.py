"""Calibrated time: wall and CPU seconds scaled by the host's current speed.

The benchmark shares its host with other tenants, and the speed of pure
Python code on it swings by up to half within seconds (a fixed loop timed
every 0.3 s over two minutes ran between 0.7 and 1.5 times its median).
Raw seconds of two runs therefore differ by more than most changes would.
So every timed stretch is scaled by the speed of a fixed calibration loop
run at its two ends:

    calibrated = raw * CAL_NOMINAL_S / (time the loop took)

The loop is this module's own code and calls nothing of ``mathsynth``, so a
change to the program cannot move it; a program that gets 10% faster reads
10% lower in calibrated seconds.  ``CAL_NOMINAL_S`` is about the loop's
median time on the 2-CPU machine the reference figures come from, so a
calibrated second is close to a second there.  The raw seconds are kept in
each run's record.
"""

from __future__ import annotations

import heapq
import resource
import time

CAL_NOMINAL_S = 0.003
clock = time.perf_counter


class _Cell:
    __slots__ = ("op", "left", "right", "h")

    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right
        self.h = hash((op, left, right))

    def __hash__(self):
        return self.h

    def __eq__(self, other):
        return self.op == other.op and self.left == other.left and self.right == other.right


def _loop(n=1500):
    """Object building, hashing, dict and heap work and caught exceptions:
    the kinds of work the chain search does, in fixed amounts."""
    seen = {}
    heap = []
    for i in range(n):
        cell = _Cell(i & 3, i % 11, _Cell(0, i % 5, None).h & 7)
        try:
            if i % 3 == 0:
                raise KeyError(i)
            seen[cell] = i
        except KeyError:
            heapq.heappush(heap, (i % 17, i))
    while heap:
        heapq.heappop(heap)
    return len(seen)


def speed_factor() -> float:
    """CAL_NOMINAL_S over the loop's current time, averaged over three runs
    of it: the stretches it scales run at the host's average speed, not at
    its best."""
    t0 = clock()
    for _ in range(3):
        _loop()
    return 3 * CAL_NOMINAL_S / (clock() - t0)


def cpu_seconds() -> float:
    """CPU time of this process and of its children that have ended (the
    training pool's workers are joined before each wake call returns)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Meter:
    """Wall and CPU time of one round, raw and calibrated.

    ``mark()`` at a call boundary closes the current stretch and opens the
    next.  It runs the calibration loop, whose time counts in neither
    figure, and scales the closed stretch by the mean of the speed factors
    measured at its two ends.  A stretch whose work ran in pool workers is
    closed with the factor the workers measured, ``mark(factor)``: this
    process measures its speed while the other CPU is idle, which says
    little about two busy workers.
    """

    def __init__(self):
        self.wall = self.cpu = 0.0
        self.raw_wall = self.raw_cpu = 0.0
        self._factor = speed_factor()
        self._t, self._c = clock(), cpu_seconds()

    def mark(self, factor=None):
        wall, cpu = clock() - self._t, cpu_seconds() - self._c
        end = speed_factor()
        if factor is None:
            factor = (self._factor + end) / 2
        self.raw_wall += wall
        self.raw_cpu += cpu
        self.wall += wall * factor
        self.cpu += cpu * factor
        self._factor = end
        self._t, self._c = clock(), cpu_seconds()
