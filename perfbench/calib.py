"""Machine-speed calibration: wall time rescaled to a reference speed.

The benchmark shares a few cores of a host with other tenants, whose
load changed this machine's speed by up to half for minutes at a time.
CPU time changes with it, so only a second measurement taken in the
same seconds can take that drift out.  A :class:`SteadyClock` runs a
fixed probe (:func:`probe`: interpreted Python, small objects and numpy
grid arithmetic, no code of the program) between the timed units of a
run, off the clock, and rescales each stretch of work between two
probes by ``REFERENCE_S`` over the mean of those two probes::

    steady = sum(wall_i * REFERENCE_S / mean(probe_i, probe_i+1))

so a time reads what it would have taken on a machine where the probe
takes ``REFERENCE_S``.  The probe never calls the program, so a change
to the program moves steady time in the same proportion as wall time.
The run's raw wall times and its median probe go to the ``detail``
line.
"""

from __future__ import annotations

import os
import time
from typing import List, Optional, Set, Tuple

import numpy as np

from stats import median

#: The probe's median time on the reference machine, a 2-vCPU shared VM.
REFERENCE_S = 0.0055
#: Kernel repeats per probe; a probe takes the fastest, which a context
#: switch in the middle of one repeat cannot inflate.
REPEATS = 3

_MATRIX = np.linspace(0.0, 1.0, 48 * 48).reshape(48, 48)
_VECTOR = np.linspace(1.0, 2.0, 2048)
#: Small enough (32 KB) that the allocator serves every temporary from
#: its heap: a larger array is mapped and unmapped each time, and page
#: faults would make the probe's time depend on the heap's history.
_GRID_X = np.linspace(1.0, 1000.0, 4096)
_GRID_Y = np.linspace(3.0, 7.0, 4096)


class _Record:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: float) -> None:
        self.a, self.b, self.c = a, b, c

    def cost(self) -> float:
        return self.a * self.b + self.c


def _kernel() -> float:
    """One part per kind of work the program does: dictionary-heavy
    interpretation, small objects built, sorted and grouped, and
    whole-grid numpy arithmetic."""
    table = {}
    total = 0.0
    for i in range(4000):
        key = (i & 63, i % 7)
        total += table.get(key, 0.5) * 1.0001
        table[key] = total % 97.0
    for _ in range(40):
        total += float((_MATRIX @ _MATRIX[0]).sum())
        total += float(np.maximum(_VECTOR, total % 1.5).min())
    records = [_Record(i, i % 13, float(i)) for i in range(1500)]
    total += sum(r.cost() for r in records)
    records.sort(key=lambda r: (r.b, -r.c))
    groups = {}
    for r in records:
        groups.setdefault(r.b, []).append(r.a)
    total += len(groups)
    for _ in range(30):
        ceil = np.ceil(_GRID_X / _GRID_Y) * _GRID_Y
        pick = np.where(ceil > 500.0, ceil,
                        np.minimum(_GRID_X, _GRID_Y) * 2.0)
        total += float(pick.argmin()) + float(np.maximum(ceil, pick).sum())
    return total


def probe() -> float:
    """Seconds the fixed kernel takes now (fastest of ``REPEATS``)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


class SteadyClock:
    """Marks set between timed units, with a probe at each.

    The work between two consecutive marks is one stretch; its steady
    time is its wall time times ``REFERENCE_S`` over the mean of the
    two probes that bracket it.  Probing at the ends of every stretch,
    rather than once per run, follows the machine's speed as it moves.
    """

    def __init__(self, cpus: Optional[Set[int]] = None) -> None:
        #: Where to run the probe, when the timed work runs elsewhere.
        self.cpus = cpus
        #: (work stops, probe seconds, work resumes) per mark.
        self.marks: List[Tuple[float, float, float]] = []

    def mark(self) -> int:
        """Probe now, off the clock; the mark's index."""
        stop = time.perf_counter()
        if self.cpus:
            own = os.sched_getaffinity(0)
            os.sched_setaffinity(0, self.cpus)
            try:
                seconds = probe()
            finally:
                os.sched_setaffinity(0, own)
        else:
            seconds = probe()
        self.marks.append((stop, seconds, time.perf_counter()))
        return len(self.marks) - 1

    def between(self, first: int, last: int) -> Tuple[float, float]:
        """(steady, wall) seconds of the work from mark ``first`` to
        mark ``last``, probe time left out."""
        steady = wall = 0.0
        marks = self.marks[first:last + 1]
        for (_, before, resume), (stop, after, _) in zip(marks, marks[1:]):
            wall += stop - resume
            steady += (stop - resume) * REFERENCE_S / (0.5 * (before + after))
        return steady, wall

    def median_probe(self) -> float:
        return median([seconds for _, seconds, _ in self.marks])
