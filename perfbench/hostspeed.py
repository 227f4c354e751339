"""Host speed: CPU-bound times scaled to a fixed reference speed.

On a shared VM the same code runs up to 1.5 times slower for seconds to a
minute at a time (another tenant on the core), and CPU time slows with wall
time, so neither clock alone can tell a slower program from a slower host.
A fixed piece of pure-Python work (``chunk``: dicts, strings, small objects,
a sort and ``Fraction`` sums, like the program's own code) is timed between
the benchmark's timed operations, on the same CPU, and every CPU-bound time
is reported as ``raw * REF_CHUNK_S / chunk_time``: the time the operation
would have taken with ``chunk`` at ``REF_CHUNK_S``.  Interleaved this way,
20-second windows of the same operation agree to within 2% where the raw
times spread 30%.

``chunk`` belongs to the benchmark: the program under test never runs it,
so a faster program lowers the scaled times and a faster host does not.
Wire latency that waits on a kernel timer does not scale with the host, so
policy-api's request latencies are reported unscaled.
"""

from __future__ import annotations

import os
import statistics
import time
from fractions import Fraction

#: ``chunk``'s time on a 2-vCPU shared VM (Python 3.11) in its fast periods.
REF_CHUNK_S = 0.002


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def chunk() -> int:
    """The reference work: about REF_CHUNK_S of mixed pure-Python operations."""
    total = 0
    for _ in range(2):
        counts, items, acc = {}, [], Fraction(0)
        for i in range(600):
            key = "k%d" % (i * 7919 % 1009)
            counts[key] = counts.get(key, 0) + i
            items.append(_Pair(i % 13, key))
            if i % 20 == 0:
                acc += Fraction(i + 1, 7 + i % 5)
        items.sort(key=lambda p: (p.a, p.b))
        total += len(",".join(p.b for p in items[:200])) + len(counts) + acc.numerator % 3
    return total


def chunk_s(clock=time.perf_counter) -> float:
    started = clock()
    chunk()
    return clock() - started


def pin_to_one_cpu():
    """Run this process, and the children it starts, on one CPU.

    The two CPUs of a shared VM slow down independently, so the reference
    work must run where the timed work runs.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Clock:
    """Times laps of CPU-bound work, scaled to the reference speed.

    ``start`` marks the beginning of a lap; ``lap`` ends it, runs ``chunk``
    and scales the lap by the mean of the chunk times just before and just
    after it.  The chunk itself is never inside a lap.
    """

    def __init__(self):
        self.before = chunk_s()
        self.started = time.perf_counter()
        self.factors: list[float] = []

    def start(self):
        self.started = time.perf_counter()

    def lap(self) -> float:
        raw = time.perf_counter() - self.started
        after = chunk_s()
        factor = 2 * REF_CHUNK_S / (self.before + after)
        self.factors.append(factor)
        self.before = after
        self.started = time.perf_counter()
        return raw * factor

    def slowdown(self) -> float:
        """Median chunk time seen over ``REF_CHUNK_S`` (1 = the reference speed)."""
        return 1 / statistics.median(self.factors) if self.factors else 1.0


class Sampler:
    """Host speed while a child process runs on this CPU.

    ``sample`` runs ``chunk`` and records its CPU time, which the child's
    share of the CPU does not inflate; ``factor`` converts the child's own
    CPU time to the reference speed.
    """

    def __init__(self):
        self.samples: list[float] = []

    def sample(self):
        self.samples.append(chunk_s(time.process_time))

    def factor(self) -> float:
        return REF_CHUNK_S / statistics.mean(self.samples)
