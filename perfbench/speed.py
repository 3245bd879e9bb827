"""Machine speed, measured inside the process whose time it corrects.

The benchmark's host changes speed in phases of seconds to minutes: one
command list, same inputs and same PYTHONHASHSEED, takes 5 s in one
fresh interpreter and 8 s in the next, and a single command gets 30%
faster mid-run.  CPU time follows wall time, so it is the processor, not
the scheduler.  Reported timings are therefore given at a fixed reference
speed: the measured time times `NOMINAL_S / r`, where `r` is the mean time
of `reference()` sampled throughout the same interval, widened to at least
WINDOW_S about its middle so that a short command still has samples.

`reference()` is the kind of work the program does (an arithmetic loop,
a recursive bitmask search with frozensets, sorting and GF(2) row
reduction); one such mix slowed by the same share as the program's
commands did, where an arithmetic loop alone slowed by less.  It runs with
the garbage collector off, so a collection over the program's heap never
lands inside a sample.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

# A machine that runs `reference()` in NOMINAL_S, about an unloaded x86
# vCPU.  Scaled timings read in seconds on that machine.
NOMINAL_S = 0.0025
SAMPLE_EVERY_S = 0.05
WINDOW_S = 1.0

_ADJ = [sum(1 << j for j in range(16) if j != i and (5 * i + 3 * j) % 7 < 3)
        for i in range(16)]


def _arithmetic() -> int:
    acc = 0
    for i in range(10_000):
        acc += i * i % 7
    return acc


def _independent_sets() -> int:
    found = []

    def grow(s: int, start: int) -> None:
        found.append(s)
        for v in range(start, 16):
            if not _ADJ[v] & s:
                grow(s | 1 << v, v + 1)

    grow(0, 0)
    sizes: dict[frozenset, int] = {}
    for s in found[:400]:
        face = frozenset(v for v in range(16) if s >> v & 1)
        sizes[face] = sizes.get(face, 0) + len(face)
    return len(sizes)


def _sort_and_reduce() -> int:
    groups: dict[tuple, list] = {}
    for i in range(120):
        key = tuple(sorted(((7 * i + 13 * j) % 41 for j in range(5)), reverse=True))
        groups.setdefault(key[:2], []).append(frozenset(key))
    rows = [(i * 2654435761) >> 5 & 0xFFFFF for i in range(1, 80)]
    rank = 0
    for bit in range(20):
        pivot = next((r for r in rows if r >> bit & 1), None)
        if pivot is None:
            continue
        rank += 1
        rows = [r ^ pivot if r >> bit & 1 else r for r in rows if r is not pivot]
    union: set = set()
    for faces in groups.values():
        for face in faces:
            union |= face
    return rank + len(union)


def reference() -> float:
    """Seconds for a fixed mix of pure-Python work, garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _arithmetic()
        _independent_sets()
        _sort_and_reduce()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, reference_s: float) -> float:
    """`seconds` measured while `reference()` took `reference_s`, at nominal speed."""
    return seconds * NOMINAL_S / reference_s


def reference_over(samples: list[list[float]], start: float, end: float) -> float:
    """Mean sample time over [start, end], widened to at least WINDOW_S.

    `samples` are `[taken_at, seconds]` pairs in time order, as
    `SpeedMeter` records them; with none in the window, all of them count.
    """
    half = max(end - start, WINDOW_S) / 2
    middle = (start + end) / 2
    times = [at for at, _ in samples]
    chosen = samples[bisect.bisect_left(times, middle - half):
                     bisect.bisect_right(times, middle + half)] or samples
    return sum(took for _, took in chosen) / len(chosen)


class SpeedMeter:
    """Samples `reference()` every SAMPLE_EVERY_S of wall time while active.

    The samples run from a SIGALRM handler, between the program's own
    bytecodes, so they see the machine as the program does.  `spent` is
    the time taken by samples so far, for callers to subtract from what
    they time.  At least one sample is taken.
    """

    def __init__(self) -> None:
        self.samples: list[list[float]] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        at = time.perf_counter()
        took = reference()
        self.samples.append([at, took])
        self.spent += took

    def __enter__(self) -> "SpeedMeter":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:
            self._sample(signal.SIGALRM, None)
