"""A frozen host-speed probe, to report times at a fixed host speed.

On a shared host the same round of work runs up to 40 % slower in
spells that last a minute or more, long enough to shift whole runs.  A
statistic inside one run cannot remove that.  So the benchmark runs this
probe next to its timed operations, outside the timed region, and
reports every end-to-end time scaled by ``REFERENCE_S`` over the probe's
median time: seconds on a host where the probe takes ``REFERENCE_S``.

The probe is pure-Python work of the same kind as the simulator's:
generators resumed from a heap, small objects and dict stores.  It
keeps few objects alive at once, so it adds little to the peak memory
the benchmark reports.  It
imports nothing from ``repro``, so a change to the program cannot move
it.  Do not change it or ``REFERENCE_S``: either rescales every reported
time and breaks the comparison with earlier runs.
"""

from __future__ import annotations

import gc
import heapq
import time

#: the probe's time on the host the benchmark was defined on (2-vCPU
#: shared VM, Python 3.11.7) in a quiet spell
REFERENCE_S = 0.07


class _Event:
    __slots__ = ("at", "proc", "tag")

    def __init__(self, at: float, proc: int, tag: tuple) -> None:
        self.at = at
        self.proc = proc
        self.tag = tag


def _process(proc: int, steps: int):
    at = 0.0
    for k in range(steps):
        at += ((proc * 7 + k) % 13 + 1) * 0.1
        yield _Event(at, proc, (proc, k))


def _work(procs: int = 1000, steps: int = 36) -> int:
    heap: list[tuple] = []
    seen: dict[int, float] = {}
    gens = [_process(i, steps) for i in range(procs)]
    for i, gen in enumerate(gens):
        event = next(gen)
        heapq.heappush(heap, (event.at, i, event))
    while heap:
        at, i, event = heapq.heappop(heap)
        seen[event.proc] = at
        try:
            event = next(gens[i])
        except StopIteration:
            continue
        heapq.heappush(heap, (event.at, i, event))
    return len(seen)


def probe_seconds() -> float:
    """Host seconds of one run of the probe's fixed work.

    The garbage collector is off meanwhile: a collection walks every
    live object of the process, so with it on the probe would slow down
    as the program under test holds more objects, and would scale away
    part of a change in the program's own memory use.  The probe makes
    no reference cycles, so reference counting frees all it allocates.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _work()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def at_reference_speed(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, scaled to
    a host where it takes ``REFERENCE_S``."""
    return seconds * REFERENCE_S / probe_s
