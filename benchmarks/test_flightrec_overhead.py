"""Flight-recorder overhead guard.

Recording is a runtime opt-in, so the recorder must be close to free
even when it is on: the hot path appends small tuples to per-lane
lists and defers every object build, dict merge, and derived column
to ``finalize()``.  (Off, it is one module-global read per emission
site and unmeasurable — and the closed-form reports are byte-identical
either way, which ``tests/integration/test_flightrec.py`` pins.)

This guard simulates the same small serving point with recording off
and on — finalize included, since operators always pay it — and
asserts the recorded run stays within 5% of the unrecorded one
(min-of-N wall times, interleaved to decorrelate host noise).  Both
arms land in ``BENCH_core.json`` as ``host_seconds`` rows (points
``off``/``on``), which the regression engine records and reports but
never gates on — wall clock is not this repo's claim.
"""

from __future__ import annotations

import time

from conftest import observatory_recorder
from repro.flightrec import record
from repro.runner import get_experiment

#: the svc_smoke serving shape: one 350k-query stream of the default
#: tenants on 16 autoscaled power_aware commodity nodes (more queries,
#: more hot-path signal per measured second).  It is served through
#: the svc_mega point function at load 1.0, whose ``engine`` knob pins
#: the unrecorded arm to the reference engine: a recorded run always
#: takes that engine, so the guard prices the recorder, not the gap
#: between the reference engine and the event core.
SMOKE_KNOBS = {"policy": "power_aware", "queries": 350_000, "nodes": 16,
               "load": 1.0, "engine": "loop"}

ROUNDS = 5
MAX_OVERHEAD = 0.05


def _simulate_point() -> None:
    get_experiment("svc_mega").call_point(SMOKE_KNOBS, seed=2009)


def _recorded_point() -> None:
    with record() as recorder:
        _simulate_point()
    recorder.finalize()


#: re-measure on a miss: shared-host throttling is transient and
#: multiplicative (±5-10% swings), while a real regression shows up
#: in every attempt — so retrying filters noise without hiding cost
ATTEMPTS = 3


def _measure() -> tuple[float, float]:
    """One min-of-N interleaved measurement of both arms."""
    off_times, on_times = [], []
    for n in range(ROUNDS):
        # alternate arm order so monotonic host drift (thermal,
        # cgroup throttling) cannot bias one arm systematically
        arms = [(_simulate_point, off_times),
                (_recorded_point, on_times)]
        for fn, into in (arms if n % 2 == 0 else reversed(arms)):
            started = time.perf_counter()
            fn()
            into.append(time.perf_counter() - started)
    return min(off_times), min(on_times)


def test_flightrec_overhead_under_five_percent():
    _simulate_point()  # warm imports and caches outside the clock
    _recorded_point()
    for attempt in range(ATTEMPTS):
        off, on = _measure()
        overhead = on / off - 1.0
        print(f"\nflightrec overhead[{attempt}]: off={off:.4f}s "
              f"on={on:.4f}s ({overhead:+.2%})")
        if overhead < MAX_OVERHEAD:
            break
    recorder = observatory_recorder()
    if recorder is not None:
        for point, seconds in (("off", off), ("on", on)):
            recorder.store.append(recorder.build(
                "flightrec_overhead", point=point,
                host_seconds=seconds))
    assert overhead < MAX_OVERHEAD, (
        f"flight recording costs {overhead:.2%} (> {MAX_OVERHEAD:.0%}) "
        f"in every one of {ATTEMPTS} attempts: "
        f"unrecorded {off:.4f}s vs recorded {on:.4f}s")
