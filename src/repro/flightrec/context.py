"""The process-global flight-recorder switch.

Recording is *off* by default: :func:`current_recorder` returns
``None`` and every emission site in the reference serving engine
reduces to one module-global read plus one ``is None`` test — the same
zero-cost-when-off contract :mod:`repro.telemetry.context` established
(the overhead guard in ``benchmarks/test_flightrec_overhead.py`` holds
the *enabled* cost under 5 %; disabled it is unmeasurable, and the
closed-form reports stay byte-identical either way).

This module deliberately imports nothing from the rest of the package,
so any engine module can hook into it without creating import cycles.
Worker processes each carry their own global, which is exactly the
isolation the runner's process pool needs: a recorded point captures
in its own worker and ships the finished recording back as plain
dicts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.flightrec.recorder import FlightRecorder

_recorder: Optional["FlightRecorder"] = None


def current_recorder() -> Optional["FlightRecorder"]:
    """The active recorder, or ``None`` when recording is off."""
    return _recorder


def install_recorder(recorder: "FlightRecorder") -> None:
    """Make ``recorder`` the process-wide active recorder.

    Nesting is refused: a recording inside a recording almost always
    means a missing :func:`uninstall_recorder` (e.g. a leaked context
    manager), and interleaving two runs' events would corrupt both
    recordings.
    """
    global _recorder
    if _recorder is not None:
        from repro.errors import ReproError
        raise ReproError("a flight recorder is already installed; "
                         "recordings do not nest")
    _recorder = recorder


def uninstall_recorder(recorder: "FlightRecorder") -> None:
    """Deactivate ``recorder`` (no-op if it is not the active one)."""
    global _recorder
    if _recorder is recorder:
        _recorder = None
