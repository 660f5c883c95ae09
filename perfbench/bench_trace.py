"""Per-layer tracing for the benchmark, installed from outside the program.

The tracer wraps a fixed list of public functions and methods of each
``repro`` layer (``WRAPPED``).  Every call records a span: name, start,
end, parent and the id of the benchmark operation it belongs to.  A
method that returns a generator (a device transfer, a query process) is
timed once per resume, because that is when its code runs inside the
discrete-event kernel.  Self time is a span's duration minus the part
its child spans cover, so summing self time per layer splits the traced
host time between the layers without double counting.

Installing patches the defining class for methods and, for module
functions, every loaded ``repro`` module attribute that holds the
original object (callers bind names at import).  ``uninstall`` puts the
originals back.  Nothing inside ``src/`` is edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import types
from collections import defaultdict
from typing import Any, Callable, Iterable

#: (layer, module, qualified name) of every wrapped function
WRAPPED: tuple[tuple[str, str, str], ...] = (
    ("sim", "repro.sim.engine", "Simulation.step"),
    ("sim", "repro.sim.engine", "Simulation.run"),
    ("sim", "repro.sim.tracing", "TimeSeries.integrate"),
    ("hardware", "repro.hardware.disk", "HardDisk.read"),
    ("hardware", "repro.hardware.disk", "HardDisk.write"),
    ("hardware", "repro.hardware.disk", "HardDisk.read_batch"),
    ("hardware", "repro.hardware.disk", "HardDisk.write_batch"),
    ("hardware", "repro.hardware.raid", "RaidArray.read"),
    ("hardware", "repro.hardware.raid", "RaidArray.write"),
    ("hardware", "repro.hardware.raid", "RaidArray.read_batch"),
    ("hardware", "repro.hardware.ssd", "FlashSsd.read"),
    ("hardware", "repro.hardware.ssd", "FlashSsd.write"),
    ("hardware", "repro.hardware.ssd", "FlashSsd.read_batch"),
    ("hardware", "repro.hardware.ssd", "FlashSsd.write_batch"),
    ("hardware", "repro.hardware.cpu", "Cpu.execute"),
    ("hardware", "repro.hardware.meter", "EnergyMeter.energy_joules"),
    ("hardware", "repro.hardware.meter", "EnergyMeter.wall_energy_joules"),
    ("hardware", "repro.hardware.meter", "EnergyMeter.breakdown_joules"),
    ("hardware", "repro.hardware.meter", "EnergyMeter.average_power_watts"),
    ("hardware", "repro.hardware.meter", "EnergyMeter.active_energy_joules"),
    ("storage", "repro.storage.heap", "HeapFile.insert_many"),
    ("storage", "repro.storage.heap", "HeapFile.scan"),
    ("storage", "repro.storage.column", "ColumnFile.append_many"),
    ("storage", "repro.storage.column", "ColumnFile.seal"),
    ("storage", "repro.storage.column", "ColumnFile.scan"),
    ("storage", "repro.storage.manager", "Table.load"),
    ("storage", "repro.storage.manager", "Table.iterate"),
    ("storage", "repro.storage.compression", "NoneCodec.decode"),
    ("storage", "repro.storage.compression", "RleCodec.decode"),
    ("storage", "repro.storage.compression", "DictionaryCodec.decode"),
    ("storage", "repro.storage.compression", "DeltaCodec.decode"),
    ("storage", "repro.storage.compression", "LzLiteCodec.decode"),
    ("relational", "repro.relational.executor", "Executor.run"),
    ("relational", "repro.relational.executor", "Executor.run_process"),
    ("relational", "repro.relational.schema", "TableSchema.encode_row"),
    ("relational", "repro.relational.schema", "TableSchema.decode_row"),
    ("workloads", "repro.workloads.tpch_gen", "generate_tpch"),
    ("workloads", "repro.workloads.throughput", "run_throughput"),
    ("workloads", "repro.workloads.scan_workload", "run_scan"),
    ("workloads", "repro.service.workload", "build_stream"),
    ("service", "repro.service.fleet", "simulate_service"),
    ("service", "repro.service.node", "FleetNode.serve"),
    ("service", "repro.service.node", "FleetNode.serve_active"),
    ("service", "repro.service.node", "FleetNode.finalize"),
    ("service", "repro.service.autoscale", "Autoscaler.step"),
    ("service", "repro.service.report", "ServiceReport.to_dict"),
    ("faults", "repro.faults.engine", "simulate_faulty_service"),
    ("faults", "repro.faults.schedule", "build_fault_schedule"),
    ("flightrec", "repro.flightrec.recorder", "FlightRecorder.finalize"),
    ("flightrec", "repro.flightrec.events",
     "FlightRecording.replayed_energy_joules"),
    ("telemetry", "repro.telemetry.collector", "TelemetryCollector.finalize"),
    ("runner", "repro.runner.runner", "Runner.run"),
    ("runner", "repro.runner.cache", "point_key"),
    ("runner", "repro.runner.cache", "ResultCache.get"),
    ("runner", "repro.runner.cache", "ResultCache.put"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in WRAPPED))

#: spans kept for the JSON dump; statistics stay exact past the cap
MAX_KEPT_SPANS = 100_000


class Tracer:
    """In-memory spans plus exact per-function statistics."""

    def __init__(self) -> None:
        self.active = False
        self.op = 0
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self.spans: list[tuple[int, int, int, float, float, int]] = []
        self.dropped = 0
        self._stack: list[list] = []  # [span id, start, child seconds]
        self._next_id = 1
        self._patches: list[tuple[Any, str, Any]] = []

    # -- registration -------------------------------------------------

    def _register(self, layer: str, name: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.total_s.append(0.0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def reset(self) -> None:
        """Forget every span and statistic, keeping the wrappers."""
        n = len(self.names)
        self.calls = [0] * n
        self.total_s = [0.0] * n
        self.self_s = [0.0] * n
        self.spans = []
        self.dropped = 0
        self._next_id = 1

    # -- spans --------------------------------------------------------

    def _enter(self) -> list:
        frame = [self._next_id, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, index: int, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - frame[1]
        self.total_s[index] += duration
        self.self_s[index] += duration - frame[2]
        parent = 0
        if stack:
            stack[-1][2] += duration
            parent = stack[-1][0]
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((frame[0], parent, index, frame[1], end,
                               self.op))
        else:
            self.dropped += 1

    def _timed_generator(self, index: int, gen: Any) -> Any:
        """Drive ``gen`` and time each resume as one span."""
        value = None
        thrown = None
        while True:
            frame = self._enter() if self.active else None
            try:
                item = gen.send(value) if thrown is None \
                    else gen.throw(thrown)
            except StopIteration as stop:
                return stop.value
            finally:
                if frame is not None:
                    self._exit(index, frame)
            thrown = None
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into the generator
                thrown, value = exc, None

    def _wrap(self, index: int, fn: Callable) -> Callable:
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if not tracer.active:
                    return gen
                tracer.calls[index] += 1
                wrapped = tracer._timed_generator(index, gen)
                wrapped.__name__ = gen.__name__
                wrapped.__qualname__ = gen.__qualname__
                return wrapped
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[index] += 1
            frame = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(index, frame)
            if isinstance(result, types.GeneratorType):
                return tracer._timed_generator(index, result)
            return result
        return wrapper

    # -- install / uninstall ------------------------------------------

    def install(self, wrapped: Iterable[tuple[str, str, str]] = WRAPPED
                ) -> None:
        """Patch every listed function; the tracer starts inactive."""
        for layer, module_name, qualname in wrapped:
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            index = self._register(layer, qualname)
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(index, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(index, original)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results ------------------------------------------------------

    def stats(self, qualname: str) -> tuple[int, float, float]:
        """(calls, total seconds, self seconds) of one wrapped function."""
        i = self.names.index(qualname)
        return self.calls[i], self.total_s[i], self.self_s[i]

    def layer_self_s(self) -> dict[str, float]:
        out = defaultdict(float)
        for i, layer in enumerate(self.layer_of):
            out[layer] += self.self_s[i]
        return {layer: out[layer] for layer in LAYERS}

    def layer_calls(self) -> dict[str, int]:
        out = defaultdict(int)
        for i, layer in enumerate(self.layer_of):
            out[layer] += self.calls[i]
        return {layer: out[layer] for layer in LAYERS}

    def dump(self, path: str, extra: dict[str, Any]) -> None:
        """Write the kept spans and the per-function table as JSON."""
        functions = [
            {"name": name, "layer": self.layer_of[i],
             "calls": self.calls[i], "total_s": self.total_s[i],
             "self_s": self.self_s[i]}
            for i, name in enumerate(self.names)]
        spans = [{"id": s[0], "parent": s[1], "name": self.names[s[2]],
                  "layer": self.layer_of[s[2]], "start": s[3],
                  "end": s[4], "op": s[5]} for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"functions": functions, "spans": spans,
                       "dropped_spans": self.dropped, **extra}, fh)
