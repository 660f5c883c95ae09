"""The fleet simulator: millions of queries against a node cluster.

:func:`simulate_service` plays an :class:`~repro.service.workload.
ArrivalStream` against a fleet declared by a
:class:`~repro.service.spec.FleetSpec` — homogeneous or a composition
of node classes — under a :class:`~repro.service.dispatch.
DispatchPolicy`, with the :class:`~repro.service.autoscale.Autoscaler`
stepping at epoch boundaries for policies that want it.  Everything is
closed-form: nodes are FCFS single pipes (``busy_until`` floats), so
one pass over the time-ordered arrivals yields exact waits, and energy
follows from the utilization-linear power identity in
:mod:`repro.service.node`.  That is what fits 10^6 queries in seconds
— the discrete-event engine stays out of the per-query path.

Two serving cores implement that pass.  The **reference engine**
(:func:`repro.faults.engine.serve_reference`) walks one dispatch at a
time through ``policy.route`` on a merged timeline of arrivals, batch
releases and (when a :class:`~repro.faults.schedule.FaultSchedule` is
given) faults; it is the semantic ground truth every observer
(telemetry, flight recording) and every execution hook (batching,
DVFS, faults) runs on.  The **event core** (:mod:`repro.service.engine`)
replays the identical arithmetic over the stream's columnar arrays
with O(log n) routing structures, ~10-30x faster, and is picked
automatically (``engine="auto"``) whenever the configuration allows;
the two are byte-identical by contract (see the engine-equivalence
suite).  Both fold their results through :func:`_assemble_report`.

Telemetry is mirrored, not sacrificed: when a
:func:`repro.telemetry.capture` collector is installed, the reference
engine builds one real :class:`~repro.sim.Simulation` +
:class:`~repro.hardware.meter.EnergyMeter` + one
:class:`~repro.hardware.device.Device` per node, replays every power
transition into the device step functions, and opens a root
:class:`~repro.telemetry.spans.EnergySpan` per powered-on interval per
node — so ``python -m repro.runner trace svc_policies`` shows the same
per-node timelines and Joules any metered experiment would.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.service.autoscale import Autoscaler
from repro.service.dispatch import DispatchPolicy, make_policy
from repro.service.node import FleetNode
from repro.service.report import (FaultStats, ServiceError, ServiceReport,
                                  TenantStats, quantile, rollup_classes)
from repro.service.spec import FleetSpec
from repro.service.workload import ArrivalStream


def _build_nodes(fleet: FleetSpec) -> list[FleetNode]:
    return [FleetNode(name, model, on=True, node_class=class_name)
            for name, class_name, model in fleet.members()]


class _TelemetryMirror:
    """Replays fleet power transitions into real metered devices.

    Per-node transitions are time-ordered (a FCFS pipe starts queries
    in dispatch order, and the reference engine emits a node's
    executions only once no later fault can retract them), so each
    device's power step function is recorded directly; the shared
    clock only advances once, at :meth:`finish`, to the fleet's end
    time.  Every node carries its own
    :class:`~repro.service.node.NodePowerModel`, so a heterogeneous
    fleet's devices draw their class's watts.
    """

    def __init__(self, collector,
                 fleet_nodes: Sequence[FleetNode]) -> None:
        from repro.hardware.device import Device
        from repro.hardware.meter import EnergyMeter
        from repro.sim import Simulation

        self.collector = collector
        self.sim = Simulation()
        self.meter = EnergyMeter(self.sim)  # self-registers while captured
        self.devices = []
        self.models = [node.model for node in fleet_nodes]
        self._spans: list = [None] * len(fleet_nodes)
        for i, node in enumerate(fleet_nodes):
            # every node starts powered on, drawing idle
            device = Device(self.sim, f"svc.{node.name}",
                            initial_power_watts=node.model.idle_watts)
            self.meter.attach(device)
            self.devices.append(device)
            self._spans[i] = collector.stack.open(
                f"svc.{node.name}.on", 0.0, {}, root=True)

    def serve(self, i: int, start: float, end: float,
              busy_watts: Optional[float] = None) -> None:
        """Record one execution window; ``busy_watts`` overrides the
        peak draw for downclocked (PVC) or throttled executions."""
        model = self.models[i]
        series = self.devices[i].power_series
        series.record(start, model.peak_watts
                      if busy_watts is None else busy_watts)
        series.record(end, model.idle_watts)

    def power_on(self, i: int, now: float) -> None:
        model = self.models[i]
        series = self.devices[i].power_series
        boot_watts = (model.boot_joules / model.boot_seconds
                      if model.boot_seconds > 0 else 0.0)
        series.record(now, boot_watts)
        series.record(now + model.boot_seconds, model.idle_watts)
        self._spans[i] = self.collector.stack.open(
            f"{self.devices[i].name}.on", now, {}, root=True)
        self.collector.count("svc.boots")

    def power_off(self, i: int, now: float) -> None:
        model = self.models[i]
        series = self.devices[i].power_series
        drain_watts = (model.drain_joules / model.drain_seconds
                       if model.drain_seconds > 0 else 0.0)
        series.record(now, drain_watts)
        series.record(now + model.drain_seconds, 0.0)
        self._close_span(i, now)

    def crash(self, i: int, now: float) -> None:
        """Drop the device to zero watts with no drain rectangle — a
        crashed node just stops drawing power."""
        self.devices[i].power_series.record(now, 0.0)
        self._close_span(i, now)

    def _close_span(self, i: int, now: float) -> None:
        span = self._spans[i]
        if span is not None:
            self.collector.stack.close(span, now, {})
            self._spans[i] = None

    def sync(self, nodes: Sequence[FleetNode]) -> None:
        """Propagate autoscaler on/off flips into the mirror devices."""
        for i, node in enumerate(nodes):
            span_open = self._spans[i] is not None
            if node.on and not span_open:
                # power_on happened this epoch step, at node.on_since
                self.power_on(i, node.on_since)
            elif not node.on and span_open:
                # power_off left busy_until at off-time + drain window
                self.power_off(i, node.busy_until - node.model.drain_seconds)

    def finish(self, end: float, report: ServiceReport) -> None:
        self.sim.clock.advance_to(max(end, self.sim.now))
        for i in range(len(self._spans)):
            self._close_span(i, end)
        self.collector.count("svc.queries_completed",
                             report.queries_completed)
        self.collector.count("svc.queries_rejected",
                             report.queries_rejected)
        if report.faults is not None:
            for key, value in report.faults.to_dict().items():
                if isinstance(value, int):
                    self.collector.count(f"fault.{key}", value)


def simulate_service(stream: ArrivalStream,
                     fleet: Optional[FleetSpec] = None,
                     policy: DispatchPolicy | str = "power_aware",
                     autoscaler: Optional[Autoscaler] = None,
                     faults=None,
                     retry=None,
                     shed=None,
                     engine: str = "auto",
                     **policy_kwargs) -> ServiceReport:
    """Serve ``stream`` on the ``fleet``; returns the report.

    ``fleet`` is a :class:`~repro.service.spec.FleetSpec` (default: 16
    calibrated ``commodity`` nodes).  ``policy`` may be a registered
    name or a ready :class:`DispatchPolicy`.  An ``autoscaler`` is only
    engaged when the policy declares ``autoscaled`` (packing); the
    all-on baselines keep the whole fleet powered, which is exactly the
    §2.4 non-proportionality problem the packing policy exists to fix.

    ``engine`` selects the serving core: ``"auto"`` (default) runs the
    vectorized event core of :mod:`repro.service.engine` whenever the
    configuration permits and falls back to the reference engine
    otherwise; ``"event"`` insists on the fast core (raising
    :class:`ServiceError` with the fallback reason if the configuration
    needs the reference engine); ``"loop"`` always runs the reference
    engine.  Both engines produce byte-identical reports — the one
    picked is recorded in :attr:`ServiceReport.engine` (runtime
    metadata, excluded from serialization).

    Passing a :class:`~repro.faults.schedule.FaultSchedule` as
    ``faults`` merges the schedule's crashes, throttles, disk failures,
    and timeout windows into the reference engine's timeline, with
    ``retry`` (:class:`~repro.faults.policies.RetryPolicy`) and
    ``shed`` (:class:`~repro.faults.policies.ShedPolicy`) steering the
    degradation (see :func:`repro.faults.engine.simulate_faulty_service`
    for the per-fault semantics).  The returned report then carries a
    :class:`~repro.service.report.FaultStats` ledger; an empty schedule
    changes nothing else.
    """
    if engine not in ("auto", "event", "loop"):
        raise ServiceError(
            f"unknown engine {engine!r}: pass 'auto', 'event', or 'loop'")
    if faults is None and (retry is not None or shed is not None):
        raise ServiceError("retry/shed policies only apply to a fault "
                           "run: pass a FaultSchedule as faults=")
    if fleet is None:
        fleet = FleetSpec.homogeneous(16)
    elif not isinstance(fleet, FleetSpec):
        raise ServiceError(
            f"fleet must be a FleetSpec, got {type(fleet).__name__}")
    if len(stream) == 0:
        raise ServiceError("empty arrival stream")
    policy = make_policy(policy, **policy_kwargs)
    if policy.autoscaled and autoscaler is None:
        autoscaler = Autoscaler(fleet.classes[0].model)
    if not policy.autoscaled:
        autoscaler = None
    nodes = _build_nodes(fleet)

    from repro.telemetry import current_collector
    collector = current_collector()

    from repro.flightrec.context import current_recorder
    rec = current_recorder()

    if engine != "loop":
        from repro.service.engine import event_core_unsupported, serve_event
        reason = event_core_unsupported(policy, collector, rec,
                                        faults=faults is not None,
                                        stream=stream)
        if engine == "event" and reason is not None:
            raise ServiceError(
                f"engine='event' cannot serve this configuration: "
                f"{reason} (use engine='auto' to fall back to the "
                "reference engine)")
        if reason is None:
            latencies, admitted, last_completion = serve_event(
                stream, fleet, policy, autoscaler, nodes,
                list(range(len(nodes))))
            report = _assemble_report(
                stream, fleet, policy, nodes, latencies, admitted,
                _books_close(nodes, max(last_completion,
                                        float(stream.columns().times[-1]))))
            report.engine = "event"
            report.latencies = latencies
            return report

    from repro.faults.engine import serve_reference
    return serve_reference(stream, fleet, policy, autoscaler, nodes,
                           collector, rec, schedule=faults, retry=retry,
                           shed=shed)


def _books_close(nodes: Sequence[FleetNode], end: float) -> float:
    """The instant a run's books close: ``end`` (its last completion
    or arrival), or later if a powered-on node's pipe is still busy
    then — a boot window opened by the run's last epoch step."""
    for node in nodes:
        if node.on and node.busy_until > end:
            end = node.busy_until
    return end


def _assemble_report(stream: ArrivalStream,
                     fleet: FleetSpec,
                     policy: DispatchPolicy,
                     nodes: Sequence[FleetNode],
                     latencies: np.ndarray,
                     completed: np.ndarray,
                     end: float,
                     lost: Optional[np.ndarray] = None,
                     faults: Optional[FaultStats] = None) -> ServiceReport:
    """Finalize the fleet at ``end`` and fold the run into a
    :class:`ServiceReport` — the single assembly tail both serving
    engines share, so quantile math and energy rollups cannot drift
    between them.

    ``completed`` and ``lost`` (crash-lost, chaos runs only) are
    per-arrival masks; every other arrival was rejected.  A fault-free
    run that completes nothing (overall or for one tenant) is a
    configuration error; under a fault ``schedule`` it is an outcome,
    reported with zeroed latencies.
    """
    tenant_idx = stream.tenant_index
    node_stats = [node.finalize(end) for node in nodes]
    rejected = ~completed if lost is None else ~(completed | lost)

    lat = latencies[completed]
    if lat.size:
        p50, p95, p99 = np.quantile(lat, [0.50, 0.95, 0.99])
        mean = float(lat.mean())
    elif faults is None:
        raise ServiceError("policy admitted no queries")
    else:
        p50 = p95 = p99 = mean = 0.0
    tenants = []
    for ti, tenant in enumerate(stream.tenants):
        mask = tenant_idx == ti
        t_lat = np.sort(latencies[mask & completed])
        samples = t_lat.tolist()
        if not samples and faults is None:
            raise ServiceError(
                f"tenant {tenant.name!r} completed no queries")
        tenants.append(TenantStats(
            tenant=tenant.name,
            completed=int(t_lat.size),
            rejected=int((mask & rejected).sum()),
            crashed=0 if lost is None else int((mask & lost).sum()),
            mean_latency_seconds=float(t_lat.mean()) if samples else 0.0,
            p50_latency_seconds=quantile(samples, 0.50) if samples else 0.0,
            p95_latency_seconds=quantile(samples, 0.95) if samples else 0.0,
            p99_latency_seconds=quantile(samples, 0.99) if samples else 0.0,
            sla_p95_seconds=tenant.sla_p95_seconds,
        ))

    return ServiceReport(
        policy=policy.name,
        n_nodes=len(nodes),
        queries_offered=len(latencies),
        queries_completed=int(completed.sum()),
        queries_rejected=int(rejected.sum()),
        makespan_seconds=end,
        energy_joules=sum(s.energy_joules for s in node_stats),
        p50_latency_seconds=float(p50),
        p95_latency_seconds=float(p95),
        p99_latency_seconds=float(p99),
        mean_latency_seconds=mean,
        node_seconds_on=sum(s.on_seconds for s in node_stats),
        tenants=tenants,
        nodes=node_stats,
        faults=faults,
        classes=rollup_classes(node_stats),
        fleet=fleet.to_dict(),
    )
