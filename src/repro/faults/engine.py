"""The reference serving engine: one timeline for healthy and chaos runs.

:func:`serve_reference` is the semantic ground truth of fleet serving:
the closed-form FCFS pipes and utilization-linear energy identity of
:mod:`repro.service.node`, driven one dispatch at a time through
``policy.route`` on a single heap of (time, priority, sequence) events.
Arrivals share that timeline with a batching policy's release
deadlines and, when a :class:`~repro.faults.schedule.FaultSchedule` is
given, with its node crashes, thermal throttling to a lower DVFS
state, RAID-group disk failures, and transient dispatch-timeout
windows.  A chaos run is therefore exactly as deterministic as a
healthy one — same stream, same schedule, byte-identical report — and
a healthy run is a chaos run with nothing scheduled: an empty schedule
changes nothing but the presence of the fault ledger.
:func:`repro.service.fleet.simulate_service` runs every configuration
the vectorized event core declines here, and
:func:`simulate_faulty_service` is the chaos-flavoured entry into the
same code.

Degradation is graceful, not silent.  A crash truncates the in-flight
query at the crash instant, retracts everything queued behind it, and
re-dispatches the destroyed work onto survivors under a
:class:`~repro.faults.policies.RetryPolicy` (exponential backoff, a
bounded attempt budget); a :class:`~repro.faults.policies.ShedPolicy`
refuses arrivals that could no longer meet their tenant's SLA; the
:class:`~repro.service.autoscale.Autoscaler` prices replacement boots
at crash instants against its break-even rule.  Every arrival ends in
exactly one bucket — completed, rejected, or crash-lost — and the
:class:`~repro.service.report.FaultStats` ledger reconciles them.

Observers (telemetry's device mirror, the flight recorder) see each
execution once it is *settled*.  Without a crash in the schedule
nothing can be retracted, so an execution settles the instant it is
dispatched; a schedule holding a crash defers settlement until the
execution is confirmed to predate every later fault on its node, so
observers never record work a crash takes back.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from collections import deque
from typing import Optional

import numpy as np

from repro.faults.policies import RetryPolicy, ShedPolicy
from repro.faults.schedule import FaultError, FaultSchedule
from repro.service.autoscale import Autoscaler
from repro.service.dispatch import (DispatchContext, DispatchPolicy,
                                    dispatch_candidates)
from repro.service.fleet import (_assemble_report, _books_close,
                                 _TelemetryMirror, simulate_service)
from repro.service.node import FleetNode
from repro.service.report import FaultStats, ServiceReport
from repro.service.spec import FleetSpec
from repro.service.workload import ArrivalStream

# arrival-state codes for the arrivals that never complete (a
# completed arrival is one with a latency)
_OPEN, _REJECTED, _LOST = 0, 1, 2
# heap priorities: faults and repairs rewrite the world the
# re-dispatches then see, so they win ties; batch releases run last so
# a released batch dispatches onto the post-fault fleet
_PRIO_FAULT, _PRIO_REDISPATCH, _PRIO_RELEASE = 0, 1, 2
_EMPTY: frozenset = frozenset()


def _merge_windows(windows: list[tuple[float, float]]) \
        -> tuple[list[float], list[float]]:
    """Union overlapping [start, end) windows; returns (starts, ends)
    as parallel ascending lists for bisection."""
    starts: list[float] = []
    ends: list[float] = []
    for s, e in sorted(windows):
        if starts and s <= ends[-1]:
            ends[-1] = max(ends[-1], e)
        else:
            starts.append(s)
            ends.append(e)
    return starts, ends


def simulate_faulty_service(stream: ArrivalStream,
                            schedule: FaultSchedule,
                            fleet: Optional[FleetSpec] = None,
                            policy: DispatchPolicy | str = "power_aware",
                            autoscaler: Optional[Autoscaler] = None,
                            retry: Optional[RetryPolicy] = None,
                            shed: Optional[ShedPolicy] = None,
                            engine: str = "auto",
                            **policy_kwargs) -> ServiceReport:
    """Serve ``stream`` on a fleet while ``schedule`` breaks it.

    ``fleet`` is a :class:`~repro.service.spec.FleetSpec` (default: 16
    calibrated ``commodity`` nodes).  Chaos runs always execute on the
    reference engine — fault windows rewrite per-node history, which
    the vectorized event core of :mod:`repro.service.engine` cannot
    replay — so ``engine`` accepts ``"auto"``/``"loop"`` (both run the
    reference engine) and rejects ``"event"``.  On a heterogeneous
    fleet every fault prices against the struck node's *own* power
    curve — a throttled wimpy node's busy draw follows the cubic DVFS
    rule on its class's idle/peak watts, a crashed node retracts its
    own marginal Joules, and the autoscaler's emergency replacement
    boots are gated by each spare's own break-even time.

    Semantics per fault kind:

    * ``crash`` — the node loses power at the fault instant: the
      in-flight query is destroyed mid-execution, the queue behind it
      is retracted, no drain lump is paid, and the node is bootable
      again only at crash + downtime.  Destroyed queries re-dispatch
      onto survivors after ``retry`` backoff until the attempt budget
      runs out (then they count as *lost*).  A crash that lands on an
      already-down node is skipped; one that lands inside the atomic
      boot window fires at the window's end.
    * ``throttle`` — the node drops to DVFS fraction *f* for the
      window: service times divide by *f*, busy power is
      ``idle + (peak - idle) * f**3`` (the cubic dynamic-power rule of
      :func:`repro.hardware.cpu.dvfs_power_watts`).  Overlapping
      windows compound.
    * ``disk`` — the node's RAID group runs degraded for the rebuild:
      service times divide by the event severity (see
      :func:`~repro.faults.schedule.degraded_speed_factor`); power is
      unchanged.
    * ``timeout`` — dispatch attempts routed to the node during the
      window fail after ``retry.timeout_detect_seconds`` and re-route
      to a survivor (degraded-mode dispatch); an arrival that burns
      its whole attempt budget on timeouts is rejected.

    A DVFS governor's downclock (PVC) composes with any active
    throttle window (effective cubic factor is their product), and a
    batching policy's hold queues (QED) release through the same event
    heap — a released batch routes, sheds, crashes, and retries as one
    unit, with every member sharing the outcome.  Batch tenants stay
    exempt from the admission limit, exactly as on a healthy run.

    The returned :class:`~repro.service.report.ServiceReport` carries a
    :class:`~repro.service.report.FaultStats` ledger reconciling every
    arrival: ``offered == completed + rejected + lost``, exactly.

    >>> from repro.faults.schedule import FaultEvent, FaultSchedule
    >>> from repro.service.spec import FleetSpec
    >>> from repro.service.workload import build_stream
    >>> stream = build_stream(200, seed=1)
    >>> crash = FaultEvent(kind="crash", node=0, start=1.0, duration=30.0)
    >>> plan = FaultSchedule(n_nodes=4, horizon_seconds=60.0,
    ...                      events=(crash,))
    >>> report = simulate_faulty_service(
    ...     stream, plan, fleet=FleetSpec.homogeneous(4),
    ...     policy="round_robin")
    >>> report.faults.crashes
    1
    >>> report.queries_offered == (report.queries_completed
    ...                            + report.queries_rejected
    ...                            + report.queries_lost)
    True
    """
    if not isinstance(schedule, FaultSchedule):
        raise FaultError("schedule must be a FaultSchedule, got "
                         f"{type(schedule).__name__}")
    return simulate_service(stream, fleet=fleet, policy=policy,
                            autoscaler=autoscaler, faults=schedule,
                            retry=retry, shed=shed, engine=engine,
                            **policy_kwargs)


def serve_reference(stream: ArrivalStream,
                    fleet: FleetSpec,
                    policy: DispatchPolicy,
                    autoscaler: Optional[Autoscaler],
                    nodes: list[FleetNode],
                    collector=None,
                    rec=None,
                    schedule: Optional[FaultSchedule] = None,
                    retry: Optional[RetryPolicy] = None,
                    shed: Optional[ShedPolicy] = None) -> ServiceReport:
    """Run the reference engine on the live ``nodes``; returns the
    report (``engine="loop"``).

    ``collector``/``rec`` are the installed telemetry collector and
    flight recorder (or None).  With ``schedule`` None the run is
    healthy and the report carries no fault ledger; ``retry``
    (default :class:`RetryPolicy`) and ``shed`` only act on a
    schedule's faults.
    """
    n_nodes = len(nodes)
    if schedule is not None:
        if schedule.n_nodes != n_nodes:
            raise FaultError(
                f"schedule covers {schedule.n_nodes} nodes but the fleet "
                f"has {n_nodes}")
        if retry is None:
            retry = RetryPolicy()
    on_ids = list(range(n_nodes))

    mirror = (None if collector is None else
              _TelemetryMirror(collector, nodes))
    if rec is not None:
        rec.begin_run(stream, nodes, policy.name, autoscaler is not None)
    rec_detail = rec is not None and rec.detail
    lane = None if rec is None else rec.serve_lane
    batching = policy.batching
    dvfs = policy.dvfs

    cols = stream.columns()
    times, services, slas = cols.lists()
    tenants = cols.tenant_index.tolist()
    # batch tenants (pipelines) are exempt from the admission limit:
    # backlog rejection guards latency, and batch work has none to
    # guard — it only has a freshness deadline
    batch_flags = (None if cols.batch_flags is None
                   else cols.batch_flags.tolist())
    n = len(times)
    latencies = [float("nan")] * n
    state = bytearray(n)  # every arrival starts _OPEN
    attempts = [0] * n    # per dispatch unit, keyed by its first member
    was_crashed = np.zeros(n, dtype=bool)

    # -- per-node fault state (each node on its class's power curve) --
    peak_minus_idle = [node.model.peak_watts - node.model.idle_watts
                       for node in nodes]
    #: active degraded windows per node: (kind, severity), kind
    #: "throttle" or "disk"; overlapping windows compound
    degraded: list[list[tuple[str, float]]] = [[] for _ in range(n_nodes)]
    speed_mult = [1.0] * n_nodes
    throttle_factor = [1.0] * n_nodes
    #: busy draw of a degraded node; None on a healthy one, whose
    #: full-speed serves are priced in the node's linear lane
    busy_watts: list[Optional[float]] = [None] * n_nodes

    def recompute(i: int) -> None:
        tf = df = 1.0
        for kind, f in degraded[i]:
            if kind == "throttle":
                tf *= f
            else:
                df *= f
        speed_mult[i] = tf * df
        throttle_factor[i] = tf
        busy_watts[i] = (nodes[i].model.idle_watts
                         + peak_minus_idle[i] * tf ** 3
                         if degraded[i] else None)

    # -- the merged event timeline ------------------------------------
    heap: list[tuple] = []
    seq = 0

    def push(at: float, prio: int, kind: str, payload) -> None:
        nonlocal seq
        heapq.heappush(heap, (at, prio, seq, kind, payload))
        seq += 1

    stats = FaultStats()
    crash_intervals: list[tuple[float, float]] = []
    #: merged (starts, ends) timeout windows per node; None: no window
    timeouts: list = [None] * n_nodes
    #: unsettled executions per node, (job, dispatched_at, start, end,
    #: busy_watts, frequency) — only kept when a crash may retract them
    pending: Optional[list[deque]] = None
    if schedule is not None:
        timeout_raw: list[list[tuple[float, float]]] = \
            [[] for _ in range(n_nodes)]
        for event in schedule.events:
            if event.kind == "timeout":
                timeout_raw[event.node].append((event.start, event.end))
                stats.timeout_windows += 1
            else:
                push(event.start, _PRIO_FAULT, "fault", event)
                if event.kind == "crash" and pending is None:
                    pending = [deque() for _ in range(n_nodes)]
        timeouts = [_merge_windows(w) if w else None for w in timeout_raw]

    # -- settlement: hand an execution to the observers ----------------
    def complete(i: int, job, at: float, start: float, end: float,
                 w: Optional[float], freq: float) -> None:
        if type(job) is int:
            latencies[job] = end - times[job]
            if rec is not None:
                if w is None:
                    lane[job] = i
                else:
                    rec.active_serves.append((job, i, start, end, w, freq))
        else:
            for m in job.members:
                latencies[m] = end - times[m]
            if rec is not None:
                rec.batch_serves.append((job.members, i, at, start, end,
                                         job.service_seconds, freq, w))
        if mirror is not None:
            mirror.serve(i, start, end, w)

    def settle(i: int, upto: float) -> None:
        q = pending[i]
        while q and q[0][3] <= upto:
            complete(i, *q.popleft())

    # -- dispatch (and re-dispatch) -----------------------------------
    # ``job`` is an arrival index, or (when the policy batches) a
    # released Batch dispatched as one shared execution: its combined
    # demand routes, executes, and sheds as a unit, and every member
    # shares the outcome (latency, rejection, crash loss)
    last_completion = 0.0

    def members_of(job) -> list[int]:
        return [job] if type(job) is int else list(job.members)

    def resolve(job, code: int) -> list[int]:
        members = members_of(job)
        for m in members:
            state[m] = code
        return members

    def candidates(job, now: float, excluded: frozenset):
        """The node ids a re-dispatch may route to, or None when the
        fleet is dark and the job was parked until a repair."""
        # every survivor excluded: forget the exclusions and spend
        # attempts anywhere rather than stall
        ids = [i for i in on_ids if i not in excluded] or on_ids
        if ids:
            return ids
        # total blackout: boot a repaired spare, else park the job
        # until the earliest repair completes
        spare = next((i for i in range(n_nodes)
                      if not nodes[i].on
                      and nodes[i].busy_until <= now), None)
        if spare is None:
            wake = min(nodes[i].busy_until for i in range(n_nodes))
            push(wake, _PRIO_REDISPATCH, "redispatch", (job, _EMPTY))
            return None
        nodes[spare].power_on(now)
        on_ids.append(spare)
        stats.emergency_boots += 1
        if mirror is not None:
            mirror.power_on(spare, now)
        if rec is not None:
            rec.events.append((now, "boot", spare, None, None,
                               {"reason": "blackout"}))
        return on_ids

    def dispatch(job, now: float, excluded: frozenset) -> None:
        nonlocal last_completion
        ids = on_ids
        if excluded or not ids:
            ids = candidates(job, now, excluded)
            if ids is None:
                return
        solo = type(job) is int
        if solo:
            first = job
            s = services[job]
            sla = slas[job]
        else:
            first = job.members[0]
            s = job.service_seconds
            sla = job.sla_seconds
        ctx = DispatchContext(nodes, ids, now, s, sla)
        i = policy.route(ctx)
        node = nodes[i]
        if retry is not None:  # only faults retry or exhaust attempts
            attempts[first] += 1
        if rec_detail:
            rec.events.append(
                (now, "dispatch", i, tenants[job] if solo else None,
                 first, dispatch_candidates(ctx, i)))
        windows = timeouts[i]
        if windows is not None and now >= windows[0][0] and \
                now < windows[1][bisect_right(windows[0], now) - 1]:
            stats.timeouts += 1
            if retry.exhausted(attempts[first]):
                members = resolve(job, _REJECTED)
                if rec is not None:
                    rec.events.append(
                        (now, "reject", i, None, first,
                         {"reason": "timeout", "members": members}))
            else:
                stats.retries += 1
                delay = (retry.timeout_detect_seconds
                         + retry.backoff_seconds(attempts[first]))
                push(now + delay, _PRIO_REDISPATCH, "redispatch",
                     (job, excluded | {i}))
                if rec is not None:
                    members = members_of(job)
                    rec.events.append(
                        (now, "timeout", i, None, first,
                         {"retry_at": now + delay, "members": members}))
                    rec.events.append(
                        (now, "retry", i, None, first,
                         {"reason": "timeout", "members": members}))
            return
        if not policy.admits(node, now) and \
                (batch_flags is None or not batch_flags[first]):
            members = resolve(job, _REJECTED)
            if rec is not None:
                rec.events.append(
                    (now, "reject", i, tenants[job], job, {}) if solo
                    else (now, "reject", i, None, first,
                          {"members": members}))
            return
        if shed is not None and shed.sheds(
                node.backlog(now),
                s / (node.model.speed_factor * speed_mult[i]), sla):
            members = resolve(job, _REJECTED)
            stats.queries_shed += len(members)
            if rec is not None:
                rec.events.append((now, "shed", i, None, first,
                                   {"members": members}))
            return
        freq = 1.0
        w = busy_watts[i]
        if dvfs:
            f = policy.frequency(ctx, i)
            if f < 1.0:
                # compose the governor's downclock with any throttle
                # fault: both follow the cubic dynamic-power rule, so
                # the effective cubic factor is their product
                freq = f
                w = node.model.idle_watts \
                    + peak_minus_idle[i] * (throttle_factor[i] * f) ** 3
        if w is None:
            # healthy and full speed: the node's linear lane
            bu = node.busy_until
            start = bu if bu > now else now
            node.serve(now, s)
            end = node.busy_until
        else:
            start, end = node.serve_active(now, s, w, speed_mult[i] * freq)
        if not solo:
            # serve()/serve_active() count one completion; the other
            # members of the shared execution complete with it
            node.completed += len(job.members) - 1
        if end > last_completion:
            last_completion = end
        if pending is not None:
            pending[i].append((job, now, start, end, w, freq))
        elif solo and w is None and mirror is None:
            # a plain serve nothing can retract: latency + a lane store
            latencies[job] = end - times[job]
            if lane is not None:
                lane[job] = i
        else:
            complete(i, job, now, start, end, w, freq)

    # -- fault application --------------------------------------------
    def do_crash(i: int, now: float, downtime: float) -> None:
        node = nodes[i]
        if not node.on:
            stats.faults_skipped += 1
            return
        if now < node.boot_until:
            # the boot window is atomic: the lump is unsplittable, so
            # a mid-boot crash fires the instant the boot completes
            push(node.boot_until, _PRIO_FAULT, "crash_deferred",
                 (i, downtime))
            return
        settle(i, now)
        q = pending[i]
        idle = node.model.idle_watts
        lost = list(q)  # destroyed executions, in queue order
        q.clear()
        lost_queries = sum(len(members_of(e[0])) for e in lost)
        retract_busy = retract_linear = retract_joules = 0.0
        for k, (job, _at, start, end, w, _freq) in enumerate(lost):
            scaled = end - start
            if k == 0 and start < now:
                # in flight: ran up to the crash, then destroyed
                scaled -= now - start
                if mirror is not None:
                    mirror.serve(i, start, now, w)
                if rec is not None:
                    rec.events.append(
                        (now, "truncated_serve", i, None,
                         members_of(job)[0],
                         {"start": start, "end": now,
                          "watts": node.model.peak_watts
                          if w is None else w}))
            # retract from the lane the execution was priced in
            retract_busy += scaled
            if w is None:
                retract_linear += scaled
            else:
                retract_joules += (w - idle) * scaled
        node.retract(retract_busy, retract_linear, retract_joules,
                     lost_queries)
        repair_at = now + downtime
        node.crash(now, repair_at)
        on_ids.remove(i)
        stats.crashes += 1
        crash_intervals.append((now, repair_at))
        if mirror is not None:
            mirror.crash(i, now)
        if rec is not None:
            rec.events.append((now, "crash", i, None, None,
                               {"repair_at": repair_at,
                                "lost": lost_queries}))
        push(repair_at, _PRIO_FAULT, "repair", i)
        for job, *_ in lost:
            members = members_of(job)
            was_crashed[members] = True
            if retry.exhausted(attempts[members[0]]):
                resolve(job, _LOST)
                if rec is not None:
                    rec.events.append((now, "lost", i, None, members[0],
                                       {"members": members}))
            else:
                stats.retries += 1
                push(now + retry.backoff_seconds(attempts[members[0]]),
                     _PRIO_REDISPATCH, "redispatch", (job, _EMPTY))
                if rec is not None:
                    rec.events.append(
                        (now, "retry", i, None, members[0],
                         {"reason": "crash", "members": members}))
        if autoscaler is not None:
            booted = autoscaler.emergency(now, nodes, on_ids, downtime)
            if mirror is not None:
                for b in booted:
                    mirror.power_on(b, now)

    def do_repair(i: int, now: float) -> None:
        node = nodes[i]
        stats.recoveries += 1
        if rec is not None:
            rec.events.append((now, "repair", i, None, None, {}))
        if node.on:
            return
        if autoscaler is None or not on_ids:
            # all-on fleets restore their node count; an autoscaled
            # fleet leaves the repaired node parked as a spare (unless
            # the fleet has gone dark, which liveness can't wait out)
            if node.busy_until <= now:
                node.power_on(now)
                on_ids.append(i)
                on_ids.sort()
                if mirror is not None:
                    mirror.power_on(i, now)
                if rec is not None:
                    rec.events.append((now, "boot", i, None, None,
                                       {"reason": "repair"}))

    # -- batch release plumbing (only when the policy batches) --------
    # every policy interaction reschedules one wake-up at the earliest
    # outstanding hold deadline; stale wake-ups (the queue already
    # flushed full) fall through ``due`` as no-ops
    scheduled_releases: set[float] = set()

    def schedule_release() -> None:
        nd = policy.next_deadline()
        if nd != float("inf") and nd not in scheduled_releases:
            scheduled_releases.add(nd)
            push(nd, _PRIO_RELEASE, "release", None)

    def execute_batch(batch, now: float) -> None:
        # the autoscaler observes the *combined* (shared) demand at
        # release — consolidation pressure follows executed work
        if autoscaler is not None:
            autoscaler.observe(batch.service_seconds)
        dispatch(batch, now, _EMPTY)

    # -- the run -------------------------------------------------------
    epoch = autoscaler.epoch_seconds if autoscaler is not None else 0.0
    next_epoch = epoch if autoscaler is not None else float("inf")
    # epochs stop with the workload: late releases, faults, and repairs
    # must not keep the autoscaler power-cycling a fleet that has
    # nothing left to serve
    last_arrival = times[-1]
    k_next = 0
    while k_next < n or heap:
        if heap and (k_next >= n or heap[0][0] <= times[k_next]):
            t, _prio, _seq, kind, payload = heapq.heappop(heap)
        else:
            t, kind, payload = times[k_next], "arrival", k_next
            k_next += 1
        while t >= next_epoch and next_epoch <= last_arrival:
            if pending is not None:
                for i in list(on_ids):
                    settle(i, next_epoch)
            autoscaler.step(next_epoch, nodes, on_ids)
            if mirror is not None:
                mirror.sync(nodes)
            next_epoch += epoch
        if kind == "arrival":
            if batching:
                for batch in policy.offer(payload, t, services[payload],
                                          tenants[payload],
                                          slas[payload]):
                    execute_batch(batch, t)
                schedule_release()
            else:
                if autoscaler is not None:
                    autoscaler.observe(services[payload])
                dispatch(payload, t, _EMPTY)
        elif kind == "release":
            scheduled_releases.discard(t)
            for batch in policy.due(t):
                execute_batch(batch, t)
            schedule_release()
        elif kind == "redispatch":
            job, excluded = payload
            dispatch(job, t, excluded)
        elif kind == "fault":
            event = payload
            if event.kind == "crash":
                do_crash(event.node, t, event.duration)
            else:  # throttle or disk: a degraded window on one node
                throttle = event.kind == "throttle"
                degraded[event.node].append((event.kind, event.severity))
                recompute(event.node)
                if throttle:
                    stats.throttle_windows += 1
                else:
                    stats.disk_failures += 1
                push(event.end, _PRIO_FAULT, "fault_end",
                     (event.kind, event.node, event.severity))
                if rec is not None:
                    rec.events.append(
                        (t, "throttle_start" if throttle else "disk_fail",
                         event.node, None, None,
                         {"severity": event.severity, "until": event.end}))
        elif kind == "fault_end":
            which, i, severity = payload
            degraded[i].remove((which, severity))
            recompute(i)
            if rec is not None:
                rec.events.append(
                    (t, "throttle_end" if which == "throttle"
                     else "disk_recover", i, None, None,
                     {"severity": severity}))
        elif kind == "crash_deferred":
            i, downtime = payload
            do_crash(i, t, downtime)
        else:  # repair
            do_repair(payload, t)

    if batching:
        # every open hold had a scheduled release, so this is normally
        # empty; it guards third-party batching policies whose
        # ``next_deadline`` under-reports
        for batch in policy.flush():
            execute_batch(batch, batch.release_at)

    # -- close the books ----------------------------------------------
    end = _books_close(nodes, max(last_completion, last_arrival))
    # a crash that struck a powered-on node after the serving window
    # still closed that node's energy interval at the crash instant;
    # the fleet (and the telemetry mirror) must integrate idle draw on
    # the survivors out to the same instant or the books won't balance
    for crashed_at, _repair_at in crash_intervals:
        if crashed_at > end:
            end = crashed_at
    if pending is not None:
        for i in range(n_nodes):
            settle(i, end)
    lat = np.array(latencies)
    completed = lat == lat  # NaN: never completed
    codes = np.frombuffer(state, dtype=np.int8)
    if (~completed & (codes == _OPEN)).any():  # pragma: no cover
        raise FaultError("internal: arrivals left unresolved")
    crash_lost = faults = None
    if schedule is not None:
        crash_lost = codes == _LOST
        stats.queries_lost = int(crash_lost.sum())
        stats.queries_recovered = int((was_crashed & completed).sum())
        stats.emergency_boots += (autoscaler.emergency_boots
                                  if autoscaler is not None else 0)
        stats.node_seconds_lost = sum(
            max(0.0, min(repair, end) - crashed)
            for crashed, repair in crash_intervals)
        stats.downtime_fraction = (stats.node_seconds_lost
                                   / (n_nodes * end) if end > 0 else 0.0)
        faults = stats

    report = _assemble_report(stream, fleet, policy, nodes, lat,
                              completed, end, lost=crash_lost,
                              faults=faults)
    report.engine = "loop"
    report.latencies = lat
    if rec is not None:
        rec.end_run(end, report, latencies=lat)
    if mirror is not None:
        mirror.finish(end, report)
    return report
