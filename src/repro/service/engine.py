"""The vectorized array-of-events serving core.

:func:`repro.service.fleet.simulate_service` owns two engines.  The
**reference engine** (:func:`repro.faults.engine.serve_reference`)
walks dispatches one ``DispatchContext`` at a time — every query
allocates a context, scans the fleet inside ``policy.route``, and pays
a method call per bookkeeping update.  That is ~2-30 µs per query
depending on the policy, which caps frontier sweeps near 10^6
queries.  This module is the **event core**: the same
simulation expressed over the columnar arrays of
:meth:`~repro.service.workload.ArrivalStream.columns`, with routing
served by O(log n) incremental structures instead of per-arrival fleet
scans:

* ``round_robin`` — the rotation is a closed form (arrival ``k`` lands
  on slot ``(next + k) % n``), so each node's arrival lane is a strided
  slice and the whole fleet runs as independent per-pipe recurrences.
* ``least_loaded`` — one binary heap of ``(busy_until, index)``; the
  root *is* the first-strict-minimum scan result, and ``heapreplace``
  after each serve keeps it exact.
* ``power_aware`` — packable candidates live in per-cost-rate
  min-index heaps fed by a ``waiting`` heap keyed on ``busy_until``;
  because arrivals (and so the pack bound) are monotone, a node
  migrates between the two at most once per serve, with stale entries
  dropped lazily by exact ``busy_until`` comparison.
* ``cost_aware`` — one segment tree per class block over node
  ``busy_until``; the cheapest-fitting node is a leftmost descent with
  the same monotone float predicate the reference scan evaluates.
* ``pvc(...)`` — the governor ladder runs inline on precomputed
  per-(class, step) constants: ``speed_factor * f`` and the cubic busy
  draw are computed once, with the identical expressions the reference
  engine evaluates per arrival.

**The contract is byte-identity, not approximation.**  The core
mutates the *real* :class:`~repro.service.node.FleetNode` objects with
the same float operations, in the same order, as
``FleetNode.serve``/``serve_active`` — it only inlines them — and the
real :class:`~repro.service.autoscale.Autoscaler` steps the real nodes
at epoch boundaries, so energy books, boot decisions, and
``ServiceReport.to_dict()`` match the reference engine bit for bit
(the equivalence suite pins this across policies, fleets, and seeds).
Floating-point order is load-bearing everywhere: heaps compare exact
``busy_until`` values, interval accumulators add in arrival order, and
no sum is ever re-associated.

Configurations the core cannot reproduce exactly — batching policies
(QED's hold/release protocol), fault schedules, telemetry capture,
flight recording, and admission-exempt batch tenants under an
admission limit — are declined by :func:`event_core_unsupported`, and
``engine="auto"`` falls back to the reference engine.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush, heapreplace
from typing import Optional, Sequence

import numpy as np

from repro.service.autoscale import Autoscaler
from repro.service.dispatch import (CostAware, DispatchPolicy, LeastLoaded,
                                    PowerAwarePacking, RoundRobin)
from repro.service.node import FleetNode
from repro.service.pvc import PVCPolicy
from repro.service.report import ServiceError
from repro.service.spec import FleetSpec
from repro.service.workload import ArrivalStream

#: arrivals marshalled per chunk — bounds the Python-list working set
#: (a 10M-query stream never holds more than ~1.5 MB of scalar floats)
CHUNK = 65536

_INF = float("inf")

#: routers with a vectorized kernel (exact types: a subclass may
#: override route(), so it must take the reference engine)
_VECTOR_ROUTERS = (RoundRobin, LeastLoaded, PowerAwarePacking, CostAware)


def event_core_unsupported(policy: DispatchPolicy,
                           collector=None,
                           recorder=None,
                           faults: bool = False,
                           stream: Optional[ArrivalStream] = None
                           ) -> Optional[str]:
    """Why this configuration must run on the reference engine.

    Returns ``None`` when the event core can serve it, else a one-line
    reason (used verbatim in the ``engine="event"`` error and useful
    for debugging an unexpected ``auto`` fallback).
    """
    if faults:
        return "fault schedules replay on the reference engine"
    if collector is not None:
        return ("telemetry capture needs the reference engine's "
                "device mirror")
    if recorder is not None:
        return ("flight recording needs the reference engine's "
                "event hooks")
    if stream is not None and policy.admission_limit_seconds is not None \
            and any(t.batch for t in stream.tenants):
        return ("batch tenants are admission-exempt, which the event "
                "core's vectorized admission does not model")
    router = policy.inner if type(policy) is PVCPolicy else policy
    if policy.batching or router.batching:
        return (f"policy {policy.name!r} batches arrivals "
                "(offer/due hold protocol)")
    if type(router) not in _VECTOR_ROUTERS:
        return f"policy {policy.name!r} has no vectorized kernel"
    return None


def serve_event(stream: ArrivalStream,
                fleet: FleetSpec,
                policy: DispatchPolicy,
                autoscaler: Optional[Autoscaler],
                nodes: Sequence[FleetNode],
                on_ids: list[int]) -> tuple[np.ndarray, np.ndarray, float]:
    """Run the event core; returns ``(latencies, admitted,
    last_completion)``.

    ``nodes``/``on_ids`` are the live fleet (mutated in place, exactly
    as the reference engine mutates them); the caller finalizes the
    nodes and assembles the report, so both engines share one tail.
    """
    reason = event_core_unsupported(policy)
    if reason is not None:  # pragma: no cover - guarded by the caller
        raise ServiceError(f"event core cannot run this config: {reason}")
    cols = stream.columns()
    n = len(cols)
    pvc = policy if type(policy) is PVCPolicy else None
    router = policy.inner if pvc is not None else policy
    pvc_tables = None if pvc is None else _pvc_tables(pvc, nodes)
    latencies = np.empty(n)
    rejected: list[int] = []

    rt = type(router)
    if rt is RoundRobin:
        last = _run_round_robin(cols, router, pvc, pvc_tables, nodes,
                                on_ids, latencies, rejected)
    elif rt is LeastLoaded:
        last = _run_least_loaded(cols, router, pvc, pvc_tables, nodes,
                                 on_ids, latencies, rejected)
    elif rt is PowerAwarePacking:
        last = _run_power_aware(cols, router, pvc, pvc_tables, nodes,
                                on_ids, autoscaler, latencies, rejected)
    else:
        last = _run_cost_aware(cols, fleet, router, pvc, pvc_tables,
                               nodes, on_ids, autoscaler, latencies,
                               rejected)

    admitted = np.ones(n, dtype=bool)
    if rejected:
        admitted[np.array(rejected, dtype=np.int64)] = False
    return latencies, admitted, last


# -- shared pieces ----------------------------------------------------

def _pvc_tables(pvc: PVCPolicy, nodes: Sequence[FleetNode]) -> list[list]:
    """Per-node downclock constants, one row per sub-unity step.

    Each row is ``(f, speed_factor * f, busy_watts - idle_watts)`` with
    ``busy_watts = idle + (peak - idle) * f**3`` — the exact
    expressions the reference engine evaluates per arrival (its cubic
    draw and ``FleetNode.serve_active``'s scaled divisor), precomputed
    once per (model, step) so byte-identity survives the hoisting.
    """
    steps = [f for f in pvc.frequency_steps if f < 1.0]
    by_model: dict = {}
    table = []
    for node in nodes:
        model = node.model
        rows = by_model.get(model)
        if rows is None:
            pmi = model.peak_watts - model.idle_watts
            rows = []
            for f in steps:
                busy_watts = model.idle_watts + pmi * f ** 3
                rows.append((f, model.speed_factor * f,
                             busy_watts - model.idle_watts))
            by_model[model] = rows
        table.append(rows)
    return table


def _epoch_setup(autoscaler: Optional[Autoscaler]) -> tuple[float, float,
                                                            float]:
    """``(epoch, next_epoch, carried demand)`` mirroring the reference
    engine's initialization."""
    if autoscaler is None:
        return 0.0, _INF, 0.0
    return (autoscaler.epoch_seconds, autoscaler.epoch_seconds,
            autoscaler._epoch_demand_seconds)


# -- round_robin ------------------------------------------------------

def _run_round_robin(cols, router: RoundRobin, pvc, pvc_tables,
                     nodes, on_ids, latencies, rejected) -> float:
    """Closed-form rotation: node at slot ``j`` serves the arrival
    lane ``(j - next) % n_on :: n_on``, so every pipe runs as an
    independent scalar recurrence over a strided slice (round_robin is
    never autoscaled, so the rotation never changes mid-run)."""
    times = cols.times
    services = cols.service_seconds
    slas = cols.sla_seconds
    n = len(cols)
    n_on = len(on_ids)
    start0 = router._next
    # route() runs (and counts) for every arrival, rejected included
    router._next = start0 + n
    limit = router.admission_limit_seconds
    outer = pvc.admission_limit_seconds if pvc is not None else None
    headroom = pvc.sla_headroom if pvc is not None else 0.0
    nan = float("nan")
    last_completion = 0.0

    for slot in range(n_on):
        first = (slot - start0) % n_on
        if first >= n:
            continue
        i = on_ids[slot]
        node = nodes[i]
        sf = node.model.speed_factor
        tl = times[first::n_on].tolist()
        sl = services[first::n_on].tolist()
        bu = node.busy_until
        ib = il = ia = 0.0
        cnt = 0
        lats: list[float] = []
        append = lats.append
        if pvc is None and limit is None:
            # the hot homogeneous path: pure FCFS pipe recurrence
            if sf == 1.0:
                for t, s in zip(tl, sl):
                    start = bu if bu > t else t
                    bu = start + s
                    ib += s
                    append(bu - t)
            else:
                for t, s in zip(tl, sl):
                    scaled = s / sf
                    start = bu if bu > t else t
                    bu = start + scaled
                    ib += scaled
                    append(bu - t)
            il = ib  # serve() adds the same sequence to both lanes
            cnt = len(lats)
        elif pvc is None:
            for off, (t, s) in enumerate(zip(tl, sl)):
                backlog = bu - t if bu > t else 0.0
                if backlog > limit:
                    rejected.append(first + off * n_on)
                    append(nan)
                    continue
                scaled = s / sf
                start = bu if bu > t else t
                bu = start + scaled
                ib += scaled
                il += scaled
                cnt += 1
                append(bu - t)
        else:
            ql = slas[first::n_on].tolist()
            steps = pvc_tables[i]
            for off, (t, s, q) in enumerate(zip(tl, sl, ql)):
                backlog = bu - t if bu > t else 0.0
                if (outer is not None and backlog > outer) or \
                        (limit is not None and backlog > limit):
                    rejected.append(first + off * n_on)
                    append(nan)
                    continue
                budget = q * headroom
                execution = s / sf
                picked = None
                for row in steps:
                    if backlog + execution / row[0] <= budget:
                        picked = row
                        break
                if picked is None:
                    scaled = execution
                    start = bu if bu > t else t
                    bu = start + scaled
                    ib += scaled
                    il += scaled
                else:
                    scaled = s / picked[1]
                    start = bu if bu > t else t
                    bu = start + scaled
                    ib += scaled
                    ia += picked[2] * scaled
                cnt += 1
                append(bu - t)
        node.busy_until = bu
        node._interval_busy = ib
        node._interval_linear_busy = il
        node._interval_active_joules = ia
        node.completed = cnt
        if cnt and bu > last_completion:
            last_completion = bu
        latencies[first::n_on] = lats
    return last_completion


# -- least_loaded -----------------------------------------------------

def _run_least_loaded(cols, router: LeastLoaded, pvc, pvc_tables,
                      nodes, on_ids, latencies, rejected) -> float:
    """Join-the-shortest-queue off a ``(busy_until, index)`` heap: the
    root is exactly the reference scan's first-strict-minimum, and
    only the served root ever changes, so the heap is never stale."""
    times = cols.times
    services = cols.service_seconds
    slas = cols.sla_seconds
    n = len(cols)
    limit = router.admission_limit_seconds
    outer = pvc.admission_limit_seconds if pvc is not None else None
    headroom = pvc.sla_headroom if pvc is not None else 0.0
    check = limit is not None or outer is not None
    sf_of = [node.model.speed_factor for node in nodes]
    heap = [(nodes[i].busy_until, i) for i in on_ids]
    heapify(heap)
    bus = [node.busy_until for node in nodes]
    ib_l = [0.0] * len(nodes)
    il_l = [0.0] * len(nodes)
    ia_l = [0.0] * len(nodes)
    cnt_l = [0] * len(nodes)
    nan = float("nan")
    last_completion = 0.0

    for a in range(0, n, CHUNK):
        tl = times[a:a + CHUNK].tolist()
        sl = services[a:a + CHUNK].tolist()
        ql = slas[a:a + CHUNK].tolist()
        lats: list[float] = []
        append = lats.append
        for t, s, q in zip(tl, sl, ql):
            bu, i = heap[0]
            if check:
                backlog = bu - t if bu > t else 0.0
                if (outer is not None and backlog > outer) or \
                        (limit is not None and backlog > limit):
                    rejected.append(a + len(lats))
                    append(nan)
                    continue
            sf = sf_of[i]
            if pvc is None:
                scaled = s / sf
                start = bu if bu > t else t
                end = start + scaled
                il_l[i] += scaled
            else:
                backlog = bu - t if bu > t else 0.0
                budget = q * headroom
                execution = s / sf
                picked = None
                for row in pvc_tables[i]:
                    if backlog + execution / row[0] <= budget:
                        picked = row
                        break
                if picked is None:
                    scaled = execution
                    start = bu if bu > t else t
                    end = start + scaled
                    il_l[i] += scaled
                else:
                    scaled = s / picked[1]
                    start = bu if bu > t else t
                    end = start + scaled
                    ia_l[i] += picked[2] * scaled
            heapreplace(heap, (end, i))
            bus[i] = end
            ib_l[i] += scaled
            cnt_l[i] += 1
            append(end - t)
            if end > last_completion:
                last_completion = end
        latencies[a:a + len(lats)] = lats

    for i in on_ids:
        node = nodes[i]
        node.busy_until = bus[i]
        node._interval_busy = ib_l[i]
        node._interval_linear_busy = il_l[i]
        node._interval_active_joules = ia_l[i]
        node.completed = cnt_l[i]
    return last_completion


# -- power_aware ------------------------------------------------------

def _run_power_aware(cols, router: PowerAwarePacking, pvc, pvc_tables,
                     nodes, on_ids, autoscaler, latencies,
                     rejected) -> float:
    """Packing over two lazy heaps.

    ``waiting`` orders nodes past the pack bound by ``busy_until``;
    per-cost-rate ``pack_heaps`` order the packable candidates by
    index.  The bound ``t + pack_backlog_seconds`` is monotone within
    an epoch segment and ``busy_until`` only grows, so classification
    moves one way between serves and stale entries are recognized by
    exact ``busy_until`` mismatch.  Selection walks rate groups
    ascending — peek, SLA-test, stash-on-miss — reproducing the
    reference scan's candidate order (index order within a rate, the
    cheapest fitting rate wins, cheapest-rate min-index fallback,
    least-loaded spill) without touching every node.
    """
    times = cols.times
    services = cols.service_seconds
    slas = cols.sla_seconds
    n = len(cols)
    n_total = len(nodes)
    pack = router.pack_backlog_seconds
    limit = router.admission_limit_seconds
    outer = pvc.admission_limit_seconds if pvc is not None else None
    headroom = pvc.sla_headroom if pvc is not None else 0.0
    check = limit is not None or outer is not None
    sf_of = [node.model.speed_factor for node in nodes]
    rate_of = [(node.model.peak_watts - node.model.idle_watts)
               / node.model.speed_factor for node in nodes]
    rates = sorted(set(rate_of))
    gid_of = [rates.index(r) for r in rate_of]
    pack_heaps: list[list[int]] = [[] for _ in rates]
    # 0: past the bound (waiting) · 1: packable · 2: powered off
    where = [2] * n_total
    in_pack = [False] * n_total
    waiting: list[tuple[float, int]] = []

    def rebuild() -> None:
        for gh in pack_heaps:
            gh.clear()
        for i in range(n_total):
            where[i] = 2
            in_pack[i] = False
        fresh = []
        for i in on_ids:
            where[i] = 0
            fresh.append((nodes[i].busy_until, i))
        heapify(fresh)
        waiting[:] = fresh

    rebuild()
    epoch, next_epoch, demand = _epoch_setup(autoscaler)
    nan = float("nan")
    last_completion = 0.0

    for a in range(0, n, CHUNK):
        tl = times[a:a + CHUNK].tolist()
        sl = services[a:a + CHUNK].tolist()
        ql = slas[a:a + CHUNK].tolist()
        lats: list[float] = []
        append = lats.append
        for t, s, q in zip(tl, sl, ql):
            if t >= next_epoch:
                while t >= next_epoch:
                    autoscaler._epoch_demand_seconds = demand
                    autoscaler.step(next_epoch, nodes, on_ids)
                    demand = 0.0
                    next_epoch += epoch
                rebuild()
            if autoscaler is not None:
                demand += s
            bound = t + pack
            while waiting and waiting[0][0] <= bound:
                bu_e, i = heappop(waiting)
                if where[i] == 0 and bu_e == nodes[i].busy_until:
                    where[i] = 1
                    if not in_pack[i]:
                        heappush(pack_heaps[gid_of[i]], i)
                        in_pack[i] = True
            chosen = -1
            fallback = -1
            for gh in pack_heaps:
                stash = None
                while gh:
                    i = gh[0]
                    if where[i] != 1:
                        heappop(gh)
                        in_pack[i] = False
                        continue
                    if fallback < 0:
                        fallback = i
                    bu = nodes[i].busy_until
                    est = (bu - t if bu > t else 0.0) + s / sf_of[i]
                    if est <= q:
                        chosen = i
                        break
                    if stash is None:
                        stash = []
                    stash.append(heappop(gh))
                if stash:
                    for x in stash:
                        heappush(gh, x)
                if chosen >= 0:
                    break
            if chosen < 0:
                if fallback >= 0:
                    chosen = fallback  # nothing fits: cheapest rate
                else:
                    while True:  # spill: least-loaded powered-on node
                        bu_e, i = waiting[0]
                        if where[i] == 0 and bu_e == nodes[i].busy_until:
                            chosen = i
                            break
                        heappop(waiting)
            node = nodes[chosen]
            bu = node.busy_until
            if check:
                backlog = bu - t if bu > t else 0.0
                if (outer is not None and backlog > outer) or \
                        (limit is not None and backlog > limit):
                    rejected.append(a + len(lats))
                    append(nan)
                    continue
            if pvc is None:
                scaled = s / sf_of[chosen]
                start = bu if bu > t else t
                end = start + scaled
                node._interval_linear_busy += scaled
            else:
                backlog = bu - t if bu > t else 0.0
                budget = q * headroom
                execution = s / sf_of[chosen]
                picked = None
                for row in pvc_tables[chosen]:
                    if backlog + execution / row[0] <= budget:
                        picked = row
                        break
                if picked is None:
                    scaled = execution
                    start = bu if bu > t else t
                    end = start + scaled
                    node._interval_linear_busy += scaled
                else:
                    scaled = s / picked[1]
                    start = bu if bu > t else t
                    end = start + scaled
                    node._interval_active_joules += picked[2] * scaled
            node.busy_until = end
            node._interval_busy += scaled
            node.completed += 1
            append(end - t)
            if end > last_completion:
                last_completion = end
            if where[chosen] == 1:
                if end > bound:
                    where[chosen] = 0
                    heappush(waiting, (end, chosen))
            else:
                heappush(waiting, (end, chosen))
        latencies[a:a + len(lats)] = lats

    if autoscaler is not None:
        autoscaler._epoch_demand_seconds = demand
    return last_completion


# -- cost_aware -------------------------------------------------------

class _Block:
    """One contiguous class block with a min-``busy_until`` segment
    tree over its node slots (powered-off slots hold +inf)."""

    __slots__ = ("lo", "hi", "sf", "pmi", "size", "seg")

    def __init__(self, lo: int, hi: int, model) -> None:
        self.lo = lo
        self.hi = hi
        self.sf = model.speed_factor
        self.pmi = model.peak_watts - model.idle_watts
        size = 1
        while size < hi - lo:
            size <<= 1
        self.size = size
        self.seg = [_INF] * (2 * size)

    def rebuild(self, nodes) -> None:
        seg = self.seg
        size = self.size
        lo = self.lo
        count = self.hi - lo
        for p in range(size):
            if p < count and nodes[lo + p].on:
                seg[size + p] = nodes[lo + p].busy_until
            else:
                seg[size + p] = _INF
        for p in range(size - 1, 0, -1):
            left = seg[2 * p]
            right = seg[2 * p + 1]
            seg[p] = left if left < right else right

    def update(self, i: int, value: float) -> None:
        p = self.size + (i - self.lo)
        seg = self.seg
        seg[p] = value
        p >>= 1
        while p:
            left = seg[2 * p]
            right = seg[2 * p + 1]
            new = left if left < right else right
            if seg[p] == new:
                break
            seg[p] = new
            p >>= 1

    def leftmost_le(self, x: float) -> int:
        """Lowest node index whose ``busy_until`` is <= ``x`` (the
        caller guarantees one exists)."""
        seg = self.seg
        size = self.size
        p = 1
        while p < size:
            left = 2 * p
            p = left if seg[left] <= x else left + 1
        return self.lo + (p - size)

    def leftmost_fit(self, t: float, scaled: float, budget: float) -> int:
        """Lowest node index whose estimated latency fits ``budget``
        (exact reference predicate, evaluated on subtree minima — it
        is monotone in ``busy_until``, so the descent is exact)."""
        seg = self.seg
        size = self.size
        p = 1
        while p < size:
            left = 2 * p
            v = seg[left]
            if (v - t if v > t else 0.0) + scaled <= budget:
                p = left
            else:
                p = left + 1
        return self.lo + (p - size)


def _run_cost_aware(cols, fleet: FleetSpec, router: CostAware, pvc,
                    pvc_tables, nodes, on_ids, autoscaler, latencies,
                    rejected) -> float:
    """Marginal-Joules routing over per-class segment trees.

    Within a class every node shares the arrival's marginal cost and
    execution time, so the reference scan reduces to per-block
    queries: the block minimum ``busy_until`` decides whether any
    member fits the SLA budget (the estimate is monotone in
    ``busy_until``) and a leftmost descent recovers the exact
    first-index tie-break.  Blocks are index-contiguous in declaration
    order, so taking the first block at a strict minimum reproduces
    the scan's cross-class tie-breaks.
    """
    times = cols.times
    services = cols.service_seconds
    slas = cols.sla_seconds
    n = len(cols)
    slack = router.sla_slack_fraction
    limit = router.admission_limit_seconds
    outer = pvc.admission_limit_seconds if pvc is not None else None
    headroom = pvc.sla_headroom if pvc is not None else 0.0
    check = limit is not None or outer is not None

    blocks: list[_Block] = []
    block_of = [0] * len(nodes)
    lo = 0
    for cls in fleet.classes:
        if cls.count == 0:
            continue
        block = _Block(lo, lo + cls.count, cls.model)
        for i in range(lo, lo + cls.count):
            block_of[i] = len(blocks)
        blocks.append(block)
        lo += cls.count

    def rebuild() -> None:
        for block in blocks:
            block.rebuild(nodes)

    rebuild()
    epoch, next_epoch, demand = _epoch_setup(autoscaler)
    nan = float("nan")
    last_completion = 0.0

    for a in range(0, n, CHUNK):
        tl = times[a:a + CHUNK].tolist()
        sl = services[a:a + CHUNK].tolist()
        ql = slas[a:a + CHUNK].tolist()
        lats: list[float] = []
        append = lats.append
        for t, s, q in zip(tl, sl, ql):
            if t >= next_epoch:
                while t >= next_epoch:
                    autoscaler._epoch_demand_seconds = demand
                    autoscaler.step(next_epoch, nodes, on_ids)
                    demand = 0.0
                    next_epoch += epoch
                rebuild()
            if autoscaler is not None:
                demand += s
            budget = q * slack
            best_cost = _INF
            best_block = None
            best_scaled = 0.0
            fast_est = _INF
            fast_block = None
            for block in blocks:
                m = block.seg[1]
                if m == _INF:
                    continue  # no powered-on member
                scaled_b = s / block.sf
                est = (m - t if m > t else 0.0) + scaled_b
                if est < fast_est:
                    fast_est = est
                    fast_block = block
                if est <= budget:
                    cost = block.pmi * scaled_b
                    if cost < best_cost:
                        best_cost = cost
                        best_block = block
                        best_scaled = scaled_b
            if best_block is not None:
                chosen = best_block.leftmost_fit(t, best_scaled, budget)
                block = best_block
            else:
                m = fast_block.seg[1]
                chosen = fast_block.leftmost_le(m if m > t else t)
                block = fast_block
            node = nodes[chosen]
            bu = node.busy_until
            if check:
                backlog = bu - t if bu > t else 0.0
                if (outer is not None and backlog > outer) or \
                        (limit is not None and backlog > limit):
                    rejected.append(a + len(lats))
                    append(nan)
                    continue
            if pvc is None:
                scaled = s / node.model.speed_factor
                start = bu if bu > t else t
                end = start + scaled
                node._interval_linear_busy += scaled
            else:
                backlog = bu - t if bu > t else 0.0
                pvc_budget = q * headroom
                execution = s / node.model.speed_factor
                picked = None
                for row in pvc_tables[chosen]:
                    if backlog + execution / row[0] <= pvc_budget:
                        picked = row
                        break
                if picked is None:
                    scaled = execution
                    start = bu if bu > t else t
                    end = start + scaled
                    node._interval_linear_busy += scaled
                else:
                    scaled = s / picked[1]
                    start = bu if bu > t else t
                    end = start + scaled
                    node._interval_active_joules += picked[2] * scaled
            node.busy_until = end
            node._interval_busy += scaled
            node.completed += 1
            append(end - t)
            if end > last_completion:
                last_completion = end
            block.update(chosen, end)
        latencies[a:a + len(lats)] = lats

    if autoscaler is not None:
        autoscaler._epoch_demand_seconds = demand
    return last_completion
