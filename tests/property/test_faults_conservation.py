"""Property tests: fault injection never forges or loses anything.

Whatever the fault schedule does to the fleet — crashes mid-query,
thermal throttling, degraded RAID groups, dispatch timeouts — two
invariants must hold exactly:

* **query conservation** — every offered query is accounted for as
  completed, rejected (shed / timed out), or crash-attributed lost;
* **energy conservation** — replaying the run's power transitions into
  real metered devices integrates to the closed-form fleet energy to
  relative 1e-9, through every crash and recovery.

Plus determinism: the same (stream, schedule, policies) produce a
byte-identical ServiceReport, and an empty schedule is no schedule at
all — report, flight recording, and metered device Joules bit for bit
equal to the healthy run's, only the (empty) fault ledger added.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (FaultSchedule, build_fault_schedule,
                          simulate_faulty_service)
from repro.faults.policies import RetryPolicy, ShedPolicy
from repro.flightrec import record
from repro.service import (Autoscaler, FleetSpec, NodePowerModel, PVCPolicy,
                           QEDPolicy, build_stream, make_policy,
                           simulate_service)
from repro.service.micro import MICRO_CLASSES, MICRO_TENANT
from repro.telemetry import capture

POLICIES = ("round_robin", "least_loaded", "power_aware")

seeds = st.integers(min_value=0, max_value=2**31 - 1)
query_counts = st.integers(min_value=1, max_value=300)
node_counts = st.integers(min_value=1, max_value=8)
intensities = st.floats(min_value=0.0, max_value=8.0,
                        allow_nan=False, allow_infinity=False)


def _model():
    return NodePowerModel(name="t", idle_watts=50.0, peak_watts=120.0,
                          boot_seconds=1.0, boot_joules=120.0,
                          drain_seconds=0.5, drain_joules=25.0)


def _case(queries, n_nodes, seed, intensity):
    # a single tenant so tiny streams cannot starve a tenant
    stream = build_stream(queries, tenants=(MICRO_TENANT,),
                          classes=MICRO_CLASSES, seed=seed)
    horizon = max(stream.duration_seconds, 1.0) * 1.5
    schedule = build_fault_schedule(
        n_nodes, horizon, seed=seed, intensity=intensity,
        crash_downtime_seconds=2.0)
    retry = RetryPolicy(max_attempts=3, base_backoff_seconds=0.01,
                        timeout_detect_seconds=0.05)
    shed = ShedPolicy(slack_fraction=0.5)
    return stream, schedule, retry, shed


@settings(max_examples=20, deadline=None)
@given(queries=query_counts, n_nodes=node_counts, seed=seeds,
       intensity=intensities)
def test_every_query_is_accounted_for(queries, n_nodes, seed, intensity):
    stream, schedule, retry, shed = _case(queries, n_nodes, seed,
                                          intensity)
    for policy in POLICIES:
        report = simulate_faulty_service(
            stream, schedule, fleet=FleetSpec.homogeneous(n_nodes, _model()),
            policy=policy, retry=retry, shed=shed)
        assert report.faults is not None
        # exact integer reconciliation: nothing forged, nothing dropped
        assert (report.queries_completed + report.queries_rejected
                + report.faults.queries_lost) == queries
        per_tenant = sum(t.completed for t in report.tenants)
        assert per_tenant == report.queries_completed
        assert report.faults.queries_lost <= report.faults.crashes * queries
        assert 0.0 <= report.availability <= 1.0


@settings(max_examples=20, deadline=None)
@given(queries=query_counts, n_nodes=node_counts, seed=seeds,
       intensity=intensities)
def test_metered_energy_matches_closed_form(queries, n_nodes, seed,
                                            intensity):
    stream, schedule, retry, shed = _case(queries, n_nodes, seed,
                                          intensity)
    for policy in POLICIES:
        with capture() as collector:
            report = simulate_faulty_service(
                stream, schedule,
                fleet=FleetSpec.homogeneous(n_nodes, _model()),
                policy=policy, retry=retry, shed=shed)
        trace = collector.finalize()
        metered = sum(d.energy_joules for d in trace.devices
                      if d.name.startswith("svc.node"))
        assert metered == pytest.approx(report.energy_joules,
                                        rel=1e-9, abs=1e-9)


@settings(max_examples=15, deadline=None)
@given(queries=query_counts, n_nodes=node_counts, seed=seeds,
       intensity=intensities)
def test_faulty_service_is_deterministic(queries, n_nodes, seed,
                                         intensity):
    stream, schedule, retry, shed = _case(queries, n_nodes, seed,
                                          intensity)
    dumps = []
    for _ in range(2):
        report = simulate_faulty_service(
            stream, schedule, fleet=FleetSpec.homogeneous(n_nodes, _model()),
            policy="power_aware", retry=retry, shed=shed)
        dumps.append(json.dumps(report.to_dict(), sort_keys=True))
    assert dumps[0] == dumps[1]


@settings(max_examples=15, deadline=None)
@given(queries=query_counts, n_nodes=node_counts, seed=seeds)
def test_empty_schedule_degrades_to_fault_free_bookkeeping(
        queries, n_nodes, seed):
    """With no faults, the engine must report a clean, lossless run."""
    stream = build_stream(queries, tenants=(MICRO_TENANT,),
                          classes=MICRO_CLASSES, seed=seed)
    schedule = build_fault_schedule(
        n_nodes, max(stream.duration_seconds, 1.0), seed=seed,
        intensity=0.0)
    assert len(schedule) == 0
    fleet = FleetSpec.homogeneous(n_nodes, _model())
    report = simulate_faulty_service(stream, schedule, fleet=fleet,
                                     policy="power_aware")
    assert report.queries_completed == queries
    assert report.faults.queries_lost == 0
    assert report.faults.crashes == 0
    assert report.availability == 1.0
    # ...and it is the healthy run, bit for bit, on either engine
    for engine in ("loop", "event"):
        healthy = simulate_service(stream, fleet=fleet,
                                   policy="power_aware", engine=engine)
        assert _bits(report, drop_faults=True) == _bits(healthy)


def _bits(report, drop_faults: bool = False) -> str:
    """Canonical JSON of a report dict (float reprs round-trip, so equal
    strings mean bit-identical floats), minus its fault ledger."""
    data = report.to_dict()
    if drop_faults:
        assert data.pop("faults") is not None
    else:
        assert data.pop("faults") is None
    return json.dumps(data, sort_keys=True)


def _grid_policy(name: str):
    """A fresh policy per run (routers and QED queues carry state)."""
    if name == "pvc":
        return PVCPolicy(sla_headroom=0.6)
    if name == "qed_pvc":
        return QEDPolicy(inner=PVCPolicy(inner="power_aware"))
    return make_policy(name)


#: (policy, fleet, autoscaled) — the configurations whose empty-schedule
#: runs must equal their healthy runs bit for bit
EMPTY_SCHEDULE_GRID = [
    ("power_aware", "homogeneous", False),
    ("power_aware", "beefy_wimpy", False),
    ("power_aware", "homogeneous", True),
    ("power_aware", "beefy_wimpy", True),
    ("pvc", "homogeneous", False),
    ("pvc", "beefy_wimpy", True),
    ("qed_pvc", "homogeneous", True),
    ("qed_pvc", "beefy_wimpy", False),
]


@pytest.mark.parametrize("policy_name,fleet_kind,autoscaled",
                         EMPTY_SCHEDULE_GRID)
def test_empty_schedule_is_no_schedule(policy_name, fleet_kind,
                                       autoscaled):
    """Report, flight recording, and per-device metered Joules of an
    empty-schedule run equal the healthy run's bit for bit."""
    stream = build_stream(3_000, seed=11)
    fleet = (FleetSpec.homogeneous(8) if fleet_kind == "homogeneous"
             else FleetSpec.of(beefy=3, wimpy=5))

    def serve(faults):
        policy = _grid_policy(policy_name)
        autoscaler = (Autoscaler(fleet.classes[0].model,
                                 epoch_seconds=20.0,
                                 target_utilization=0.55, min_nodes=2)
                      if autoscaled and policy.autoscaled else None)
        with capture() as collector, record() as recorder:
            report = simulate_service(stream, fleet=fleet, policy=policy,
                                      autoscaler=autoscaler, faults=faults)
        trace = collector.finalize()
        recording = recorder.finalize().to_dict()
        devices = {d.name: d.energy_joules for d in trace.devices
                   if d.name.startswith("svc.")}
        return report, recording, devices

    healthy, rec_h, dev_h = serve(None)
    chaos, rec_c, dev_c = serve(FaultSchedule(
        n_nodes=fleet.n_nodes, horizon_seconds=stream.duration_seconds))
    assert healthy.engine == chaos.engine == "loop"
    assert _bits(chaos, drop_faults=True) == _bits(healthy)
    assert rec_c["meta"]["report"].pop("faults") is not None
    assert rec_h["meta"]["report"].pop("faults") is None
    assert json.dumps(rec_c, sort_keys=True) == \
        json.dumps(rec_h, sort_keys=True)
    assert dev_c == dev_h
    assert json.dumps(dev_c, sort_keys=True) == \
        json.dumps(dev_h, sort_keys=True)
