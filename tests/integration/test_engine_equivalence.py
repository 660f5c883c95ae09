"""Golden equivalence suite for the two serving engines.

The vectorized array-of-events core (``repro.service.engine``) is
contractually *byte-identical* to the reference engine
(``repro.faults.engine.serve_reference``, selected by
``engine="loop"``): for every configuration it claims to support,
``ServiceReport.to_dict()`` must compare equal dict-for-dict, float
for float bit-for-bit — not approximately, exactly.  This suite sweeps
policy x fleet x admission x autoscaling x seed and asserts that
identity, pins the engine-selection API
(``engine="auto"|"event"|"loop"``), and checks the auto-fallback
configurations (batching, telemetry, flight recording, faults) land on
the reference engine.  A hypothesis property test extends the identity
to adversarial random streams the named experiments would never build.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import build_fault_schedule, simulate_faulty_service
from repro.flightrec import record
from repro.service import (DEFAULT_CLASSES, DEFAULT_TENANTS, Autoscaler,
                           FleetSpec, NodePowerModel, PVCPolicy,
                           QEDPolicy, ServiceError, build_stream,
                           make_policy, simulate_service)
from repro.service.engine import event_core_unsupported
from repro.service.workload import ArrivalStream
from repro.telemetry import capture

MODEL = NodePowerModel.from_server("commodity")

#: every policy the event core claims a kernel for
VECTOR_POLICIES = ("round_robin", "least_loaded", "power_aware",
                   "cost_aware", "pvc")


def _policy(name: str):
    """A fresh policy instance (routers are stateful: never share one
    between the two engines of a comparison)."""
    if name == "pvc":
        return PVCPolicy(sla_headroom=0.6)
    return make_policy(name)


def _fleet(kind: str) -> FleetSpec:
    if kind == "homogeneous":
        return FleetSpec.homogeneous(8, MODEL)
    return FleetSpec.of(beefy=3, wimpy=5)


def _run(stream, policy_name, fleet_kind, engine, *,
         admission=None, autoscale=False):
    policy = _policy(policy_name)
    if admission is not None:
        policy.admission_limit_seconds = admission
    fleet = _fleet(fleet_kind)
    autoscaler = Autoscaler(
        fleet.classes[0].model, epoch_seconds=20.0,
        target_utilization=0.55, min_nodes=2) if autoscale else None
    report = simulate_service(stream, fleet=fleet, policy=policy,
                              autoscaler=autoscaler, engine=engine)
    return report, policy, autoscaler


def _bits(report) -> str:
    """The report as canonical JSON: float reprs round-trip exactly, so
    equal strings mean bit-identical floats (signed zeros and NaNs
    included, which ``==`` on the dicts would blur)."""
    return json.dumps(report.to_dict(), sort_keys=True)


def assert_identical(a, b) -> None:
    assert a.to_dict() == b.to_dict()
    assert _bits(a) == _bits(b)
    assert _bits(a) == _bits(b)


@pytest.fixture(scope="module")
def stream():
    return build_stream(6_000, seed=0)


class TestByteIdentity:
    """engine="event" and engine="loop" produce equal report dicts."""

    @pytest.mark.parametrize("policy_name", VECTOR_POLICIES)
    @pytest.mark.parametrize("fleet_kind", ["homogeneous", "hetero"])
    def test_policy_fleet_grid(self, stream, policy_name, fleet_kind):
        loop, _, _ = _run(stream, policy_name, fleet_kind, "loop")
        event, _, _ = _run(stream, policy_name, fleet_kind, "event")
        assert loop.engine == "loop"
        assert event.engine == "event"
        assert_identical(loop, event)

    @pytest.mark.parametrize("seed", [1, 7])
    def test_seeds(self, seed):
        s = build_stream(4_000, seed=seed)
        loop, _, _ = _run(s, "power_aware", "homogeneous", "loop")
        event, _, _ = _run(s, "power_aware", "homogeneous", "event")
        assert_identical(loop, event)

    @pytest.mark.parametrize("policy_name",
                             ["power_aware", "cost_aware", "pvc"])
    def test_admission_rejections(self, policy_name):
        # x10 arrival rates overload the 8-node fleet, so the
        # admission limit actually bites and rejections flow through
        # both marshalling paths
        from dataclasses import replace
        dense = build_stream(
            4_000,
            tenants=tuple(replace(t, rate_per_s=t.rate_per_s * 10)
                          for t in DEFAULT_TENANTS),
            seed=2)
        loop, _, _ = _run(dense, policy_name, "homogeneous", "loop",
                          admission=2.0)
        event, _, _ = _run(dense, policy_name, "homogeneous", "event",
                           admission=2.0)
        assert loop.queries_rejected > 0
        assert_identical(loop, event)

    def test_autoscaled_run_and_decisions(self, stream):
        loop, _, auto_l = _run(stream, "power_aware", "homogeneous",
                               "loop", autoscale=True)
        event, _, auto_e = _run(stream, "power_aware", "homogeneous",
                                "event", autoscale=True)
        assert_identical(loop, event)
        # the real Autoscaler runs inside the event core too: its
        # observable state must match the loop's, decision for decision
        assert auto_l.decisions == auto_e.decisions
        assert auto_l._smoothed_rate == auto_e._smoothed_rate
        assert auto_l._epoch_demand_seconds == auto_e._epoch_demand_seconds

    def test_round_robin_cursor_preserved(self, stream):
        _, pol_l, _ = _run(stream, "round_robin", "homogeneous", "loop")
        _, pol_e, _ = _run(stream, "round_robin", "homogeneous", "event")
        assert pol_l._next == pol_e._next == len(stream)

    def test_auto_equals_event_when_supported(self, stream):
        auto, _, _ = _run(stream, "least_loaded", "homogeneous", "auto")
        event, _, _ = _run(stream, "least_loaded", "homogeneous", "event")
        assert auto.engine == "event"
        assert_identical(auto, event)


class TestEngineSelection:
    """The engine= API: validation, explicit errors, auto-fallback."""

    def test_unknown_engine_rejected(self, stream):
        with pytest.raises(ServiceError, match="unknown engine"):
            simulate_service(stream, fleet=_fleet("homogeneous"),
                             engine="warp")

    def test_event_refuses_batching_policy(self, stream):
        policy = QEDPolicy(hold_seconds=0.2)
        with pytest.raises(ServiceError, match="batches arrivals"):
            simulate_service(stream, fleet=_fleet("homogeneous"),
                             policy=policy, engine="event")

    def test_auto_falls_back_for_batching_policy(self, stream):
        policy = QEDPolicy(hold_seconds=0.2)
        report = simulate_service(stream, fleet=_fleet("homogeneous"),
                                  policy=policy, engine="auto")
        assert report.engine == "loop"

    def test_auto_falls_back_under_telemetry(self, stream):
        with capture():
            report = simulate_service(stream,
                                      fleet=_fleet("homogeneous"),
                                      engine="auto")
        assert report.engine == "loop"

    def test_auto_falls_back_under_flight_recording(self, stream):
        with record():
            report = simulate_service(stream,
                                      fleet=_fleet("homogeneous"),
                                      engine="auto")
        assert report.engine == "loop"

    def test_loop_and_fallback_loop_identical(self, stream):
        """A forced loop run equals the auto-fallback loop run — the
        hooks only observe, they never perturb the physics."""
        loop, _, _ = _run(stream, "power_aware", "homogeneous", "loop")
        with record():
            fallback = simulate_service(stream,
                                        fleet=_fleet("homogeneous"),
                                        policy=_policy("power_aware"),
                                        engine="auto")
        assert_identical(loop, fallback)

    def test_faults_always_reference_loop(self, stream):
        schedule = build_fault_schedule(
            horizon_seconds=stream.duration_seconds, seed=3,
            fleet=_fleet("homogeneous"))
        report = simulate_faulty_service(
            stream, schedule, fleet=_fleet("homogeneous"),
            engine="auto")
        assert report.engine == "loop"
        with pytest.raises(ServiceError, match="fault schedules"):
            simulate_faulty_service(stream, schedule,
                                    fleet=_fleet("homogeneous"),
                                    engine="event")
        with pytest.raises(ServiceError, match="unknown engine"):
            simulate_faulty_service(stream, schedule,
                                    fleet=_fleet("homogeneous"),
                                    engine="warp")

    def test_unsupported_reasons(self):
        assert event_core_unsupported(None, faults=True)
        policy = _policy("power_aware")
        assert event_core_unsupported(policy) is None
        assert "batch" in event_core_unsupported(QEDPolicy())
        assert "no vectorized kernel" in event_core_unsupported(
            _UnknownRouter())


class _UnknownRouter:
    """A stand-in router outside the vectorized set."""

    name = "mystery"
    batching = False
    autoscaled = False


class TestReportMetadata:
    def test_engine_excluded_from_dict(self, stream):
        report, _, _ = _run(stream, "round_robin", "homogeneous",
                            "event")
        assert report.engine == "event"
        assert "engine" not in report.to_dict()

    def test_columns_cached(self, stream):
        assert stream.columns() is stream.columns()
        cols = stream.columns()
        assert cols.lists() is cols.lists()
        np.testing.assert_array_equal(
            cols.sla_seconds,
            np.array([t.sla_p95_seconds
                      for t in stream.tenants])[stream.tenant_index])


@st.composite
def _streams(draw):
    """Adversarial streams: bursty gaps (many zeros), wild service
    times, arbitrary tenant mixes — shapes build_stream never emits."""
    n = draw(st.integers(min_value=1, max_value=200))
    gaps = draw(st.lists(
        st.one_of(st.just(0.0),
                  st.floats(min_value=0.0, max_value=3.0,
                            allow_nan=False, allow_infinity=False)),
        min_size=n, max_size=n))
    services = draw(st.lists(
        st.floats(min_value=1e-3, max_value=5.0,
                  allow_nan=False, allow_infinity=False),
        min_size=n, max_size=n))
    tenant_idx = draw(st.lists(
        st.integers(min_value=0, max_value=len(DEFAULT_TENANTS) - 1),
        min_size=n, max_size=n))
    # the report refuses tenants that complete nothing: keep only the
    # tenants the draw actually uses, remapping indices
    used = sorted(set(tenant_idx))
    remap = {t: i for i, t in enumerate(used)}
    return ArrivalStream(
        tenants=tuple(DEFAULT_TENANTS[t] for t in used),
        classes=DEFAULT_CLASSES,
        times=np.cumsum(np.asarray(gaps, dtype=np.float64)),
        service_seconds=np.asarray(services, dtype=np.float64),
        tenant_index=np.asarray([remap[t] for t in tenant_idx],
                                dtype=np.int64),
        class_index=np.zeros(n, dtype=np.int64))


class TestPropertyIdentity:
    @settings(max_examples=30, deadline=None)
    @given(stream=_streams(),
           policy_name=st.sampled_from(VECTOR_POLICIES),
           nodes=st.integers(min_value=1, max_value=5))
    def test_random_streams_byte_identical(self, stream, policy_name,
                                           nodes):
        fleet = FleetSpec.homogeneous(nodes, MODEL)
        loop = simulate_service(stream, fleet=fleet,
                                policy=_policy(policy_name),
                                engine="loop")
        event = simulate_service(stream, fleet=fleet,
                                 policy=_policy(policy_name),
                                 engine="event")
        assert_identical(loop, event)
