"""The benchmark's three workloads, built only on the public ``repro`` API.

Each workload has a set-up (every input the operations need, generated
from the seed) and a round: a fixed list of operations, each one call
into a simulate / point / runner entry point.  A run repeats rounds
until its time is up.  An operation's raw result is summarized into an
:class:`Outcome` outside the timed region.

* ``dbms`` runs Figure 1 and Figure 2 points through ``Runner`` against
  a fresh cache, then the same specs once more against the warm cache:
  the discrete-event kernel, devices, storage, relational engine, TPC-H
  generation and the result cache do the work.
* ``fleet_scale`` serves one dense stream on 256 nodes under six
  policy/fleet configurations that all stay on the vectorized event
  core.
* ``fleet_ops`` serves a 64-node stream of the same shape in the four
  configurations that leave the event core today: flight-recorded,
  telemetry-captured, ``qed(pvc(power_aware))`` and a fault run.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import repro
from repro.faults import RetryPolicy, ShedPolicy
from repro.flightrec import record
from repro.runner import ExperimentSpec, Runner
from repro.runner.cache import ResultCache
from repro.runner.spec import canonical_json
from repro.service.autoscale import Autoscaler
from repro.service.dispatch import make_policy
from repro.service.node import NodePowerModel
from repro.service.pvc import PVCPolicy
from repro.service.qed import QEDPolicy
from repro.service.spec import FleetSpec
from repro.service.workload import DEFAULT_TENANTS
from repro.telemetry import capture

from bench_checks import close, flatten

#: the seed whose outputs ``reference.json`` stores (the repo's default)
DEFAULT_SEED = 2009

#: modules a fresh process imports before a workload can start
IMPORTS = ("numpy", "repro", "repro.runner", "repro.faults",
           "repro.flightrec", "repro.telemetry", "repro.service.pvc",
           "repro.service.qed")


@dataclass
class Outcome:
    """What one operation produced, summarized for the checks."""

    #: flattened simulated outputs, compared with the reference
    output: dict[str, Any]
    #: simulated queries completed (TPC-H queries and scans on dbms)
    completed: int = 0
    #: invariant violations found in the outputs
    problems: list[str] = field(default_factory=list)
    #: host-side facts for the per-layer table (not checked)
    facts: dict[str, Any] = field(default_factory=dict)


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    summarize: Callable[[Any], Outcome]


def _ledger(report: Any) -> list[str]:
    """offered = completed + rejected + lost."""
    lost = report.faults.queries_lost if report.faults is not None else 0
    total = report.queries_completed + report.queries_rejected + lost
    if total != report.queries_offered:
        return [f"offered {report.queries_offered} != completed + "
                f"rejected + lost {total}"]
    return []


def _serve_outcome(report: Any, extra: dict[str, Any] | None = None
                   ) -> Outcome:
    data = {"report": report.to_dict(), **(extra or {})}
    return Outcome(output=flatten(data),
                   completed=report.queries_completed,
                   problems=_ledger(report),
                   facts={"engine": report.engine,
                          "offered": report.queries_offered})


def _scaled_tenants(load: float) -> tuple:
    """``DEFAULT_TENANTS`` with every arrival rate times ``load``, the
    way the 256-node mega runs densify the stream."""
    return tuple(replace(t, rate_per_s=t.rate_per_s * load)
                 for t in DEFAULT_TENANTS)


def _autoscaler(fleet: Any, policy: Any) -> Any:
    if not policy.autoscaled:
        return None
    return Autoscaler(fleet.classes[0].model, epoch_seconds=30.0,
                      target_utilization=0.55, min_nodes=2)


class Workload:
    """A set-up from the seed, then rounds of operations."""

    name = ""
    sizes: dict[str, Any] = {}

    def setup(self, seed: int) -> dict[str, Any]:
        raise NotImplementedError

    def round_ops(self, state: dict[str, Any], k: int) -> list[Op]:
        raise NotImplementedError

    def end_round(self, state: dict[str, Any], k: int) -> None:
        """Release what round ``k`` left behind (outside the timing)."""

    def observer_overheads(self, state: dict[str, Any], timer: Callable
                           ) -> dict[str, float]:
        """Observed over unobserved host time, per observer."""
        return {}


# -- dbms -------------------------------------------------------------------

class Dbms(Workload):
    """Figure 1 and Figure 2 points through the runner, cold then warm."""

    name = "dbms"

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        # queries and scale factors are cut from the paper's knobs so one
        # round takes seconds; 4 streams x 1 query runs each of the four
        # plans of the throughput mix once (stream i starts at plan i);
        # the disk counts are the ends of FIG1_DISK_COUNTS and the scans
        # keep Figure 2's defaults
        self.sizes = {"disks": (36, 204), "streams": 4,
                      "queries_per_stream": 1,
                      "logical_scale_factor": 100.0,
                      "physical_scale_factor": 0.001,
                      "scan_scale_factor": 0.002}

    def setup(self, seed: int) -> dict[str, Any]:
        s = self.sizes
        specs = [(f"fig1_{disks}", ExperimentSpec("fig1", knobs={
            "disks": disks, "streams": s["streams"],
            "queries_per_stream": s["queries_per_stream"],
            "logical_scale_factor": s["logical_scale_factor"],
            "physical_scale_factor": s["physical_scale_factor"],
        }, seed=seed)) for disks in s["disks"]]
        specs += [(f"fig2_{codec}", ExperimentSpec("fig2", knobs={
            "compressed": compressed,
            "scale_factor": s["scan_scale_factor"]}, seed=seed))
            for codec, compressed in (("plain", False),
                                      ("compressed", True))]
        return {"specs": specs}

    def _cache_dir(self, k: int) -> Path:
        return self.workdir / f"cache-r{k}"

    def round_ops(self, state: dict[str, Any], k: int) -> list[Op]:
        cache_dir = self._cache_dir(k)
        shutil.rmtree(cache_dir, ignore_errors=True)
        runner = Runner(workers=1, cache=ResultCache(cache_dir))
        cold: dict[str, str] = {}

        def summarize(name: str, warm: bool) -> Callable[[Any], Outcome]:
            def summary(run: Any) -> Outcome:
                points = [p.to_dict() for p in run.points]
                text = canonical_json(points)
                hits = run.cache_hits
                problems = []
                if warm:
                    if hits != len(points):
                        problems.append(f"warm pass: {hits} of "
                                        f"{len(points)} points from cache")
                    if cold.get(name) != text:
                        problems.append("warm payload differs from the "
                                        "cold one")
                else:
                    cold[name] = text
                    if hits:
                        problems.append("cold pass hit the cache")
                completed = 0 if warm else sum(
                    getattr(p.report, "queries_completed", 1)
                    for p in run.points)
                return Outcome(output=flatten({"points": points}),
                               completed=completed, problems=problems,
                               facts={"cache_hits": hits,
                                      "cache_misses": len(points) - hits})
            return summary

        ops = []
        for warm in (False, True):
            for name, spec in state["specs"]:
                ops.append(Op(f"{name}_{'warm' if warm else 'cold'}",
                              lambda spec=spec: runner.run(spec),
                              summarize(name, warm)))
        return ops

    def end_round(self, state: dict[str, Any], k: int) -> None:
        shutil.rmtree(self._cache_dir(k), ignore_errors=True)


# -- fleet_scale ------------------------------------------------------------

class FleetScale(Workload):
    """One dense stream on 256 nodes, six configurations, event core only."""

    name = "fleet_scale"

    def __init__(self, workdir: Path) -> None:
        self.sizes = {"queries": 200_000, "nodes": 256, "load": 30.0}

    def setup(self, seed: int) -> dict[str, Any]:
        s = self.sizes
        stream = repro.service.workload.build_stream(
            s["queries"], tenants=_scaled_tenants(s["load"]), seed=seed)
        stream.columns()
        model = NodePowerModel.from_server("commodity")
        homogeneous = FleetSpec.homogeneous(s["nodes"], model)
        half = s["nodes"] // 2
        mixed = FleetSpec.of(beefy=half, wimpy=s["nodes"] - half)
        configs = [(name, homogeneous, name) for name in
                   ("round_robin", "least_loaded", "power_aware",
                    "cost_aware")]
        configs += [("pvc", homogeneous, "pvc"),
                    ("cost_aware_mixed", mixed, "cost_aware")]
        state = {"stream": stream, "configs": configs}
        self._policies(state)  # policy construction is set-up work
        return state

    @staticmethod
    def _policies(state: dict[str, Any]) -> list[tuple]:
        """Fresh policy and autoscaler objects (both carry run state)."""
        out = []
        for label, fleet, policy_name in state["configs"]:
            policy = (PVCPolicy(inner="power_aware") if policy_name == "pvc"
                      else make_policy(policy_name))
            out.append((label, fleet, policy, _autoscaler(fleet, policy)))
        return out

    def round_ops(self, state: dict[str, Any], k: int) -> list[Op]:
        stream = state["stream"]

        def summary(report: Any) -> Outcome:
            outcome = _serve_outcome(report)
            if report.engine != "event":
                outcome.problems.append(
                    f"left the event core (engine={report.engine!r})")
            return outcome

        return [Op(label,
                   lambda f=fleet, p=policy, a=autoscaler:
                   repro.simulate_service(stream, fleet=f, policy=p,
                                          autoscaler=a, engine="auto"),
                   summary)
                for label, fleet, policy, autoscaler in
                self._policies(state)]


# -- fleet_ops --------------------------------------------------------------

class FleetOps(Workload):
    """The configurations that leave the event core, on 64 nodes."""

    name = "fleet_ops"

    def __init__(self, workdir: Path) -> None:
        # load 7.5 on 64 nodes keeps fleet_scale's per-node load
        self.sizes = {"queries": 25_000, "nodes": 64, "load": 7.5,
                      "fault_intensity": 10.0}

    def setup(self, seed: int) -> dict[str, Any]:
        s = self.sizes
        stream = repro.service.workload.build_stream(
            s["queries"], tenants=_scaled_tenants(s["load"]), seed=seed)
        stream.columns()
        fleet = FleetSpec.homogeneous(
            s["nodes"], NodePowerModel.from_server("commodity"))
        schedule = repro.build_fault_schedule(
            fleet=fleet, horizon_seconds=stream.duration_seconds * 1.1,
            seed=seed, intensity=s["fault_intensity"])
        state = {"stream": stream, "fleet": fleet, "schedule": schedule,
                 "retry": RetryPolicy(),
                 "shed": ShedPolicy(slack_fraction=0.5)}
        self._policies(state)  # policy construction is set-up work
        return state

    @staticmethod
    def _policies(state: dict[str, Any]) -> dict[str, tuple]:
        fleet = state["fleet"]
        out = {}
        for label, policy in (
                ("flightrec", make_policy("power_aware")),
                ("telemetry", make_policy("least_loaded")),
                ("qed_pvc", QEDPolicy(inner=PVCPolicy(inner="power_aware"))),
                ("faults", make_policy("power_aware"))):
            out[label] = (policy, _autoscaler(fleet, policy))
        return out

    def round_ops(self, state: dict[str, Any], k: int) -> list[Op]:
        stream, fleet = state["stream"], state["fleet"]
        policies = self._policies(state)

        def recorded() -> tuple:
            policy, autoscaler = policies["flightrec"]
            with record() as recorder:
                report = repro.simulate_service(
                    stream, fleet=fleet, policy=policy,
                    autoscaler=autoscaler)
            recording = recorder.finalize()
            return report, recording, recording.replayed_energy_joules()

        def recorded_summary(raw: tuple) -> Outcome:
            report, recording, replayed = raw
            outcome = _serve_outcome(report, {
                "replayed_energy_joules": replayed,
                "recorded_events": len(recording.events)})
            outcome.facts["events"] = len(recording.events)
            if not close(replayed, report.energy_joules):
                outcome.problems.append(
                    f"replayed energy {replayed!r} != report "
                    f"{report.energy_joules!r}")
            return outcome

        def captured() -> tuple:
            policy, autoscaler = policies["telemetry"]
            with capture() as collector:
                report = repro.simulate_service(
                    stream, fleet=fleet, policy=policy,
                    autoscaler=autoscaler)
            return report, collector.finalize()

        def captured_summary(raw: tuple) -> Outcome:
            report, trace = raw
            metered = sum(d.energy_joules for d in trace.devices
                          if d.name.startswith("svc.node"))
            outcome = _serve_outcome(report, {
                "metered_energy_joules": metered,
                "telemetry_spans": len(trace.spans)})
            outcome.facts["spans"] = len(trace.spans)
            if not close(metered, report.energy_joules):
                outcome.problems.append(
                    f"metered energy {metered!r} != report "
                    f"{report.energy_joules!r}")
            return outcome

        def batched() -> Any:
            policy, autoscaler = policies["qed_pvc"]
            return repro.simulate_service(stream, fleet=fleet, policy=policy,
                                          autoscaler=autoscaler)

        def faulty() -> Any:
            policy, autoscaler = policies["faults"]
            return repro.simulate_faulty_service(
                stream, state["schedule"], fleet=fleet, policy=policy,
                autoscaler=autoscaler, retry=state["retry"],
                shed=state["shed"])

        return [Op("flightrec", recorded, recorded_summary),
                Op("telemetry", captured, captured_summary),
                Op("qed_pvc", batched, _serve_outcome),
                Op("faults", faulty, _serve_outcome)]

    def observer_overheads(self, state: dict[str, Any], timer: Callable
                           ) -> dict[str, float]:
        """Observed (serve + finalize) over unobserved host time of the
        same configuration, for the flight recorder and telemetry; the
        unobserved time is the median of three serves."""
        stream, fleet = state["stream"], state["fleet"]
        out = {}
        for label, observe in (("flightrec", record), ("telemetry", capture)):
            def plain() -> None:
                policy, autoscaler = self._policies(state)[label]
                repro.simulate_service(stream, fleet=fleet, policy=policy,
                                       autoscaler=autoscaler)

            def observed() -> None:
                policy, autoscaler = self._policies(state)[label]
                with observe() as sink:
                    repro.simulate_service(stream, fleet=fleet,
                                           policy=policy,
                                           autoscaler=autoscaler)
                sink.finalize()
            base = sorted(timer(plain) for _ in range(3))[1]
            out[label] = timer(observed) / base
        return out


WORKLOADS = {cls.name: cls for cls in (Dbms, FleetScale, FleetOps)}
