"""Runner-facing entry points for the serving subsystem.

:func:`service_point` is the physics of one ``svc_*`` sweep point —
one dispatch policy over one generated arrival stream — and
:func:`svc_aggregate` folds a policy sweep back into the
figure-level :class:`~repro.service.report.ServiceSweepResult`.  Both
are registered in :mod:`repro.runner.registry`, so::

    python -m repro.runner run svc_policies

serves the full 3-policy × 350k-query grid (1.05 M queries) through
the ordinary Runner machinery: process pool, content-addressed cache,
structured events, optional telemetry traces.

:func:`hetero_point` is the heterogeneous-fleet analogue — one named
fleet *composition* (:data:`COMPOSITIONS`) serving one load- and
SLA-scaled stream — and :func:`hetero_aggregate` folds the
``svc_hetero`` composition × load × SLA grid into a
:class:`HeteroSweepResult`, the experiment that reproduces the
wimpy-vs-beefy crossover of Lang et al. (arXiv 1208.1933): wimpy
fleets win Joules-per-query at low utilization on their lower idle
floor, beefy fleets win once utilization (or a tightened SLA) makes
the wimpy marginal cost — watts divided by a sub-unity speed factor —
the dominant term.

:func:`pvc_qed_point` runs the Lang & Patel (arXiv 0909.1767)
mechanism sweep — the ``power_aware`` baseline against the PVC
frequency governor, the QED batcher, and their composition — and
:func:`pvc_qed_aggregate` folds the config × SLA-headroom grid into a
:class:`PVCQEDSweepResult` whose :meth:`~PVCQEDSweepResult.headline`
states the acceptance verdict: some mechanism config strictly beats
the baseline on Joules/query while every tenant SLA holds.

:func:`mega_point` is the fleet-scale point — 10M+ queries over 256+
nodes, tractable because ``engine="auto"`` routes onto the vectorized
array-of-events core — and :func:`mega_calibration_point` races both
engines on one stream, proves their reports byte-identical, and
returns a :class:`MegaCalibrationReport` pricing the speedup.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping, Optional, Sequence

from repro.service.autoscale import Autoscaler
from repro.service.dispatch import make_policy, policy_knob_names
from repro.service.fleet import simulate_service
from repro.service.node import NodePowerModel
from repro.service.report import (ServiceError, ServiceReport,
                                  ServiceSweepResult)
from repro.service.spec import FleetSpec
from repro.service.workload import DEFAULT_TENANTS, build_stream

#: named fleet compositions for the ``svc_hetero`` sweep, sized for
#: equal speed-1 capacity (beefy 9.0, wimpy 20 × 0.45 = 9.0, mixed
#: 5 + 9 × 0.45 = 9.05) so the axis compares *composition*, not size
COMPOSITIONS: dict[str, tuple[tuple[str, int], ...]] = {
    "beefy": (("beefy", 9),),
    "wimpy": (("wimpy", 20),),
    "mixed": (("beefy", 5), ("wimpy", 9)),
}


def composition_fleet(composition: str) -> FleetSpec:
    """Resolve a :data:`COMPOSITIONS` name into its :class:`FleetSpec`."""
    try:
        parts = COMPOSITIONS[composition]
    except KeyError:
        raise ServiceError(
            f"unknown composition {composition!r}; known: "
            f"{', '.join(sorted(COMPOSITIONS))}") from None
    return FleetSpec.of(**dict(parts))


def _dispatch_for(policy: str, knobs: Mapping[str, Any]):
    """Build the policy, passing only the knobs its factory declares."""
    accepted = policy_knob_names(policy)
    return make_policy(policy, **{k: v for k, v in knobs.items()
                                  if k in accepted})


def service_point(policy: str = "power_aware",
                  queries: int = 350_000,
                  nodes: int = 16,
                  profile: str = "commodity",
                  pack_backlog_seconds: float = 0.2,
                  admission_limit_seconds: Optional[float] = None,
                  sla_slack_fraction: float = 1.0,
                  target_utilization: float = 0.55,
                  epoch_seconds: float = 30.0,
                  min_nodes: int = 2,
                  seed: int = 0) -> Any:
    """Serve one generated multi-tenant stream under one policy.

    The node power curve is calibrated from the named hardware
    ``profile`` (idle/peak watts read off the metered server model), so
    fleet Joules are in the same currency as every single-node
    experiment.  Policy knobs are filtered through
    :func:`~repro.service.dispatch.policy_knob_names`, so each policy
    only sees the knobs its factory declares.
    """
    model = NodePowerModel.from_server(profile)
    fleet = FleetSpec.homogeneous(nodes, model)
    stream = build_stream(queries, seed=seed)
    dispatch = _dispatch_for(policy, {
        "pack_backlog_seconds": pack_backlog_seconds,
        "admission_limit_seconds": admission_limit_seconds,
        "sla_slack_fraction": sla_slack_fraction,
    })
    autoscaler = Autoscaler(
        model,
        epoch_seconds=epoch_seconds,
        target_utilization=target_utilization,
        min_nodes=min_nodes,
    ) if dispatch.autoscaled else None
    return simulate_service(stream, fleet=fleet, policy=dispatch,
                            autoscaler=autoscaler)


def hetero_point(composition: str = "mixed",
                 policy: str = "power_aware",
                 queries: int = 40_000,
                 load: float = 1.0,
                 sla_scale: float = 1.0,
                 pack_backlog_seconds: float = 0.2,
                 admission_limit_seconds: Optional[float] = None,
                 sla_slack_fraction: float = 1.0,
                 target_utilization: float = 0.55,
                 epoch_seconds: float = 30.0,
                 min_nodes: int = 2,
                 seed: int = 0) -> Any:
    """Serve one load- and SLA-scaled stream on one named composition.

    ``load`` multiplies every tenant's arrival rate (per-tenant
    ``SeedSequence`` lanes keep the stream *structure* fixed while the
    inter-arrival gaps scale), and ``sla_scale`` multiplies every
    tenant's p95 SLA — the axis that prices wimpy nodes out of
    latency-tight regimes even where their Joules would win.
    """
    if load <= 0:
        raise ServiceError("load multiplier must be positive")
    if sla_scale <= 0:
        raise ServiceError("sla_scale must be positive")
    fleet = composition_fleet(composition)
    tenants = tuple(
        replace(t, rate_per_s=t.rate_per_s * load,
                sla_p95_seconds=t.sla_p95_seconds * sla_scale)
        for t in DEFAULT_TENANTS)
    stream = build_stream(queries, tenants=tenants, seed=seed)
    dispatch = _dispatch_for(policy, {
        "pack_backlog_seconds": pack_backlog_seconds,
        "admission_limit_seconds": admission_limit_seconds,
        "sla_slack_fraction": sla_slack_fraction,
    })
    autoscaler = Autoscaler(
        fleet.classes[0].model,
        epoch_seconds=epoch_seconds,
        target_utilization=target_utilization,
        min_nodes=min_nodes,
    ) if dispatch.autoscaled else None
    return simulate_service(stream, fleet=fleet, policy=dispatch,
                            autoscaler=autoscaler)


#: the ``svc_pvc_qed`` mechanism axis: the PR-4 baseline, each
#: 0909.1767 mechanism alone, and the stacked composition
PVC_QED_CONFIGS: tuple[str, ...] = ("power_aware", "pvc", "qed",
                                    "pvc_qed")


def _pvc_qed_policy(config: str,
                    sla_headroom: float,
                    hold_seconds: float,
                    shared_fraction: float,
                    max_batch: int,
                    pack_backlog_seconds: float,
                    admission_limit_seconds: Optional[float]):
    """Build one mechanism config over a shared power_aware router."""
    from repro.service.pvc import PVCPolicy
    from repro.service.qed import QEDPolicy
    if config == "power_aware":
        return make_policy("power_aware",
                           pack_backlog_seconds=pack_backlog_seconds,
                           admission_limit_seconds=admission_limit_seconds)
    if config == "pvc":
        return PVCPolicy(sla_headroom=sla_headroom,
                         admission_limit_seconds=admission_limit_seconds,
                         pack_backlog_seconds=pack_backlog_seconds)
    if config == "qed":
        return QEDPolicy(hold_seconds=hold_seconds,
                         sla_headroom=sla_headroom,
                         shared_fraction=shared_fraction,
                         max_batch=max_batch,
                         admission_limit_seconds=admission_limit_seconds,
                         pack_backlog_seconds=pack_backlog_seconds)
    if config == "pvc_qed":
        return QEDPolicy(
            inner=PVCPolicy(sla_headroom=sla_headroom,
                            pack_backlog_seconds=pack_backlog_seconds),
            hold_seconds=hold_seconds,
            sla_headroom=sla_headroom,
            shared_fraction=shared_fraction,
            max_batch=max_batch,
            admission_limit_seconds=admission_limit_seconds)
    raise ServiceError(
        f"unknown pvc_qed config {config!r}; known: "
        f"{', '.join(PVC_QED_CONFIGS)}")


def pvc_qed_point(config: str = "power_aware",
                  queries: int = 40_000,
                  nodes: int = 16,
                  profile: str = "commodity",
                  sla_headroom: float = 0.6,
                  hold_seconds: float = 0.5,
                  shared_fraction: float = 0.7,
                  max_batch: int = 32,
                  pack_backlog_seconds: float = 0.2,
                  admission_limit_seconds: Optional[float] = None,
                  target_utilization: float = 0.55,
                  epoch_seconds: float = 30.0,
                  min_nodes: int = 2,
                  seed: int = 0) -> Any:
    """Serve one stream under one PVC/QED mechanism configuration.

    Every ``config`` routes through the same ``power_aware`` packer on
    the same calibrated homogeneous fleet, so differences are the
    mechanisms', not the router's.  ``sla_headroom`` is the shared
    latency budget both mechanisms spend (the PVC governor's slowdown
    allowance and the QED hold-window cap), which makes it the sweep's
    Pareto knob: small headroom hugs the baseline latency, large
    headroom buys the deepest Joules/query cuts.
    """
    model = NodePowerModel.from_server(profile)
    fleet = FleetSpec.homogeneous(nodes, model)
    stream = build_stream(queries, seed=seed)
    dispatch = _pvc_qed_policy(
        config, sla_headroom, hold_seconds, shared_fraction, max_batch,
        pack_backlog_seconds, admission_limit_seconds)
    autoscaler = Autoscaler(
        model,
        epoch_seconds=epoch_seconds,
        target_utilization=target_utilization,
        min_nodes=min_nodes,
    ) if dispatch.autoscaled else None
    return simulate_service(stream, fleet=fleet, policy=dispatch,
                            autoscaler=autoscaler)


def _mega_tenants(load: float):
    """The :data:`DEFAULT_TENANTS` mix with every arrival rate
    multiplied by ``load`` — the mega experiments keep the per-tenant
    SLAs untouched so the stream is *denser*, not *tighter*."""
    if load <= 0:
        raise ServiceError("load multiplier must be positive")
    return tuple(replace(t, rate_per_s=t.rate_per_s * load)
                 for t in DEFAULT_TENANTS)


def mega_point(policy: str = "power_aware",
               queries: int = 10_000_000,
               nodes: int = 256,
               load: float = 30.0,
               profile: str = "commodity",
               engine: str = "auto",
               pack_backlog_seconds: float = 0.2,
               admission_limit_seconds: Optional[float] = None,
               sla_slack_fraction: float = 1.0,
               target_utilization: float = 0.55,
               epoch_seconds: float = 30.0,
               min_nodes: int = 2,
               seed: int = 0) -> Any:
    """Serve one fleet-scale multi-tenant stream under one policy.

    The ``svc_mega`` scale point: tens of millions of queries over
    hundreds of nodes, which is only tractable because ``engine="auto"``
    routes eligible configurations onto the vectorized array-of-events
    core (:mod:`repro.service.engine`).  ``load`` multiplies every
    tenant's arrival rate so a 256-node fleet actually has work;
    per-tenant SLAs stay at their defaults.  ``engine="loop"`` forces
    the reference core — same report, reference wall-clock — which is
    what the calibration experiment uses to price the speedup.
    """
    model = NodePowerModel.from_server(profile)
    fleet = FleetSpec.homogeneous(nodes, model)
    stream = build_stream(queries, tenants=_mega_tenants(load),
                          seed=seed)
    dispatch = _dispatch_for(policy, {
        "pack_backlog_seconds": pack_backlog_seconds,
        "admission_limit_seconds": admission_limit_seconds,
        "sla_slack_fraction": sla_slack_fraction,
    })
    autoscaler = Autoscaler(
        model,
        epoch_seconds=epoch_seconds,
        target_utilization=target_utilization,
        min_nodes=min_nodes,
    ) if dispatch.autoscaled else None
    return simulate_service(stream, fleet=fleet, policy=dispatch,
                            autoscaler=autoscaler, engine=engine)


@dataclass
class MegaCalibrationReport:
    """Both engines over one stream: proof of identity, price of each.

    ``loop_seconds`` and ``event_seconds`` are host wall-clock and vary
    run to run; everything else is simulation output and deterministic.
    The constructor refuses ``identical=False`` — a calibration whose
    engines disagree is not a slower data point, it is a broken build,
    and :func:`mega_calibration_point` raises before constructing one.
    """

    policy: str
    queries: int
    nodes: int
    loop_seconds: float
    event_seconds: float
    identical: bool
    makespan_seconds: float
    energy_joules: float
    queries_completed: int
    p95_latency_seconds: float

    def __post_init__(self) -> None:
        if not self.identical:
            raise ServiceError(
                "calibration engines disagree: the event core must be "
                "byte-identical to the reference engine")

    @property
    def speedup(self) -> float:
        """Reference-engine seconds per event-core second (>= 1 is a
        win; the svc_mega acceptance bar is 10x at the 1M point)."""
        return (self.loop_seconds / self.event_seconds
                if self.event_seconds > 0 else float("inf"))

    def to_dict(self) -> dict[str, Any]:
        return {"policy": self.policy,
                "queries": self.queries,
                "nodes": self.nodes,
                "loop_seconds": self.loop_seconds,
                "event_seconds": self.event_seconds,
                "speedup": self.speedup,
                "identical": self.identical,
                "makespan_seconds": self.makespan_seconds,
                "energy_joules": self.energy_joules,
                "queries_completed": self.queries_completed,
                "p95_latency_seconds": self.p95_latency_seconds}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MegaCalibrationReport":
        return cls(
            policy=str(data.get("policy", "power_aware")),
            queries=int(data.get("queries", 0)),
            nodes=int(data.get("nodes", 0)),
            loop_seconds=float(data.get("loop_seconds", 0.0)),
            event_seconds=float(data.get("event_seconds", 0.0)),
            identical=bool(data.get("identical", True)),
            makespan_seconds=float(data.get("makespan_seconds", 0.0)),
            energy_joules=float(data.get("energy_joules", 0.0)),
            queries_completed=int(data.get("queries_completed", 0)),
            p95_latency_seconds=float(
                data.get("p95_latency_seconds", 0.0)))


def mega_calibration_point(policy: str = "power_aware",
                           queries: int = 1_000_000,
                           nodes: int = 256,
                           load: float = 30.0,
                           profile: str = "commodity",
                           pack_backlog_seconds: float = 0.2,
                           admission_limit_seconds: Optional[float] = None,
                           sla_slack_fraction: float = 1.0,
                           target_utilization: float = 0.55,
                           epoch_seconds: float = 30.0,
                           min_nodes: int = 2,
                           seed: int = 0) -> MegaCalibrationReport:
    """Race the reference engine against the event core on one stream.

    Runs the *same* generated stream through ``engine="loop"`` and
    ``engine="event"`` with independently built policy/autoscaler state,
    times each with :func:`time.perf_counter`, and raises
    :class:`ServiceError` unless the two :class:`ServiceReport` dicts
    are byte-identical.  Wall-clock fields are host-informational (the
    observatory never gates them); the simulation fields carried along
    (makespan, Joules, completions, p95) are deterministic and *are*
    gated, so a ledgered calibration still pins the physics.
    """
    from time import perf_counter

    from repro.flightrec.context import current_recorder
    from repro.telemetry import current_collector
    if current_collector() is not None or current_recorder() is not None:
        raise ServiceError(
            "the engine calibration races engine='event' against "
            "engine='loop', and the event core cannot host telemetry "
            "or flight-recording observers: run svc_mega_calibration "
            "without --trace/--record (the observatory records it "
            "with --no-trace)")

    model = NodePowerModel.from_server(profile)
    stream = build_stream(queries, tenants=_mega_tenants(load),
                          seed=seed)
    knobs = {
        "pack_backlog_seconds": pack_backlog_seconds,
        "admission_limit_seconds": admission_limit_seconds,
        "sla_slack_fraction": sla_slack_fraction,
    }

    def race(engine: str) -> tuple[Any, float]:
        # fresh fleet/policy/autoscaler per engine: routers and
        # autoscalers are stateful, and a shared instance would leak
        # one engine's cursor into the other's run
        fleet = FleetSpec.homogeneous(nodes, model)
        dispatch = _dispatch_for(policy, knobs)
        autoscaler = Autoscaler(
            model,
            epoch_seconds=epoch_seconds,
            target_utilization=target_utilization,
            min_nodes=min_nodes,
        ) if dispatch.autoscaled else None
        start = perf_counter()
        report = simulate_service(stream, fleet=fleet, policy=dispatch,
                                  autoscaler=autoscaler, engine=engine)
        return report, perf_counter() - start

    loop_report, loop_seconds = race("loop")
    event_report, event_seconds = race("event")
    identical = loop_report.to_dict() == event_report.to_dict()
    if not identical:
        raise ServiceError(
            f"engine calibration diverged for policy {policy!r}: the "
            "event core's report is not byte-identical to the "
            "reference engine's")
    return MegaCalibrationReport(
        policy=policy,
        queries=queries,
        nodes=nodes,
        loop_seconds=loop_seconds,
        event_seconds=event_seconds,
        identical=identical,
        makespan_seconds=loop_report.makespan_seconds,
        energy_joules=loop_report.energy_joules,
        queries_completed=loop_report.queries_completed,
        p95_latency_seconds=loop_report.p95_latency_seconds)


def svc_aggregate(points: Sequence[Any]) -> ServiceSweepResult:
    """Fold a finished policy sweep into one comparable result."""
    return ServiceSweepResult(reports=[p.report for p in points])


@dataclass
class HeteroSweepResult:
    """A composition × load × SLA sweep folded into one frontier.

    Parallel arrays: point *k* ran ``compositions[k]`` at load
    multiplier ``loads[k]`` and SLA scale ``sla_scales[k]`` and
    produced ``reports[k]``.  :meth:`crossover_rows` reads the
    arXiv 1208.1933 verdict off the grid — which composition wins
    Joules per query at each operating point — and :meth:`headline`
    states whether the winner actually flips across the load axis.
    """

    compositions: list[str]
    loads: list[float]
    sla_scales: list[float]
    reports: list[ServiceReport]

    def __post_init__(self) -> None:
        n = len(self.reports)
        if not (len(self.compositions) == len(self.loads)
                == len(self.sla_scales) == n):
            raise ServiceError(
                "hetero sweep arrays disagree: "
                f"{len(self.compositions)} compositions, "
                f"{len(self.loads)} loads, {len(self.sla_scales)} "
                f"sla_scales, {n} reports")

    def report_at(self, composition: str, load: float,
                  sla_scale: float) -> ServiceReport:
        for c, l, s, report in zip(self.compositions, self.loads,
                                   self.sla_scales, self.reports):
            if c == composition and l == load and s == sla_scale:
                return report
        ran = ", ".join(f"({c}, {l}, {s})"
                        for c, l, s in zip(self.compositions, self.loads,
                                           self.sla_scales))
        raise ServiceError(
            f"sweep has no point ({composition!r}, {load!r}, "
            f"{sla_scale!r}); ran: {ran}")

    def operating_points(self) -> list[tuple[float, float]]:
        """Distinct (load, sla_scale) pairs, relaxed-SLA first, then
        ascending load."""
        pairs = sorted({(l, s) for l, s in zip(self.loads,
                                               self.sla_scales)},
                       key=lambda p: (-p[1], p[0]))
        return pairs

    def rows(self) -> list[tuple]:
        """Catalog rows: composition, load, sla_scale, J/query, p95,
        SLA verdict, energy."""
        out = []
        for c, l, s, r in zip(self.compositions, self.loads,
                              self.sla_scales, self.reports):
            out.append((c, l, s, r.joules_per_query,
                        r.p95_latency_seconds,
                        "met" if r.slas_met else "MISSED",
                        r.energy_joules))
        return out

    def crossover_rows(self) -> list[tuple]:
        """Per operating point: beefy J/q, wimpy J/q, and the winner
        (SLA-respecting: a composition that misses SLAs cannot win)."""
        rows = []
        for load, sla_scale in self.operating_points():
            try:
                beefy = self.report_at("beefy", load, sla_scale)
                wimpy = self.report_at("wimpy", load, sla_scale)
            except ServiceError:
                continue
            if wimpy.slas_met and not beefy.slas_met:
                winner = "wimpy"
            elif beefy.slas_met and not wimpy.slas_met:
                winner = "beefy"
            else:
                winner = ("wimpy" if wimpy.joules_per_query
                          < beefy.joules_per_query else "beefy")
            rows.append((load, sla_scale, beefy.joules_per_query,
                         wimpy.joules_per_query, winner))
        return rows

    def headline(self) -> dict[str, Any]:
        """The acceptance numbers: winners at the load extremes of the
        most relaxed SLA, and whether the crossover actually happens."""
        rows = self.crossover_rows()
        if not rows:
            raise ServiceError(
                "sweep has no (beefy, wimpy) pair at any operating "
                "point; nothing to cross over")
        relaxed = max(r[1] for r in rows)
        at_relaxed = [r for r in rows if r[1] == relaxed]
        low, high = at_relaxed[0], at_relaxed[-1]
        return {
            "low_load": low[0],
            "low_load_winner": low[4],
            "high_load": high[0],
            "high_load_winner": high[4],
            "crossover": low[4] != high[4],
            "sla_scale": relaxed,
        }

    def to_dict(self) -> dict[str, Any]:
        return {"compositions": list(self.compositions),
                "loads": list(self.loads),
                "sla_scales": list(self.sla_scales),
                "reports": [r.to_dict() for r in self.reports]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HeteroSweepResult":
        return cls(
            compositions=list(data.get("compositions", [])),
            loads=list(data.get("loads", [])),
            sla_scales=list(data.get("sla_scales", [])),
            reports=[ServiceReport.from_dict(r)
                     for r in data.get("reports", [])])


@dataclass
class PVCQEDSweepResult:
    """A mechanism × SLA-headroom sweep folded into a Pareto frontier.

    Parallel arrays: point *k* ran mechanism ``configs[k]`` with
    latency budget ``sla_headrooms[k]`` and produced ``reports[k]``.
    :meth:`pareto_rows` keeps the (Joules/query, p95) non-dominated
    SLA-respecting points, and :meth:`headline` states the 0909.1767
    verdict the CI gate pins: the best mechanism config's Joules/query
    against the ``power_aware`` baseline's, with every tenant SLA met.
    """

    configs: list[str]
    sla_headrooms: list[float]
    reports: list[ServiceReport]

    def __post_init__(self) -> None:
        n = len(self.reports)
        if not (len(self.configs) == len(self.sla_headrooms) == n):
            raise ServiceError(
                f"pvc_qed sweep arrays disagree: {len(self.configs)} "
                f"configs, {len(self.sla_headrooms)} sla_headrooms, "
                f"{n} reports")

    def baseline(self) -> ServiceReport:
        """The ``power_aware`` reference report (headroom-invariant:
        the baseline ignores the knob, so any instance serves)."""
        for config, report in zip(self.configs, self.reports):
            if config == "power_aware":
                return report
        raise ServiceError(
            "sweep ran no power_aware baseline; nothing to dominate")

    def rows(self) -> list[tuple]:
        """Catalog rows: config, sla_headroom, J/query, p95, SLA
        verdict, energy."""
        return [(c, h, r.joules_per_query, r.p95_latency_seconds,
                 "met" if r.slas_met else "MISSED", r.energy_joules)
                for c, h, r in zip(self.configs, self.sla_headrooms,
                                   self.reports)]

    def pareto_rows(self) -> list[tuple]:
        """The energy-vs-p95 frontier: SLA-respecting points no other
        SLA-respecting point beats on both Joules/query and p95,
        ascending by Joules/query."""
        met = [(c, h, r) for c, h, r in zip(
            self.configs, self.sla_headrooms, self.reports)
            if r.slas_met]
        frontier = []
        for c, h, r in met:
            dominated = any(
                o.joules_per_query <= r.joules_per_query
                and o.p95_latency_seconds <= r.p95_latency_seconds
                and (o.joules_per_query < r.joules_per_query
                     or o.p95_latency_seconds < r.p95_latency_seconds)
                for _, _, o in met)
            if not dominated:
                frontier.append((c, h, r.joules_per_query,
                                 r.p95_latency_seconds))
        return sorted(frontier, key=lambda row: row[2])

    def headline(self) -> dict[str, Any]:
        """The acceptance numbers: the cheapest SLA-respecting
        mechanism config vs. the ``power_aware`` baseline."""
        base = self.baseline()
        best = None
        for c, h, r in zip(self.configs, self.sla_headrooms,
                           self.reports):
            if c == "power_aware" or not r.slas_met:
                continue
            if best is None or r.joules_per_query \
                    < best[2].joules_per_query:
                best = (c, h, r)
        if best is None:
            raise ServiceError(
                "no mechanism config met every tenant SLA; the sweep "
                "has no admissible challenger")
        config, headroom, report = best
        return {
            "baseline_joules_per_query": base.joules_per_query,
            "baseline_p95_seconds": base.p95_latency_seconds,
            "best_config": config,
            "best_sla_headroom": headroom,
            "best_joules_per_query": report.joules_per_query,
            "best_p95_seconds": report.p95_latency_seconds,
            "savings_fraction": 1.0 - report.joules_per_query
            / base.joules_per_query,
            "dominates_power_aware": report.joules_per_query
            < base.joules_per_query,
        }

    def to_dict(self) -> dict[str, Any]:
        return {"configs": list(self.configs),
                "sla_headrooms": list(self.sla_headrooms),
                "reports": [r.to_dict() for r in self.reports]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PVCQEDSweepResult":
        return cls(
            configs=list(data.get("configs", [])),
            sla_headrooms=list(data.get("sla_headrooms", [])),
            reports=[ServiceReport.from_dict(r)
                     for r in data.get("reports", [])])


def pvc_qed_aggregate(points: Sequence[Any]) -> PVCQEDSweepResult:
    """Fold finished mechanism points into the Pareto sweep result."""
    order = {name: i for i, name in enumerate(PVC_QED_CONFIGS)}
    ordered = sorted(
        points,
        key=lambda p: (order.get(str(p.knobs.get("config", "power_aware")),
                                 len(order)),
                       float(p.knobs.get("sla_headroom", 0.6))))
    return PVCQEDSweepResult(
        configs=[str(p.knobs.get("config", "power_aware"))
                 for p in ordered],
        sla_headrooms=[float(p.knobs.get("sla_headroom", 0.6))
                       for p in ordered],
        reports=[p.report for p in ordered])


def hetero_aggregate(points: Sequence[Any]) -> HeteroSweepResult:
    """Fold finished hetero points into the composition frontier."""
    order = {name: i for i, name in enumerate(COMPOSITIONS)}
    ordered = sorted(
        points,
        key=lambda p: (order.get(str(p.knobs.get("composition", "mixed")),
                                 len(order)),
                       float(p.knobs.get("load", 1.0)),
                       -float(p.knobs.get("sla_scale", 1.0))))
    return HeteroSweepResult(
        compositions=[str(p.knobs.get("composition", "mixed"))
                      for p in ordered],
        loads=[float(p.knobs.get("load", 1.0)) for p in ordered],
        sla_scales=[float(p.knobs.get("sla_scale", 1.0))
                    for p in ordered],
        reports=[p.report for p in ordered])
