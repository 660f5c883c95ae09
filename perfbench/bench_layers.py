"""Per-layer metrics of a traced run, and the table that prints them.

Times and counts are per traced round (every round does the same
work, so a count divides exactly), except ``workloads.stream_gen_s``
and ``faults.schedule_s``, which include the one traced set-up where
streams and fault schedules are built.
"""

from __future__ import annotations

import statistics
from typing import Any

from bench_probe import at_reference_speed
from bench_trace import LAYERS, Tracer

DEVICE_CALLS = tuple(
    f"{cls}.{method}" for cls, methods in (
        ("HardDisk", ("read", "write", "read_batch", "write_batch")),
        ("RaidArray", ("read", "write", "read_batch")),
        ("FlashSsd", ("read", "write", "read_batch", "write_batch")),
        ("Cpu", ("execute",)))
    for method in methods)
METER_READS = tuple(f"EnergyMeter.{m}" for m in (
    "energy_joules", "wall_energy_joules", "breakdown_joules",
    "average_power_watts", "active_energy_joules"))
CODEC_DECODES = tuple(f"{c}.decode" for c in (
    "NoneCodec", "RleCodec", "DictionaryCodec", "DeltaCodec", "LzLiteCodec"))
#: fleet_scale operation names, one ns-per-query metric each
SERVICE_CONFIGS = ("round_robin", "least_loaded", "power_aware",
                   "cost_aware", "pvc", "cost_aware_mixed")


def round_seconds(rounds: list[dict]) -> float:
    """Seconds of a typical round at the reference host speed: each
    round's host time scaled by the median of its host-speed probes
    (see bench_probe), then the median over rounds."""
    return statistics.median(at_reference_speed(r["seconds"], r["probe_s"])
                             for r in rounds)


def snapshot(tracer: Tracer) -> dict[str, tuple[int, float, float]]:
    """Per-function (calls, total s, self s) at this moment."""
    return {name: tracer.stats(name) for name in tracer.names}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def _outcomes(rounds: list[dict], op: str) -> list[Any]:
    return [r["outcomes"].get(op) for r in rounds
            if r["outcomes"].get(op) is not None]


def layer_metrics(tracer: Tracer, setup: dict, plain: list[dict],
                  traced: list[dict], overheads: dict[str, float]
                  ) -> dict[str, tuple[float, str]]:
    n = len(traced)

    def calls(*names: str) -> float:
        return sum(tracer.stats(name)[0] for name in names) / n

    def total(*names: str) -> float:
        return sum(tracer.stats(name)[1] for name in names) / n

    def setup_total(name: str) -> float:
        return setup.get(name, (0, 0.0, 0.0))[1]

    own = {layer: s / n for layer, s in tracer.layer_self_s().items()}
    events = calls("Simulation.step")
    rows = calls("TableSchema.decode_row")
    m: dict[str, tuple[float, str]] = {
        "sim.events": (events, "count"),
        "sim.self_s": (own["sim"], "s"),
        "sim.ns_per_event": (_ratio(own["sim"], events, 1e9), "ns/event"),
        "sim.integrate_calls": (calls("TimeSeries.integrate"), "count"),
        "sim.integrate_s": (total("TimeSeries.integrate"), "s"),
        "hardware.self_s": (own["hardware"], "s"),
        "hardware.device_calls": (calls(*DEVICE_CALLS), "count"),
        "hardware.meter_s": (total(*METER_READS), "s"),
        "storage.self_s": (own["storage"], "s"),
        "storage.codec_decode_calls": (calls(*CODEC_DECODES), "count"),
        "storage.codec_decode_s": (total(*CODEC_DECODES), "s"),
        "relational.self_s": (own["relational"], "s"),
        "relational.executor_runs": (calls("Executor.run_process"),
                                     "count"),
        "relational.rows_decoded": (rows, "count"),
        "relational.ns_per_row": (_ratio(own["relational"], rows, 1e9),
                                  "ns/row"),
        "workloads.tpch_gen_s": (total("generate_tpch"), "s"),
        "workloads.stream_gen_s": (setup_total("build_stream")
                                   + total("build_stream"), "s"),
    }
    for label in SERVICE_CONFIGS:
        seconds = [r["op_seconds"][label] for r in traced
                   if label in r["op_seconds"]]
        served = _outcomes(traced, label)
        m[f"service.ns_per_query.{label}"] = (
            _ratio(statistics.median(seconds), served[0].facts["offered"],
                   1e9) if served else 0.0, "ns/query")
    offered = event = 0
    for r in traced:
        for outcome in r["outcomes"].values():
            if outcome is not None and "engine" in outcome.facts:
                offered += outcome.facts["offered"]
                if outcome.facts["engine"] == "event":
                    event += outcome.facts["offered"]
    faulty = _outcomes(traced, "faults")
    recorded = _outcomes(traced, "flightrec")
    captured = _outcomes(traced, "telemetry")
    runs = [o for r in traced for o in r["outcomes"].values()
            if o is not None and "cache_hits" in o.facts]
    m.update({
        "service.event_core_share": (_ratio(event, offered), "ratio"),
        "service.node_serves": (calls("FleetNode.serve",
                                      "FleetNode.serve_active"), "count"),
        "service.autoscale_steps": (calls("Autoscaler.step"), "count"),
        "service.autoscale_s": (total("Autoscaler.step"), "s"),
        "service.report_s": (total("FleetNode.finalize",
                                   "ServiceReport.to_dict"), "s"),
        "faults.ns_per_query": (
            _ratio(total("simulate_faulty_service"),
                   faulty[0].facts["offered"], 1e9) if faulty else 0.0,
            "ns/query"),
        "faults.schedule_s": (setup_total("build_fault_schedule")
                              + total("build_fault_schedule"), "s"),
        "flightrec.finalize_s": (total("FlightRecorder.finalize"), "s"),
        "flightrec.replay_s": (
            total("FlightRecording.replayed_energy_joules"), "s"),
        "flightrec.events": (
            recorded[0].facts["events"] if recorded else 0, "count"),
        "flightrec.overhead_x": (overheads.get("flightrec", 0.0), "x"),
        "telemetry.finalize_s": (total("TelemetryCollector.finalize"), "s"),
        "telemetry.spans": (
            captured[0].facts["spans"] if captured else 0, "count"),
        "telemetry.overhead_x": (overheads.get("telemetry", 0.0), "x"),
        "runner.point_key_s": (total("point_key"), "s"),
        "runner.cache_put_s": (total("ResultCache.put"), "s"),
        "runner.cache_get_s": (total("ResultCache.get"), "s"),
        "runner.cache_hits": (
            sum(o.facts["cache_hits"] for o in runs) / n, "count"),
        "runner.cache_misses": (
            sum(o.facts["cache_misses"] for o in runs) / n, "count"),
    })
    traced_s = round_seconds(traced)
    plain_s = round_seconds(plain)
    m["trace.run_s"] = (traced_s, "s")
    m["trace.overhead_s"] = (traced_s - plain_s, "s")
    return m


def print_table(workload: Any, tracer: Tracer, plain: list[dict],
                traced: list[dict], metrics: dict) -> None:
    n = len(traced)
    print(f"workload {workload.name}: {len(plain)} untraced and {n} traced "
          f"rounds; run_s {round_seconds(plain):.4f}"
          f" s untraced, {metrics['trace.run_s'][0]:.4f} s traced")
    # self times are host seconds averaged over the traced rounds, so
    # their shares are of the mean traced round in host seconds, not of
    # the probe-scaled run_s
    round_s = sum(r["seconds"] for r in traced) / n
    print(f"  {'layer':<12} {'self s/round':>14} {'share of round':>15} "
          f"{'calls/round':>13}")
    own = tracer.layer_self_s()
    layer_calls = tracer.layer_calls()
    for layer in LAYERS:
        print(f"  {layer:<12} {own[layer] / n:14.4f} "
              f"{_ratio(own[layer] / n, round_s):15.1%} "
              f"{layer_calls[layer] / n:13.0f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:14.6g} {unit}")
