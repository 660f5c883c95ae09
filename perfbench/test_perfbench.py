"""Tests of the benchmark itself, at tiny sizes.

Run from the root of the checkout::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402

bench.ensure_importable()

from bench_trace import Tracer  # noqa: E402
from bench_workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


#: sizes small enough for a round to take well under a second
TINY = {
    "dbms": {"disks": (36,), "logical_scale_factor": 3.0,
             "physical_scale_factor": 0.0005, "scan_scale_factor": 0.0005},
    "fleet_scale": {"queries": 4_000, "nodes": 16, "load": 2.0},
    "fleet_ops": {"queries": 2_000, "nodes": 8, "load": 1.0},
}


def tiny(name: str, tmp_path: Path):
    workload = WORKLOADS[name](tmp_path)
    workload.sizes.update(TINY[name])
    return workload


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_named_metric_is_emitted_with_its_unit(name, trace,
                                                     tmp_path):
    result, metrics = bench.measure(tiny(name, tmp_path), seed=3,
                                    seconds=0.0, trace=trace,
                                    reference=None)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: unit for name, (_, unit) in metrics.items()}
    assert result.attempted > 0
    # the traced rounds are also checked against the untraced ones
    assert result.failed == 0, result.messages


def test_perturbed_reference_value_is_a_failed_operation(tmp_path):
    workload = tiny("fleet_ops", tmp_path)
    state = workload.setup(3)
    outcomes = bench.run_round(workload, state, 0,
                               bench.Result(None))["outcomes"]
    reference = {name: dict(o.output) for name, o in outcomes.items()}

    reference["qed_pvc"]["report.energy_joules"] *= 1 + 1e-12
    within = bench.Result(reference)
    bench.run_round(workload, state, 1, within)
    assert within.failed == 0, within.messages

    reference["qed_pvc"]["report.energy_joules"] *= 1 + 1e-6
    reference["faults"]["report.queries_completed"] += 1
    perturbed = bench.Result(reference)
    bench.run_round(workload, state, 2, perturbed)
    assert (perturbed.attempted, perturbed.failed) == (4, 2)
    assert any("energy_joules" in m for m in perturbed.messages)


def test_loop_fallback_on_fleet_scale_is_a_failed_operation(
        monkeypatch, tmp_path):
    import repro.service.engine as engine
    monkeypatch.setattr(engine, "event_core_unsupported",
                        lambda *args, **kwargs: "forced by the test")
    result, _ = bench.measure(tiny("fleet_scale", tmp_path), seed=3,
                              seconds=0.0, trace=False, reference=None)
    assert result.attempted == result.failed == 6
    assert all("left the event core" in m for m in result.messages)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_stored_reference_matches_the_default_sizes(name, tmp_path):
    workload = WORKLOADS[name](tmp_path)
    assert bench.load_reference(workload, 2009)
    assert bench.load_reference(workload, 7) is None


def test_default_seed_without_a_matching_reference_fails_every_op(
        tmp_path):
    workload = tiny("fleet_ops", tmp_path)
    reference = bench.load_reference(workload, 2009)
    assert reference == {}
    result, _ = bench.measure(workload, seed=2009, seconds=0.0,
                              trace=False, reference=reference)
    assert result.attempted == result.failed == 4
    assert all("no reference output stored" in m for m in result.messages)


def test_a_slower_host_reports_the_same_round_time():
    import bench_layers
    from bench_probe import REFERENCE_S
    quiet = [{"seconds": s, "probe_s": p}
             for s, p in ((2.0, REFERENCE_S), (2.4, 0.08), (1.9, 0.06))]
    slow = [{"seconds": 1.5 * r["seconds"], "probe_s": 1.5 * r["probe_s"]}
            for r in quiet]
    assert bench_layers.round_seconds(quiet) == pytest.approx(2.1)
    assert bench_layers.round_seconds(slow) == pytest.approx(2.1)


def test_traced_generator_forwards_send_throw_and_return():
    tracer = Tracer()
    index = tracer._register("sim", "probe")
    tracer.active = True

    def inner():
        got = yield 1
        try:
            yield got
        except KeyError:
            return "caught"

    gen = tracer._timed_generator(index, inner())
    assert next(gen) == 1
    assert gen.send("x") == "x"
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError("k"))
    assert stop.value.value == "caught"
    assert tracer.calls[index] == 0 and len(tracer.spans) == 3


def test_exits_nonzero_without_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dbms",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
