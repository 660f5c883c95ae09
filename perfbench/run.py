"""The repo benchmark: host time and memory of the simulator itself.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {dbms,fleet_scale,fleet_ops} \\
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` it prints the end-to-end metrics of one workload;
with ``--trace 1`` it wraps each layer's public functions, prints a
per-layer host-time and work-count table, and writes the spans as JSON
under ``.perfbench/``.  Every operation's simulated outputs are checked
in both modes.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORKDIR = ROOT / ".perfbench"

#: set-ups per run, each a fresh-interpreter import plus an in-process
#: set-up; set-up time is their median
SETUP_REPEATS = 5


def ensure_importable() -> None:
    """Put the checkout's ``src`` and this directory on ``sys.path``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {SRC}; run "
                         "from the root of a repro checkout")
    for path in (str(SRC), str(BENCH)):
        if path not in sys.path:
            sys.path.insert(0, path)


def import_seconds(modules: tuple[str, ...]) -> float:
    """Wall time for a fresh interpreter to start and import ``modules``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import " + ", ".join(modules)],
                   env=env, check=True, cwd=ROOT)
    return time.perf_counter() - started


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Result:
    """Per-operation outcomes and timings of a whole run."""

    def __init__(self, reference: Optional[dict[str, Any]]) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.first_outputs: dict[str, dict[str, Any]] = {}

    def fail(self, op: str, why: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(f"{op}: {why}")


def run_round(workload: Any, state: Any, k: int, result: Result,
              tracer: Any = None) -> dict[str, Any]:
    """One round: every operation timed, then summarized and checked.

    Returns the round's host seconds, per-op seconds, the median time of
    the host-speed probes run before each operation and after the last,
    simulated queries completed and each op's :class:`Outcome` (None
    where it raised)."""
    from bench_checks import mismatches
    from bench_probe import probe_seconds
    ops = workload.round_ops(state, k)
    seconds = 0.0
    op_seconds: dict[str, float] = {}
    probes = []
    outcomes: dict[str, Any] = {}
    completed = 0
    for op in ops:
        probes.append(probe_seconds())
        result.attempted += 1
        if tracer is not None:
            tracer.op = result.attempted
            tracer.active = True
        started = time.perf_counter()
        try:
            raw = op.run()
        except Exception as exc:  # a raising operation is a failed one
            raw, error = None, exc
        else:
            error = None
        elapsed = time.perf_counter() - started
        if tracer is not None:
            tracer.active = False
        seconds += elapsed
        op_seconds[op.name] = elapsed
        if error is not None:
            traceback.print_exception(error)
            result.fail(op.name, f"raised {type(error).__name__}: {error}")
            outcomes[op.name] = None
            continue
        outcome = op.summarize(raw)
        outcomes[op.name] = outcome
        completed += outcome.completed
        problems = list(outcome.problems)
        if result.reference is not None:
            expected = result.reference.get(op.name)
            if expected is None:
                problems.append("no reference output stored for "
                                "these sizes")
            else:
                problems += [f"reference: {m}" for m in
                             mismatches(expected, outcome.output)]
        first = result.first_outputs.setdefault(op.name, outcome.output)
        if first is not outcome.output:
            problems += [f"differs from the first round: {m}" for m in
                         mismatches(first, outcome.output, rel_tol=0.0)]
        if problems:
            result.fail(op.name, "; ".join(problems))
    probes.append(probe_seconds())
    workload.end_round(state, k)
    return {"seconds": seconds, "op_seconds": op_seconds,
            "probe_s": statistics.median(probes), "completed": completed,
            "outcomes": outcomes}


def load_reference(workload: Any, seed: int) -> Optional[dict[str, Any]]:
    """The stored outputs to compare with: None for a non-default seed
    (invariants only), else the workload's stored ops.  With no entry
    for the workload, or one stored for other sizes, it is empty, so
    every operation fails for lack of a reference."""
    from bench_workloads import DEFAULT_SEED
    if seed != DEFAULT_SEED:
        return None
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        stored = json.load(fh).get(workload.name)
    if stored is None or stored["sizes"] != json.loads(
            json.dumps(workload.sizes)):
        return {}
    return stored["ops"]


def measure(workload: Any, seed: int, seconds: float, trace: bool,
            reference: Optional[dict[str, Any]]) -> tuple[Result, dict]:
    """Set up and run ``workload``; returns the checked result and the
    metrics for the requested mode."""
    import bench_layers
    from bench_probe import at_reference_speed, probe_seconds
    from bench_workloads import IMPORTS
    result = Result(reference)
    if not trace:
        setups, probes = [], [probe_seconds()]
        for _ in range(SETUP_REPEATS):
            state = None  # a user's process holds one set-up, not two
            imported = import_seconds(IMPORTS)
            started = time.perf_counter()
            state = workload.setup(seed)
            setups.append(imported + time.perf_counter() - started)
            probes.append(probe_seconds())
        setup_s = at_reference_speed(statistics.median(setups),
                                     statistics.median(probes))
        rounds = []
        deadline = time.perf_counter() + seconds
        while not rounds or time.perf_counter() < deadline:
            rounds.append(run_round(workload, state, len(rounds), result))
        run_s = bench_layers.round_seconds(rounds)
        qps = statistics.median(r["completed"] for r in rounds) / run_s
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (run_s, "s"),
            "sim_queries_per_s": (qps, "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        print_summary(workload, rounds, result, metrics)
        return result, metrics
    return result, traced_run(workload, seed, seconds, result)


def traced_run(workload: Any, seed: int, seconds: float,
               result: Result) -> dict:
    """Untraced rounds, then the same rounds under the tracer: the
    outputs must match exactly, and the time difference is the
    tracing overhead."""
    from bench_trace import Tracer
    import bench_layers
    deadline = time.perf_counter() + seconds
    state = workload.setup(seed)
    plain = []
    while not plain or time.perf_counter() < deadline - 2 * seconds / 3:
        plain.append(run_round(workload, state, len(plain), result))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = 0
        tracer.active = True
        state = workload.setup(seed)
        tracer.active = False
        setup_stats = bench_layers.snapshot(tracer)
        tracer.reset()
        traced = []
        while not traced or time.perf_counter() < deadline:
            traced.append(run_round(workload, state,
                                    len(plain) + len(traced), result,
                                    tracer=tracer))
    finally:
        tracer.uninstall()
    overheads = workload.observer_overheads(state, _timer)
    metrics = bench_layers.layer_metrics(tracer, setup_stats, plain, traced,
                                         overheads)
    WORKDIR.mkdir(exist_ok=True)
    path = WORKDIR / f"trace-{workload.name}-seed{seed}.json"
    tracer.dump(str(path), {"workload": workload.name, "seed": seed,
                            "traced_rounds": len(traced)})
    bench_layers.print_table(workload, tracer, plain, traced, metrics)
    print(f"spans written to {path.relative_to(ROOT)}")
    return metrics


def _timer(fn: Any) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def print_summary(workload: Any, rounds: list, result: Result,
                  metrics: dict) -> None:
    from bench_probe import REFERENCE_S
    print(f"workload {workload.name}: {len(rounds)} rounds, "
          f"{result.attempted} operations, {result.failed} failed")
    for name in rounds[0]["op_seconds"]:
        median = statistics.median(r["op_seconds"][name] for r in rounds)
        print(f"  op {name:<22} {median:10.4f} s (median, host time)")
    probe = statistics.median(r["probe_s"] for r in rounds)
    print(f"  host-speed probe {probe:.4f} s (median); the times below "
          f"are scaled to a probe of {REFERENCE_S} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<22} {value:12.6g} {unit}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    ensure_importable()
    from bench_workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: "
                     f"{', '.join(WORKLOADS)}")
    WORKDIR.mkdir(exist_ok=True)
    workdir = WORKDIR / f"work-{os.getpid()}"
    workload = WORKLOADS[args.workload](workdir)
    try:
        reference = load_reference(workload, args.seed)
        result, metrics = measure(workload, args.seed, args.seconds,
                                  bool(args.trace), reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in result.messages:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"operations: {result.attempted} attempted, {result.failed} "
          f"failed, failed_frac {result.failed / result.attempted:.6g}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
