"""Workloads: TPC-H-style data/queries and the paper's two experiments'
drivers (throughput test, compressed-scan microbenchmark, OLTP stream).

Batch ETL pipelines — declarative stage DAGs served as scheduled
tenants of the fleet — live in the :mod:`repro.workloads.pipelines`
subpackage (see PIPELINES.md).

The v1 drivers ``run_throughput_test``/``run_scan_experiment`` were
removed in 2.0: call :func:`run_throughput`/:func:`run_scan` directly
or sweep the ``fig1``/``scan`` experiments through
:class:`~repro.runner.Runner`.
"""

from repro.workloads.tpch_schema import (
    ORDERS_SCAN_COLUMNS,
    tpch_schemas,
)
from repro.workloads.tpch_gen import TpchDatabase, generate_tpch
from repro.workloads.tpch_queries import (
    q1,
    q14,
    q3_spec,
    q5_spec,
    q6,
    q10_spec,
    throughput_mix,
)
from repro.workloads.throughput import ThroughputReport, run_throughput
from repro.workloads.scan_workload import ScanReport, run_scan
from repro.workloads.duty_cycle import DutyCycleReport, run_duty_cycle
from repro.workloads.oltp import OltpReport, run_oltp_stream

__all__ = [
    "ORDERS_SCAN_COLUMNS",
    "DutyCycleReport",
    "OltpReport",
    "ScanReport",
    "ThroughputReport",
    "TpchDatabase",
    "generate_tpch",
    "q1",
    "q3_spec",
    "q5_spec",
    "q6",
    "q10_spec",
    "q14",
    "run_duty_cycle",
    "run_oltp_stream",
    "run_scan",
    "run_throughput",
    "throughput_mix",
    "tpch_schemas",
]

