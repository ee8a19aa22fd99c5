"""Benchmark harness: scenario drivers, experiment registry, and table printing.

``repro.bench.scenarios`` contains the scenario model (a ``Scenario`` and
``run``: one simulated cluster per measurement) and the ``measure_*``
drivers built on it, ``repro.bench.experiments``
assembles them into the paper's tables and figures, and
``repro.bench.reporting`` prints the same rows/series the paper reports.
"""

from repro.bench.reporting import format_series, format_table
from repro.bench.scenarios import (
    SUPPORTED_SYSTEMS,
    measure_allgather,
    measure_allreduce,
    measure_alltoall,
    measure_broadcast,
    measure_gather,
    measure_point_to_point_rtt,
    measure_reduce,
)

__all__ = [
    "SUPPORTED_SYSTEMS",
    "format_series",
    "format_table",
    "measure_allgather",
    "measure_allreduce",
    "measure_alltoall",
    "measure_broadcast",
    "measure_gather",
    "measure_point_to_point_rtt",
    "measure_reduce",
]
