"""Benchmark harness: the scenario model, the claims table, and table printing.

``repro.bench.scenarios`` contains the scenario model (a ``Scenario`` and
``run``: one simulated cluster per measurement) and the ``measure_*``
drivers built on it, ``repro.bench.claims`` builds the paper's figure
tables on fixed grids and checks each of the paper's claims against them
(import it directly: it loads the application workloads), and
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
    "measure_reduce",
]
