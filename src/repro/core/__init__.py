"""Hoplite core: the efficient, fault-tolerant collective communication layer.

This package implements the paper's primary contribution:

* :class:`~repro.core.runtime.HopliteRuntime` — one runtime per simulated
  cluster, owning the per-node object stores, the object directory, and a
  :class:`~repro.core.api.HopliteClient` per node;
* :class:`~repro.core.api.HopliteClient` — the Table 1 API
  (``Put`` / ``Get`` / ``Delete`` / ``Reduce``) plus the ``AllReduce``
  composition;
* :mod:`~repro.core.broadcast` — the receiver-driven broadcast protocol
  (Section 3.4.1) with pipelining and failure recovery;
* :mod:`~repro.core.reduce` — the dynamic ``d``-ary reduce tree
  (Section 3.4.2) with in-order placement by arrival, streaming partial
  reduction, degree selection, and tree repair on failure (Section 3.5.2);
* :mod:`~repro.core.gather` — pipelined allgather (per-object broadcast
  trees) and reduce-scatter (per-shard dynamic reduce trees);
* :mod:`~repro.core.alltoall` — the pipelined all-to-all personalized
  exchange behind MoE-style expert routing.
"""

from repro.core.alltoall import AllToAllExecution, AllToAllResult
from repro.core.api import HopliteClient
from repro.core.gather import (
    AllGatherExecution,
    AllGatherResult,
    ReduceScatterResult,
)
from repro.core.options import HopliteOptions
from repro.core.reduce import ReducePlan, choose_reduce_degree, reduce_time_model
from repro.core.runtime import HopliteRuntime
from repro.store.objects import ObjectID, ObjectValue, ReduceOp

__all__ = [
    "AllGatherExecution",
    "AllGatherResult",
    "AllToAllExecution",
    "AllToAllResult",
    "HopliteClient",
    "HopliteOptions",
    "HopliteRuntime",
    "ObjectID",
    "ObjectValue",
    "ReduceOp",
    "ReducePlan",
    "ReduceScatterResult",
    "choose_reduce_degree",
    "reduce_time_model",
]
