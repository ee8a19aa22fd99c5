"""Hoplite reproduction: efficient, fault-tolerant collective communication
for task-based distributed systems (SIGCOMM 2021), rebuilt as a Python
library on a discrete-event cluster simulator.

Public API overview
-------------------

* :mod:`repro.sim` — the discrete-event simulation kernel.
* :mod:`repro.net` — the simulated cluster/network substrate.
* :mod:`repro.store` — the object model and per-node object stores.
* :mod:`repro.directory` — the sharded object directory service.
* :mod:`repro.core` — Hoplite itself: ``HopliteRuntime`` and the
  ``Put``/``Get``/``Delete``/``Reduce`` client API.
* :mod:`repro.collectives` — OpenMPI/Gloo/Ray/Dask-style baselines and the
  ``CommPlane`` abstraction shared with the applications.
* :mod:`repro.tasksys` — a miniature Ray-like dynamic task system.
* :mod:`repro.apps` — the paper's application workloads (async SGD, RL,
  model serving, synchronous training).
* :mod:`repro.bench` — the benchmark harness regenerating every figure.

Importing ``repro`` loads the simulator, the network, the stores, the
directory and Hoplite's runtime, which every run drives.  Three layers load
on first use instead: the task system (only a collective run under a
:class:`~repro.bench.scenarios.Kill`, or an application, imports it), the
applications (``from repro.apps import run_model_serving`` imports that one
app) and the observability plane (``cluster.enable_observability()`` and an
observed fleet import it).  numpy likewise loads only where a payload array
is handled.
"""

from repro.core.api import HopliteClient
from repro.core.options import HopliteOptions
from repro.core.runtime import HopliteRuntime
from repro.net.cluster import Cluster
from repro.net.config import NetworkConfig
from repro.net.topology import Topology
from repro.store.objects import ObjectID, ObjectValue, ReduceOp

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "HopliteClient",
    "HopliteOptions",
    "HopliteRuntime",
    "NetworkConfig",
    "ObjectID",
    "ObjectValue",
    "ReduceOp",
    "Topology",
    "__version__",
]
