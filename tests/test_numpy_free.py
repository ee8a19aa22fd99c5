"""Runs that carry no payloads never import numpy.

Hoplite is linked into every task worker, so numpy (about 12 MB resident and
the package's largest import) is loaded only where a payload array is
handled.  All four benchmark workloads move size-only objects: `matching`,
`pipeline` and `fleet` run collectives and jobs, and `recovery` adds seeded
churn, control-plane and driver kills and the Fig. 12 apps under a failure.
These tests run each kind of work in a fresh interpreter where any numpy
import raises, so a module-level ``import numpy`` reachable from the
scenario, failure or app modules fails them.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PREAMBLE = """
import sys

sys.modules["numpy"] = None  # any ``import numpy`` now raises ImportError
"""

SCRIPT = PREAMBLE + """
# What perf/ loads for matching, pipeline and fleet, and the constructors its
# timed passes clock.
import repro.bench.fleet
import repro.bench.scenarios as scenarios
import repro.collectives.naive
import repro.collectives.plane
import repro.core.options
import repro.core.runtime
import repro.net.cluster
import repro.net.config
import repro.net.topology
import repro.store.objects
import repro.tasksys

MB = 1 << 20
scenarios.measure_alltoall("hoplite", 16, 16 * MB)
scenarios.measure_broadcast("hoplite", 8, 64 * MB)
scenarios.measure_reduce("hoplite", 8, 64 * MB)
scenarios.measure_allgather("openmpi", 8, 16 * MB)
scenarios.measure_allreduce("gloo", 8, 64 * MB)
result = repro.bench.fleet.run_fleet(quick=True, observe=False)
assert len(result.completions) == len(result.specs), result.completions
print("numpy-free")
"""

RECOVERY_SCRIPT = PREAMBLE + """
# What perf/ loads for recovery, and the kinds of faulted run its pass clocks.
import repro.apps.param_server as param_server
import repro.apps.serving as serving
import repro.bench.scenarios as scenarios
from repro.apps.common import FailureSchedule
from repro.net.config import NetworkConfig
from repro.net.failure import poisson_failures
from repro.net.topology import Topology

MB = 1 << 20
slow = NetworkConfig(bandwidth=1.25e8, topology=Topology.racks(2, 4, oversubscription=2.0))
churn = poisson_failures(list(range(1, 8)), rate_per_second=4.0, horizon=0.8, downtime=0.2)
assert churn, churn
scenarios.measure_allgather("hoplite", 8, 16 * MB, network=slow, failures=churn)
scenarios.measure_alltoall("hoplite", 8, 16 * MB, network=slow, failures=churn)
scenarios.measure_control_plane_failure(8, 16 * MB, target="both", fail_fraction=0.5)
scenarios.measure_driver_failure("hoplite", 8, 16 * MB, "allreduce", fail_fraction=0.5)
served = serving.run_model_serving(
    8, "hoplite", 8, failure=FailureSchedule(node_id=3, fail_at=0.2, recover_at=0.6)
)
assert len(served.iteration_latencies) == 8, served.iteration_latencies
trained = param_server.run_async_sgd(
    7, "alexnet", "hoplite", 4, failure=FailureSchedule(node_id=3, fail_at=0.5, recover_at=1.0)
)
assert len(trained.iteration_latencies) == 4, trained.iteration_latencies
print("numpy-free")
"""


def _run_without_numpy(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout.strip() == "numpy-free"


def test_payload_free_runs_never_import_numpy():
    _run_without_numpy(SCRIPT)


def test_recovery_runs_never_import_numpy():
    _run_without_numpy(RECOVERY_SCRIPT)
