"""Runs that carry no payloads never import numpy.

Hoplite is linked into every task worker, so numpy (about 12 MB resident and
the package's largest import) is loaded only where an array is handled.  The
benchmark workloads `matching`, `pipeline` and `fleet` move size-only
objects; this test runs their kind of work in a fresh interpreter where any
numpy import raises, so a module-level ``import numpy`` reachable from the
scenario modules fails it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys

sys.modules["numpy"] = None  # any ``import numpy`` now raises ImportError

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


def test_payload_free_runs_never_import_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout.strip() == "numpy-free"
