"""Runs load only the layers they drive.

Hoplite is linked into every task worker, so every module a run imports is
compiled and executed in every worker process.  A collective or an
unobserved fleet drives no task system, no application and no observability
plane, so none of those may load for it.  This test imports what the
benchmark loads for its matching, pipeline and fleet workloads in a fresh
interpreter, runs a collective, an unobserved fleet and a collective whose
directory shard is killed, and checks that the deferred layers stayed out
of ``sys.modules``.  Then, in the same interpreter, it checks that each
deferred layer still loads where it is used: an orchestrated kill, an
observed fleet and the apps package.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys

# What the benchmark loads for matching, pipeline and fleet.
import repro.bench.fleet as fleet
import repro.bench.scenarios as scenarios
import repro.core.options
import repro.net.config
import repro.net.topology
import repro.store.objects

DEFERRED = ("repro.tasksys", "repro.obs", "repro.workloads") + tuple(
    f"repro.apps.{app}" for app in ("moe", "param_server", "rl", "serving", "sync_training")
)


def loaded():
    return sorted(
        name
        for name in sys.modules
        if any(name == prefix or name.startswith(prefix + ".") for prefix in DEFERRED)
    )


MB = 1 << 20
scenarios.measure_alltoall("hoplite", 16, 16 * MB)
result = fleet.run_fleet(quick=True, observe=False)
assert len(result.completions) == len(result.specs), result.completions
assert result.slo_rows == [] and result.obs is None
assert loaded() == [], loaded()

# The fault installer kills a directory shard on the direct path without
# the orchestrator.
from repro.net.faults import ControlPlaneFailureEvent

clean = scenarios.run(scenarios.Scenario("allgather", "hoplite", 8, 16 * MB))
shard_kill = (ControlPlaneFailureEvent("directory_shard", 0.01),)
killed_shard = scenarios.run(
    scenarios.Scenario("allgather", "hoplite", 8, 16 * MB, faults=shard_kill)
)
assert killed_shard["latency"] > clean["latency"], (killed_shard["latency"], clean["latency"])
assert loaded() == [], loaded()

# Each deferred layer loads where it is used.
killed = scenarios.run(
    scenarios.Scenario("allgather", "hoplite", 8, 16 * MB, kill=scenarios.Kill("directory", fraction=0.5))
)
assert killed["recovery"]["fail_at"] > 0, killed
assert "repro.tasksys.orchestrator" in sys.modules

observed = fleet.run_fleet(quick=True, observe=True)
assert {(row.op, row.size) for row in observed.slo_rows} == {
    (op, size) for op, size, _p50, _p99 in fleet.QUICK_SLOS
}, observed.slo_rows
assert observed.blame_rows and "repro.obs.export" in sys.modules

import repro.apps
from repro.apps import run_model_serving

assert run_model_serving.__module__ == "repro.apps.serving"
assert "repro.apps.moe" not in sys.modules
assert not hasattr(repro.apps, "run_nothing")
print("scoped")
"""


def test_runs_load_only_the_layers_they_drive():
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
    assert proc.stdout.strip() == "scoped"
