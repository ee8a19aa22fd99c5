"""Control-plane recovery: kill a directory shard mid-collective, replay, finish.

An 8-node allgather runs through the collective orchestrator.  One third of
the way in, directory shard 0 is killed: every record it owns is wiped, and
requests to it park instead of erroring.  The shard's recovery task waits
out the failure-detection delay, replays its write-ahead log (the kill's
snapshot plus the records appended while the shard was down), and answers
its parked backlog serially — the collective completes without a job
restart.  For contrast, the script also prints what a control plane
*without* WAL replay would cost: detection plus a full re-run from scratch.

Run with::

    python examples/control_plane_recovery.py
"""

from __future__ import annotations

import numpy as np

from repro import Cluster, NetworkConfig, ObjectID, ObjectValue
from repro.collectives.plane import HoplitePlane
from repro.core.runtime import HopliteRuntime
from repro.tasksys import CollectiveOrchestrator, CollectiveSpec, TaskSystem

MB = 1024 * 1024
NUM_NODES = 8
OBJECT_BYTES = 32 * MB
KILL_AT = 0.4
SHARD_ID = 2


def build():
    cluster = Cluster(
        num_nodes=NUM_NODES, network=NetworkConfig(bandwidth=1.25e8)
    )
    runtime = HopliteRuntime(cluster)
    system = TaskSystem(cluster, HoplitePlane(runtime))
    orchestrator = CollectiveOrchestrator(system)
    ranks = list(range(NUM_NODES))
    sources = {i: ObjectID.unique(cluster, f"shard-demo-src{i}") for i in ranks}
    spec = CollectiveSpec.allgather(
        "shard-demo",
        ranks,
        sources,
        {
            sources[i]: ObjectValue.from_array(
                np.full(2, float(i + 1)), logical_size=OBJECT_BYTES
            )
            for i in ranks
        },
    )
    return cluster, runtime, orchestrator, spec


def run(kill: bool) -> float:
    cluster, runtime, orchestrator, spec = build()
    sim = cluster.sim
    directory = runtime.directory
    finish = {}

    def driver():
        outcome = yield from orchestrator.invoke(spec)
        finish["t"] = outcome.completion_time

    def killer():
        yield sim.timeout(KILL_AT)
        shard = directory.shards[SHARD_ID]
        print(
            f"[{sim.now:6.3f} s] *** killing directory shard {SHARD_ID} "
            f"({sum(1 for r in directory.records.values() if r.shard == SHARD_ID)} "
            f"records wiped, {shard.wal.count} WAL appends since the last "
            f"checkpoint) ***"
        )
        directory.fail_shard(SHARD_ID)

        yield shard.recovery_event
        print(
            f"[{sim.now:6.3f} s] shard {SHARD_ID} back: replay charged for "
            f"{shard.last_replay_applied} WAL records "
            f"({len(shard.wal.downtime)} appended while it was down), "
            f"parked backlog of {shard.backlog} requests draining"
        )

    sim.process(driver())
    if kill:
        sim.process(killer())
    cluster.run(until=240.0)
    return finish["t"]


def main() -> None:
    baseline = run(kill=False)
    print(f"failure-free allgather completes at {baseline:.3f} s\n")

    recovered = run(kill=True)
    print(f"\nwith the shard kill, the collective completes at {recovered:.3f} s")

    # A control plane without WAL durability makes a directory loss job-fatal:
    # the launcher detects the death and reruns everything from scratch.
    config = NetworkConfig()
    static = KILL_AT + config.failure_detection_delay + baseline
    print(f"a static restart would have finished at  {static:.3f} s")
    print(
        f"replay-based recovery wins by {static - recovered:.3f} s "
        f"({(static - recovered) / static:.0%} of the restart path)"
    )


if __name__ == "__main__":
    main()
