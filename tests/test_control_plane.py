"""The control plane as a failure domain: WAL durability, shard kills, replay.

Covers the durability layer end to end:

* WAL mechanics: the count resets every ``CHECKPOINT_INTERVAL`` appends
  while the owner is up and never while it is down, a kill snapshots the
  owner's state, and replay applies the downtime records, held by
  reference, in order and reports the count since the last reset;
* directory-shard kills mid-collective: the collective completes without a
  job restart, and replay rebuilds the wiped records (kill snapshot plus
  downtime records) as the log's whole history would (the
  ``replay_oracle`` fixture of ``conftest.py``);
* a crash-at-every-boundary sweep: the kill lands after each stride of the
  unkilled run's WAL append marks and the collective must complete at
  every point, every replay checked by the oracle;
* a live service refuses to replay;
* lineage/ownership kills through the orchestrator: in-flight specs resume
  from their durable specs via ``replay_after_restart``, and
  tasks that restart during the downtime park in ``lookup_spec`` until the
  replayed plane answers them serially;
* the streaming-allreduce recovery satellites (root progress preserved on a
  contributor loss, root prefix seeded back from a receiver on root loss);
* the ``control_plane_ops`` metrics family through the exporters.
"""

import numpy as np
import pytest

from repro.bench.scenarios import Kill, Scenario, run
from repro.collectives.plane import HoplitePlane
from repro.core.runtime import HopliteRuntime
from repro.net.cluster import Cluster
from repro.net.config import NetworkConfig
from repro.net.faults import FailureEvent
from repro.obs.export import to_json
from repro.store.objects import ObjectID, ObjectValue, ReduceOp
from repro.tasksys import (
    CollectiveOrchestrator,
    CollectiveSpec,
    TaskSystem,
)
from repro.sim import SimulationError
from repro.directory import wal as wal_module
from repro.directory.wal import CHECKPOINT_INTERVAL, WriteAheadLog

MB = 1024 * 1024
NET = dict(bandwidth=1.25e8)  # 1 Gbps: collectives run long enough to kill into


# ---------------------------------------------------------------------------
# WAL mechanics
# ---------------------------------------------------------------------------


def _counter_wal():
    """A WAL owning a simple add-only counter dict, for mechanics tests."""
    state = {"applied": {}}
    marks = []
    wal = WriteAheadLog(lambda: dict(state["applied"]), on_checkpoint=marks.append)

    def restore(snapshot):
        state["applied"] = {} if snapshot is None else dict(snapshot)

    def apply(kind, data):
        key, amount = data
        state["applied"][key] = state["applied"].get(key, 0) + amount

    return wal, state, restore, apply, marks


def test_wal_resets_its_count_every_interval_while_up():
    wal, state, restore, apply, marks = _counter_wal()
    for i in range(2 * CHECKPOINT_INTERVAL + 10):
        wal.append("add", (f"k{i % 3}", 1))
    # Two checkpoints fired, each marked with the appends it covers; a live
    # log keeps no record.
    assert wal.checkpoints == 2
    assert marks == [CHECKPOINT_INTERVAL, 2 * CHECKPOINT_INTERVAL]
    assert wal.count == 10 and wal.appends == 2 * CHECKPOINT_INTERVAL + 10
    assert wal.downtime == [] and wal.snapshot is None


def test_wal_never_resets_while_down_and_replays_the_kill_snapshot():
    wal, state, restore, apply, marks = _counter_wal()
    for i in range(3):
        apply("add", ("k", 1))
        wal.append("add", ("k", 1))
    wal.freeze()
    assert wal.snapshot == {"k": 3}
    state["applied"] = {}  # the owner wipes its state
    # Appends still land while the owner is down (the world keeps mutating)
    # and no checkpoint fires, however many there are.
    for i in range(CHECKPOINT_INTERVAL + 1):
        wal.append("add", ("k", 1))
    assert wal.checkpoints == 0 and marks == []
    assert wal.replay(restore, apply) == wal.count == CHECKPOINT_INTERVAL + 4
    assert state["applied"] == {"k": CHECKPOINT_INTERVAL + 4}
    # Back up, the next append resets the count it carried over the interval.
    wal.frozen = False
    wal.append("add", ("k", 1))
    assert wal.checkpoints == 1 and wal.count == 0
    assert marks == [CHECKPOINT_INTERVAL + 5]


def test_wal_downtime_records_hold_payloads_by_reference_in_order():
    """The log is never persisted: replay hands back the very objects that
    were appended while the owner was down, in append order."""
    wal = WriteAheadLog(lambda: "snapshot")
    value = ObjectValue.from_array(np.full(3, 4.0), logical_size=8 * MB)
    wal.append("op", ("before the kill",))
    wal.freeze()
    payloads = [(ObjectID.of("k"), value), ({"spec": [1, 2]}, ReduceOp.MAX)]
    for kind, payload in zip(("first", "second"), payloads):
        wal.append(kind, payload)
    restored, seen = [], []
    assert wal.replay(restored.append, lambda kind, data: seen.append((kind, data))) == 3
    assert restored == ["snapshot"]
    assert [kind for kind, _ in seen] == ["first", "second"]
    for (_, data), payload in zip(seen, payloads):
        assert data is payload
    assert seen[0][1][1] is value
    assert wal.replays == 1


def test_wal_replay_reports_the_count_since_the_last_reset():
    wal, state, restore, apply, marks = _counter_wal()
    for i in range(CHECKPOINT_INTERVAL + 7):
        wal.append("add", ("k", 1))
    wal.freeze()
    # The count spans the kill: seven records before it, two during the
    # downtime, of which only the two are applied.
    wal.append("add", ("k", 1))
    wal.append("add", ("k", 1))
    assert wal.replay(restore, apply) == 9
    assert state["applied"] == {"k": 2}
    # A second kill snapshots afresh and drops the old downtime records.
    wal.frozen = False
    wal.freeze()
    assert wal.downtime == [] and wal.snapshot == {"k": 2}
    assert wal.replay(restore, apply) == 9 and wal.replays == 2


# ---------------------------------------------------------------------------
# Shared collective harness
# ---------------------------------------------------------------------------


def _build(num_nodes=5):
    cluster = Cluster(num_nodes=num_nodes, network=NetworkConfig(**NET))
    runtime = HopliteRuntime(cluster)
    system = TaskSystem(cluster, HoplitePlane(runtime))
    orchestrator = CollectiveOrchestrator(system)
    return cluster, runtime, system, orchestrator


def _allgather_spec(cluster, tag, num_nodes, nbytes):
    ranks = list(range(num_nodes))
    sources = {i: ObjectID.unique(cluster, f"{tag}-src{i}") for i in ranks}
    return CollectiveSpec.allgather(
        tag,
        ranks,
        sources,
        {sources[i]: ObjectValue.from_array(np.full(2, float(i + 1)), logical_size=nbytes)
         for i in ranks},
    )


def _allreduce_spec(cluster, tag, num_nodes, nbytes):
    ranks = list(range(num_nodes))
    sources = {i: ObjectID.unique(cluster, f"{tag}-src{i}") for i in ranks}
    return CollectiveSpec.reduce(
        tag,
        0,
        ranks,
        sources,
        ObjectID.unique(cluster, f"{tag}-target"),
        {sources[i]: ObjectValue.from_array(np.full(4, float(i + 1)), logical_size=nbytes)
         for i in ranks},
        ReduceOp.SUM,
        allreduce=True,
    )


def _invoke(cluster, orchestrator, spec, budget=240.0, kills=()):
    """Run one collective; ``kills`` is a list of (at, thunk) injections."""
    sim = cluster.sim
    done = {}

    def driver():
        outcome = yield from orchestrator.invoke(spec)
        done["outcome"] = outcome

    def killer(at, thunk):
        yield sim.timeout(at)
        thunk()

    sim.process(driver(), name=f"drv-{spec.spec_id}")
    for at, thunk in kills:
        sim.process(killer(at, thunk), name="killer")
    cluster.run(until=budget)
    sim.check_failures()
    assert "outcome" in done, (
        f"collective {spec.spec_id} did not complete (t={sim.now})"
    )
    return done["outcome"]


# ---------------------------------------------------------------------------
# Directory shard kills
# ---------------------------------------------------------------------------


def test_shard_kill_mid_collective_recovers_by_replay(replay_oracle):
    cluster, runtime, _, orchestrator = _build(num_nodes=5)
    spec = _allgather_spec(cluster, "sk", 5, 16 * MB)
    directory = runtime.directory

    outcome = _invoke(
        cluster,
        orchestrator,
        spec,
        kills=[(0.2, lambda: directory.fail_shard(0))],
    )
    shard = directory.shards[0]
    assert directory.kill_count == 1
    assert shard.alive and shard.incarnation == 1
    # Replay was charged for the durable history since the last checkpoint...
    assert shard.last_replay_applied > 0
    assert shard.wal.replays == 1
    # ...and rebuilt the wiped records as the whole history would.  No
    # record landed for this shard during the downtime, so the replay
    # restored the kill's snapshot alone.
    assert replay_oracle.replays == {"shard": 1, "lineage": 0}
    assert shard.wal.downtime == [] and shard.wal.snapshot
    # Recovery stalls requests; it never restarts the job.
    assert orchestrator.metrics["invocations"] == 1
    assert outcome.completion_time > 0.2


def test_shard_replay_charges_the_appends_since_the_last_checkpoint(
    monkeypatch, replay_oracle
):
    """With a checkpoint every 4 appends, a kill's replay restores the kill
    snapshot and is charged only for the appends after the last checkpoint
    before it, as a replay of checkpoint plus tail would be."""
    monkeypatch.setattr(wal_module, "CHECKPOINT_INTERVAL", 4)
    cluster, runtime, _, orchestrator = _build(num_nodes=5)
    cluster.enable_observability()
    spec = _allgather_spec(cluster, "ck", 5, 16 * MB)
    directory = runtime.directory
    shard = directory.shards[0]
    _invoke(cluster, orchestrator, spec, kills=[(0.2, lambda: directory.fail_shard(0))])
    assert not cluster.flight.dropped
    marks = [
        detail
        for _, kind, resource, detail in cluster.flight.records
        if kind == "phase" and resource == shard.resource
    ]
    before = marks[: marks.index("replay_begin")]
    last = max(i for i, mark in enumerate(before) if mark.startswith("checkpoint/"))
    assert shard.wal.checkpoints >= 2
    assert shard.last_replay_applied == sum(
        mark.startswith("wal_append/") for mark in before[last + 1 :]
    ) > 0
    assert f"replay_end/applied={shard.last_replay_applied}" in marks
    assert replay_oracle.replays["shard"] == shard.wal.replays == 1


def test_crash_at_every_boundary_sweep(replay_oracle):
    """Kill shard 0 after each stride of the unkilled run's WAL history.

    The unkilled run's ``wal_append`` marks on shard 0 enumerate every point
    at which the durable history grows; crashing just after each of them
    (strided to keep the sweep cheap) must never wedge or restart the
    collective, and every replay must rebuild what the whole history does.
    """
    num_nodes, nbytes = 4, 4 * MB
    cluster, runtime, _, orchestrator = _build(num_nodes=num_nodes)
    cluster.enable_observability()
    spec = _allgather_spec(cluster, "cb", num_nodes, nbytes)
    baseline = _invoke(cluster, orchestrator, spec)
    assert not cluster.flight.dropped
    append_times = sorted(
        {
            time
            for time, kind, resource, detail in cluster.flight.records
            if kind == "phase"
            and resource == "dirshard:0"
            and detail.startswith("wal_append/")
            and time > 0.0
        }
    )
    assert append_times, "shard 0 recorded no WAL appends in the baseline"
    stride = max(1, len(append_times) // 6)
    boundaries = append_times[::stride]

    epsilon = 1e-6
    for boundary in boundaries:
        cluster, runtime, _, orchestrator = _build(num_nodes=num_nodes)
        spec = _allgather_spec(cluster, "cb", num_nodes, nbytes)
        directory = runtime.directory
        outcome = replay_oracle.run(
            lambda: _invoke(
                cluster,
                orchestrator,
                spec,
                kills=[(boundary + epsilon, lambda d=directory: d.fail_shard(0))],
            )
        )
        shard = directory.shards[0]
        assert shard.alive, f"shard not recovered for kill at {boundary}"
        assert shard.wal.replays == 1
        assert orchestrator.metrics["invocations"] == 1
        assert outcome.completion_time > 0.0
    assert replay_oracle.replays == {"shard": len(boundaries), "lineage": 0}


def test_double_kill_same_shard_recovers_twice():
    cluster, runtime, _, orchestrator = _build(num_nodes=5)
    spec = _allgather_spec(cluster, "dk", 5, 16 * MB)
    directory = runtime.directory
    _invoke(
        cluster,
        orchestrator,
        spec,
        kills=[
            (0.15, lambda: directory.fail_shard(1)),
            (0.45, lambda: directory.fail_shard(1)),
        ],
    )
    shard = directory.shards[1]
    assert directory.kill_count == 2
    assert shard.alive and shard.incarnation == 2
    assert shard.wal.replays == 2


def test_shard_recovery_survives_its_deferred_wakes():
    """Control-plane fuzz seed 19 (a 4-node reduce) kills a shard while
    waiters are parked on its records.  Recovery wakes them one quantum
    apart after the backlog; it used to die at the first of those wakes,
    leaving its own error unhandled."""
    from repro.bench.fuzz import control_plane_case

    clusters: list = []
    run(control_plane_case(19)[0].scenario, observe=clusters.append)
    assert clusters[0].sim.unhandled_failures == []


# ---------------------------------------------------------------------------
# Lineage / ownership kills (the orchestrator's own WAL)
# ---------------------------------------------------------------------------


def test_control_plane_kill_mid_collective_resumes_spec():
    cluster, runtime, _, orchestrator = _build(num_nodes=5)
    spec = _allreduce_spec(cluster, "cp", 5, 16 * MB)
    _invoke(
        cluster,
        orchestrator,
        spec,
        kills=[(0.2, orchestrator.kill_control_plane)],
    )
    assert orchestrator.metrics["control_plane_kills"] == 1
    assert orchestrator.control.alive
    # The replayed lineage re-submitted the in-flight spec; the task
    # system's dedup by key adopted the live tasks.
    assert orchestrator.metrics["control_plane_resubmissions"] >= 1
    assert spec.spec_id in orchestrator.lineage
    assert spec.spec_id in orchestrator.completed
    assert orchestrator.control.wal.replays == 1
    # One invocation end to end: recovery resumed, it did not restart.
    assert orchestrator.metrics["invocations"] == 1


@pytest.mark.parametrize("collective, parked", [("allreduce", 2), ("broadcast", 1)])
def test_lineage_kill_parks_restarting_lookups_until_replay(monkeypatch, collective, parked):
    """Tasks that restart while the lineage plane is down park in
    ``lookup_spec``; the replayed plane answers them one ``rpc_latency /
    64`` quantum apart, in parking order, after its ``replay_end``.

    Node 3 is down from 0.01 s to 0.4 s, so its tasks re-execute on its
    return, inside the plane's downtime; a kill at a fraction of the
    fault-free run parks nothing, since every task is past its lookup.
    """
    orchestrators = []
    lookups = []  # (entered, resumed), in entry order
    lookup_spec = CollectiveOrchestrator.lookup_spec

    def recording_lookup(self, spec_id):
        if self not in orchestrators:
            orchestrators.append(self)
        index = len(lookups)
        lookups.append((self.sim.now, None))
        spec = yield from lookup_spec(self, spec_id)
        lookups[index] = (lookups[index][0], self.sim.now)
        return spec

    monkeypatch.setattr(CollectiveOrchestrator, "lookup_spec", recording_lookup)
    clusters = []

    def observe(cluster):
        cluster.enable_observability()
        clusters.append(cluster)

    scenario = Scenario(
        collective,
        "hoplite",
        8,
        16 * MB,
        faults=(FailureEvent(3, 0.01, 0.4),),
        kill=Kill("lineage", at=0.30),
    )
    result = run(scenario, observe=observe)
    (orchestrator,) = orchestrators
    (cluster,) = clusters
    (replay_end,) = [
        time
        for time, kind, resource, detail in cluster.flight.records
        if kind == "phase" and resource == "control-plane" and detail.startswith("replay_end/")
    ]
    waits = [(entered, resumed) for entered, resumed in lookups if resumed > entered]
    assert len(waits) == parked
    quantum = cluster.config.rpc_latency / 64
    for position, (entered, resumed) in enumerate(waits):
        assert 0.30 <= entered < replay_end
        assert resumed == replay_end + (position + 1) * quantum
    assert result["latency"] > waits[-1][1]
    assert orchestrator.metrics["control_plane_kills"] == 1
    assert orchestrator.metrics["invocations"] == 1


def test_replay_after_restart_skips_completed_and_unsubmitted_specs():
    cluster, runtime, _, orchestrator = _build(num_nodes=3)
    done_spec = _allgather_spec(cluster, "done", 3, MB)
    _invoke(cluster, orchestrator, done_spec)
    registered = _allgather_spec(cluster, "registered-only", 3, MB)
    orchestrator.register(registered)
    orchestrator.kill_control_plane()
    applied, resubmitted = orchestrator.replay_after_restart()
    assert applied == orchestrator.control.wal.appends
    # Completed specs and registered-but-never-submitted specs are not
    # re-submitted; there was nothing in flight.
    assert resubmitted == 0
    assert done_spec.spec_id in orchestrator.completed
    assert registered.spec_id in orchestrator.lineage


def test_replay_refuses_a_live_service():
    """Only a killed service replays.  A replay on a live one used to wipe
    its tables back to the last kill's snapshot."""
    cluster, runtime, _, orchestrator = _build(num_nodes=3)
    _invoke(cluster, orchestrator, _allgather_spec(cluster, "live", 3, MB))
    completed = set(orchestrator.completed)

    def untouched(*args):
        raise AssertionError("a live service's state was touched")

    for service in (orchestrator.control, runtime.directory.shards[0]):
        with pytest.raises(SimulationError, match="only a killed service replays"):
            service.replay(untouched, untouched)
        assert service.wal.replays == 0
    with pytest.raises(SimulationError):
        orchestrator.replay_after_restart()
    assert orchestrator.completed == completed == {"live"}


# ---------------------------------------------------------------------------
# Streaming allreduce recovery satellites
# ---------------------------------------------------------------------------


def test_contributor_loss_preserves_root_progress():
    cluster, runtime, _, orchestrator = _build(num_nodes=5)
    spec = _allreduce_spec(cluster, "arp", 5, 64 * MB)
    cluster.schedule_failure(1, at=0.5, recover_at=0.8)
    _invoke(cluster, orchestrator, spec)
    # The failed contributor was reconstructed from lineage with identical
    # data, so the root kept its already-reduced prefix instead of resetting.
    assert runtime.root_progress_preserved >= 1
    assert runtime.root_prefix_seeds == 0


def test_root_loss_seeds_prefix_from_receiver():
    cluster, runtime, _, orchestrator = _build(num_nodes=5)
    spec = _allreduce_spec(cluster, "ars", 5, 64 * MB)
    # Node 4 hosts the reduce tree's root slot in this configuration; its
    # death forces the re-created root to pull the longest surviving prefix
    # back from a receiver instead of recomputing from scratch.
    cluster.schedule_failure(4, at=0.5, recover_at=0.8)
    _invoke(cluster, orchestrator, spec)
    assert runtime.root_prefix_seeds >= 1


# ---------------------------------------------------------------------------
# Metrics: the control_plane_ops family through the exporters
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("target", ["directory", "lineage"])
def test_control_plane_ops_metrics_exported(target):
    cluster = Cluster(num_nodes=5, network=NetworkConfig(**NET))
    obs = cluster.enable_observability()
    runtime = HopliteRuntime(cluster)
    system = TaskSystem(cluster, HoplitePlane(runtime))
    orchestrator = CollectiveOrchestrator(system)
    spec = _allgather_spec(cluster, "mx", 5, 16 * MB)
    directory = runtime.directory
    if target == "directory":
        killed, kill = directory.shards[0], lambda: directory.fail_shard(0)
    else:
        killed, kill = orchestrator.control, orchestrator.kill_control_plane
    _invoke(cluster, orchestrator, spec, kills=[(0.2, kill)])
    family = obs.registry.families["control_plane_ops"]
    values = {key[0]: child.value for key, child in family.children.items()}
    # Shards and the lineage plane count their logs through the same hooks.
    logs = [shard.wal for shard in directory.shards] + [orchestrator.control.wal]
    assert values["wal_appends"] == sum(log.appends for log in logs) > 0
    assert values["checkpoints"] == sum(log.checkpoints for log in logs)
    assert values["replays"] == 1 == killed.wal.replays
    # Only a shard's RPC path counts RPCs; the directory serves both runs.
    assert values["shard_rpcs"] > 0
    # The family exports through the frozen taxonomy like any other.
    payload = to_json(obs.registry)
    names = {f["name"] for f in payload["families"]}
    assert "control_plane_ops" in names
