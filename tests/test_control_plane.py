"""The control plane as a failure domain: WAL durability, shard kills, replay.

Covers the durability layer end to end:

* checkpoint mechanics: automatic folding at the interval, tail truncation,
  and the frozen-while-down discipline;
* records hold their payloads by reference (the log is never persisted);
* directory-shard kills mid-collective: the collective completes without a
  job restart, replay reconstructs the wiped records (checkpoint + tail),
  and the shard's post-replay self-check finds the state digest-identical;
* a crash-at-every-boundary sweep: the kill lands after each stride of the
  unkilled run's WAL append history and the collective must complete at
  every point;
* lineage/ownership kills through the orchestrator: in-flight specs resume
  from their last durable incarnation via ``replay_after_restart``, and
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
from repro.tasksys.wal import WriteAheadLog

MB = 1024 * 1024
NET = dict(bandwidth=1.25e8)  # 1 Gbps: collectives run long enough to kill into


class _Clock:
    def __init__(self):
        self._now = 0.0


# ---------------------------------------------------------------------------
# WAL mechanics
# ---------------------------------------------------------------------------


def _counter_wal(interval=4):
    """A WAL owning a simple add-only counter dict, for mechanics tests."""
    state = {"applied": {}}
    wal = WriteAheadLog(
        _Clock(),
        "test",
        checkpoint_interval=interval,
        snapshot_fn=lambda: dict(state["applied"]),
    )

    def restore(snapshot):
        state["applied"] = {} if snapshot is None else dict(snapshot)

    def apply(record):
        key, amount = record.data
        state["applied"][key] = state["applied"].get(key, 0) + amount

    return wal, state, restore, apply


def test_wal_auto_checkpoint_truncates_tail():
    wal, state, restore, apply = _counter_wal(interval=4)
    for i in range(10):
        # Mutate-then-log: the snapshot a checkpoint takes inside append()
        # must already cover the record being appended.
        key = f"k{i % 3}"
        state["applied"][key] = state["applied"].get(key, 0) + 1
        wal.append("add", (key, 1))
    # Two automatic checkpoints fired (at 4 and 8 appends); the tail holds
    # only the records after the last fold.
    assert wal.checkpoints == 2
    assert wal.checkpoint_seq == 8
    assert [r.seq for r in wal.tail] == [8, 9]
    live = dict(state["applied"])
    state["applied"] = {}
    applied = wal.replay(restore, apply)
    assert applied == 2
    assert state["applied"] == live


def test_wal_frozen_suspends_checkpoints_and_replay_is_bounded():
    wal, state, restore, apply = _counter_wal(interval=4)
    for i in range(3):
        apply(wal.append("add", ("k", 1)))
    wal.frozen = True
    # Appends still land while the owner is down (the world keeps mutating)
    # but no snapshot of wiped state can ever be taken.
    for i in range(4):
        wal.append("add", ("k", 1))
    assert wal.checkpoints == 0
    with pytest.raises(ValueError):
        wal.checkpoint()
    wal.frozen = False
    wal.checkpoint()
    assert wal.tail == [] and wal.checkpoint_seq == 7


def test_wal_records_hold_payloads_by_reference_and_stamp_the_clock():
    """The log is never persisted: replay hands back the very objects that
    were appended, each record stamped with the simulated clock."""
    clock = _Clock()
    wal = WriteAheadLog(clock, "refs")
    value = ObjectValue.from_array(np.full(3, 4.0), logical_size=8 * MB)
    payloads = [(ObjectID.of("k"), value), ({"spec": [1, 2]}, ReduceOp.MAX)]
    for step, payload in enumerate(payloads):
        clock._now = 0.5 * (step + 1)
        wal.append("op", payload)
    seen = []
    assert wal.replay(lambda snapshot: None, seen.append) == 2
    assert [(r.seq, r.time, r.kind) for r in seen] == [(0, 0.5, "op"), (1, 1.0, "op")]
    for record, payload in zip(seen, payloads):
        assert record.data is payload
    assert seen[0].data[1] is value
    assert wal.replays == 1


def test_wal_validation_and_snapshotless_logs():
    with pytest.raises(ValueError):
        WriteAheadLog(_Clock(), "bad", checkpoint_interval=0)
    # Without a snapshot function the tail only grows: no automatic
    # checkpoint fires, and an explicit one is refused.
    wal = WriteAheadLog(_Clock(), "tail-only", checkpoint_interval=2)
    for i in range(5):
        wal.append("add", (i,))
    assert len(wal) == 5 and wal.checkpoints == 0
    with pytest.raises(ValueError):
        wal.checkpoint()


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
    assert "outcome" in done, (
        f"collective {spec.spec_id} did not complete (t={sim.now})"
    )
    return done["outcome"]


# ---------------------------------------------------------------------------
# Directory shard kills
# ---------------------------------------------------------------------------


def test_shard_kill_mid_collective_recovers_by_replay():
    cluster, runtime, _, orchestrator = _build(num_nodes=5)
    spec = _allgather_spec(cluster, "sk", 5, 16 * MB)
    directory = runtime.directory
    baseline_appends = None

    outcome = _invoke(
        cluster,
        orchestrator,
        spec,
        kills=[(0.2, lambda: directory.fail_shard(0))],
    )
    shard = directory.shards[0]
    assert directory.shard_kills == 1
    assert shard.alive and shard.incarnation == 1
    # Replay actually re-applied durable history...
    assert shard.last_replay_applied > 0
    assert shard.wal.replays == 1
    # ...and reconstructed the wiped records digest-identically (no WAL
    # appends landed for this shard during the downtime, so the self-check
    # compares replayed state against the exact pre-kill digest).
    assert shard.replay_self_check is True
    # Recovery stalls requests; it never restarts the job.
    assert orchestrator.metrics["invocations"] == 1
    assert outcome.completion_time > 0.2


def test_shard_kill_replays_checkpoint_plus_tail():
    cluster, runtime, _, orchestrator = _build(num_nodes=5)
    spec = _allgather_spec(cluster, "ck", 5, 16 * MB)
    directory = runtime.directory
    shard = directory.shards[0]

    def checkpoint_then_kill():
        shard.wal.checkpoint()
        assert shard.wal.tail == []
        directory.fail_shard(0)

    _invoke(cluster, orchestrator, spec, kills=[(0.2, checkpoint_then_kill)])
    assert shard.wal.checkpoints == 1
    assert shard.wal.replays == 1
    # The checkpoint covered everything at the kill, so the tail replay
    # applied nothing — recovery came from the snapshot.
    assert shard.last_replay_applied == 0
    assert shard.replay_self_check is True


def test_crash_at_every_boundary_sweep():
    """Kill shard 0 after each stride of the unkilled run's WAL history.

    The unkilled run's WAL append times enumerate every point at which the
    durable history grows; crashing just after each of them (strided to
    keep the sweep cheap) must never wedge or restart the collective.
    """
    num_nodes, nbytes = 4, 4 * MB
    cluster, runtime, _, orchestrator = _build(num_nodes=num_nodes)
    spec = _allgather_spec(cluster, "cb", num_nodes, nbytes)
    baseline = _invoke(cluster, orchestrator, spec)
    append_times = sorted(
        {r.time for r in runtime.directory.shards[0].wal.tail if r.time > 0.0}
    )
    assert append_times, "shard 0 recorded no WAL appends in the baseline"
    stride = max(1, len(append_times) // 6)
    boundaries = append_times[::stride]

    epsilon = 1e-6
    for boundary in boundaries:
        cluster, runtime, _, orchestrator = _build(num_nodes=num_nodes)
        spec = _allgather_spec(cluster, "cb", num_nodes, nbytes)
        directory = runtime.directory
        outcome = _invoke(
            cluster,
            orchestrator,
            spec,
            kills=[(boundary + epsilon, lambda d=directory: d.fail_shard(0))],
        )
        shard = directory.shards[0]
        assert shard.alive, f"shard not recovered for kill at {boundary}"
        assert shard.wal.replays == 1
        assert shard.replay_self_check is not False, (
            f"replay diverged from pre-kill state for kill at {boundary}"
        )
        assert orchestrator.metrics["invocations"] == 1
        assert outcome.completion_time > 0.0


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
    assert directory.shard_kills == 2
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
    # The replayed lineage re-submitted the in-flight spec at its durable
    # incarnation; the (key, incarnation) dedup adopted the live tasks.
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
        failures=(FailureEvent(3, 0.01, 0.4),),
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
    applied, resubmitted = orchestrator.replay_after_restart()
    assert applied == orchestrator.control.wal.appends
    # Completed specs and registered-but-never-submitted specs are not
    # re-submitted; there was nothing in flight.
    assert resubmitted == 0
    assert done_spec.spec_id in orchestrator.completed
    assert registered.spec_id in orchestrator.lineage


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
