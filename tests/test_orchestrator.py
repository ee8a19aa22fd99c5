"""Lineage-driven collective orchestration: ownership, adoption, edge cases.

Covers the Section 6 subsystem end to end:

* the ownership table (declared objects, derived partials, relay copies,
  node drops);
* idempotent re-submission by key;
* simultaneous root + producer failure;
* a re-executed root adopting a reduce that finishes during the
  failure-detection delay (directory adoption) and one still in flight
  (active-execution adoption);
* release of pins and plane reference counts when a task exhausts
  ``max_restarts`` mid-collective.
"""

import numpy as np
import pytest

from repro.collectives.plane import HoplitePlane
from repro.core.hierarchical import HierarchicalReduceExecution
from repro.core.reduce import ReduceExecution
from repro.core.runtime import HopliteRuntime
from repro.net.cluster import Cluster
from repro.net.config import NetworkConfig
from repro.net.topology import Topology
from repro.store.objects import ObjectID, ObjectValue, ReduceOp
from repro.tasksys import (
    CollectiveOrchestrator,
    CollectiveSpec,
    OwnedObject,
    OwnershipTable,
    TaskSystem,
)
from repro.tasksys.lineage import ROLE_PARTIAL, ROLE_RESULT, ROLE_SOURCE

MB = 1024 * 1024
NET = dict(bandwidth=1.25e8)  # 1 Gbps: 16 MB transfers take ~0.13 s


def _build(num_nodes=5, topology=None):
    cluster = Cluster(num_nodes=num_nodes, network=NetworkConfig(**NET), topology=topology)
    runtime = HopliteRuntime(cluster)
    system = TaskSystem(cluster, HoplitePlane(runtime))
    orchestrator = CollectiveOrchestrator(system)
    return cluster, runtime, system, orchestrator


def _value(tag, nbytes=16 * MB):
    return ObjectValue.from_array(np.full(4, float(tag)), logical_size=nbytes)


def _reduce_spec(cluster, tag, num_nodes, with_root_source=True, allreduce=False):
    ranks = list(range(num_nodes))
    contributors = ranks if with_root_source else ranks[1:]
    sources = {i: ObjectID.unique(cluster, f"{tag}-src{i}") for i in contributors}
    spec = CollectiveSpec.reduce(
        tag,
        0,
        ranks,
        sources,
        ObjectID.unique(cluster, f"{tag}-target"),
        {sources[i]: _value(i + 1) for i in contributors},
        ReduceOp.SUM,
        allreduce=allreduce,
    )
    return spec, float(sum(i + 1 for i in contributors))


def _invoke(cluster, orchestrator, spec, budget=240.0):
    done = {}

    def driver():
        outcome = yield from orchestrator.invoke(spec)
        done["outcome"] = outcome

    process = cluster.sim.process(driver(), name=f"drv-{spec.spec_id}")
    cluster.run(until=budget)
    assert process.triggered and process.ok, (
        f"collective {spec.spec_id} did not terminate (t={cluster.sim.now})"
    )
    return done["outcome"]


# ---------------------------------------------------------------------------
# Ownership table unit behaviour
# ---------------------------------------------------------------------------


def objects_of(table, spec_id, role=None):
    """The table's entries for ``spec_id`` (of ``role``), by object key."""
    entries = [table._objects[object_id] for object_id in table._by_spec.get(spec_id, set())]
    if role is not None:
        entries = [entry for entry in entries if entry.role == role]
    return sorted(entries, key=lambda entry: entry.object_id.key)


def copies_of(table, object_id):
    """The node ids known to hold a copy of ``object_id``."""
    return set(table._copies.get(object_id, set()))


def drop_node(table, node_id):
    """Forget ``node_id``'s copies; return the owned objects it held (what a
    lineage-driven recovery would walk to decide which specs re-execute)."""
    lost = []
    for object_id, holders in table._copies.items():
        if node_id in holders:
            holders.discard(node_id)
            owned = table.owner_of(object_id)
            if owned is not None:
                lost.append(owned)
    return lost


def test_ownership_registers_spec_objects_and_resolves_partials():
    table = OwnershipTable()
    spec, _ = _reduce_spec(Cluster(num_nodes=4), "own", 4)
    table.register_spec(spec)
    target = spec.targets[0]
    source = spec.sources[1][0]
    assert table.owner_of(source).role == ROLE_SOURCE
    assert table.owner_of(source).rank == 1
    assert table.owner_of(target).role == ROLE_RESULT
    # A derived partial resolves up the derivation chain even when never
    # explicitly recorded.
    derived = target.derived("partial-r2-g1")
    owned = table.owner_of(derived)
    assert owned is not None and owned.spec_id == spec.spec_id
    assert owned.role == ROLE_PARTIAL
    # Explicit recording attributes the copy to a node.
    table.record_partial(target, derived, node_id=3)
    assert 3 in copies_of(table, derived)
    assert table.owner_of(ObjectID.of("unrelated")) is None


def test_ownership_conflicting_spec_rejected_and_drop_node_reports_losses():
    table = OwnershipTable()
    object_id = ObjectID.of("shared")
    table.register(OwnedObject(object_id, "spec-a", ROLE_SOURCE, rank=0))
    with pytest.raises(ValueError):
        table.register(OwnedObject(object_id, "spec-b", ROLE_SOURCE, rank=1))
    table.record_copy(object_id, 2)
    lost = drop_node(table, 2)
    assert [owned.spec_id for owned in lost] == ["spec-a"]
    assert copies_of(table, object_id) == set()


def test_orchestrator_records_partials_and_relays_during_a_reduce():
    cluster, _runtime, _system, orchestrator = _build(4)
    spec, expected = _reduce_spec(cluster, "rec", 4, allreduce=True)
    outcome = _invoke(cluster, orchestrator, spec)
    assert np.allclose(outcome.results[2].as_array(), expected)
    partials = objects_of(orchestrator.ownership, spec.spec_id, role=ROLE_PARTIAL)
    assert partials, "reduce partials should be attributed to the spec"
    target = spec.targets[0]
    assert copies_of(orchestrator.ownership, target), "relay copies recorded"
    assert orchestrator.driver_processes_by_spec.get(spec.spec_id, 0) > 0, (
        "collective-internal driver processes should be attributed to the spec"
    )


# ---------------------------------------------------------------------------
# Idempotent re-submission
# ---------------------------------------------------------------------------


def test_submission_is_idempotent_per_key():
    cluster, _runtime, system, _orch = _build(3)

    def body(ctx):
        yield ctx.compute(0.01)
        return ObjectValue.of_size(1024)

    first = system.submit(body, key="k")
    duplicate = system.submit(body, key="k")
    assert duplicate.producer_task_id == first.producer_task_id
    assert system.metrics.deduplicated == 1
    cluster.run()


def test_resubmitting_a_spec_adopts_the_running_task_set():
    cluster, _runtime, system, orchestrator = _build(4)
    spec, expected = _reduce_spec(cluster, "dup", 4)
    refs_first = orchestrator.submit(spec)
    refs_second = orchestrator.submit(spec)  # a recovery-style re-submission
    assert {
        key: ref.producer_task_id for key, ref in refs_first.items()
    } == {key: ref.producer_task_id for key, ref in refs_second.items()}
    assert system.metrics.deduplicated == len(refs_first)
    outcome = _invoke(cluster, orchestrator, spec)
    assert np.allclose(outcome.results[0].as_array(), expected)
    assert orchestrator.lineage.submissions[spec.spec_id] == 3  # 2 + invoke's


# ---------------------------------------------------------------------------
# Failure edge cases
# ---------------------------------------------------------------------------


def test_simultaneous_root_and_producer_failure():
    cluster, _runtime, system, orchestrator = _build(5)
    # Root (caller) and a producer die at the same instant mid-collective.
    cluster.schedule_failure(0, at=0.2, recover_at=0.5)
    cluster.schedule_failure(2, at=0.2, recover_at=0.5)
    spec, expected = _reduce_spec(cluster, "dual", 5, allreduce=True)
    outcome = _invoke(cluster, orchestrator, spec)
    for rank in range(5):
        assert np.allclose(outcome.results[rank].as_array(), expected), rank
    assert system.metrics.failures >= 2, "both failures should hit driver tasks"


def test_root_reexecution_adopts_an_in_flight_reduce():
    cluster, runtime, _system, orchestrator = _build(5)
    # The caller contributes no source, so its death leaves the tree intact
    # and the detached driver keeps streaming while the root share is
    # rescheduled.  Killed early: the re-execution lands while the reduce is
    # still in flight, exercising the active-registry adoption path.
    cluster.schedule_failure(0, at=0.05, recover_at=0.6)
    spec, expected = _reduce_spec(cluster, "adopt-flight", 5, with_root_source=False)
    outcome = _invoke(cluster, orchestrator, spec)
    assert np.allclose(outcome.results[0].as_array(), expected)
    assert runtime.reduce_adoptions >= 1, (
        "the re-executed root should adopt the surviving execution, "
        "not start a duplicate tree"
    )


def test_root_reexecution_adopts_a_partial_that_finishes_during_the_delay():
    # Learn the failure-free completion time of the target, deterministically.
    cluster, runtime, _system, orchestrator = _build(5)
    spec, expected = _reduce_spec(cluster, "adopt-cal", 5, with_root_source=False)
    target = spec.targets[0]
    seen = {}

    def watch():
        while True:
            locations = runtime.directory.locations_of(target)
            if any(info.complete for info in locations.values()):
                seen["t"] = cluster.sim.now
                return
            yield cluster.sim.timeout(0.002)

    cluster.sim.process(watch(), name="watch-target")
    _invoke(cluster, orchestrator, spec)
    completion = seen["t"]

    # Re-run, killing the root just before the reduce completes: the tree
    # (callerless) finishes during the failure-detection delay, and the
    # re-executed root share finds the complete target in the directory.
    cluster, runtime, _system, orchestrator = _build(5)
    cluster.schedule_failure(0, at=max(0.01, completion - 0.02), recover_at=None)
    spec, expected = _reduce_spec(cluster, "adopt-done", 5, with_root_source=False)
    outcome = _invoke(cluster, orchestrator, spec)
    assert np.allclose(outcome.results[0].as_array(), expected)
    assert (
        orchestrator.metrics["root_adoptions"] + runtime.reduce_adoptions >= 1
    ), "the finished partial should be adopted, not recomputed"


# ---------------------------------------------------------------------------
# Resource release on permanent failure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "topology, fail_at, kind",
    [
        (None, 0.3, ReduceExecution),
        # Rack-aware: rack 0 (nodes 0, 1) folds its two sources at once.  At
        # 0.02 s its tree is still streaming; at 0.3 s it has finished, and
        # the composition is stuck waiting for the missing fourth source.
        (Topology.racks(2, 2, oversubscription=4.0), 0.02, HierarchicalReduceExecution),
        (Topology.racks(2, 2, oversubscription=4.0), 0.3, HierarchicalReduceExecution),
    ],
    ids=["flat", "racks-mid-rack-tree", "racks-after-rack-tree"],
)
def test_permanently_failed_reduce_task_releases_partials_and_refs(topology, fail_at, kind):
    cluster, runtime, system, _orch = _build(4, topology)
    sim = cluster.sim
    plane = system.plane
    # Three of four sources exist; the reduce can never finish.
    source_ids = [ObjectID.unique(cluster, f"leak-src{i}") for i in range(4)]
    target_id = ObjectID.unique(cluster, "leak-target")
    registered = []

    def setup():
        for i in range(3):
            yield from plane.put(cluster.node(i), source_ids[i], _value(i + 1))

    def doomed(ctx):
        result = yield from ctx.reduce(target_id, source_ids, ReduceOp.SUM)
        return ObjectValue.of_size(0)

    def driver():
        yield from setup()
        system.submit(doomed, node=1, name="doomed-reduce", max_restarts=0)
        # Let the reduce tree assemble and start holding references.
        yield sim.timeout(fail_at)
        registered.append(runtime.active_reductions[target_id])
        cluster.node(1).fail()

    sim.process(driver(), name="leak-driver")
    cluster.run(until=30.0)

    (execution,) = registered
    assert type(execution) is kind
    assert execution.aborted
    assert system.metrics.aborted_reductions == 1
    assert runtime.active_reductions == {}
    if kind is HierarchicalReduceExecution:
        (rack_execution,) = execution.rack_executions[0]
        assert rack_execution.aborted == (fail_at < 0.3)
    for store in runtime.stores.values():
        for entry in store.objects.values():
            assert entry.ref_count == 0, entry
            if not entry.sealed:
                assert not entry.has_waiters, entry


def test_permanently_failed_put_is_unpinned_so_the_store_can_evict():
    cluster, runtime, system, _orch = _build(3)
    big = ObjectID.unique(cluster, "leak-put")

    def bad(ctx):
        yield from ctx.put(_value(5.0), object_id=big)
        raise RuntimeError("bug after put")

    def driver():
        ref = system.submit(bad, node=1, max_restarts=0)
        try:
            yield from system.wait([ref], num_returns=1)
        except Exception:
            pass

    cluster.sim.process(driver(), name="put-driver")
    cluster.run(until=10.0)

    store = runtime.stores[1]
    entry = store.objects.get(big)
    assert entry is not None and entry.sealed
    assert not entry.pinned, "the abandoned task's put must be evictable"
    assert system.metrics.released_objects >= 1
