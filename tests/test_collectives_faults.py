"""Fault-injection matrix: seeded Poisson failures x collectives x planes x class.

Every cell runs one collective (broadcast, reduce, allreduce, allgather,
reduce-scatter, alltoall) over one communication plane (hoplite,
naive/Ray-style) at 8 nodes while a seeded
:func:`~repro.net.failure.poisson_failures` schedule fails and recovers
random nodes.  Two failure classes are covered:

* **peer** — only non-caller nodes (1..n-1) fail; the collective is driven
  directly against the plane and rides through with Hoplite's per-transfer
  recovery plus framework-style reconstruction, exactly as in PR 1;
* **root** — the caller/root node 0 *also* fails mid-collective (a
  deterministic kill on top of the Poisson peers).  These cells run through
  the :class:`~repro.tasksys.orchestrator.CollectiveOrchestrator`: every
  share is a lineage-recorded driver task, the root share is re-executed on
  an alive node from the durable spec, and re-executions adopt surviving
  partials — the paper's Section 6 framework role, now in scope.

Assertions per cell:

* **termination after repair** — every participant's share completes within
  the simulation budget;
* **result correctness** — the payloads every participant ends up with equal
  the failure-free expectation.
"""

import numpy as np
import pytest

from repro.apps.common import reconstruct_on_recovery, retry_across_failures
from repro.collectives.naive import RAY_PROFILE, TaskSystemPlane
from repro.collectives.plane import HoplitePlane
from repro.core.runtime import HopliteRuntime
from repro.net.cluster import Cluster
from repro.net.config import NetworkConfig
from repro.net.failure import poisson_failures
from repro.net.faults import FailureEvent, install
from repro.store.objects import ObjectID, ObjectValue, ReduceOp
from repro.tasksys import CollectiveOrchestrator, CollectiveSpec, TaskSystem

MB = 1024 * 1024

#: 1 Gbps network so 16 MB transfers take ~0.13 s and the failure schedule
#: reliably lands mid-collective.
TEST_NETWORK = dict(bandwidth=1.25e8)
NUM_NODES = 8
NBYTES = 16 * MB
SIM_BUDGET = 240.0

SYSTEMS = ("hoplite", "naive")
PRIMITIVES = (
    "broadcast",
    "reduce",
    "allreduce",
    "allgather",
    "reduce_scatter",
    "alltoall",
)
FAILURE_CLASSES = ("peer", "root")
SEEDS = (0, 1)

#: when the root/caller dies in the "root" class: after the first puts have
#: landed but well before the collective can finish.
ROOT_FAIL_AT = 0.15
ROOT_DOWNTIME = 0.25


def _make_plane(system, cluster):
    if system == "hoplite":
        return HoplitePlane(HopliteRuntime(cluster))
    return TaskSystemPlane(cluster, RAY_PROFILE)


def _failure_schedule(seed, failure_class):
    events = poisson_failures(
        node_ids=list(range(1, NUM_NODES)),
        rate_per_second=4.0,
        horizon=0.8,
        downtime=0.2,
        seed=seed,
    )
    assert events, "failure schedule is empty; pick a different seed"
    if failure_class == "root":
        events = list(events) + [
            FailureEvent(
                node_id=0,
                fail_at=ROOT_FAIL_AT,
                recover_at=ROOT_FAIL_AT + ROOT_DOWNTIME,
            )
        ]
    return events


def _value(tag: float) -> ObjectValue:
    return ObjectValue.from_array(np.full(4, float(tag)), logical_size=NBYTES)


def _retrying(cluster, node_id, attempt, on_done):
    """Run one participant's share, retrying across its own node's failures."""
    result = yield from retry_across_failures(cluster, node_id, attempt)
    on_done(result)


def _build(system, seed, failure_class="peer", topology=None):
    cluster = Cluster(
        num_nodes=NUM_NODES,
        network=NetworkConfig(**TEST_NETWORK, topology=topology),
    )
    plane = _make_plane(system, cluster)
    install(cluster, _failure_schedule(seed, failure_class))
    return cluster, plane


def _install_reconstructors(cluster, plane, produced):
    """``produced``: node_id -> list of (ObjectID, ObjectValue) it owns."""
    for node_id, objects in produced.items():
        if node_id == 0 or not objects:
            continue  # node 0 never fails in the peer class
        cluster.sim.process(
            reconstruct_on_recovery(cluster, plane, node_id, objects),
            name=f"reconstruct-{node_id}",
        )


# ---------------------------------------------------------------------------
# Per-primitive drivers — peer class (direct against the plane, node 0 safe)
# ---------------------------------------------------------------------------


def _run_broadcast(cluster, plane):
    sim = cluster.sim
    root_id = ObjectID.unique(cluster, "fm-bcast")
    received = {}

    def scenario():
        yield from plane.put(cluster.node(0), root_id, _value(7.0))
        for node_id in range(1, NUM_NODES):
            sim.process(
                _retrying(
                    cluster,
                    node_id,
                    lambda node_id=node_id: plane.get(cluster.node(node_id), root_id),
                    lambda value, node_id=node_id: received.update(
                        {node_id: value.as_array()}
                    ),
                ),
                name=f"fm-bcast-recv-{node_id}",
            )

    sim.process(scenario(), name="fm-bcast")
    cluster.run(until=SIM_BUDGET)
    assert sorted(received) == list(range(1, NUM_NODES)), "broadcast did not terminate"
    for node_id, array in received.items():
        assert np.allclose(array, 7.0), node_id


def _run_reduce(cluster, plane, with_final_gets=False):
    sim = cluster.sim
    source_ids = {i: ObjectID.unique(cluster, f"fm-red-src{i}") for i in range(NUM_NODES)}
    target_id = ObjectID.unique(cluster, "fm-red-target")
    produced = {i: [(source_ids[i], _value(i + 1))] for i in range(NUM_NODES)}
    _install_reconstructors(cluster, plane, produced)
    expected = sum(range(1, NUM_NODES + 1))
    outcome = {}

    def scenario():
        producers = [
            sim.process(
                _retrying(
                    cluster,
                    node_id,
                    lambda node_id=node_id: plane.put(
                        cluster.node(node_id), *produced[node_id][0]
                    ),
                    lambda _result: None,
                ),
                name=f"fm-red-put-{node_id}",
            )
            for node_id in range(NUM_NODES)
        ]
        yield sim.all_of(producers)
        result = yield from plane.reduce(
            cluster.node(0), target_id, list(source_ids.values()), ReduceOp.SUM
        )
        value = yield from plane.get(cluster.node(0), target_id)
        outcome["reduce"] = result
        outcome[0] = value.as_array()
        if with_final_gets:
            for node_id in range(1, NUM_NODES):
                sim.process(
                    _retrying(
                        cluster,
                        node_id,
                        lambda node_id=node_id: plane.get(
                            cluster.node(node_id), target_id
                        ),
                        lambda value, node_id=node_id: outcome.update(
                            {node_id: value.as_array()}
                        ),
                    ),
                    name=f"fm-allred-get-{node_id}",
                )

    sim.process(scenario(), name="fm-reduce")
    cluster.run(until=SIM_BUDGET)
    participants = range(NUM_NODES) if with_final_gets else (0,)
    for node_id in participants:
        assert node_id in outcome, f"participant {node_id} did not terminate"
        assert np.allclose(outcome[node_id], expected), node_id
    assert len(outcome["reduce"].reduced_ids) == NUM_NODES


def _run_allgather(cluster, plane):
    sim = cluster.sim
    source_ids = [ObjectID.unique(cluster, f"fm-ag-{i}") for i in range(NUM_NODES)]
    produced = {i: [(source_ids[i], _value(i + 1))] for i in range(NUM_NODES)}
    _install_reconstructors(cluster, plane, produced)
    gathered = {}

    def scenario():
        producers = [
            sim.process(
                _retrying(
                    cluster,
                    node_id,
                    lambda node_id=node_id: plane.put(
                        cluster.node(node_id), *produced[node_id][0]
                    ),
                    lambda _result: None,
                ),
                name=f"fm-ag-put-{node_id}",
            )
            for node_id in range(NUM_NODES)
        ]
        yield sim.all_of(producers)
        for node_id in range(NUM_NODES):
            sim.process(
                _retrying(
                    cluster,
                    node_id,
                    lambda node_id=node_id: plane.allgather(
                        cluster.node(node_id), source_ids
                    ),
                    lambda result, node_id=node_id: gathered.update(
                        {node_id: [v.as_array() for v in result.values]}
                    ),
                ),
                name=f"fm-ag-{node_id}",
            )

    sim.process(scenario(), name="fm-allgather")
    cluster.run(until=SIM_BUDGET)
    assert sorted(gathered) == list(range(NUM_NODES)), "allgather did not terminate"
    for node_id, arrays in gathered.items():
        for index, array in enumerate(arrays):
            assert np.allclose(array, index + 1), (node_id, index)


def _run_reduce_scatter(cluster, plane):
    sim = cluster.sim
    matrix = {
        (i, j): ObjectID.unique(cluster, f"fm-rs-{i}-{j}")
        for i in range(NUM_NODES)
        for j in range(NUM_NODES)
    }
    produced = {
        i: [(matrix[(i, j)], _value(10 * i + j)) for j in range(NUM_NODES)]
        for i in range(NUM_NODES)
    }
    _install_reconstructors(cluster, plane, produced)
    target_ids = {j: ObjectID.unique(cluster, f"fm-rs-shard-{j}") for j in range(NUM_NODES)}
    shards = {}

    def scenario():
        producers = [
            sim.process(
                _retrying(
                    cluster,
                    node_id,
                    lambda node_id=node_id: _put_row(node_id),
                    lambda _result: None,
                ),
                name=f"fm-rs-put-{node_id}",
            )
            for node_id in range(NUM_NODES)
        ]
        yield sim.all_of(producers)
        for node_id in range(NUM_NODES):
            column = [matrix[(i, node_id)] for i in range(NUM_NODES)]
            sim.process(
                _retrying(
                    cluster,
                    node_id,
                    lambda node_id=node_id, column=column: plane.reduce_scatter(
                        cluster.node(node_id), target_ids[node_id], column, ReduceOp.SUM
                    ),
                    lambda result, node_id=node_id: shards.update(
                        {node_id: result.value.as_array()}
                    ),
                ),
                name=f"fm-rs-{node_id}",
            )

    def _put_row(node_id):
        for object_id, value in produced[node_id]:
            yield from plane.put(cluster.node(node_id), object_id, value)

    sim.process(scenario(), name="fm-reduce-scatter")
    cluster.run(until=SIM_BUDGET)
    assert sorted(shards) == list(range(NUM_NODES)), "reduce-scatter did not terminate"
    for j, array in shards.items():
        expected = sum(10 * i + j for i in range(NUM_NODES))
        assert np.allclose(array, expected), j


def _run_alltoall(cluster, plane):
    sim = cluster.sim
    pair = {
        (src, dst): ObjectID.unique(cluster, f"fm-a2a-{src}-{dst}")
        for src in range(NUM_NODES)
        for dst in range(NUM_NODES)
        if src != dst
    }

    def sends_of(node_id):
        return [
            (pair[(node_id, dst)], _value(100 * node_id + dst))
            for dst in range(NUM_NODES)
            if dst != node_id
        ]

    produced = {i: sends_of(i) for i in range(NUM_NODES)}
    _install_reconstructors(cluster, plane, produced)
    received = {}

    def scenario():
        for node_id in range(NUM_NODES):
            recv_ids = [
                pair[(src, node_id)] for src in range(NUM_NODES) if src != node_id
            ]
            sim.process(
                _retrying(
                    cluster,
                    node_id,
                    lambda node_id=node_id, recv_ids=recv_ids: plane.alltoall(
                        cluster.node(node_id), sends_of(node_id), recv_ids
                    ),
                    lambda result, node_id=node_id: received.update(
                        {
                            node_id: {
                                oid: v.as_array()
                                for oid, v in zip(result.recv_ids, result.values)
                            }
                        }
                    ),
                ),
                name=f"fm-a2a-{node_id}",
            )
        yield sim.timeout(0)

    sim.process(scenario(), name="fm-alltoall")
    cluster.run(until=SIM_BUDGET)
    assert sorted(received) == list(range(NUM_NODES)), "alltoall did not terminate"
    for dst, values in received.items():
        for src in range(NUM_NODES):
            if src == dst:
                continue
            assert np.allclose(values[pair[(src, dst)]], 100 * src + dst), (src, dst)


_DRIVERS = {
    "broadcast": _run_broadcast,
    "reduce": lambda cluster, plane: _run_reduce(cluster, plane, with_final_gets=False),
    "allreduce": lambda cluster, plane: _run_reduce(cluster, plane, with_final_gets=True),
    "allgather": _run_allgather,
    "reduce_scatter": _run_reduce_scatter,
    "alltoall": _run_alltoall,
}


# ---------------------------------------------------------------------------
# Root class: orchestrator-driven specs + failure-free expectations
# ---------------------------------------------------------------------------


def _spec_and_expected(cluster, primitive, tag):
    """The durable spec for one cell plus the per-rank expected payloads."""
    ranks = list(range(NUM_NODES))
    if primitive == "broadcast":
        spec = CollectiveSpec.broadcast(
            tag, 0, ranks, ObjectID.unique(cluster, f"{tag}-obj"), _value(7.0)
        )
        return spec, {rank: 7.0 for rank in ranks[1:]}
    if primitive in ("reduce", "allreduce"):
        sources = {i: ObjectID.unique(cluster, f"{tag}-src{i}") for i in ranks}
        spec = CollectiveSpec.reduce(
            tag,
            0,
            ranks,
            sources,
            ObjectID.unique(cluster, f"{tag}-target"),
            {sources[i]: _value(i + 1) for i in ranks},
            ReduceOp.SUM,
            allreduce=primitive == "allreduce",
        )
        expected_sum = float(sum(range(1, NUM_NODES + 1)))
        holders = ranks if primitive == "allreduce" else [0]
        return spec, {rank: expected_sum for rank in holders}
    if primitive == "allgather":
        sources = {i: ObjectID.unique(cluster, f"{tag}-src{i}") for i in ranks}
        spec = CollectiveSpec.allgather(
            tag, ranks, sources, {sources[i]: _value(i + 1) for i in ranks}
        )
        stacked = np.stack([np.full(4, float(i + 1)) for i in ranks])
        return spec, {rank: stacked for rank in ranks}
    if primitive == "reduce_scatter":
        matrix = {
            (i, j): ObjectID.unique(cluster, f"{tag}-{i}-{j}") for i in ranks for j in ranks
        }
        targets = {j: ObjectID.unique(cluster, f"{tag}-shard{j}") for j in ranks}
        spec = CollectiveSpec.reduce_scatter(
            tag,
            ranks,
            matrix,
            targets,
            {matrix[(i, j)]: _value(10 * i + j) for i in ranks for j in ranks},
        )
        return spec, {
            j: float(sum(10 * i + j for i in ranks)) for j in ranks
        }
    if primitive == "alltoall":
        matrix = {
            (src, dst): ObjectID.unique(cluster, f"{tag}-{src}-{dst}")
            for src in ranks
            for dst in ranks
            if src != dst
        }
        spec = CollectiveSpec.alltoall(
            tag,
            ranks,
            matrix,
            {matrix[(s, d)]: _value(100 * s + d) for (s, d) in matrix},
        )
        return spec, {
            dst: np.stack(
                [np.full(4, float(100 * src + dst)) for src in ranks if src != dst]
            )
            for dst in ranks
        }
    raise ValueError(primitive)


def _run_orchestrated(cluster, plane, primitive, tag):
    """Drive one root-class cell through the collective orchestrator."""
    system = TaskSystem(cluster, plane)
    orchestrator = CollectiveOrchestrator(system)
    spec, expected = _spec_and_expected(cluster, primitive, tag)
    done = {}

    def driver():
        outcome = yield from orchestrator.invoke(spec)
        done["outcome"] = outcome

    process = cluster.sim.process(driver(), name=f"fm-root-{primitive}")
    cluster.run(until=SIM_BUDGET)
    assert process.triggered and process.ok, (
        f"{primitive} did not terminate under root failure "
        f"(t={cluster.sim.now}, tasks={system.metrics.as_dict()})"
    )
    outcome = done["outcome"]
    for rank, expectation in expected.items():
        value = outcome.results[rank]
        assert value.payload is not None, (primitive, rank)
        assert np.allclose(value.as_array(), expectation), (
            primitive,
            rank,
            value.as_array(),
        )
    # The root's death really was handled by the framework, not by luck:
    # node 0's own share (the soft root share for rooted collectives, the
    # strict rank share otherwise) was re-executed — either because the
    # kill interrupted it or because its finished output died with node 0
    # and lineage reconstruction re-ran it.
    victim_ref = outcome.refs.get(("root", 0)) or outcome.refs[("share", 0)]
    victim = system.tasks[victim_ref.producer_task_id]
    assert victim.attempts >= 2, (
        f"node-0 share of {primitive} was never re-executed "
        f"(attempts={victim.attempts})"
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("failure_class", FAILURE_CLASSES)
@pytest.mark.parametrize("primitive", PRIMITIVES)
@pytest.mark.parametrize("system", SYSTEMS)
def test_collective_completes_and_is_correct_under_poisson_failures(
    system, primitive, failure_class, seed
):
    cluster, plane = _build(system, seed, failure_class)
    if failure_class == "root":
        _run_orchestrated(cluster, plane, primitive, f"fm-{system}-{primitive}-s{seed}")
    else:
        _DRIVERS[primitive](cluster, plane)


@pytest.mark.parametrize("failure_class", FAILURE_CLASSES)
@pytest.mark.parametrize("primitive", PRIMITIVES)
@pytest.mark.parametrize("system", SYSTEMS)
def test_collective_fault_matrix_on_two_rack_topology(system, primitive, failure_class):
    """The full 2-plane x 6-collective x {peer, root} matrix on a 2-rack fabric.

    One seed, an oversubscribed two-rack topology: the topology-aware paths
    (locality-preferring directory with same-rack parking, hierarchical
    reduce, tier-link reservations) must survive the exact failure classes
    the flat matrix covers — cancellation of cross-rack reservations on peer
    death, rack-tree repair, and orchestrated root re-execution.
    """
    from repro.net.topology import Topology

    topology = Topology.racks(2, NUM_NODES // 2, oversubscription=2.0)
    cluster, plane = _build(system, SEEDS[0], failure_class, topology=topology)
    if failure_class == "root":
        _run_orchestrated(
            cluster, plane, primitive, f"fm2r-{system}-{primitive}-s{SEEDS[0]}"
        )
    else:
        _DRIVERS[primitive](cluster, plane)
