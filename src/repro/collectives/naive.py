"""Ray/Dask-style naive object transfer plane (no collective optimization).

This is the baseline the paper calls "Ray" and "Dask" in its evaluation:

* an object is always fetched from a node holding a *complete* copy — in
  practice the creator — so a broadcast of one object to ``n`` receivers
  serializes at the creator's uplink;
* there is no pipelining, so the worker→store copy on the sender and the
  store→worker copy on the receiver add to the critical path;
* there is no reduce primitive: the caller gathers every input object and
  reduces locally, then re-``put``s the result.

The two published systems differ mostly in per-operation overhead and
data-plane efficiency, captured by :class:`TaskSystemProfile` (Dask's
single-threaded serialization and scheduler round trips make it the slower
of the two in Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Sequence

from repro.collectives.plane import CommPlane
from repro.core.options import HopliteOptions
from repro.core.runtime import HopliteRuntime
from repro.net.cluster import Cluster
from repro.net.flowsched import Flow, FlowClass
from repro.net.node import Node
from repro.store.objects import ObjectID, ObjectValue, ReduceOp


@dataclass(frozen=True)
class TaskSystemProfile:
    """Calibration knobs for a naive task-system data plane.

    Attributes:
        name: display name ("ray" / "dask").
        per_op_overhead: fixed control overhead charged per put/get, in
            seconds (task bookkeeping, serialization setup, scheduler RPCs).
        bandwidth_efficiency: fraction of the NIC bandwidth the data plane
            actually achieves (Dask's single-threaded comms achieve roughly
            half of line rate on the paper's testbed).
    """

    name: str
    per_op_overhead: float
    bandwidth_efficiency: float

    def __post_init__(self) -> None:
        if not 0 < self.bandwidth_efficiency <= 1.0:
            raise ValueError("bandwidth_efficiency must be in (0, 1]")
        if not self.per_op_overhead >= 0:
            raise ValueError("per_op_overhead must be non-negative")


RAY_PROFILE = TaskSystemProfile(name="ray", per_op_overhead=5.0e-4, bandwidth_efficiency=1.0)
DASK_PROFILE = TaskSystemProfile(name="dask", per_op_overhead=5.0e-3, bandwidth_efficiency=0.45)


class TaskSystemPlane(CommPlane):
    """A naive plane built on the same stores/directory, with Hoplite's tricks off."""

    def __init__(self, cluster: Cluster, profile: TaskSystemProfile = RAY_PROFILE):
        self.cluster = cluster
        self.profile = profile
        self.name = profile.name
        self.config = cluster.config
        self.sim = cluster.sim
        self.runtime = HopliteRuntime(
            cluster,
            options=HopliteOptions(
                enable_pipelining=False,
                enable_small_object_cache=False,
                enable_dynamic_broadcast=False,
                # The baselines share the fabric (their transfers claim the
                # same tier links) but place transfers obliviously: no
                # locality-sorted source selection, no rack-local parking,
                # no hierarchical reduce.
                topology_aware=False,
            ),
        )

    # -- internal helpers --------------------------------------------------------
    def _overhead(self) -> Generator:
        if self.profile.per_op_overhead > 0:
            yield self.sim.timeout(self.profile.per_op_overhead)

    def _bandwidth_penalty(self, nbytes: int) -> Generator:
        """Extra time modelling a data plane slower than the NIC line rate."""
        efficiency = self.profile.bandwidth_efficiency
        if efficiency < 1.0 and nbytes > 0:
            penalty = nbytes / self.config.bandwidth * (1.0 / efficiency - 1.0)
            yield self.sim.timeout(penalty)

    # -- CommPlane API --------------------------------------------------------------
    def put(self, node: Node, object_id: ObjectID, value: ObjectValue) -> Generator:
        yield from self._overhead()
        result = yield from self.runtime.client(node).put(object_id, value)
        return result

    def get(self, node: Node, object_id: ObjectID, read_only: bool = True) -> Generator:
        yield from self._overhead()
        store = self.runtime.store(node)
        was_local = store.contains_complete(object_id)
        value = yield from self.runtime.client(node).get(
            object_id,
            read_only=read_only,
            # Everything a naive task system moves is a bulk flow; the tag
            # keeps the per-flow accounting comparable across planes.
            flow=Flow(f"{self.profile.name}:get:{object_id}->n{node.node_id}", FlowClass.BULK),
        )
        if not was_local:
            yield from self._bandwidth_penalty(value.size)
        return value

    def reduce(
        self,
        node: Node,
        target_id: ObjectID,
        source_ids: Sequence[ObjectID],
        op: ReduceOp = ReduceOp.SUM,
        num_objects: Optional[int] = None,
    ) -> Generator:
        """Gather-and-reduce at the caller: the only option without collectives.

        ``num_objects`` keeps the task-system semantics of reducing the first
        ``k`` available objects: the caller fetches objects as they become
        available and stops once ``k`` have been reduced.
        """
        from repro.core.reduce import ReduceResult

        yield from self._overhead()
        count = num_objects if num_objects is not None else len(source_ids)
        count = max(1, min(count, len(source_ids)))
        directory = self.runtime.directory

        # Fetch every candidate as it becomes available, first-come-first-reduced.
        fetched: list[tuple[ObjectID, ObjectValue]] = []
        pending = list(source_ids)
        while len(fetched) < count and pending:
            creation_events = {
                object_id: directory.creation_event(object_id) for object_id in pending
            }
            yield self.sim.any_of(list(creation_events.values()))
            ready_now = [
                object_id
                for object_id, event in creation_events.items()
                if event.triggered
            ]
            for object_id in ready_now:
                if len(fetched) >= count:
                    break
                value = yield from self.get(node, object_id, read_only=True)
                fetched.append((object_id, value))
                pending.remove(object_id)

        payload = op.combine_many([value.payload for _, value in fetched])
        size = max((value.size for _, value in fetched), default=0)
        yield self.sim.timeout(self.config.reduce_compute_time(size) * max(1, len(fetched) - 1))
        yield from self.put(node, target_id, ObjectValue(size=size, payload=payload))
        reduced_ids = [object_id for object_id, _ in fetched]
        return ReduceResult(
            target_id=target_id,
            reduced_ids=reduced_ids,
            unreduced_ids=[oid for oid in source_ids if oid not in set(reduced_ids)],
            degree=len(reduced_ids),
            root_node_id=node.node_id,
            completion_time=self.sim.now,
        )

    def allgather(self, node: Node, source_ids: Sequence[ObjectID]) -> Generator:
        """Sequential gets, one per source: how ``ray.get([refs])`` behaves.

        Without partial-copy relaying every receiver pulls each object from
        its creator, so all participants' allgathers contend for the same
        uplinks; the per-object control overhead is paid once per source.
        """
        from repro.core.gather import AllGatherResult

        if not source_ids:
            raise ValueError("allgather requires at least one source object")
        values = []
        for object_id in source_ids:
            value = yield from self.get(node, object_id, read_only=True)
            values.append(value)
        return AllGatherResult(
            source_ids=list(source_ids),
            values=values,
            retries=0,
            completion_time=self.sim.now,
        )

    def reduce_scatter(
        self,
        node: Node,
        target_id: ObjectID,
        source_ids: Sequence[ObjectID],
        op: ReduceOp = ReduceOp.SUM,
        num_objects: Optional[int] = None,
    ) -> Generator:
        """The caller's shard, by gather-and-reduce (no collective support)."""
        from repro.core.gather import ReduceScatterResult

        result = yield from self.reduce(node, target_id, source_ids, op, num_objects)
        value = yield from self.get(node, target_id, read_only=True)
        return ReduceScatterResult(
            target_id=target_id,
            reduce=result,
            value=value,
            completion_time=self.sim.now,
        )

    def alltoall(
        self,
        node: Node,
        sends: Sequence[tuple[ObjectID, ObjectValue]],
        recv_ids: Sequence[ObjectID],
    ) -> Generator:
        """Puts then gets, strictly in order: no send/receive overlap."""
        from repro.core.alltoall import AllToAllResult

        if not sends and not recv_ids:
            raise ValueError("alltoall requires at least one send or receive")
        for object_id, value in sends:
            yield from self.put(node, object_id, value)
        values = []
        for object_id in recv_ids:
            value = yield from self.get(node, object_id, read_only=True)
            values.append(value)
        return AllToAllResult(
            sent_ids=[object_id for object_id, _ in sends],
            recv_ids=list(recv_ids),
            values=values,
            retries=0,
            completion_time=self.sim.now,
        )

    def delete(self, node: Node, object_id: ObjectID) -> Generator:
        yield from self._overhead()
        result = yield from self.runtime.client(node).delete(object_id)
        return result
