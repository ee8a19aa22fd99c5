"""Pipelined allgather and reduce-scatter built from Hoplite's primitives.

Hoplite (Section 3.4) has no dedicated collective engine: every collective is
a composition of ``Put`` / ``Get`` / ``Reduce`` over the object directory.
This module grows the family two ways:

* **Allgather** (Section 3.4.1 applied per object): every participant
  ``Put``s one object and every participant ``Get``s all of them.  Each
  object's dissemination is an independent receiver-driven broadcast, so the
  copies relay through earlier receivers and the per-node completion time
  approaches the downlink bound ``S_total / B`` plus a logarithmic latency
  term — the same pipelined bound the paper derives for broadcast.
* **Reduce-scatter** (Section 3.4.2 applied per shard): the input is
  logically an ``n x n`` matrix of objects where row ``i`` is produced by
  participant ``i`` and column ``j`` is destined to participant ``j``.  Each
  participant's :meth:`~repro.core.api.HopliteClient.reduce_scatter` runs one
  reduce over its own column (``adopt_or_create_reduction``) while a
  concurrent ``Get`` streams the shard in, so the ``n`` shard reductions
  proceed concurrently on ``n`` disjoint trees and repair independently on
  failure (Section 3.5.2).  This module keeps only its result type.

Failure handling follows Section 3.5.1: a fetch that loses its source keeps
its partial blocks and retries against the directory; a participant that
loses a source object altogether blocks until the framework reconstructs it
(re-``Put``s the same ObjectID), exactly like ``Reduce`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Sequence

from repro.core.reduce import ReduceResult
from repro.net.flowsched import Flow, FlowClass
from repro.net.node import Node
from repro.net.transport import NodeFailedError, TransferError
from repro.store.objects import ObjectID, ObjectValue

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import HopliteRuntime


@dataclass
class AllGatherResult:
    """Outcome of one participant's completed allgather."""

    source_ids: list[ObjectID]
    #: fetched values, in ``source_ids`` order.
    values: list[ObjectValue]
    #: transient fetch errors absorbed while sources were being repaired.
    retries: int
    completion_time: float


@dataclass
class ReduceScatterResult:
    """Outcome of one participant's shard of a reduce-scatter."""

    target_id: ObjectID
    reduce: ReduceResult
    value: ObjectValue
    completion_time: float


class AllGatherExecution:
    """One participant's share of an allgather.

    Each participant walks the source list starting just past its own rank
    and keeps only a small window of fetches in flight.  The rotation
    de-synchronizes the participants — in the first round object ``j`` is
    claimed by receiver ``j + 1`` rather than by whichever receiver's RPC
    happens to land first — so the directory's one-receiver-per-source rule
    unfolds into a balanced, ring-like schedule instead of convoying every
    object's first copy through the same downlink.  The window (rather than
    strictly serial rounds) hides the directory RPCs between fetches.
    """

    #: concurrent fetches per participant; 2 overlaps the next fetch's
    #: directory round trip with the current transfer without re-herding.
    WINDOW = 2

    def __init__(self, runtime: "HopliteRuntime", node: Node, source_ids: Sequence[ObjectID]):
        if not source_ids:
            raise ValueError("allgather requires at least one source object")
        self.runtime = runtime
        self.node = node
        self.sim = runtime.sim
        self.source_ids = list(source_ids)
        self._values: dict[ObjectID, ObjectValue] = {}
        self.retries = 0

    def _fetch_order(self) -> list[ObjectID]:
        pivot = (self.node.node_id + 1) % len(self.source_ids)
        order = self.source_ids[pivot:] + self.source_ids[:pivot]
        topology = self.runtime.cluster.topology
        if not self.runtime.options.topology_aware or topology.is_flat:
            return order
        # Rack-aware refinement: pull remote-rack objects first (each pull
        # drags one copy across the shared tier links while they are least
        # contended, after which rack-mates relay it locally), and leave
        # same-rack objects — cheap intra-rack relays that stay available —
        # for last.  The rotation is preserved inside each group, so the
        # de-synchronization across participants survives.
        directory = self.runtime.directory
        my_rack = topology.rack_of(self.node.node_id)
        remote: list[ObjectID] = []
        local: list[ObjectID] = []
        for object_id in order:
            rack_local = any(
                topology.rack_of(node_id) == my_rack
                for node_id in directory.locations_of(object_id)
            )
            (local if rack_local else remote).append(object_id)
        return remote + local

    def run(self) -> Generator:
        queue = list(self._fetch_order())
        # Fetch workers are spawned through the orchestration hook so a task
        # framework can attribute the relay copies they grow to the owning
        # collective spec (they are the "broadcast relays" of the ownership
        # table).
        workers = [
            self.runtime.orchestration.spawn(
                self._fetch_worker(queue),
                name=f"allgather-w{index}-n{self.node.node_id}",
            )
            for index in range(min(self.WINDOW, len(queue)))
        ]
        yield self.sim.all_of(workers)
        if len(self._values) != len(self.source_ids):
            raise NodeFailedError(
                f"node {self.node.node_id} failed during allgather", node=self.node
            )
        return AllGatherResult(
            source_ids=list(self.source_ids),
            values=[self._values[object_id] for object_id in self.source_ids],
            retries=self.retries,
            completion_time=self.sim.now,
        )

    def _fetch_worker(self, queue: list[ObjectID]) -> Generator:
        while queue:
            object_id = queue.pop(0)
            yield from self._fetch_one(object_id)
            if not self.node.alive:
                return

    def _fetch_one(self, object_id: ObjectID) -> Generator:
        """Fetch one source object, absorbing transient source failures.

        The underlying broadcast protocol already retries against other
        sources; the loop here only covers the window where *every* copy of
        the object is gone and the fetch errors out before the framework
        re-``Put``s it.  If the calling node itself dies the fetch gives up —
        the coordinator turns that into a :class:`NodeFailedError`.
        """
        client = self.runtime.client(self.node)
        flow = Flow(f"allgather:{object_id}->n{self.node.node_id}", FlowClass.BULK)
        while True:
            try:
                value = yield from client.get(object_id, flow=flow)
                self._values[object_id] = value
                return
            except TransferError:
                if not self.node.alive:
                    return
                self.retries += 1
                yield self.sim.timeout(self.runtime.config.failure_detection_delay)
