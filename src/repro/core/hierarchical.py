"""Hierarchical (rack-aware) reduce for oversubscribed fabrics.

A flat dynamic reduce tree (Section 3.4.2) places edges by arrival order, so
on a multi-rack fabric most tree edges cross rack boundaries and every one
of them claims a slot on the shared ToR uplinks — at 4:1 oversubscription the
whole tree serializes behind one or two tier slots.  The hierarchical
composition reduces each rack's sources *inside* the rack first (no shared
link touched), then runs one inter-rack tree over the per-rack partials, so
exactly one stream leaves each rack:

    intra-rack reduce  →  inter-rack tree  →  (receivers ``Get`` the target,
    which the locality-aware directory turns into one cross-rack copy per
    rack followed by intra-rack relays — the broadcast half of allreduce)

Both phases are ordinary :class:`~repro.core.reduce.ReduceExecution`s, so
fine-grained block pipelining crosses the phase boundary for free: a rack
root publishes its partial location the moment it starts producing, and the
inter-rack tree streams those blocks while the rack trees are still
reducing.  Failure repair is inherited per phase — a dead rack member is
replaced inside its rack's tree, a dead rack root re-publishes through the
rack tree's own repair and the top tree re-resolves it through the
directory.

The composition is a :class:`~repro.core.reduce.ReduceExecution` subclass,
so it is transparent to callers and to the lineage layer:
:func:`~repro.core.reduce.adopt_or_create_reduction` picks it automatically
(``HopliteOptions(topology_aware=True)`` on a multi-rack topology), it
registers in ``runtime.active_reductions`` under the original target through
the inherited shell, and a re-executed caller adopts the surviving
composition instead of racing a duplicate.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Generator, Mapping, Optional

from repro.core.reduce import ReduceExecution, ReduceResult
from repro.net.node import Node
from repro.store.objects import ObjectID


class HierarchicalReduceExecution(ReduceExecution):
    """Coordinator for one rack-aware Reduce call.

    A :class:`~repro.core.reduce.ReduceExecution` subclass: validation, the
    registry entry, the detached driver and its guard, the re-entrant
    :meth:`run` and :meth:`abort` are inherited.  It overrides only
    :meth:`_coordinate` (rack trees, then the top tree or the flat
    fallback), :meth:`_result` and :meth:`_teardown` (abort every phase).
    """

    driver_name = "hier-reduce-drive"
    #: rack index -> the intra-rack chain of fold executions (one entry in
    #: the synchronized case; one extra stage per straggler batch).  Bound
    #: to a fresh dict when coordination starts.
    rack_executions: Mapping[int, list[ReduceExecution]] = MappingProxyType({})
    #: the inter-rack tree (or the flat fallback when grouping degenerates).
    top_execution: Optional[ReduceExecution] = None
    _outcome: Optional[ReduceResult] = None

    def _result(self) -> Optional[ReduceResult]:
        return self._outcome

    def _teardown(self) -> None:
        for execution in self._all_rack_executions():
            execution.abort(self.abort_reason)
        if self.top_execution is not None:
            self.top_execution.abort(self.abort_reason)

    # -- coordination --------------------------------------------------------
    def _coordinate(self) -> Generator:
        """Grow the rack trees, then run the top tree over their partials.

        A phase that aborts under the composition raises its
        :class:`~repro.net.transport.TransferError` out of here, and the
        inherited driver guard aborts the composition with it.
        """
        self.rack_executions = {}
        top_sources = yield from self._grow_rack_trees()
        if top_sources is None:
            # Degenerate hierarchy — every source in one rack, or one
            # source per rack: a single dynamic tree is already optimal.
            # The flat execution takes over the registry entry (it is
            # adoptable under the exact same signature).
            inner = ReduceExecution(
                self.runtime,
                self.caller,
                self.target_id,
                self.source_ids,
                self.op,
                num_objects=self.num_objects,
            )
            self.top_execution = inner
            result = yield from inner.run()
            self._complete(result, result.reduced_ids)
            return

        top = ReduceExecution(self.runtime, self.caller, self.target_id, top_sources, self.op)
        self.top_execution = top
        top._ensure_driver()
        # The top tree registered itself under the target; put the
        # composition back so lineage re-executions (which re-issue the
        # *original* source list) adopt it instead of mismatching.
        self.runtime.active_reductions[self.target_id] = self
        result = yield from top.run()

        source_set = set(self.source_ids)
        reduced: set[ObjectID] = set()
        for rack_execution in self._all_rack_executions():
            reduced.update(
                state.object_id
                for state in rack_execution.slots
                if state.object_id is not None and state.object_id in source_set
            )
        reduced.update(oid for oid in result.reduced_ids if oid in source_set)
        self._complete(result, sorted(reduced, key=lambda oid: oid.key))

    def _all_rack_executions(self) -> list[ReduceExecution]:
        return [ex for chain in self.rack_executions.values() for ex in chain]

    def _complete(self, result: ReduceResult, reduced_ids) -> None:
        reduced = list(reduced_ids)
        reduced_set = set(reduced)
        self.degree = result.degree
        self._outcome = ReduceResult(
            target_id=self.target_id,
            reduced_ids=reduced,
            unreduced_ids=[oid for oid in self.source_ids if oid not in reduced_set],
            degree=result.degree,
            root_node_id=result.root_node_id,
            completion_time=result.completion_time,
        )
        if not self._finished.triggered:
            self._finished.succeed(self._outcome)

    # -- grouping ------------------------------------------------------------
    def _grow_rack_trees(self) -> Generator:
        """Locate sources and grow per-rack reduce trees as they arrive.

        Returns the inter-rack top source list, or ``None`` when the
        hierarchy degenerates (every source in one rack, or one source per
        rack) and the flat tree should take over.

        Unlike a bin-then-build pass, a rack tree starts the moment its rack
        has two ready sources — start-on-first-arrival holds under staggered
        arrivals.  Each later arrival folds into the rack's running partial
        as a chained two-input stage, so a straggler costs one extra
        intra-rack edge instead of stalling the whole hierarchy behind the
        last ``Put``.  In the synchronized case every creation event has
        already fired, all sources drain in the first pass, and each rack
        folds exactly once — the same executions, names and creation order
        as the old group-then-build construction.
        """
        directory = self.runtime.directory
        pending: dict[int, list[ObjectID]] = {}  # located, not yet folded
        partials: dict[int, ObjectID] = {}  # rack -> chain-head partial id
        remaining = list(self.source_ids)
        located = 0
        nonce: Optional[int] = None

        def fold(rack: int) -> None:
            nonlocal nonce
            inputs = pending.pop(rack)
            if rack in partials:
                inputs = [partials[rack]] + inputs
            if nonce is None:
                nonce = self.runtime.hierarchical_reduce_seq
                self.runtime.hierarchical_reduce_seq += 1
            chain = self.rack_executions.setdefault(rack, [])
            suffix = f"-g{len(chain)}" if chain else ""
            rack_target = self.target_id.derived(f"hier{nonce}-rack{rack}{suffix}")
            execution = ReduceExecution(
                self.runtime, self._rack_caller(rack), rack_target, inputs, self.op
            )
            chain.append(execution)
            execution._ensure_driver()
            self.runtime.orchestration.record_partial(self.target_id, rack_target)
            partials[rack] = rack_target

        while located < self.num_objects:
            events = [(oid, directory.creation_event(oid)) for oid in remaining]
            yield self.sim.any_of([event for _oid, event in events])
            progress = False
            still: list[ObjectID] = []
            for oid, event in events:
                rack = None
                if event.triggered and located < self.num_objects:
                    rack = self._rack_of_object(oid)
                if rack is None:
                    still.append(oid)
                else:
                    pending.setdefault(rack, []).append(oid)
                    located += 1
                    progress = True
            remaining = still
            if not progress:
                # A source was created but its only copy died with its node;
                # wait out a detection delay for reconstruction to re-Put it.
                yield self.sim.timeout(self.config.failure_detection_delay)
                continue
            # Fold every rack holding two ready inputs — but only once a
            # second rack exists (an all-one-rack reduce must stay eligible
            # for the flat fallback), and only while arrivals are still
            # outstanding (the last pass is handled below, where the
            # synchronized case folds each rack exactly once).
            if len(pending.keys() | partials.keys()) >= 2 and located < self.num_objects:
                for rack in sorted(pending):
                    if len(pending[rack]) + (1 if rack in partials else 0) >= 2:
                        fold(rack)

        racks = sorted(pending.keys() | partials.keys())
        if not partials and (
            len(racks) <= 1 or max(len(ids) for ids in pending.values()) <= 1
        ):
            return None
        # Membership is complete: fold whatever is still unfolded into its
        # rack's chain (or start the chain, for racks first seen late).
        for rack in sorted(pending):
            if len(pending[rack]) + (1 if rack in partials else 0) >= 2:
                fold(rack)
        top_sources: list[ObjectID] = []
        for rack in racks:
            if rack in partials:
                top_sources.append(partials[rack])
            else:
                # A single-source rack contributes its raw object directly.
                top_sources.append(pending[rack][0])
        return top_sources

    def _rack_of_object(self, object_id: ObjectID) -> Optional[int]:
        """The rack hosting the object's best alive copy (``None`` if lost)."""
        topology = self.runtime.cluster.topology
        host = self._locate(object_id)
        if host is not None:
            return topology.rack_of(host.node_id)
        record = self.runtime.directory.peek_record(object_id)
        if record is not None and record.inline_value is not None:
            # Inline-cached small object: fetchable from anywhere; group it
            # with the caller so it never forces a cross-rack stream.
            return topology.rack_of(self.caller.node_id)
        return None

    def _rack_caller(self, rack: int) -> Node:
        """A representative alive node inside ``rack`` (the caller if none)."""
        for node_id in self.runtime.cluster.topology.rack_nodes(rack):
            node = self.runtime.node(node_id)
            if node.alive:
                return node
        return self.caller
