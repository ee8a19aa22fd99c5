"""Durable collective lineage: specs, ownership, and the re-execution log.

Section 6 of the paper argues that Hoplite's object plane makes collectives
fault-*tolerant* (any transfer survives a peer failure) but that end-to-end
fault-*transparency* — surviving the failure of the node that *invoked* the
collective — belongs to the task framework: "the task framework re-executes
a failed caller from lineage".  This module is that lineage layer:

* a :class:`CollectiveSpec` is the durable description of one collective
  invocation — the collective kind, the participants, every ObjectID the
  collective touches (sources, targets, receive sets), the reduce operator
  and the payloads needed to re-``Put`` a lost source.  A spec id names one
  invocation: every (re-)submission of a spec is a recovery of that
  invocation, never a fresh execution;
* an :class:`OwnershipTable` maps every object the collective creates —
  including the *intermediate* objects Hoplite materializes on its own
  (reduce partials, broadcast relay copies, reduce-scatter shard columns) —
  back to the producing spec, so that when a node dies the framework can
  answer "which spec re-creates this object?" and re-execute exactly that
  share from lineage;
* a :class:`LineageLog` is the durable spec registry the per-rank driver
  tasks read on (re-)execution: a restarted driver task receives only a
  ``spec_id`` and reconstructs everything else from the log, which is what
  makes the re-execution genuinely lineage-driven rather than
  closure-driven.

The in-memory dictionaries stand in for the durable store (GCS) the real
framework would use; everything recorded here survives any node failure by
construction, matching the paper's assumption that the control plane
outlives the data plane.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.store.objects import ObjectID, ObjectValue, ReduceOp

#: The collective kinds the orchestrator knows how to drive.
COLLECTIVE_KINDS = (
    "broadcast",
    "reduce",
    "allreduce",
    "allgather",
    "reduce_scatter",
    "alltoall",
)

#: Roles an owned object can play inside a collective.
ROLE_SOURCE = "source"  #: application input re-created by a producer share
ROLE_RESULT = "result"  #: the collective's output object (reduce target, shard)
ROLE_PARTIAL = "partial"  #: internal reduce-tree partial / staging entry
ROLE_RELAY = "relay"  #: broadcast relay copy grown by receiver-driven fetch
ROLE_MARKER = "marker"  #: a driver task's completion marker object


@dataclass
class CollectiveSpec:
    """Everything needed to (re-)execute one collective invocation.

    The spec is the unit of lineage: every per-rank driver task the
    orchestrator submits carries only ``(spec_id, rank)`` and re-derives its
    work from the spec, so re-executing a failed rank — including the
    root/caller — needs no state from the dead node.
    """

    spec_id: str
    kind: str
    participants: Tuple[int, ...]
    #: the caller/root rank for rooted collectives (reduce, allreduce,
    #: broadcast); ``None`` for the symmetric ones.
    root: Optional[int] = None
    op: Optional[ReduceOp] = None
    #: per-participant objects that participant produces (its row).
    sources: Dict[int, Tuple[ObjectID, ...]] = field(default_factory=dict)
    #: per-participant result object (reduce target, reduce-scatter shard).
    targets: Dict[int, ObjectID] = field(default_factory=dict)
    #: per-participant objects that participant must end up holding.
    recvs: Dict[int, Tuple[ObjectID, ...]] = field(default_factory=dict)
    #: durable payloads for re-``Put``-ing lost sources from lineage.
    payloads: Dict[ObjectID, ObjectValue] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in COLLECTIVE_KINDS:
            raise ValueError(
                f"unknown collective kind {self.kind!r}; expected one of {COLLECTIVE_KINDS}"
            )
        if not self.participants:
            raise ValueError("a collective needs at least one participant")
        if self.root is not None and self.root not in self.participants:
            raise ValueError(f"root {self.root} is not a participant")

    # -- derived views -------------------------------------------------------
    def all_source_ids(self) -> list[ObjectID]:
        """Every source object, in participant order."""
        ids: list[ObjectID] = []
        for rank in self.participants:
            ids.extend(self.sources.get(rank, ()))
        return ids

    def payload_of(self, object_id: ObjectID) -> ObjectValue:
        try:
            return self.payloads[object_id]
        except KeyError:
            raise KeyError(f"spec {self.spec_id} has no payload for {object_id}") from None

    def column_of(self, rank: int) -> list[ObjectID]:
        """The receive set of ``rank`` (its column of the logical matrix)."""
        return list(self.recvs.get(rank, ()))

    # -- constructors --------------------------------------------------------
    @staticmethod
    def broadcast(
        spec_id: str,
        root: int,
        participants: Sequence[int],
        object_id: ObjectID,
        value: ObjectValue,
    ) -> "CollectiveSpec":
        participants = tuple(participants)
        return CollectiveSpec(
            spec_id=spec_id,
            kind="broadcast",
            participants=participants,
            root=root,
            sources={root: (object_id,)},
            recvs={rank: (object_id,) for rank in participants if rank != root},
            payloads={object_id: value},
        )

    @staticmethod
    def reduce(
        spec_id: str,
        root: int,
        participants: Sequence[int],
        sources: Dict[int, ObjectID],
        target_id: ObjectID,
        values: Dict[ObjectID, ObjectValue],
        op: ReduceOp = ReduceOp.SUM,
        allreduce: bool = False,
    ) -> "CollectiveSpec":
        participants = tuple(participants)
        recvs: Dict[int, Tuple[ObjectID, ...]] = {}
        if allreduce:
            recvs = {rank: (target_id,) for rank in participants}
        return CollectiveSpec(
            spec_id=spec_id,
            kind="allreduce" if allreduce else "reduce",
            participants=participants,
            root=root,
            op=op,
            # A participant may contribute no source (e.g. a pure caller).
            sources={rank: (sources[rank],) for rank in participants if rank in sources},
            targets={root: target_id},
            recvs=recvs,
            payloads=dict(values),
        )

    @staticmethod
    def allgather(
        spec_id: str,
        participants: Sequence[int],
        sources: Dict[int, ObjectID],
        values: Dict[ObjectID, ObjectValue],
    ) -> "CollectiveSpec":
        participants = tuple(participants)
        everything = tuple(sources[rank] for rank in participants)
        return CollectiveSpec(
            spec_id=spec_id,
            kind="allgather",
            participants=participants,
            sources={rank: (sources[rank],) for rank in participants},
            recvs={rank: everything for rank in participants},
            payloads=dict(values),
        )

    @staticmethod
    def reduce_scatter(
        spec_id: str,
        participants: Sequence[int],
        matrix: Dict[Tuple[int, int], ObjectID],
        targets: Dict[int, ObjectID],
        values: Dict[ObjectID, ObjectValue],
    ) -> "CollectiveSpec":
        """``matrix[(i, j)]`` is produced by ``i`` and summed into ``targets[j]``."""
        participants = tuple(participants)
        return CollectiveSpec(
            spec_id=spec_id,
            kind="reduce_scatter",
            participants=participants,
            op=ReduceOp.SUM,
            sources={
                i: tuple(matrix[(i, j)] for j in participants) for i in participants
            },
            targets=dict(targets),
            recvs={
                j: tuple(matrix[(i, j)] for i in participants) for j in participants
            },
            payloads=dict(values),
        )

    @staticmethod
    def alltoall(
        spec_id: str,
        participants: Sequence[int],
        matrix: Dict[Tuple[int, int], ObjectID],
        values: Dict[ObjectID, ObjectValue],
    ) -> "CollectiveSpec":
        """``matrix[(src, dst)]`` travels from ``src`` to ``dst`` (no self pairs)."""
        participants = tuple(participants)
        return CollectiveSpec(
            spec_id=spec_id,
            kind="alltoall",
            participants=participants,
            sources={
                src: tuple(
                    matrix[(src, dst)] for dst in participants if (src, dst) in matrix
                )
                for src in participants
            },
            recvs={
                dst: tuple(
                    matrix[(src, dst)] for src in participants if (src, dst) in matrix
                )
                for dst in participants
            },
            payloads=dict(values),
        )


@dataclass(frozen=True)
class OwnedObject:
    """One entry of the ownership table."""

    object_id: ObjectID
    spec_id: str
    role: str
    #: producing participant for sources/results; ``None`` for internal
    #: objects whose placement Hoplite chose dynamically.
    rank: Optional[int] = None


class OwnershipTable:
    """Maps every object a collective touches to its producing spec.

    Three kinds of entries coexist:

    * *declared* objects (sources, targets, receive sets) registered when a
      spec is invoked;
    * *partials* — internal objects Hoplite derives from a target id
      (reduce-tree partial outputs and staging buffers), recorded by the
      executions through the runtime's orchestration hook;
    * *relay copies* — additional locations of a declared object grown by the
      receiver-driven broadcast, tracked per node so the framework knows
      which nodes hold adoptable copies.
    """

    def __init__(self) -> None:
        self._objects: Dict[ObjectID, OwnedObject] = {}
        self._by_spec: Dict[str, set] = {}
        #: object_id -> node ids known to hold (possibly partial) copies.
        self._copies: Dict[ObjectID, set] = {}

    def register(self, owned: OwnedObject) -> None:
        existing = self._objects.get(owned.object_id)
        if existing is not None and existing.spec_id != owned.spec_id:
            raise ValueError(
                f"object {owned.object_id} already owned by spec {existing.spec_id}"
            )
        self._objects[owned.object_id] = owned
        self._by_spec.setdefault(owned.spec_id, set()).add(owned.object_id)

    def register_spec(self, spec: CollectiveSpec) -> None:
        """Register every declared object of ``spec``."""
        for rank in spec.participants:
            for object_id in spec.sources.get(rank, ()):
                self.register(
                    OwnedObject(object_id, spec.spec_id, ROLE_SOURCE, rank=rank)
                )
        for rank, target_id in spec.targets.items():
            self.register(
                OwnedObject(target_id, spec.spec_id, ROLE_RESULT, rank=rank)
            )

    def owner_of(self, object_id: ObjectID) -> Optional[OwnedObject]:
        """The producing spec of ``object_id``, resolving derived partials.

        A reduce partial is named ``<target>/<suffix>``; if the exact id is
        unknown the lookup walks up the derivation chain so even partials
        that were never explicitly recorded resolve to the owning spec.
        """
        owned = self._objects.get(object_id)
        if owned is not None:
            return owned
        key = object_id.key
        while "/" in key:
            key = key.rsplit("/", 1)[0]
            parent = self._objects.get(ObjectID(key))
            if parent is not None:
                return OwnedObject(object_id, parent.spec_id, ROLE_PARTIAL)
        return None

    # -- dynamic records from the executions ---------------------------------
    def record_partial(
        self, parent_id: ObjectID, partial_id: ObjectID, node_id: Optional[int] = None
    ) -> None:
        """Record an internal object derived from ``parent_id`` (if owned)."""
        parent = self.owner_of(parent_id)
        if parent is None:
            return
        if partial_id not in self._objects:
            self.register(OwnedObject(partial_id, parent.spec_id, ROLE_PARTIAL))
        if node_id is not None:
            self._copies.setdefault(partial_id, set()).add(node_id)

    def record_copy(self, object_id: ObjectID, node_id: int) -> None:
        """Record that ``node_id`` holds a (possibly partial) relay copy."""
        self._copies.setdefault(object_id, set()).add(node_id)


class LineageLog:
    """The durable spec registry driver tasks re-read on re-execution."""

    def __init__(self) -> None:
        self._specs: Dict[str, CollectiveSpec] = {}
        #: spec_id -> number of times the spec's task set was (re-)submitted.
        self.submissions: Dict[str, int] = {}

    def record(self, spec: CollectiveSpec) -> None:
        self._specs[spec.spec_id] = spec

    def spec(self, spec_id: str) -> CollectiveSpec:
        try:
            return self._specs[spec_id]
        except KeyError:
            raise KeyError(f"no lineage record for spec {spec_id}") from None

    def __contains__(self, spec_id: str) -> bool:
        return spec_id in self._specs

    def __iter__(self) -> Iterable[CollectiveSpec]:
        return iter(self._specs.values())

    def note_submission(self, spec_id: str) -> int:
        count = self.submissions.get(spec_id, 0) + 1
        self.submissions[spec_id] = count
        return count
