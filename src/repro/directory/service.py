"""Sharded object directory with partial/complete locations and inline cache."""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass, field
from typing import Generator, Iterable, Optional

from repro.directory.wal import WriteAheadLog
from repro.net.cluster import Cluster
from repro.net.node import Node
from repro.net.transport import NodeFailedError
from repro.sim import Event, SimulationError
from repro.store.objects import ObjectID, ObjectValue


@dataclass
class LocationInfo:
    """One copy of an object, as the directory sees it."""

    node_id: int
    complete: bool
    #: Node the copy is currently being fetched from (``None`` once complete
    #: or if the copy was created locally by ``Put``).  Used to avoid cyclic
    #: fetch dependencies after a failure (Section 3.5.1).
    upstream: Optional[int] = None


@dataclass
class DirectoryRecord:
    """Directory state for a single object."""

    object_id: ObjectID
    size: Optional[int] = None
    locations: dict[int, LocationInfo] = field(default_factory=dict)
    inline_value: Optional[ObjectValue] = None
    #: Events waiting for *any* location (or inline value) to appear.
    waiters: list[Event] = field(default_factory=list)
    #: Events waiting for a location to be released back / become available.
    availability_waiters: list[Event] = field(default_factory=list)
    #: Sources currently checked out by a receiver (requester_id -> source).
    #: Used to restore a source if the receiver dies before releasing it.
    checked_out: dict[int, LocationInfo] = field(default_factory=dict)
    deleted: bool = False
    #: index of the shard that owns this record (assigned once at creation;
    #: CRC placement is stable, so it never changes).
    shard: int = 0


class DurableService:
    """A control-plane service that a kill wipes and WAL replay restores.

    Two services are durable this way: each directory shard
    (:class:`DirectoryShard`) and the orchestrator's lineage plane
    (``CollectiveOrchestrator.control``).  The service owns its liveness,
    its incarnation, the backlog of requests parked on it and its
    :class:`~repro.directory.wal.WriteAheadLog`, and it writes the lifecycle's
    counters and phase marks under its flight resource.  The owner says
    what a kill wipes and drives recovery: after the failure-detection delay
    it calls :meth:`replay` with its own restore and apply functions, then
    ``yield from`` :meth:`revive`.
    """

    __slots__ = (
        "cluster",
        "sim",
        "resource",
        "quantum",
        "alive",
        "incarnation",
        "backlog",
        "recovery_event",
        "wal",
    )

    def __init__(self, cluster: Cluster, resource: str, snapshot_fn):
        self.cluster = cluster
        self.sim = cluster.sim
        #: flight-recorder resource of the lifecycle's phase marks.
        self.resource = resource
        #: one slot of the post-recovery backlog drain (see :meth:`park`).
        self.quantum = cluster.config.rpc_latency / 64.0
        self.alive = True
        self.incarnation = 0
        #: requests parked during the current downtime.
        self.backlog = 0
        self.recovery_event = Event(self.sim)
        self.wal = WriteAheadLog(snapshot_fn, self._on_wal_append, self._on_wal_checkpoint)

    def phase(self, detail: str) -> None:
        """A lifecycle phase mark under the service's flight resource."""
        flight = self.cluster.flight
        if flight is not None:
            flight.phase(self.resource, detail)

    def _count(self, op: str) -> None:
        obs = self.cluster.obs
        if obs is not None:
            obs.control_plane[op].inc()

    def _on_wal_append(self, kind: str) -> None:
        """Count and mark the append: every mutation appends, so the hook
        costs nothing when no metrics plane or flight recorder observes it."""
        cluster = self.cluster
        if cluster.obs is not None:
            cluster.obs.control_plane["wal_appends"].inc()
        if cluster.flight is not None:
            cluster.flight.phase(self.resource, f"wal_append/{kind}")

    def _on_wal_checkpoint(self, seq: int) -> None:
        self._count("checkpoints")
        self.phase(f"checkpoint/seq={seq}")

    def park(self, mark: Optional[str] = None) -> Generator:
        """Wait out the downtime, then resume in the backlog's drain order.

        Callers test ``alive`` first, so the alive path costs no generator.
        A parked request takes a position in the backlog: the replayed
        service answers parked requests *serially*, one :attr:`quantum`
        apart, in parking order.  Without the stagger every parked
        continuation resumes at the same instant, the resumed chains then
        march in lockstep (identical hop latencies) and land same-instant
        link releases whose within-timestep order the coalescing fast paths
        do not preserve — admission of multi-link reservations would then
        depend on it.  A serial drain is also what a real replayed service
        does with its request queue.  ``mark``, if given, is written as a
        phase mark each time the request parks.
        """
        while not self.alive:
            position = self.backlog
            self.backlog += 1
            if mark is not None:
                self.phase(mark)
            while not self.alive:
                yield self.recovery_event
            yield self.sim.timeout((position + 1) * self.quantum)
            # Re-killed while draining: loop and take a fresh position.

    def kill(self) -> bool:
        """Take the service down now; False if it already was.

        The WAL snapshots the owner's state, which the owner then wipes, and
        keeps the records appended during the downtime; the owner spawns
        recovery.
        """
        if not self.alive:
            return False
        self.alive = False
        self.incarnation += 1
        self.backlog = 0
        self.recovery_event = Event(self.sim)
        self.wal.freeze()
        self.phase(f"kill/incarnation={self.incarnation}")
        return True

    def replay(self, restore_fn, apply_fn) -> int:
        """Rebuild the owner's state from the kill snapshot plus the downtime
        records; returns the WAL's count.  A live service has nothing to
        replay, so this raises."""
        if self.alive:
            raise SimulationError(f"{self.resource} is up: only a killed service replays")
        self.phase("replay_begin")
        return self.wal.replay(restore_fn, apply_fn)

    def revive(self, applied: int, detail: str) -> Generator:
        """Pay the replay cost, come back up and wake the parked requests.

        The cost is one RPC to load the checkpoint plus a quarter-latency
        per record appended since it (the WAL's count): deterministic, so
        recovered runs stay byte-reproducible.  ``detail`` closes the
        end-of-replay phase mark.
        """
        yield self.sim.timeout(self.cluster.config.rpc_latency * (1.0 + 0.25 * applied))
        self.alive = True
        self.wal.frozen = False
        self._count("replays")
        self.phase(f"replay_end/{detail}")
        # No value: the service itself would make the event a cycle with it.
        self.recovery_event.succeed()

    def close(self) -> None:
        """Drop the WAL's hooks of a finished run.

        Each hook leads back to the service or its owner: the snapshot
        function is the owner's, the other two are bound to the service.
        The log and its counters stay readable, but a closed service can no
        longer be killed.
        """
        wal = self.wal
        wal.snapshot_fn = wal.on_append = wal.on_checkpoint = None


class DirectoryShard(DurableService):
    """One hash-shard of the directory: a service task on a host node.

    The shard is the directory's unit of failure: :meth:`ObjectDirectory.
    fail_shard` wipes its volatile state (the records it owns) and spawns a
    recovery task that — after the failure-detection delay — fails the shard
    over to an alive host if needed and replays its write-ahead log (the
    kill's snapshot plus the records appended while the shard was down) to
    reconstruct the state the kill destroyed, brought up to date.
    Requests to a dead shard park inside the RPC path (see
    :meth:`DurableService.park`), so clients see a stall, never an error or
    a job restart.
    """

    __slots__ = ("shard_id", "node", "failovers", "last_replay_applied")

    def __init__(self, shard_id: int, node: Node, cluster: Cluster, snapshot_fn):
        super().__init__(cluster, f"dirshard:{shard_id}", snapshot_fn)
        self.shard_id = shard_id
        self.node = node
        self.failovers = 0
        self.last_replay_applied = 0


class ObjectDirectory:
    """The distributed object directory service.

    The directory is logically one key-value table; physically it is sharded
    over ``config.num_directory_shards`` shard servers placed round-robin on
    the cluster's nodes.  All methods that simulate an RPC are generators and
    must be driven from a simulation process (``yield from``).
    """

    def __init__(
        self,
        cluster: Cluster,
        selection_seed: int = 0,
        topology_aware: bool = True,
    ):
        self.cluster = cluster
        self.sim = cluster.sim
        self.config = cluster.config
        #: seed of the deterministic tie-break among equally loaded sources
        #: (see :meth:`_eligible_sources`).
        self.selection_seed = int(selection_seed)
        #: prefer closer sources (same rack, then same zone) on hierarchical
        #: fabrics.  On the flat topology every pair is equidistant, so the
        #: flag cannot change the selection order there.
        self.topology_aware = bool(topology_aware) and not cluster.topology.is_flat
        num_shards = min(self.config.num_directory_shards, len(cluster.nodes))
        #: node that hosts each shard (round-robin placement).
        self.shard_nodes: list[Node] = [
            cluster.nodes[shard % len(cluster.nodes)] for shard in range(num_shards)
        ]
        #: the shard service tasks; each owns a WAL so its death is
        #: recoverable by replay (see :class:`DirectoryShard`).
        self.shards: list[DirectoryShard] = [
            DirectoryShard(
                shard_id,
                node,
                cluster,
                lambda shard_id=shard_id: self._snapshot_shard(shard_id),
            )
            for shard_id, node in enumerate(self.shard_nodes)
        ]
        self.kill_count = 0
        self.records: dict[ObjectID, DirectoryRecord] = {}
        self.lookup_count = 0
        self.publish_count = 0
        #: wake-fan-out cost counters (deterministic, always on — like the
        #: lookup/publish counts above): every ``_notify_waiters`` call, the
        #: waiter events it actually woke, every ``_eligible_sources`` scan,
        #: and the location candidates those scans walked.  ROADMAP item 3
        #: names the O(waiters x candidates) rescan as the directory's
        #: scaling hazard; these four numbers make the future batched-wake
        #: fix measurable.
        self.notify_calls = 0
        self.waiter_wakes = 0
        self.eligibility_scans = 0
        self.eligibility_candidates = 0
        #: memoized source-selection tie-break hashes ((object key, node) ->
        #: int): the blake2b is a pure function of the key, and at fleet
        #: scale the per-candidate hashing dominated eligibility scans.
        self._tie_cache: dict[tuple[str, int], int] = {}
        #: memoized shard placement (see :meth:`_shard_index`).
        self._placement: dict[ObjectID, int] = {}
        for node in cluster.nodes:
            node.on_failure(self._on_node_failure)

    # -- plumbing -------------------------------------------------------------
    def _shard_index(self, object_id: ObjectID) -> int:
        # CRC32 rather than hash() so shard placement is stable across runs
        # (Python's string hash is randomized per process).  Placement never
        # changes, so each ID is hashed once per directory.
        index = self._placement.get(object_id)
        if index is None:
            crc = zlib.crc32(object_id.key.encode("utf-8"))
            index = self._placement[object_id] = crc % len(self.shards)
        return index

    def _rpc(self, requester: Node, object_id: ObjectID) -> Generator:
        """One control RPC from the requester to the object's shard.

        A dead shard does not error the request: the requester parks on the
        shard's recovery event and resumes once the shard's WAL replay
        finishes, so a shard kill is a stall, never a failure the data plane
        can observe.  Only the requester's own liveness aborts the RPC.
        """
        if not requester.alive:
            raise NodeFailedError(f"node {requester.node_id} is down", node=requester)
        index = self._placement.get(object_id)
        shard = self.shards[self._shard_index(object_id) if index is None else index]
        shard_node = shard.node
        if requester.node_id == shard_node.node_id:
            yield self.sim.timeout(self.config.rpc_latency / 4.0)
        else:
            # Control-plane traffic rides the latency path (it never occupies
            # a bulk link slot) but is visible to the flow accounting.
            requester.uplink_sched.record_control()
            obs = self.cluster.obs
            if obs is not None:
                obs.control_plane["shard_rpcs"].inc()
            yield self.sim.timeout(self.config.rpc_latency)
        if not shard.alive:
            yield from shard.park(f"rpc_parked/n{requester.node_id}/{object_id}")
        if not requester.alive:
            raise NodeFailedError(f"node {requester.node_id} is down", node=requester)

    def _record(self, object_id: ObjectID) -> DirectoryRecord:
        record = self.records.get(object_id)
        if record is None:
            record = DirectoryRecord(
                object_id=object_id, shard=self._shard_index(object_id)
            )
            self.records[object_id] = record
        return record

    # -- write-ahead logging ---------------------------------------------------
    def _commit(self, record: DirectoryRecord, kind: str, data: tuple):
        """Log one mutation to the owning shard's WAL, then apply it.

        The WAL entry carries the *evaluated* effect (chosen source, restore
        decision, dead set), so replay is a pure function of the log — it
        never re-reads node liveness or re-runs source selection.
        """
        self.shards[record.shard].wal.append(kind, (record.object_id,) + data)
        return self._apply(record, kind, data)

    def _apply(self, record: DirectoryRecord, kind: str, data: tuple):
        """Apply one logged mutation to a record: the live path and WAL
        replay share this function, so replayed state cannot drift."""
        if kind == "publish_partial":
            node_id, size, upstream = data
            record.size = size if record.size is None else record.size
            existing = record.locations.get(node_id)
            if existing is not None and existing.complete:
                return None
            record.locations[node_id] = LocationInfo(
                node_id=node_id, complete=False, upstream=upstream
            )
        elif kind == "publish_complete":
            node_id, size = data
            record.size = size if record.size is None else record.size
            record.locations[node_id] = LocationInfo(
                node_id=node_id, complete=True, upstream=None
            )
        elif kind == "put_inline":
            (value,) = data
            record.size = value.size
            record.inline_value = value
        elif kind == "remove_location":
            (node_id,) = data
            record.locations.pop(node_id, None)
        elif kind == "delete":
            record.locations.clear()
            record.inline_value = None
            record.deleted = True
        elif kind == "acquire":
            requester_id, node_id, complete, upstream = data
            chosen = record.locations.pop(node_id, None)
            if chosen is None:  # replay into reconstructed state
                chosen = LocationInfo(
                    node_id=node_id, complete=complete, upstream=upstream
                )
            record.checked_out[requester_id] = chosen
            existing = record.locations.get(requester_id)
            if existing is None or not existing.complete:
                record.locations[requester_id] = LocationInfo(
                    node_id=requester_id, complete=False, upstream=node_id
                )
            return chosen
        elif kind == "release":
            requester_id, node_id, complete, upstream, restore, succeeded = data
            record.checked_out.pop(requester_id, None)
            if restore:
                existing = record.locations.get(node_id)
                if existing is None or not existing.complete:
                    record.locations[node_id] = LocationInfo(
                        node_id=node_id, complete=complete, upstream=upstream
                    )
            if succeeded:
                record.locations[requester_id] = LocationInfo(
                    node_id=requester_id, complete=True, upstream=None
                )
        elif kind == "purge":
            node_id, dead = data
            record.locations.pop(node_id, None)
            checked_out = record.checked_out.pop(node_id, None)
            if checked_out is not None:
                if (
                    checked_out.node_id not in dead
                    and checked_out.node_id not in record.locations
                ):
                    record.locations[checked_out.node_id] = checked_out
        else:  # pragma: no cover - programming error
            raise ValueError(f"unknown directory WAL op {kind!r}")
        return None

    def _notify_waiters(self, record: DirectoryRecord) -> None:
        self.notify_calls += 1
        wakes = 0
        if record.locations or record.inline_value is not None:
            for event in record.waiters:
                if not event.triggered:
                    event.succeed(record)
                    wakes += 1
            record.waiters = []
        for event in record.availability_waiters:
            if not event.triggered:
                event.succeed(record)
                wakes += 1
        record.availability_waiters = []
        self.waiter_wakes += wakes

    # -- synchronous (zero-cost) inspection helpers, used by tests -------------
    def peek_record(self, object_id: ObjectID) -> Optional[DirectoryRecord]:
        return self.records.get(object_id)

    def locations_of(self, object_id: ObjectID) -> dict[int, LocationInfo]:
        record = self.records.get(object_id)
        return dict(record.locations) if record else {}

    def known_size(self, object_id: ObjectID) -> Optional[int]:
        record = self.records.get(object_id)
        if record is None:
            return None
        if record.size is not None:
            return record.size
        if record.inline_value is not None:
            return record.inline_value.size
        return None

    def creation_event(self, object_id: ObjectID) -> Event:
        """An event that fires as soon as the object exists anywhere."""
        record = self._record(object_id)
        event = Event(self.sim)
        if record.locations or record.inline_value is not None:
            event.succeed(record)
        else:
            record.waiters.append(event)
        return event

    # -- publishing -------------------------------------------------------------
    def publish_partial(
        self,
        requester: Node,
        object_id: ObjectID,
        size: int,
        upstream: Optional[int] = None,
    ) -> Generator:
        """Announce that ``requester`` holds (or is building) a partial copy."""
        yield from self._rpc(requester, object_id)
        self.publish_count += 1
        record = self._record(object_id)
        existing = record.locations.get(requester.node_id)
        already_complete = existing is not None and existing.complete
        self._commit(record, "publish_partial", (requester.node_id, size, upstream))
        if already_complete:
            return
        self._notify_waiters(record)

    def publish_complete(self, requester: Node, object_id: ObjectID, size: int) -> Generator:
        """Announce that ``requester`` now holds a complete copy."""
        yield from self._rpc(requester, object_id)
        self.publish_count += 1
        record = self._record(object_id)
        self._commit(record, "publish_complete", (requester.node_id, size))
        self._notify_waiters(record)

    def put_inline(self, requester: Node, object_id: ObjectID, value: ObjectValue) -> Generator:
        """Cache a small object directly in the directory (fast path)."""
        yield from self._rpc(requester, object_id)
        self.publish_count += 1
        record = self._record(object_id)
        self._commit(record, "put_inline", (value,))
        self._notify_waiters(record)

    def remove_location(self, requester: Node, object_id: ObjectID, node_id: int) -> Generator:
        """Remove a location (e.g. an evicted copy)."""
        yield from self._rpc(requester, object_id)
        record = self.records.get(object_id)
        if record is not None:
            self._commit(record, "remove_location", (node_id,))

    def delete_object(self, requester: Node, object_id: ObjectID) -> Generator:
        """Drop every trace of the object (the ``Delete`` API)."""
        yield from self._rpc(requester, object_id)
        record = self.records.get(object_id)
        if record is not None:
            self._commit(record, "delete", ())

    # -- lookups ---------------------------------------------------------------
    def try_get_inline(self, requester: Node, object_id: ObjectID) -> Generator:
        """Fetch the inline-cached value, if any (one RPC)."""
        yield from self._rpc(requester, object_id)
        self.lookup_count += 1
        record = self.records.get(object_id)
        if record is None:
            return None
        return record.inline_value

    def wait_for_object(self, requester: Node, object_id: ObjectID) -> Generator:
        """Synchronous location query: block until the object exists somewhere."""
        yield from self._rpc(requester, object_id)
        self.lookup_count += 1
        record = self._record(object_id)
        while not record.locations and record.inline_value is None:
            event = Event(self.sim)
            record.waiters.append(event)
            yield event
        return record

    # -- broadcast coordination ---------------------------------------------------
    def _location_view(self, record: DirectoryRecord) -> dict[int, LocationInfo]:
        """Locations plus checked-out sources, for dependency-chain walks.

        Checked-out sources are removed from ``locations`` while they serve a
        receiver, but their upstream pointers must stay visible here: a chain
        that silently ends at a checked-out node would let two receivers pick
        each other's partials as sources and deadlock with neither able to
        make progress (each waiting for blocks only the other could produce).
        Built once per eligibility scan — rebuilding it per candidate made
        source selection quadratic at fleet scale.
        """
        view = dict(record.locations)
        for info in record.checked_out.values():
            view.setdefault(info.node_id, info)
        return view

    def _dependency_chain(
        self, record: DirectoryRecord, node_id: int, view: Optional[dict] = None
    ) -> set[int]:
        """Follow the ``upstream`` pointers from ``node_id``."""
        if view is None:
            view = self._location_view(record)
        chain: set[int] = set()
        current: Optional[int] = node_id
        while current is not None and current not in chain:
            chain.add(current)
            info = view.get(current)
            current = info.upstream if info is not None else None
        return chain

    def _is_excluded(self, node_id: int, exclude) -> bool:
        """Whether ``node_id`` is ruled out by the requester's exclusion set.

        ``exclude`` is either a frozenset of node ids (excluded
        unconditionally) or a mapping ``node_id -> incarnation`` recorded
        when that source failed the requester: the node stays excluded only
        while its incarnation has not advanced, so a source that recovers
        (and re-publishes the object) becomes eligible again even for a
        requester already parked inside :meth:`acquire_transfer_source`.
        """
        if isinstance(exclude, dict):
            incarnation = exclude.get(node_id)
            if incarnation is None:
                return False
            return self.cluster.nodes[node_id].incarnation <= incarnation
        return node_id in exclude

    def _eligible_sources(
        self, record: DirectoryRecord, requester_id: int, exclude
    ) -> list[LocationInfo]:
        self.eligibility_scans += 1
        self.eligibility_candidates += len(record.locations)
        sources = []
        view: Optional[dict] = None
        for info in record.locations.values():
            if info.node_id == requester_id or self._is_excluded(info.node_id, exclude):
                continue
            node = self.cluster.nodes[info.node_id]
            if not node.alive:
                continue
            # Cycle avoidance: never pick a source whose own fetch depends,
            # transitively, on the requester (Section 3.5.1).
            if view is None:
                view = self._location_view(record)
            if requester_id in self._dependency_chain(record, info.node_id, view):
                continue
            sources.append(info)
        if len(sources) < 2:
            return sources
        # Prefer complete copies over partial ones, then — on a hierarchical
        # fabric — closer copies over farther ones (same rack before same
        # zone before cross-zone: a same-rack pull costs no shared tier
        # slot, so one cross-rack transfer per rack suffices and the rest of
        # the broadcast tree relays inside the rack), then idle uplinks over
        # busy ones: when many objects disseminate concurrently (allgather,
        # alltoall) this spreads the transfers across distinct senders
        # instead of convoying them through the lowest-numbered node.
        # Under equal load the tie-break is a seeded hash of (seed, object,
        # candidate) rather than the raw node id: still fully deterministic —
        # a seeded run is byte-for-byte reproducible — but without the
        # systematic bias toward low-numbered nodes, and re-seedable so the
        # fault matrix can vary schedules while staying replayable.  blake2b
        # rather than crc32: crc is linear, so same-length object ids would
        # shift every candidate's hash by the same XOR constant and the
        # per-object variation would collapse to one global order.
        distance = self.cluster.topology.distance if self.topology_aware else None
        nodes = self.cluster.nodes
        key = record.object_id.key
        tie_cache = self._tie_cache
        ranked = []
        for info in sources:
            node_id = info.node_id
            tie = tie_cache.get((key, node_id))
            if tie is None:
                token = f"{self.selection_seed}:{key}:{node_id}"
                digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
                tie = tie_cache[(key, node_id)] = int.from_bytes(digest, "big")
            near = 0 if distance is None else distance(requester_id, node_id)
            uplink = nodes[node_id].uplink
            load = uplink.in_use + uplink.queue_length
            # node_id is unique among the candidates: ``info`` is never compared.
            ranked.append((not info.complete, near, load, tie, node_id, info))
        ranked.sort()
        return [entry[-1] for entry in ranked]

    def _rack_local_copy_pending(
        self, record: DirectoryRecord, requester_id: int, exclude
    ) -> bool:
        """Whether a same-rack copy exists but is currently unavailable.

        A copy checked out to another receiver (or a partial already fully
        claimed) will come back to the location table when that transfer
        finishes; a topology-aware requester whose best *eligible* source is
        cross-rack prefers to wait for the rack-local one rather than burn a
        scarce shared tier slot — this is what keeps a rack-aware broadcast
        at one cross-rack transfer per rack.  Dead, excluded, and
        cycle-dependent copies (a chain through the requester itself) never
        count.  The wait itself is *bounded* by the caller (one failure-
        detection delay): a partial whose producing fetch silently died —
        e.g. its node failed and recovered mid-transfer — would otherwise
        park a whole rack of requesters forever, each seeing the others'
        frozen partials as "pending".
        """
        topology = self.cluster.topology
        view = self._location_view(record)
        for info in view.values():
            if info.node_id == requester_id:
                continue
            if not topology.same_rack(requester_id, info.node_id):
                continue
            if self._is_excluded(info.node_id, exclude):
                continue
            if not self.cluster.nodes[info.node_id].alive:
                continue
            if requester_id in self._dependency_chain(record, info.node_id, view):
                continue
            return True
        return False

    def acquire_transfer_source(
        self,
        requester: Node,
        object_id: ObjectID,
        exclude: Iterable[int] | dict[int, int] = (),
    ) -> Generator:
        """Pick a source to fetch the object from, per the broadcast protocol.

        Blocks until a suitable source exists.  Atomically removes the chosen
        source from the location table (so it serves one receiver at a time)
        and registers the requester as a partial location whose upstream is
        the chosen source.  Returns the chosen :class:`LocationInfo`.

        ``exclude`` may be a ``node_id -> incarnation`` mapping (see
        :meth:`_is_excluded`); eligibility is re-evaluated every time the
        record changes, so exclusions lapse when excluded nodes recover.

        Topology-aware mode additionally parks a requester whose best
        eligible source is in another rack while a same-rack copy is merely
        *busy* (see :meth:`_rack_local_copy_pending`).  That park is bounded
        by one full service of the object (its serialization time, floored
        by ``failure_detection_delay``): a live busy copy returns to the
        table within that budget, after which the requester stops insisting
        on locality and takes the best eligible source wherever it lives —
        so a rack whose local copies are all frozen (producers dead)
        degrades to cross-rack fetches instead of deadlocking on its own
        ghost partials.
        """
        if not isinstance(exclude, dict):  # read per candidate: no iterators
            exclude = frozenset(exclude)
        yield from self._rpc(requester, object_id)
        self.lookup_count += 1
        record = self._record(object_id)
        #: absolute time at which this acquire stops insisting on locality;
        #: fixed when the first park begins, so record churn (other
        #: receivers checking copies in and out keeps re-firing the waiter)
        #: cannot restart the window.  The budget covers one full service of
        #: the object — a *live* busy copy returns to the table within its
        #: serialization time, while a ghost partial (producer silently
        #: gone) never does and the requester degrades to cross-rack — with
        #: the failure-detection delay as the floor for small objects.
        locality_deadline: Optional[float] = None
        while True:
            sources = self._eligible_sources(record, requester.node_id, exclude)
            hold_for_rack = bool(
                sources
                and self.topology_aware
                and not self.cluster.topology.same_rack(
                    requester.node_id, sources[0].node_id
                )
                and self._rack_local_copy_pending(record, requester.node_id, exclude)
            )
            if hold_for_rack:
                if locality_deadline is None:
                    # One full service of the object plus the detection
                    # delay as slack: a busy rack-local copy is released at
                    # the end of its current stream, which takes exactly
                    # one serialization time — an expiry equal to it would
                    # race the release and lose by a propagation delay.
                    budget = (
                        self.config.failure_detection_delay
                        + self.config.transmission_time(record.size or 0)
                        + self.config.latency
                    )
                    locality_deadline = self.sim.now + budget
                elif self.sim.now >= locality_deadline:
                    hold_for_rack = False
            if sources and not hold_for_rack:
                chosen = sources[0]
                # The WAL entry carries the evaluated choice: replay must
                # not re-run source selection against replayed state.
                chosen = self._commit(
                    record,
                    "acquire",
                    (
                        requester.node_id,
                        chosen.node_id,
                        chosen.complete,
                        chosen.upstream,
                    ),
                )
                self._notify_waiters(record)
                return chosen
            event = Event(self.sim)
            record.availability_waiters.append(event)
            record.waiters.append(event)
            if hold_for_rack:
                # Re-evaluate on any record change, or when the locality
                # deadline expires — whichever comes first.
                yield self.sim.any_of(
                    [event, self.sim.timeout(locality_deadline - self.sim.now)]
                )
            else:
                yield event

    def release_transfer_source(
        self,
        requester: Node,
        object_id: ObjectID,
        source: LocationInfo,
        succeeded: bool,
    ) -> Generator:
        """Give the source back to the directory after a transfer attempt.

        On success the requester is also promoted to a complete location.
        A failed source (dead node) is not re-added.
        """
        yield from self._rpc(requester, object_id)
        record = self._record(object_id)
        restore = self.cluster.nodes[source.node_id].alive
        self._commit(
            record,
            "release",
            (
                requester.node_id,
                source.node_id,
                source.complete,
                source.upstream,
                restore,
                succeeded,
            ),
        )
        self._notify_waiters(record)

    def close(self) -> None:
        """Close every shard (:meth:`DurableService.close`) of a finished run.

        The shards' snapshot function closes over this directory.  The logs
        and their counters stay readable, but a closed directory's shards
        can no longer be killed.
        """
        for shard in self.shards:
            shard.close()

    # -- failure handling -----------------------------------------------------------
    def _on_node_failure(self, node: Node) -> None:
        """Purge every location hosted by a failed node.

        A *data-plane* node failure does not take its shard down with it:
        shard death is its own injected fault class (:meth:`fail_shard`),
        so every pre-existing failure scenario keeps its exact schedule.
        The purge is logged to every shard's WAL with the evaluated dead
        set — a purge that lands while a shard is down mutates nothing live
        (the state is already wiped) but replays in order during recovery,
        which is what makes replayed state the real post-downtime truth.
        """
        dead = tuple(
            sorted(n.node_id for n in self.cluster.nodes if not n.alive)
        )
        for shard in self.shards:
            shard.wal.append("purge", (node.node_id, dead))
        for record in self.records.values():
            if not self.shards[record.shard].alive:
                continue
            record.locations.pop(node.node_id, None)
            # If the failed node had checked out a source for an in-flight
            # fetch, put that source back so other receivers can still use it.
            checked_out = record.checked_out.pop(node.node_id, None)
            if checked_out is not None:
                source_node = self.cluster.nodes[checked_out.node_id]
                if source_node.alive and checked_out.node_id not in record.locations:
                    record.locations[checked_out.node_id] = checked_out
            if record.locations or record.inline_value is not None:
                self._notify_waiters(record)

    # -- shard failure: the control-plane fault class ---------------------------
    def _wipe_record(self, record: DirectoryRecord) -> None:
        """Drop a record's volatile state; parked waiters stay attached."""
        record.size = None
        record.locations.clear()
        record.inline_value = None
        record.checked_out.clear()
        record.deleted = False

    def _snapshot_shard(self, shard_id: int) -> tuple:
        """An immutable snapshot of every record the shard owns."""
        snapshot = []
        for object_id, record in self.records.items():
            if record.shard != shard_id:
                continue
            snapshot.append(
                (
                    object_id,
                    record.size,
                    record.inline_value,
                    record.deleted,
                    tuple(
                        (info.node_id, info.complete, info.upstream)
                        for info in record.locations.values()
                    ),
                    tuple(
                        (requester_id, info.node_id, info.complete, info.upstream)
                        for requester_id, info in record.checked_out.items()
                    ),
                )
            )
        return tuple(snapshot)

    def _restore_shard(self, shard_id: int, snapshot) -> None:
        """Load a kill snapshot back into the live record table."""
        for record in self.records.values():
            if record.shard == shard_id:
                self._wipe_record(record)
        for object_id, size, inline_value, deleted, locations, checked_out in (
            snapshot or ()
        ):
            record = self._record(object_id)
            record.size = size
            record.inline_value = inline_value
            record.deleted = deleted
            record.locations = {
                node_id: LocationInfo(
                    node_id=node_id, complete=complete, upstream=upstream
                )
                for node_id, complete, upstream in locations
            }
            record.checked_out = {
                requester_id: LocationInfo(
                    node_id=node_id, complete=complete, upstream=upstream
                )
                for requester_id, node_id, complete, upstream in checked_out
            }

    def _replay_record(self, shard: DirectoryShard, kind: str, data: tuple) -> None:
        """Re-apply one WAL record during shard recovery."""
        if kind == "purge":
            for record in self.records.values():
                if record.shard == shard.shard_id:
                    self._apply(record, "purge", data)
            return
        self._apply(self._record(data[0]), kind, data[1:])

    def fail_shard(self, shard_id: int) -> None:
        """Kill one directory shard: its volatile state is lost *now*.

        Every record the shard owns is wiped in place (record identity and
        table order are preserved — clients hold references across yields);
        requests park in :meth:`_rpc` until the spawned recovery task brings
        the shard back by WAL replay (see :class:`DurableService`).
        """
        shard = self.shards[shard_id]
        if not shard.kill():
            return
        self.kill_count += 1
        for record in self.records.values():
            if record.shard == shard_id:
                self._wipe_record(record)
        self.sim.process(
            self._recover_shard(shard), name=f"dirshard-{shard_id}-recovery"
        )

    def _recover_shard(self, shard: DirectoryShard) -> Generator:
        """Detect, fail over if the host died, replay the WAL, come back."""
        yield self.sim.timeout(self.config.failure_detection_delay)
        if not shard.node.alive:
            alive = self.cluster.alive_nodes()
            if alive:
                num_nodes = len(self.cluster.nodes)
                start = shard.node.node_id
                new_host = min(
                    alive,
                    key=lambda n: ((n.node_id - start) % num_nodes, n.node_id),
                )
                old_id = shard.node.node_id
                shard.node = new_host
                self.shard_nodes[shard.shard_id] = new_host
                shard.failovers += 1
                shard.phase(f"shard_failover/{old_id}->{new_host.node_id}")
        applied = shard.replay(
            lambda snapshot: self._restore_shard(shard.shard_id, snapshot),
            lambda kind, data: self._replay_record(shard, kind, data),
        )
        shard.last_replay_applied = applied
        yield from shard.revive(applied, f"applied={applied}")
        # Deferred waiter notifications drain serially *after* the parked RPC
        # backlog, continuing its slot sequence, so no two recovery-driven
        # continuations resume at the same instant (see
        # :meth:`DurableService.park`).  ``shard.backlog`` is final here: any
        # request that arrives after the shard came back never parks.
        pending = [
            record
            for record in self.records.values()
            if record.shard == shard.shard_id
            and (record.locations or record.inline_value is not None)
            and (record.waiters or record.availability_waiters)
        ]
        base = self.sim.now
        slot = shard.backlog + 1
        for record in pending:
            yield self.sim.wake_at(base + slot * shard.quantum)
            slot += 1
            if not shard.alive:
                # Re-killed mid-drain; the new recovery owns the rest.
                return
            self._notify_waiters(record)
