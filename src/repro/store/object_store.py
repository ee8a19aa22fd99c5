"""Per-node local object store with partial-progress tracking and eviction.

The store is the per-node half of the distributed object store described in
Section 2.1 of the paper.  Hoplite's pipelining (Section 3.3) depends on the
store exposing *partial* objects: an object whose first ``k`` blocks are
present can already serve those blocks to a downstream receiver or to a local
worker.  The store therefore tracks per-object block progress and lets
processes wait for a given amount of progress.

The garbage-collection behaviour follows Section 6: the copy created by
``Put`` is *pinned* until the framework calls ``Delete``; any additional
copies created during collective communication are unpinned and may be
evicted LRU when the store runs out of room.
"""

from __future__ import annotations

from typing import Optional

from repro.net.config import NetworkConfig
from repro.net.node import Node
from repro.sim import Event, Simulator
from repro.store.objects import ObjectID, ObjectValue, Payload


class ObjectNotFoundError(KeyError):
    """The requested object is not present in this local store."""


class ObjectAlreadyExistsError(ValueError):
    """An object with this ID already exists in this local store."""


class StoredObject:
    """Bookkeeping for one object copy inside a local store."""

    __slots__ = (
        "sim",
        "object_id",
        "size",
        "num_blocks",
        "_blocks_ready",
        "sealed",
        "pinned",
        "payload",
        "metadata",
        "created_at",
        "last_access",
        "ref_count",
        "_progress_waiters",
        "_sealed_event",
        "_inflight",
        "_no_coalesce",
    )

    def __init__(
        self,
        sim: Simulator,
        object_id: ObjectID,
        size: int,
        num_blocks: int,
        pinned: bool = False,
    ):
        self.sim = sim
        self.object_id = object_id
        self.size = size
        self.num_blocks = max(1, num_blocks)
        self._blocks_ready = 0
        self.sealed = False
        self.pinned = pinned
        self.payload: Payload = None
        self.metadata: dict = {}
        self.created_at = sim.now
        self.last_access = sim.now
        self.ref_count = 0
        self._progress_waiters: list[tuple[int, Event]] = []
        self._sealed_event = Event(sim)
        #: arithmetic arrival schedule while a coalesced transfer streams
        #: into this copy (see :class:`repro.net.coalesce.InflightSchedule`).
        self._inflight = None
        #: set by :meth:`decoalesce`: a transfer consumer parked on this
        #: copy needs per-block mark ordering, so for the rest of the object
        #: no coalesced run may write it and no consumer may read its
        #: schedule ahead of the marks.
        self._no_coalesce = False

    # -- progress -----------------------------------------------------------
    @property
    def blocks_ready(self) -> int:
        """Blocks present right now.

        While a coalesced transfer is streaming into this copy the count is
        computed from the transfer's arrival boundaries — the same value, at
        the same instant, the per-block mark sequence would have stored.
        """
        inflight = self._inflight
        if inflight is None:
            return self._blocks_ready
        return inflight.ready_now(self.sim._now)

    @property
    def complete(self) -> bool:
        return self.sealed

    def mark_block_ready(self, block_index: int) -> None:
        """Record that blocks up to ``block_index`` (inclusive) are present."""
        if block_index >= self.num_blocks:
            raise IndexError(
                f"block {block_index} out of range for {self.num_blocks}-block object"
            )
        if block_index + 1 > self._blocks_ready:
            self._blocks_ready = block_index + 1
        self._notify_progress()

    def mark_blocks_ready(self, first: int, count: int) -> None:
        """Record blocks ``[first, first + count)`` as present, in order.

        A mark only raises the counter and wakes progress waiters, so
        without waiters the last block's mark stands for all of them.  With
        waiters each block is marked: the per-block sequence sets the order
        in which they wake and the value each sees.  For a coalesced run's
        delivery that branch is a guard: a waiter inside its window rides
        the schedule's exact-time firing, and arrivals strictly increase, so
        the only parked waiters it wakes wait for the last delivered block,
        which one mark wakes alike.
        """
        if count <= 0:
            return
        if not self._progress_waiters:
            self.mark_block_ready(first + count - 1)
            return
        for block_index in range(first, first + count):
            self.mark_block_ready(block_index)

    def reset_progress(self) -> None:
        """Discard partial contents (used when a reduce subtree must restart)."""
        if self.sealed:
            raise ValueError("cannot reset a sealed object")
        self._cancel_inflight()
        self._blocks_ready = 0

    def freeze_progress(self) -> None:
        """Detach any coalesced stream, keeping the blocks delivered so far.

        The dual of :meth:`reset_progress`, used by the streaming reduce
        recovery: when a repair decides the prefix written so far stays
        valid, the (about-to-be-interrupted) producing run must stop
        delivering future marks, but everything that arrived by now remains
        readable and every attached waiter stays attached.
        """
        if self.sealed or self._inflight is None:
            return
        ready = self.blocks_ready
        self._cancel_inflight()
        if ready > self._blocks_ready:
            self._blocks_ready = ready
        self._notify_progress()

    def _cancel_inflight(self) -> None:
        """Stop a coalesced stream writing this copy and drop its future marks.

        Used by :meth:`reset_progress`: the reset wipes even blocks already
        present, so the (about-to-be-interrupted) producing run must deliver
        nothing afterwards — its link/store accounting still happens at its
        unwind, matching an interrupted per-block chain.
        """
        inflight = self._inflight
        if inflight is None:
            return
        run = inflight.run
        run._materialize()
        run.entry = None
        run.schedule = None
        inflight.close()

    def seal(self, payload: Payload = None) -> None:
        """Mark the object complete (all blocks present)."""
        if self.sealed:
            return
        if self._inflight is not None:  # pragma: no cover - defensive
            raise ValueError("cannot seal an object with a coalesced stream in flight")
        self._blocks_ready = self.num_blocks
        self.sealed = True
        if payload is not None:
            self.payload = payload
        self._notify_progress()
        if not self._sealed_event.triggered:
            # No value: the event's value would point back at this copy.
            self._sealed_event.succeed()

    def decoalesce(self) -> None:
        """Consumer-side opt-out of arithmetic streaming into this copy.

        Called by a *transfer* consumer (a pull or a reduce partial stream)
        about to park on this copy outside a coalesced run of its own.  It
        resumes into link admission, in an order set by the event queue
        that only per-block marks reproduce — so it re-splits any in-flight
        coalesced run and bars future ones for the rest of the object.  A
        reduce slot never calls it: it holds no link, so its resume order
        cannot change an admission, and it waits on the schedule's
        exact-time firing instead.
        """
        self._no_coalesce = True
        inflight = self._inflight
        if inflight is not None:
            inflight.run._materialize()

    def _begin_inflight(self, schedule) -> None:
        """Attach a coalesced-transfer arrival schedule to this copy.

        Waiters whose thresholds fall inside the scheduled window move to
        exact-time firings (the per-block marks they were waiting for will
        not happen while the schedule is attached).
        """
        if self._inflight is not None:  # pragma: no cover - defensive
            raise ValueError("a coalesced stream is already in flight")
        self._inflight = schedule
        if self._progress_waiters:
            remaining = []
            top = schedule.base + schedule.limit
            for threshold, event in self._progress_waiters:
                if event.triggered:
                    continue
                if schedule.base < threshold <= top:
                    schedule.schedule_waiter(threshold, event)
                else:
                    # Outside the window: ordinary marks fire these.
                    remaining.append((threshold, event))
            self._progress_waiters = remaining

    def _notify_progress(self) -> None:
        if not self._progress_waiters:
            return
        remaining = []
        ready = self.blocks_ready
        for threshold, event in self._progress_waiters:
            if ready >= threshold and not event.triggered:
                event.succeed(ready)
            elif not event.triggered:
                remaining.append((threshold, event))
        self._progress_waiters = remaining

    @property
    def has_waiters(self) -> bool:
        """True while some process waits on this copy's progress or seal.

        Used by the eviction policy: evicting a partial copy someone is
        streaming from would leave its ``_progress_waiters`` pending forever,
        so such copies are not eviction candidates.  Waiters moved onto a
        coalesced stream's exact-time firings count too.
        """
        if any(not event.triggered for _, event in self._progress_waiters):
            return True
        inflight = self._inflight
        if inflight is not None and any(
            firing[2] and not firing[1].triggered for firing in inflight.firings
        ):
            return True
        return bool(self._sealed_event.callbacks) and not self._sealed_event.triggered

    def wait_for_blocks(self, count: int) -> Event:
        """An event that fires once at least ``count`` blocks are present."""
        event = Event(self.sim)
        ready = self.blocks_ready
        if ready >= count:
            event.succeed(ready)
            return event
        inflight = self._inflight
        if inflight is not None and count <= inflight.base + inflight.limit:
            # The block is scheduled to arrive at a known instant: fire the
            # waiter then, exactly when the per-block mark would have.
            inflight.schedule_waiter(count, event)
        else:
            self._progress_waiters.append((count, event))
        return event

    def wait_sealed(self) -> Event:
        """An event that fires once the object is complete."""
        event = Event(self.sim)
        if self.sealed:
            event.succeed(self)
        else:
            self._sealed_event.add_callback(lambda ev: event.succeed(self))
        return event

    def to_value(self) -> ObjectValue:
        return ObjectValue(size=self.size, payload=self.payload, metadata=dict(self.metadata))

    def __repr__(self) -> str:
        state = "complete" if self.sealed else f"{self.blocks_ready}/{self.num_blocks}"
        return f"<StoredObject {self.object_id} {state}>"


class LocalObjectStore:
    """The object store that runs on one node."""

    def __init__(
        self,
        node: Node,
        config: NetworkConfig,
        capacity_bytes: Optional[int] = None,
    ):
        self.node = node
        self.sim = node.sim
        self.config = config
        self.capacity_bytes = capacity_bytes
        self.objects: dict[ObjectID, StoredObject] = {}
        self.bytes_stored = 0
        self.evictions = 0
        node.on_failure(self._on_node_failure)

    # -- basic queries --------------------------------------------------------
    def __contains__(self, object_id: ObjectID) -> bool:
        return object_id in self.objects

    def __len__(self) -> int:
        return len(self.objects)

    def contains_complete(self, object_id: ObjectID) -> bool:
        entry = self.objects.get(object_id)
        return entry is not None and entry.sealed

    def get_entry(self, object_id: ObjectID) -> StoredObject:
        entry = self.objects.get(object_id)
        if entry is None:
            raise ObjectNotFoundError(str(object_id))
        entry.last_access = self.sim.now
        return entry

    def try_get_entry(self, object_id: ObjectID) -> Optional[StoredObject]:
        entry = self.objects.get(object_id)
        if entry is not None:
            entry.last_access = self.sim.now
        return entry

    # -- creation / mutation ---------------------------------------------------
    def create(
        self,
        object_id: ObjectID,
        size: int,
        pin: bool = False,
    ) -> StoredObject:
        """Allocate space for an (initially empty) object copy."""
        if object_id in self.objects:
            raise ObjectAlreadyExistsError(str(object_id))
        num_blocks = self.config.num_blocks(size)
        self._make_room(size)
        entry = StoredObject(self.sim, object_id, size, num_blocks, pinned=pin)
        self.objects[object_id] = entry
        self.bytes_stored += size
        return entry

    def create_or_get(self, object_id: ObjectID, size: int, pin: bool = False) -> StoredObject:
        entry = self.objects.get(object_id)
        if entry is not None:
            entry.pinned = entry.pinned or pin
            return entry
        return self.create(object_id, size, pin=pin)

    def put_complete(
        self,
        object_id: ObjectID,
        value: ObjectValue,
        pin: bool = True,
    ) -> StoredObject:
        """Insert a complete object in one shot (no simulated copy time)."""
        entry = self.create(object_id, value.size, pin=pin)
        entry.metadata.update(value.metadata)
        entry.seal(value.payload)
        return entry

    def delete(self, object_id: ObjectID) -> None:
        entry = self.objects.pop(object_id, None)
        if entry is not None:
            self.bytes_stored -= entry.size

    def pin(self, object_id: ObjectID) -> None:
        self.get_entry(object_id).pinned = True

    # -- eviction ---------------------------------------------------------------
    def _make_room(self, incoming_bytes: int) -> None:
        if self.capacity_bytes is None:
            return
        if incoming_bytes > self.capacity_bytes:
            raise MemoryError(
                f"object of {incoming_bytes} bytes exceeds store capacity "
                f"{self.capacity_bytes}"
            )
        while self.bytes_stored + incoming_bytes > self.capacity_bytes:
            victim = self._pick_eviction_victim()
            if victim is None:
                raise MemoryError(
                    "object store is full and nothing is evictable "
                    f"({self.bytes_stored} bytes stored, "
                    f"{incoming_bytes} incoming, capacity {self.capacity_bytes})"
                )
            self.delete(victim.object_id)
            self.evictions += 1

    def _pick_eviction_victim(self) -> Optional[StoredObject]:
        """LRU over unpinned, unreferenced copies.

        Sealed copies go first (they can always be re-fetched through the
        directory).  A *partial* copy is evictable only while nothing waits
        on its progress: evicting a copy with pending ``_progress_waiters``
        would wedge the transfers streaming out of it.
        """
        sealed: list[StoredObject] = []
        idle_partials: list[StoredObject] = []
        for entry in self.objects.values():
            if entry.pinned or entry.ref_count != 0:
                continue
            if entry.sealed:
                sealed.append(entry)
            elif not entry.has_waiters:
                idle_partials.append(entry)
        pool = sealed or idle_partials
        if not pool:
            return None
        return min(pool, key=lambda entry: entry.last_access)

    # -- failure handling ---------------------------------------------------------
    def _on_node_failure(self, node: Node) -> None:
        """A failed node loses its volatile store contents."""
        self.objects.clear()
        self.bytes_stored = 0
