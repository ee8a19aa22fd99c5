"""Receiver-driven broadcast: the data path behind ``Get`` (Section 3.4.1).

There is no explicit broadcast primitive in Hoplite.  A broadcast simply
happens when many receivers ``Get`` the same object: each receiver asks the
directory for a source, the directory hands out each copy to at most one
receiver at a time, and receivers that hold partial copies immediately
become eligible sources themselves.  The effect is a broadcast tree that
grows on the fly in receiver-arrival order.

Failure handling follows Section 3.5.1: when a source dies mid-transfer the
receiver keeps the blocks it already has, re-queries the directory excluding
sources whose fetch chain depends on the receiver itself (cycle avoidance),
and resumes from the first missing block.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.net.coalesce import nic_path_links, register_stream, unregister_stream
from repro.net.errors import _check_alive, race_failure
from repro.net.flowsched import Flow, FlowClass
from repro.net.node import Node
from repro.net.transport import TransferError, stream_blocks, transfer_bytes
from repro.store.object_store import StoredObject
from repro.store.objects import ObjectID

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import HopliteRuntime


def fetch_object(
    runtime: "HopliteRuntime",
    node: Node,
    object_id: ObjectID,
    flow: Optional[Flow] = None,
) -> Generator:
    """Fetch ``object_id`` into ``node``'s local store.

    Returns the local :class:`StoredObject` once it is complete.  This is the
    receiver side of Hoplite's broadcast; it is driven from a simulation
    process (usually :meth:`HopliteClient.get`).  ``flow`` tags the fetch's
    transfers for admission priority and per-flow bandwidth accounting; the
    default is a bulk-class flow named after the object and receiver.
    """
    if flow is None:
        flow = Flow(f"get:{object_id}->n{node.node_id}", FlowClass.BULK)
    store = runtime.store(node)
    directory = runtime.directory

    existing = store.try_get_entry(object_id)
    if existing is not None:
        # The object is already present locally, or is being produced locally
        # right now (e.g. a local Put or reduce output still copying in).
        # Waiting for it is always cheaper than fetching a remote copy.
        if not existing.sealed:
            yield existing.wait_sealed()
        return existing

    # Block until the object exists somewhere and its size is known.
    yield from directory.wait_for_object(node, object_id)
    # The node may have died while the fetch was parked: fail here rather
    # than create a partial entry nobody will ever write.
    _check_alive(node)
    size = directory.known_size(object_id)
    if size is None:  # pragma: no cover - defensive; wait_for_object guarantees it
        raise TransferError(f"object {object_id} has no known size")

    entry = store.create_or_get(object_id, size)
    if entry.sealed:
        return entry

    # Hold a reference while the fetch writes into the partial: progress
    # waiters are registered on the *source* entry, so without this the
    # in-flight destination copy would look idle to the eviction policy.
    entry.ref_count += 1
    try:
        if runtime.options.enable_dynamic_broadcast:
            yield from _fetch_dynamic(runtime, node, object_id, entry, flow)
        else:
            yield from _fetch_from_origin(runtime, node, object_id, entry, flow)
    finally:
        entry.ref_count -= 1
    return entry


def _fetch_dynamic(
    runtime: "HopliteRuntime",
    node: Node,
    object_id: ObjectID,
    entry: StoredObject,
    flow: Flow,
) -> Generator:
    """The full receiver-driven protocol with partial sources and recovery."""
    directory = runtime.directory
    #: node_id -> incarnation at the time the source failed us.  A node that
    #: recovers (and re-publishes the object) gets a fresh incarnation and
    #: becomes eligible again, so a repaired cluster never wedges on a stale
    #: exclusion set; the directory re-evaluates this map on every wake-up.
    excluded: dict[int, int] = {}
    while not entry.sealed:
        source = yield from directory.acquire_transfer_source(node, object_id, excluded)
        source_node = runtime.node(source.node_id)
        succeeded = False
        try:
            yield from _pull_blocks(runtime, source_node, node, object_id, entry, flow)
            succeeded = True
        except TransferError:
            # The source died (or lost the object).  Keep our partial blocks,
            # exclude the dead source, and look for another one.
            excluded[source.node_id] = source_node.incarnation
        if succeeded:
            source_entry = runtime.store(source_node).try_get_entry(object_id)
            payload = source_entry.payload if source_entry is not None else None
            metadata = dict(source_entry.metadata) if source_entry is not None else {}
            entry.metadata.update(metadata)
            entry.seal(payload)
        yield from directory.release_transfer_source(node, object_id, source, succeeded)


def _fetch_from_origin(
    runtime: "HopliteRuntime",
    node: Node,
    object_id: ObjectID,
    entry: StoredObject,
    flow: Flow,
) -> Generator:
    """Ablation path: always pull from a complete copy (no relay through receivers).

    This reproduces the behaviour the paper attributes to existing task
    systems: every receiver contends for the origin's uplink.
    """
    directory = runtime.directory
    config = runtime.config
    while not entry.sealed:
        record = yield from directory.wait_for_object(node, object_id)
        complete_sources = [
            info
            for info in record.locations.values()
            if info.complete
            and info.node_id != node.node_id
            and runtime.node(info.node_id).alive
        ]
        if not complete_sources:
            # No complete copy yet: wait for one to appear.
            yield runtime.sim.timeout(config.rpc_latency)
            continue
        source_node = runtime.node(complete_sources[0].node_id)
        try:
            source_entry = runtime.store(source_node).get_entry(object_id)
            source_entry.ref_count += 1
            try:
                yield source_entry.wait_sealed()
                yield from transfer_bytes(config, source_node, node, entry.size, flow)
            finally:
                source_entry.ref_count -= 1
            entry.metadata.update(source_entry.metadata)
            entry.seal(source_entry.payload)
            yield from directory.publish_complete(node, object_id, entry.size)
        except (TransferError, KeyError):
            yield runtime.sim.timeout(config.failure_detection_delay)


def _pull_blocks(
    runtime: "HopliteRuntime",
    source_node: Node,
    dest_node: Node,
    object_id: ObjectID,
    entry: StoredObject,
    flow: Flow,
) -> Generator:
    """Stream the missing blocks of ``entry`` from ``source_node``.

    With pipelining enabled a block is pulled as soon as the source holds it,
    even if the source copy is still incomplete.  Without pipelining the
    source must be complete first.
    """
    source_entry = runtime.store(source_node).try_get_entry(object_id)
    if source_entry is None:
        raise TransferError(
            f"source node {source_node.node_id} no longer holds {object_id}",
            node=source_node,
        )

    # Reference the serving copy: a capacity-limited source store must not
    # evict it mid-stream (the receiver would silently lose the payload).
    source_entry.ref_count += 1
    links = nic_path_links(source_node, dest_node)
    register_stream(links)
    try:
        if not runtime.options.enable_pipelining:
            yield from race_failure(source_entry.wait_sealed(), (source_node,))
            _check_alive(source_node)
        yield from stream_blocks(
            runtime.config,
            source_node,
            dest_node,
            links,
            entry.size,
            flow,
            entry=entry,
            source=source_entry,
            watch=(source_node,),
        )
    finally:
        unregister_stream(links)
        source_entry.ref_count -= 1
