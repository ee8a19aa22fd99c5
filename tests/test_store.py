"""Tests for the per-node local object store."""

import numpy as np
import pytest

from repro.net import Cluster, NetworkConfig
from repro.store import (
    LocalObjectStore,
    ObjectAlreadyExistsError,
    ObjectID,
    ObjectNotFoundError,
    ObjectValue,
)

MB = 1024 * 1024


@pytest.fixture()
def store():
    cluster = Cluster(num_nodes=1, network=NetworkConfig(block_size=MB))
    return LocalObjectStore(cluster.node(0), cluster.config), cluster


def test_create_and_progress_tracking(store):
    local, cluster = store
    object_id = ObjectID.of("x")
    entry = local.create(object_id, 3 * MB)
    assert entry.num_blocks == 3
    assert not entry.complete
    assert entry.blocks_ready / entry.num_blocks == 0.0

    entry.mark_block_ready(0)
    assert entry.blocks_ready == 1
    entry.mark_block_ready(2)
    assert entry.blocks_ready == 3  # progress is monotone by highest block
    entry.seal(payload=np.ones(3))
    assert entry.complete
    assert entry.blocks_ready / entry.num_blocks == 1.0
    assert local.contains_complete(object_id)
    with pytest.raises(IndexError):
        entry.mark_block_ready(5)


def test_create_duplicate_rejected_and_create_or_get(store):
    local, _ = store
    object_id = ObjectID.of("dup")
    local.create(object_id, MB)
    with pytest.raises(ObjectAlreadyExistsError):
        local.create(object_id, MB)
    again = local.create_or_get(object_id, MB, pin=True)
    assert again.pinned


def test_get_entry_missing_raises(store):
    local, _ = store
    with pytest.raises(ObjectNotFoundError):
        local.get_entry(ObjectID.of("missing"))
    assert local.try_get_entry(ObjectID.of("missing")) is None


def test_put_complete_and_delete(store):
    local, _ = store
    object_id = ObjectID.of("whole")
    value = ObjectValue.from_array(np.arange(5), logical_size=2 * MB)
    entry = local.put_complete(object_id, value)
    assert entry.complete and entry.pinned
    assert local.bytes_stored == 2 * MB
    local.delete(object_id)
    assert object_id not in local
    assert local.bytes_stored == 0
    local.delete(object_id)  # idempotent


def test_wait_for_blocks_and_sealed_events(store):
    local, cluster = store
    sim = cluster.sim
    object_id = ObjectID.of("stream")
    entry = local.create(object_id, 2 * MB)
    observations = []

    def consumer(sim):
        yield entry.wait_for_blocks(1)
        observations.append(("block-1", sim.now))
        yield entry.wait_sealed()
        observations.append(("sealed", sim.now))

    def producer(sim):
        yield sim.timeout(1.0)
        entry.mark_block_ready(0)
        yield sim.timeout(1.0)
        entry.mark_block_ready(1)
        entry.seal()

    sim.process(consumer(sim))
    sim.process(producer(sim))
    cluster.run()
    assert observations == [("block-1", 1.0), ("sealed", 2.0)]
    # Waiting on an already-satisfied threshold fires immediately.
    assert entry.wait_for_blocks(1).triggered
    assert entry.wait_sealed().triggered


def test_reset_progress_only_for_unsealed(store):
    local, _ = store
    entry = local.create(ObjectID.of("p"), 2 * MB)
    entry.mark_block_ready(0)
    entry.reset_progress()
    assert entry.blocks_ready == 0
    entry.seal()
    with pytest.raises(ValueError):
        entry.reset_progress()


def test_pin_unpin_and_eviction_order():
    cluster = Cluster(num_nodes=1, network=NetworkConfig(block_size=MB))
    local = LocalObjectStore(cluster.node(0), cluster.config, capacity_bytes=3 * MB)
    sim = cluster.sim

    pinned_id = ObjectID.of("pinned")
    local.put_complete(pinned_id, ObjectValue.of_size(MB), pin=True)
    old_id = ObjectID.of("old")
    local.put_complete(old_id, ObjectValue.of_size(MB), pin=False)
    sim._now = 10.0  # make subsequent accesses clearly newer
    new_id = ObjectID.of("new")
    local.put_complete(new_id, ObjectValue.of_size(MB), pin=False)

    # Inserting one more MB must evict the least recently used unpinned copy.
    local.put_complete(ObjectID.of("incoming"), ObjectValue.of_size(MB), pin=False)
    assert old_id not in local
    assert pinned_id in local and new_id in local
    assert local.evictions == 1


def test_eviction_failure_when_everything_pinned():
    cluster = Cluster(num_nodes=1, network=NetworkConfig(block_size=MB))
    local = LocalObjectStore(cluster.node(0), cluster.config, capacity_bytes=2 * MB)
    local.put_complete(ObjectID.of("a"), ObjectValue.of_size(MB), pin=True)
    local.put_complete(ObjectID.of("b"), ObjectValue.of_size(MB), pin=True)
    with pytest.raises(MemoryError):
        local.create(ObjectID.of("c"), MB)
    with pytest.raises(MemoryError):
        local.create(ObjectID.of("huge"), 10 * MB)


def test_pin_api(store):
    local, _ = store
    object_id = ObjectID.of("x")
    local.put_complete(object_id, ObjectValue.of_size(MB), pin=False)
    local.pin(object_id)
    assert local.get_entry(object_id).pinned


def test_eviction_prefers_sealed_over_idle_partial():
    cluster = Cluster(num_nodes=1, network=NetworkConfig(block_size=MB))
    local = LocalObjectStore(cluster.node(0), cluster.config, capacity_bytes=2 * MB)
    partial = local.create(ObjectID.of("partial"), MB)
    partial.mark_block_ready(0)  # still unsealed
    cluster.sim._now = 5.0
    local.put_complete(ObjectID.of("sealed"), ObjectValue.of_size(MB), pin=False)
    # The sealed copy is evicted even though the partial is older (LRU).
    local.put_complete(ObjectID.of("incoming"), ObjectValue.of_size(MB), pin=False)
    assert ObjectID.of("sealed") not in local
    assert ObjectID.of("partial") in local


def test_idle_unpinned_partial_is_evictable():
    cluster = Cluster(num_nodes=1, network=NetworkConfig(block_size=MB))
    local = LocalObjectStore(cluster.node(0), cluster.config, capacity_bytes=2 * MB)
    partial = local.create(ObjectID.of("partial"), MB)
    partial.mark_block_ready(0)
    local.put_complete(ObjectID.of("pinned"), ObjectValue.of_size(MB), pin=True)
    local.put_complete(ObjectID.of("incoming"), ObjectValue.of_size(MB), pin=False)
    assert ObjectID.of("partial") not in local
    assert local.evictions == 1


def test_partial_with_progress_waiters_is_not_evicted():
    """Evicting a partial someone streams from would wedge its waiters."""
    cluster = Cluster(num_nodes=1, network=NetworkConfig(block_size=MB))
    local = LocalObjectStore(cluster.node(0), cluster.config, capacity_bytes=3 * MB)
    sim = cluster.sim

    hot = local.create(ObjectID.of("hot-partial"), 2 * MB)
    hot.mark_block_ready(0)
    observed = []

    def consumer():
        yield hot.wait_for_blocks(2)
        observed.append(sim.now)

    sim.process(consumer())
    cluster.run()  # park the consumer on the progress waiter
    assert hot.has_waiters

    # The store is full of a waited-on partial: inserting more must fail
    # loudly rather than silently evicting it and wedging the consumer.
    with pytest.raises(MemoryError):
        local.create(ObjectID.of("incoming"), 2 * MB)
    assert ObjectID.of("hot-partial") in local

    # Once the partial completes, the waiter fires and (sealed, unpinned)
    # the copy becomes an ordinary eviction candidate.
    hot.mark_block_ready(1)
    hot.seal()
    cluster.run()
    assert observed and not hot.has_waiters
    local.create(ObjectID.of("incoming"), 2 * MB)
    assert ObjectID.of("hot-partial") not in local


def test_inflight_fetch_partial_is_not_evicted():
    """A receive partial being written by a fetch is referenced, not idle.

    Progress waiters live on the *source* entry during a fetch, so without
    the fetch holding a reference the destination partial would look
    evictable and the fetch would keep writing into a detached object.
    """
    from repro.core import HopliteRuntime

    cluster = Cluster(
        num_nodes=2, network=NetworkConfig(bandwidth=1.25e7, block_size=MB)
    )
    runtime = HopliteRuntime(cluster, store_capacity_bytes=4 * MB)
    sim = cluster.sim
    object_id = ObjectID.of("big")

    def producer():
        yield from runtime.client(0).put(object_id, ObjectValue.of_size(4 * MB))

    def consumer():
        yield from runtime.client(1).get(object_id)

    checked = {}

    def saboteur():
        yield sim.timeout(0.2)  # mid-fetch: ~0.33 s total at 12.5 MB/s
        store = runtime.store(1)
        entry = store.try_get_entry(object_id)
        assert entry is not None and not entry.sealed
        assert entry.ref_count > 0
        with pytest.raises(MemoryError):
            store.create(ObjectID.of("pressure"), 4 * MB)
        checked["done"] = True

    sim.process(producer())
    sim.process(consumer())
    sim.process(saboteur())
    cluster.run(until=30.0)
    assert checked.get("done")
    assert runtime.store(1).contains_complete(object_id)


def test_sealed_waiter_blocks_eviction_until_sealed():
    cluster = Cluster(num_nodes=1, network=NetworkConfig(block_size=MB))
    local = LocalObjectStore(cluster.node(0), cluster.config, capacity_bytes=MB)
    entry = local.create(ObjectID.of("x"), MB)
    entry.wait_sealed()
    assert entry.has_waiters
    with pytest.raises(MemoryError):
        local.create(ObjectID.of("y"), MB)


def test_node_failure_clears_store(store):
    local, cluster = store
    local.put_complete(ObjectID.of("x"), ObjectValue.of_size(MB))
    assert len(local) == 1
    cluster.node(0).fail()
    assert len(local) == 0
    assert local.bytes_stored == 0


def test_to_value_roundtrip(store):
    local, _ = store
    payload = np.arange(3, dtype=np.float64)
    object_id = ObjectID.of("val")
    local.put_complete(object_id, ObjectValue.from_array(payload, logical_size=MB))
    value = local.get_entry(object_id).to_value()
    assert value.size == MB
    assert np.allclose(value.as_array(), payload)
