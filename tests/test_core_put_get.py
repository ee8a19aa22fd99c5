"""Tests for the Hoplite client API: Put, Get, Delete, and the small-object path."""

import numpy as np

from repro.core import HopliteOptions, HopliteRuntime, ObjectID, ObjectValue
from repro.net import Cluster, NetworkConfig

MB = 1024 * 1024
KB = 1024


def make_runtime(num_nodes=4, options=None, **config_overrides):
    cluster = Cluster(num_nodes=num_nodes, network=NetworkConfig(**config_overrides))
    return cluster, HopliteRuntime(cluster, options=options)


def run(cluster, generator):
    process = cluster.sim.process(generator)
    cluster.run()
    assert process.ok, process.value
    return process.value


def test_put_then_local_get_returns_payload():
    cluster, runtime = make_runtime()
    payload = np.arange(16, dtype=np.float64)
    object_id = ObjectID.of("x")

    def scenario():
        client = runtime.client(0)
        yield from client.put(object_id, ObjectValue.from_array(payload, logical_size=8 * MB))
        value = yield from client.get(object_id)
        return value

    value = run(cluster, scenario())
    assert np.allclose(value.as_array(), payload)
    assert value.size == 8 * MB


def test_remote_get_transfers_and_caches_locally():
    cluster, runtime = make_runtime()
    object_id = ObjectID.of("x")

    def scenario():
        yield from runtime.client(0).put(object_id, ObjectValue.of_size(32 * MB))
        first_start = cluster.sim.now
        yield from runtime.client(1).get(object_id)
        first_elapsed = cluster.sim.now - first_start
        second_start = cluster.sim.now
        yield from runtime.client(1).get(object_id)
        second_elapsed = cluster.sim.now - second_start
        return first_elapsed, second_elapsed

    first_elapsed, second_elapsed = run(cluster, scenario())
    # First fetch crosses the network; the second is served from the local store.
    assert first_elapsed > cluster.config.transmission_time(32 * MB) * 0.9
    assert second_elapsed < first_elapsed / 10


def test_get_blocks_until_object_exists():
    cluster, runtime = make_runtime()
    object_id = ObjectID.of("future")
    times = {}

    def consumer():
        value = yield from runtime.client(1).get(object_id)
        times["got"] = cluster.sim.now
        return value

    def producer():
        yield cluster.sim.timeout(2.0)
        yield from runtime.client(0).put(object_id, ObjectValue.of_size(MB))

    cluster.sim.process(consumer())
    cluster.sim.process(producer())
    cluster.run()
    assert times["got"] > 2.0


def test_small_object_uses_directory_fast_path():
    cluster, runtime = make_runtime()
    payload = np.arange(8, dtype=np.int32)
    object_id = ObjectID.of("small")

    def scenario():
        yield from runtime.client(0).put(object_id, ObjectValue.from_array(payload))
        start = cluster.sim.now
        value = yield from runtime.client(3).get(object_id)
        return value, cluster.sim.now - start

    value, elapsed = run(cluster, scenario())
    assert np.allclose(value.as_array(), payload)
    # The fast path is a couple of control RPCs, far below a block transfer.
    assert elapsed < 5 * cluster.config.rpc_latency
    record = runtime.directory.peek_record(object_id)
    assert record is not None and record.inline_value is not None


def test_small_object_cache_can_be_disabled():
    cluster, runtime = make_runtime(options=HopliteOptions(enable_small_object_cache=False))
    object_id = ObjectID.of("small")

    def scenario():
        yield from runtime.client(0).put(object_id, ObjectValue.of_size(KB))
        yield from runtime.client(1).get(object_id)
        return runtime.directory.peek_record(object_id).inline_value

    assert run(cluster, scenario()) is None


def test_get_read_only_avoids_extra_copy():
    cluster, runtime = make_runtime()
    object_id = ObjectID.of("x")

    def scenario():
        yield from runtime.client(0).put(object_id, ObjectValue.of_size(64 * MB))
        start = cluster.sim.now
        yield from runtime.client(1).get(object_id, read_only=True)
        read_only_elapsed = cluster.sim.now - start
        object_id2 = ObjectID.of("y")
        yield from runtime.client(0).put(object_id2, ObjectValue.of_size(64 * MB))
        start = cluster.sim.now
        yield from runtime.client(2).get(object_id2, read_only=False)
        copy_elapsed = cluster.sim.now - start
        return read_only_elapsed, copy_elapsed

    read_only_elapsed, copy_elapsed = run(cluster, scenario())
    assert copy_elapsed > read_only_elapsed


def test_get_without_read_only_returns_an_independent_copy():
    """A writable get hands back its own array: mutating it leaves the
    store's copy alone.  Bytes and ``None`` payloads come back as they are.
    The small values take the directory's inline path on a remote get, the
    8 MB one a fetch into the remote store."""
    cluster, runtime = make_runtime()
    array = np.arange(8, dtype=np.float64)
    values = {
        "array": ObjectValue.from_array(array),
        "big_array": ObjectValue.from_array(array, logical_size=8 * MB),
        "bytes": ObjectValue.from_bytes(b"\x01\x02\x03"),
        "none": ObjectValue.of_size(KB),
    }

    def scenario():
        for key, value in values.items():
            yield from runtime.client(0).put(ObjectID.of(key), value)
        got = {}
        for key in values:
            for node in (0, 1):
                client = runtime.client(node)
                got[key, node] = yield from client.get(ObjectID.of(key), read_only=False)
        for key in ("array", "big_array"):
            for node in (0, 1):
                got[key, node].payload[:] = -1.0
                got[key, node] = yield from runtime.client(node).get(ObjectID.of(key))
        return got

    got = run(cluster, scenario())
    for node in (0, 1):
        assert np.array_equal(got["array", node].payload, np.arange(8.0))
        assert np.array_equal(got["big_array", node].payload, np.arange(8.0))
        assert got["bytes", node].payload == b"\x01\x02\x03"
        assert got["none", node].payload is None
        assert got["none", node].size == KB


def test_concurrent_gets_share_one_fetch():
    cluster, runtime = make_runtime()
    object_id = ObjectID.of("shared")

    def scenario():
        yield from runtime.client(0).put(object_id, ObjectValue.of_size(32 * MB))
        results = []

        def getter():
            yield from runtime.client(1).get(object_id)
            results.append(cluster.sim.now)

        first = cluster.sim.process(getter())
        second = cluster.sim.process(getter())
        yield cluster.sim.all_of([first, second])
        return results

    run(cluster, scenario())
    # Only one fetch crossed the network: exactly one complete location for
    # node 1 and the two getters finished at (nearly) the same time.
    locations = runtime.directory.locations_of(ObjectID.of("shared"))
    assert locations[1].complete


def test_delete_removes_all_copies():
    cluster, runtime = make_runtime()
    object_id = ObjectID.of("x")

    def scenario():
        yield from runtime.client(0).put(object_id, ObjectValue.of_size(MB))
        yield from runtime.client(1).get(object_id)
        yield from runtime.client(0).delete(object_id)
        return True

    run(cluster, scenario())
    assert object_id not in runtime.store(0)
    assert object_id not in runtime.store(1)
    record = runtime.directory.peek_record(object_id)
    assert record.deleted and not record.locations


def test_put_pipelining_publishes_location_before_copy_finishes():
    """With pipelining the Put's location is visible before the Put completes."""
    cluster, runtime = make_runtime()
    object_id = ObjectID.of("x")
    observed = {}

    def producer():
        yield from runtime.client(0).put(object_id, ObjectValue.of_size(256 * MB))
        observed["put_done"] = cluster.sim.now

    def watcher():
        yield runtime.directory.creation_event(object_id)
        observed["visible"] = cluster.sim.now

    cluster.sim.process(producer())
    cluster.sim.process(watcher())
    cluster.run()
    assert observed["visible"] < observed["put_done"]


def test_put_without_pipelining_publishes_only_when_complete():
    cluster, runtime = make_runtime(options=HopliteOptions(enable_pipelining=False))
    object_id = ObjectID.of("x")
    observed = {}

    def producer():
        yield from runtime.client(0).put(object_id, ObjectValue.of_size(256 * MB))
        observed["put_done"] = cluster.sim.now

    def watcher():
        yield runtime.directory.creation_event(object_id)
        observed["visible"] = cluster.sim.now

    cluster.sim.process(producer())
    cluster.sim.process(watcher())
    cluster.run()
    assert observed["visible"] >= observed["put_done"] - cluster.config.rpc_latency


def test_pipelining_reduces_end_to_end_latency():
    """Receiving while the Put is still copying beats waiting for it to finish."""
    nbytes = 512 * MB
    latencies = {}
    for label, options in (
        ("pipelined", HopliteOptions()),
        ("store_and_forward", HopliteOptions(enable_pipelining=False)),
    ):
        cluster, runtime = make_runtime(options=options)
        object_id = ObjectID.of("x")

        def scenario():
            def producer():
                yield from runtime.client(0).put(object_id, ObjectValue.of_size(nbytes))

            cluster.sim.process(producer())
            yield from runtime.client(1).get(object_id)
            return cluster.sim.now

        latencies[label] = run(cluster, scenario())
    assert latencies["pipelined"] < latencies["store_and_forward"]


def test_runtime_client_is_cached_and_store_accessors_work():
    cluster, runtime = make_runtime(num_nodes=2)
    assert runtime.client(0) is runtime.client(cluster.node(0))
    assert runtime.store(0) is runtime.store(cluster.node(0))
    assert runtime.manager(1).node.node_id == 1
    assert runtime.small_object(KB)
    assert not runtime.small_object(MB)
