"""Tests for the sharded object directory service."""

import pytest

from repro.directory import ObjectDirectory
from repro.net import Cluster, NetworkConfig
from repro.store import ObjectID, ObjectValue

MB = 1024 * 1024


@pytest.fixture()
def setup():
    cluster = Cluster(num_nodes=4, network=NetworkConfig())
    directory = ObjectDirectory(cluster)
    return cluster, directory


def drive(cluster, generator):
    process = cluster.sim.process(generator)
    cluster.run()
    assert process.ok, process.value
    return process.value


def test_publish_partial_then_complete(setup):
    cluster, directory = setup
    object_id = ObjectID.of("x")
    node = cluster.node(1)

    def scenario():
        yield from directory.publish_partial(node, object_id, 8 * MB)
        locations = directory.locations_of(object_id)
        assert locations[1].complete is False
        yield from directory.publish_complete(node, object_id, 8 * MB)
        locations = directory.locations_of(object_id)
        assert locations[1].complete is True
        return directory.known_size(object_id)

    assert drive(cluster, scenario()) == 8 * MB


def test_publish_partial_never_downgrades_complete(setup):
    cluster, directory = setup
    object_id = ObjectID.of("x")
    node = cluster.node(0)

    def scenario():
        yield from directory.publish_complete(node, object_id, MB)
        yield from directory.publish_partial(node, object_id, MB)
        return directory.locations_of(object_id)[0].complete

    assert drive(cluster, scenario()) is True


def test_lookup_costs_one_rpc(setup):
    cluster, directory = setup
    object_id = ObjectID.of("timed")
    node = cluster.node(1)
    reader = cluster.node(2)

    def scenario():
        yield from directory.publish_complete(node, object_id, MB)
        start = cluster.sim.now
        yield from directory.wait_for_object(reader, object_id)
        return cluster.sim.now - start

    elapsed = drive(cluster, scenario())
    assert 0 < elapsed <= 2 * cluster.config.rpc_latency


def test_wait_for_object_blocks_until_created(setup):
    cluster, directory = setup
    object_id = ObjectID.of("later")
    times = {}

    def reader():
        yield from directory.wait_for_object(cluster.node(2), object_id)
        times["seen"] = cluster.sim.now

    def writer():
        yield cluster.sim.timeout(3.0)
        yield from directory.publish_complete(cluster.node(1), object_id, MB)

    cluster.sim.process(reader())
    cluster.sim.process(writer())
    cluster.run()
    assert times["seen"] >= 3.0


def _created(directory, object_id) -> bool:
    record = directory.peek_record(object_id)
    return record is not None and (bool(record.locations) or record.inline_value is not None)


def test_creation_event_fires_once_the_object_exists(setup):
    cluster, directory = setup
    object_id = ObjectID.of("c")
    assert not _created(directory, object_id)
    event = directory.creation_event(object_id)
    assert not event.triggered

    def writer():
        yield from directory.publish_partial(cluster.node(0), object_id, MB)

    drive(cluster, writer())
    assert _created(directory, object_id)
    assert event.triggered
    assert directory.creation_event(object_id).triggered


def test_inline_cache_roundtrip(setup):
    cluster, directory = setup
    object_id = ObjectID.of("small")
    value = ObjectValue.from_bytes(b"tiny-object")

    def scenario():
        missing = yield from directory.try_get_inline(cluster.node(2), object_id)
        assert missing is None
        yield from directory.put_inline(cluster.node(0), object_id, value)
        cached = yield from directory.try_get_inline(cluster.node(2), object_id)
        return cached

    cached = drive(cluster, scenario())
    assert cached is value
    assert directory.known_size(object_id) == value.size


def test_acquire_prefers_complete_and_bounds_fanout(setup):
    """A complete copy is preferred, and an acquired copy leaves the table."""
    cluster, directory = setup
    object_id = ObjectID.of("x")

    def scenario():
        yield from directory.publish_complete(cluster.node(0), object_id, MB)
        yield from directory.publish_partial(cluster.node(1), object_id, MB)
        first = yield from directory.acquire_transfer_source(cluster.node(2), object_id)
        assert first.node_id == 0 and first.complete
        # Node 0 is now checked out; the next receiver must use a partial
        # copy — either the published one (node 1) or the first receiver's
        # in-flight partial (node 2); the seeded tie-break picks among them.
        second = yield from directory.acquire_transfer_source(cluster.node(3), object_id)
        assert second.node_id in (1, 2) and not second.complete
        # Release node 0; requester 2 becomes a complete location.
        yield from directory.release_transfer_source(cluster.node(2), object_id, first, True)
        locations = directory.locations_of(object_id)
        assert locations[0].complete and locations[2].complete
        return True

    assert drive(cluster, scenario())


def test_acquire_serves_in_flight_partial_copy(setup):
    """A later receiver is handed the partial copy of an in-flight receiver (Figure 4b)."""
    cluster, directory = setup
    object_id = ObjectID.of("x")
    times = {}

    def scenario():
        yield from directory.publish_complete(cluster.node(0), object_id, MB)
        yield from directory.acquire_transfer_source(cluster.node(1), object_id)

        def late_receiver():
            source = yield from directory.acquire_transfer_source(cluster.node(2), object_id)
            times["acquired"] = (cluster.sim.now, source.node_id, source.complete)

        cluster.sim.process(late_receiver())
        yield cluster.sim.timeout(1.0)

    drive(cluster, scenario())
    _, source_node, complete = times["acquired"]
    assert source_node == 1
    assert complete is False


def test_acquire_blocks_until_source_released(setup):
    """With every other copy excluded, a receiver waits for the checkout to return."""
    cluster, directory = setup
    object_id = ObjectID.of("x")
    times = {}

    def scenario():
        yield from directory.publish_complete(cluster.node(0), object_id, MB)
        first = yield from directory.acquire_transfer_source(cluster.node(1), object_id)

        def late_receiver():
            # Exclude node 1 (e.g. it previously failed a transfer to us), so
            # the only possible source is node 0, which is checked out.
            source = yield from directory.acquire_transfer_source(
                cluster.node(2), object_id, exclude=(1,)
            )
            times["acquired"] = (cluster.sim.now, source.node_id)

        cluster.sim.process(late_receiver())
        yield cluster.sim.timeout(5.0)
        yield from directory.release_transfer_source(cluster.node(1), object_id, first, True)

    drive(cluster, scenario())
    when, source_node = times["acquired"]
    assert when >= 5.0
    assert source_node == 0


@pytest.mark.parametrize(
    "as_iterable",
    [list, iter, lambda ids: (node_id for node_id in ids)],
    ids=["list", "iterator", "generator"],
)
def test_acquire_reads_an_iterator_exclude_for_every_candidate(setup, as_iterable):
    """An exclude given as an iterator rules out every node it names, not
    just the first candidate checked against it."""
    cluster, directory = setup
    object_id = ObjectID.of("x")

    def scenario():
        for node_id in (0, 1, 2):
            yield from directory.publish_complete(cluster.node(node_id), object_id, MB)
        source = yield from directory.acquire_transfer_source(
            cluster.node(3), object_id, exclude=as_iterable([0, 1])
        )
        return source.node_id

    assert drive(cluster, scenario()) == 2


def test_cycle_avoidance_excludes_dependent_sources(setup):
    """A receiver never fetches from a node whose copy depends on the receiver itself."""
    cluster, directory = setup
    object_id = ObjectID.of("x")

    def scenario():
        yield from directory.publish_complete(cluster.node(0), object_id, MB)
        # Node 1 fetches from node 0 (node 0 checked out, node 1 partial w/ upstream 0).
        first = yield from directory.acquire_transfer_source(cluster.node(1), object_id)
        assert first.node_id == 0
        # Node 2 fetches; only node 1 (partial) is available -> upstream chain 2 -> 1 -> 0.
        second = yield from directory.acquire_transfer_source(cluster.node(2), object_id)
        assert second.node_id == 1
        # If node 1's fetch now has to fail over, it must NOT pick node 2,
        # whose data transitively depends on node 1.
        sources = directory._eligible_sources(
            directory.peek_record(object_id), requester_id=1, exclude=()
        )
        assert all(info.node_id != 2 for info in sources)
        return True

    assert drive(cluster, scenario())


def test_failed_node_locations_are_purged_and_checkout_restored(setup):
    cluster, directory = setup
    object_id = ObjectID.of("x")

    def scenario():
        yield from directory.publish_complete(cluster.node(0), object_id, MB)
        yield from directory.publish_complete(cluster.node(1), object_id, MB)
        # Node 2 checks out node 0 and then dies before releasing it.
        yield from directory.acquire_transfer_source(cluster.node(2), object_id)
        return True

    drive(cluster, scenario())
    cluster.node(2).fail()
    locations = directory.locations_of(object_id)
    assert 2 not in locations
    # The checked-out source (node 0) is restored so others can still fetch.
    assert 0 in locations and 1 in locations

    cluster.node(1).fail()
    assert 1 not in directory.locations_of(object_id)


def test_delete_object_clears_everything(setup):
    cluster, directory = setup
    object_id = ObjectID.of("x")

    def scenario():
        yield from directory.put_inline(cluster.node(0), object_id, ObjectValue.from_bytes(b"v"))
        yield from directory.publish_complete(cluster.node(0), object_id, MB)
        yield from directory.delete_object(cluster.node(0), object_id)
        return directory.locations_of(object_id), directory.peek_record(object_id).inline_value

    locations, inline = drive(cluster, scenario())
    assert locations == {}
    assert inline is None


def test_remove_location(setup):
    cluster, directory = setup
    object_id = ObjectID.of("x")

    def scenario():
        yield from directory.publish_complete(cluster.node(0), object_id, MB)
        yield from directory.remove_location(cluster.node(0), object_id, 0)
        return directory.locations_of(object_id)

    assert drive(cluster, scenario()) == {}


def _shard_node(directory, object_id):
    """The node that hosts ``object_id``'s directory shard."""
    return directory.shards[directory._shard_index(object_id)].node


def test_shard_placement_is_deterministic(setup):
    cluster, directory = setup
    object_id = ObjectID.of("stable-key")
    assert _shard_node(directory, object_id) is _shard_node(directory, ObjectID.of("stable-key"))


def _source_order(seed, key):
    """Eligible-source order for one object with three equally loaded copies."""
    cluster = Cluster(num_nodes=8, network=NetworkConfig())
    directory = ObjectDirectory(cluster, selection_seed=seed)
    object_id = ObjectID.of(key)

    def scenario():
        for node_id in range(1, 8):
            yield from directory.publish_complete(cluster.node(node_id), object_id, MB)

    drive(cluster, scenario())
    record = directory.peek_record(object_id)
    sources = directory._eligible_sources(record, requester_id=0, exclude=())
    return [info.node_id for info in sources]


def test_source_selection_tie_break_is_seeded_and_deterministic():
    """Equal-load ties break by a seeded hash: reproducible per seed, not
    biased to low node ids, and re-seedable for schedule variation."""
    # Byte-for-byte reproducible under the same seed.
    for seed in (0, 1, 7):
        assert _source_order(seed, "tie") == _source_order(seed, "tie")
    # Different seeds actually reshuffle ties for at least one object.
    keys = [f"tie-{i}" for i in range(4)]
    assert any(_source_order(0, key) != _source_order(1, key) for key in keys)
    # The tie-break varies per object too (no global convoy order).
    orders = {tuple(_source_order(0, key)) for key in keys}
    assert len(orders) > 1


def test_source_selection_prefers_load_over_tie_break():
    cluster = Cluster(num_nodes=4, network=NetworkConfig())
    directory = ObjectDirectory(cluster, selection_seed=3)
    object_id = ObjectID.of("loaded")

    def scenario():
        for node_id in (1, 2, 3):
            yield from directory.publish_complete(cluster.node(node_id), object_id, MB)

    drive(cluster, scenario())
    # Occupy node 2's uplink: it must sort behind the idle sources no matter
    # what the seeded hash says.
    request = cluster.node(2).uplink.request()
    assert request.triggered
    record = directory.peek_record(object_id)
    sources = directory._eligible_sources(record, requester_id=0, exclude=())
    assert sources[-1].node_id == 2
    request.release()


def test_wake_fanout_counters_pin_the_rescan_cost(setup):
    """The wake/eligibility counters quantify the O(waiters x candidates)
    rescan ROADMAP item 3 names, so the future batched-wake fix has a
    measurable before/after (these are always-on deterministic counters,
    like lookup_count/publish_count)."""
    cluster, directory = setup
    object_id = ObjectID.of("watched")

    assert directory.notify_calls == 0
    assert directory.waiter_wakes == 0
    assert directory.eligibility_scans == 0
    assert directory.eligibility_candidates == 0

    def waiter(node_id):
        yield from directory.wait_for_object(cluster.node(node_id), object_id)
        return node_id

    def publisher():
        yield cluster.sim.timeout(0.001)
        yield from directory.publish_complete(cluster.node(0), object_id, MB)

    waiters = [cluster.sim.process(waiter(n)) for n in (1, 2, 3)]
    cluster.sim.process(publisher())
    cluster.run()
    assert all(process.ok for process in waiters)

    # The publish notified the shard's waiter list once and woke all three.
    assert directory.notify_calls >= 1
    assert directory.waiter_wakes >= 3

    # An acquire scans the candidate location table exactly once here.
    scans_before = directory.eligibility_scans
    candidates_before = directory.eligibility_candidates

    def acquire():
        source = yield from directory.acquire_transfer_source(
            cluster.node(2), object_id
        )
        return source

    source = drive(cluster, acquire())
    assert source.node_id == 0
    assert directory.eligibility_scans == scans_before + 1
    # One complete location existed when the scan ran.
    assert directory.eligibility_candidates >= candidates_before + 1
