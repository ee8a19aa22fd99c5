"""Tests for block transfers, contention, local copies, and failure behaviour."""

import pytest

from repro.directory import ObjectDirectory
from repro.net import (
    Cluster,
    NetworkConfig,
    NodeFailedError,
    TransferError,
    flowsched,
    transfer_bytes,
)
from repro.net.transport import local_copy, transfer_block
from repro.store import ObjectID

MB = 1024 * 1024


def make_cluster(num_nodes=3, **overrides):
    config = NetworkConfig(**overrides)
    return Cluster(num_nodes=num_nodes, network=config), config


def run_transfer(cluster, generator):
    process = cluster.sim.process(generator)
    cluster.run()
    assert process.ok, process.value
    return process.value


def test_single_block_transfer_time():
    cluster, config = make_cluster()
    src, dst = cluster.node(0), cluster.node(1)
    finish = run_transfer(cluster, transfer_block(config, src, dst, 4 * MB))
    expected = config.transmission_time(4 * MB) + config.latency
    assert finish == pytest.approx(expected)


def test_multi_block_transfer_time_scales_with_size():
    cluster, config = make_cluster()
    src, dst = cluster.node(0), cluster.node(1)
    nbytes = 64 * MB
    finish = run_transfer(cluster, transfer_bytes(config, src, dst, nbytes))
    serialization = config.transmission_time(nbytes)
    blocks = config.num_blocks(nbytes)
    assert finish == pytest.approx(serialization + blocks * config.latency, rel=1e-6)


def test_zero_byte_transfer_and_local_copy_are_both_free():
    """Remote and local zero-byte moves share one contract: immediate return.

    (The old model charged one propagation latency to ``transfer_bytes(0)``
    while ``local_copy(0)`` returned immediately — an asymmetry with no
    physical counterpart, since a zero-byte move sends nothing.)
    """
    cluster, config = make_cluster()
    finish = run_transfer(cluster, transfer_bytes(config, cluster.node(0), cluster.node(1), 0))
    assert finish == 0.0
    copy_finish = run_transfer(cluster, local_copy(config, cluster.node(0), 0))
    assert copy_finish == 0.0
    # Negative sizes take the same immediate path.
    negative = run_transfer(cluster, transfer_bytes(config, cluster.node(0), cluster.node(1), -1))
    assert negative == 0.0


def test_zero_byte_transfer_still_checks_liveness():
    cluster, config = make_cluster()
    cluster.node(1).fail()
    process = cluster.sim.process(
        transfer_bytes(config, cluster.node(0), cluster.node(1), 0)
    )
    cluster.run()
    assert not process.ok
    assert isinstance(process.value, NodeFailedError)
    process.defused = True


def test_sender_uplink_serializes_two_receivers():
    """Two receivers pulling from one sender share its uplink (the Ray bottleneck)."""
    cluster, config = make_cluster()
    sim = cluster.sim
    src = cluster.node(0)
    finishes = []

    def pull(dst_id):
        yield from transfer_bytes(config, src, cluster.node(dst_id), 32 * MB)
        finishes.append(sim.now)

    sim.process(pull(1))
    sim.process(pull(2))
    cluster.run()
    single = config.transmission_time(32 * MB)
    # The later of the two cannot beat 2x the serialization time of one copy.
    assert max(finishes) >= 2 * single


def test_disjoint_transfers_proceed_in_parallel():
    cluster, config = make_cluster(num_nodes=4)
    sim = cluster.sim
    finishes = []

    def move(src_id, dst_id):
        yield from transfer_bytes(config, cluster.node(src_id), cluster.node(dst_id), 32 * MB)
        finishes.append(sim.now)

    sim.process(move(0, 1))
    sim.process(move(2, 3))
    cluster.run()
    single = config.transmission_time(32 * MB)
    assert max(finishes) < 1.5 * single


def test_transfer_to_failed_node_raises():
    cluster, config = make_cluster()
    cluster.node(1).fail()
    process = cluster.sim.process(
        transfer_bytes(config, cluster.node(0), cluster.node(1), MB)
    )
    cluster.run()
    assert not process.ok
    assert isinstance(process.value, NodeFailedError)
    process.defused = True


def test_failure_mid_transfer_raises_transfer_error():
    cluster, config = make_cluster()
    src, dst = cluster.node(0), cluster.node(1)
    process = cluster.sim.process(transfer_bytes(config, src, dst, 256 * MB))
    cluster.schedule_failure(1, at=0.05)
    cluster.run()
    assert not process.ok
    assert isinstance(process.value, TransferError)
    process.defused = True


def test_failure_mid_transfer_releases_links_for_others():
    """A transfer killed by a peer failure must not leak the sender's uplink."""
    cluster, config = make_cluster(num_nodes=3)
    sim = cluster.sim
    src = cluster.node(0)
    done = {}

    def doomed():
        try:
            yield from transfer_bytes(config, src, cluster.node(1), 256 * MB)
        except TransferError:
            done["doomed"] = sim.now

    def survivor():
        yield sim.timeout(0.1)
        yield from transfer_bytes(config, src, cluster.node(2), 32 * MB)
        done["survivor"] = sim.now

    sim.process(doomed())
    sim.process(survivor())
    cluster.schedule_failure(1, at=0.05)
    cluster.run()
    assert "doomed" in done
    assert "survivor" in done


def test_local_copy_time():
    cluster, config = make_cluster()
    node = cluster.node(0)
    finish = run_transfer(cluster, local_copy(config, node, 64 * MB))
    assert finish == pytest.approx(config.memcpy_time(64 * MB), rel=1e-6)


def test_transfer_block_is_the_reservation_transfer():
    """Reservations are the only way a block crosses a link."""
    assert transfer_block is flowsched.transfer_block
    cluster, config = make_cluster()
    src, dst = cluster.node(0), cluster.node(1)
    run_transfer(cluster, transfer_block(config, src, dst, 4 * MB))
    assert src.uplink_sched.reservations_granted == 1
    assert dst.downlink_sched.reservations_granted == 1


def test_control_rpc_costs_rpc_latency():
    """The directory's control RPC rides the latency path only."""
    cluster, config = make_cluster()
    directory = ObjectDirectory(cluster)
    object_id = ObjectID.of("rpc")
    shard_node = directory.shards[directory._shard_index(object_id)].node
    remote = cluster.node((shard_node.node_id + 1) % 3)

    def rpc(requester):
        start = cluster.sim.now
        yield from directory._rpc(requester, object_id)
        return cluster.sim.now - start

    assert run_transfer(cluster, rpc(remote)) == pytest.approx(config.rpc_latency)
    # A cross-node RPC is visible to the flow accounting but holds no slot.
    assert remote.uplink_sched.control_messages == 1
    assert remote.uplink.in_use == 0
    # Local shard access is cheaper than a cross-node RPC.
    local = run_transfer(cluster, rpc(shard_node))
    assert local < config.rpc_latency
    assert shard_node.uplink_sched.control_messages == 0
