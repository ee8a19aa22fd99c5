"""Tests for the OpenMPI/Gloo-style static collective baselines."""

import pytest

from repro.collectives import CollectiveGroup, GlooCollectives, MPICollectives, StaticCollectiveError
from repro.collectives.mpi import BinomialBroadcast, PipelineChainBroadcast, binomial_parent
from repro.net import Cluster, NetworkConfig

MB = 1024 * 1024
KB = 1024


def run_collective(cluster, op, delays=None):
    """Spawn one participant per rank; return {rank: finish_time}."""
    sim = cluster.sim
    finishes = {}

    def participant(rank, delay):
        if delay:
            yield sim.timeout(delay)
        result = yield from op.participate(rank)
        finishes[rank] = result.finish_time

    for rank in range(op.group.size):
        delay = (delays or {}).get(rank, 0.0)
        sim.process(participant(rank, delay))
    cluster.run()
    return finishes


def binomial_children(vrank: int, size: int) -> list[int]:
    """Children of ``vrank`` in a binomial broadcast tree of ``size`` ranks."""
    children = []
    mask = 1
    while mask < size and not vrank & mask:
        if vrank | mask < size:
            children.append(vrank | mask)
        mask <<= 1
    return children


def test_binomial_tree_structure():
    assert binomial_parent(0) is None
    assert binomial_parent(1) == 0
    assert binomial_parent(5) == 4
    assert binomial_parent(6) == 4
    assert binomial_children(0, 8) == [1, 2, 4]
    assert binomial_children(2, 8) == [3]
    assert binomial_children(4, 8) == [5, 6]
    # Every non-root rank appears as exactly one parent's child.
    for size in (2, 5, 8, 13):
        seen = []
        for vrank in range(size):
            seen.extend(binomial_children(vrank, size))
            assert all(binomial_parent(child) == vrank for child in binomial_children(vrank, size))
        assert sorted(seen) == list(range(1, size))


def test_collective_group_validation():
    cluster = Cluster(num_nodes=4)
    group = CollectiveGroup(cluster)
    assert group.size == 4
    assert group.nodes == cluster.nodes
    with pytest.raises(StaticCollectiveError):
        group.node_of_rank(9)


def test_mpi_broadcast_algorithm_selection_by_size():
    cluster = Cluster(num_nodes=8)
    mpi = MPICollectives(cluster)
    assert isinstance(mpi.broadcast(1 * KB), BinomialBroadcast)
    assert isinstance(mpi.broadcast(64 * MB), PipelineChainBroadcast)


def test_mpi_broadcast_delivers_to_all_ranks_and_pipelines():
    cluster = Cluster(num_nodes=8)
    config = cluster.config
    op = MPICollectives(cluster).broadcast(64 * MB)
    finishes = run_collective(cluster, op)
    assert len(finishes) == 8
    # With segment pipelining the chain finishes well under hops x full-transfer.
    single = config.transmission_time(64 * MB)
    assert max(finishes.values()) < 2.5 * single


def test_mpi_small_broadcast_latency_grows_logarithmically():
    latencies = {}
    for num_nodes in (4, 16):
        cluster = Cluster(num_nodes=num_nodes)
        op = MPICollectives(cluster).broadcast(1 * KB)
        finishes = run_collective(cluster, op)
        latencies[num_nodes] = max(finishes.values())
    assert latencies[16] < 4 * latencies[4]


def test_mpi_reduce_waits_for_all_ranks():
    cluster = Cluster(num_nodes=4)
    op = MPICollectives(cluster).reduce(8 * MB)
    finishes = run_collective(cluster, op, delays={3: 1.0})
    # Nothing finishes before the last rank arrives.
    assert min(finishes.values()) >= 1.0
    assert finishes[0] == max(finishes.values()) or finishes[0] >= 1.0


def test_mpi_gather_time_scales_with_senders():
    config = NetworkConfig()
    results = {}
    for num_nodes in (4, 8):
        cluster = Cluster(num_nodes=num_nodes, network=config)
        op = MPICollectives(cluster).gather(16 * MB)
        finishes = run_collective(cluster, op)
        results[num_nodes] = finishes[0]
    # The root's downlink serializes all senders.
    assert results[8] > results[4] * 1.5
    assert results[8] >= 7 * config.transmission_time(16 * MB) * 0.9


def test_mpi_allreduce_handles_non_power_of_two():
    for num_nodes in (4, 6, 7, 8):
        cluster = Cluster(num_nodes=num_nodes)
        op = MPICollectives(cluster).allreduce(8 * MB)
        finishes = run_collective(cluster, op)
        assert len(finishes) == num_nodes


def test_mpi_point_to_point_send():
    cluster = Cluster(num_nodes=2)
    mpi = MPICollectives(cluster)
    process = cluster.sim.process(mpi.send(0, 1, 16 * MB))
    cluster.run()
    assert process.value == pytest.approx(
        cluster.config.transmission_time(16 * MB)
        + cluster.config.num_blocks(16 * MB) * cluster.config.latency,
        rel=1e-6,
    )


def test_gloo_ring_allreduce_is_bandwidth_efficient():
    """Ring allreduce approaches 2 x S/B regardless of the group size."""
    config = NetworkConfig()
    nbytes = 256 * MB
    times = {}
    for num_nodes in (4, 16):
        cluster = Cluster(num_nodes=num_nodes, network=config)
        op = GlooCollectives(cluster).allreduce_ring_chunked(nbytes)
        finishes = run_collective(cluster, op)
        times[num_nodes] = max(finishes.values())
    lower_bound = 2 * nbytes / config.bandwidth * 3 / 4
    assert times[4] >= lower_bound * 0.9
    # Growing the ring barely changes the completion time.
    assert times[16] < times[4] * 1.5


def test_gloo_allreduce_variants_agree_roughly():
    # Build a fresh cluster per operation so each op runs on its own simulator.
    cluster_r = Cluster(num_nodes=8)
    ring = run_collective(cluster_r, GlooCollectives(cluster_r).allreduce_ring(64 * MB))
    cluster_a = Cluster(num_nodes=8)
    chunked = run_collective(cluster_a, GlooCollectives(cluster_a).allreduce_ring_chunked(64 * MB))
    cluster_b = Cluster(num_nodes=8)
    halving = run_collective(cluster_b, GlooCollectives(cluster_b).allreduce_halving_doubling(64 * MB))
    assert max(chunked.values()) <= max(ring.values()) * 1.2
    assert max(halving.values()) < 4 * max(chunked.values())


def test_gloo_flat_broadcast_serializes_at_root():
    config = NetworkConfig()
    cluster = Cluster(num_nodes=8, network=config)
    op = GlooCollectives(cluster).broadcast(32 * MB)
    finishes = run_collective(cluster, op)
    assert max(finishes.values()) >= 7 * config.transmission_time(32 * MB) * 0.9


def test_static_ops_reject_bad_sizes_and_single_rank_degenerates():
    cluster = Cluster(num_nodes=1)
    with pytest.raises(StaticCollectiveError):
        MPICollectives(cluster).broadcast(-1)
    op = GlooCollectives(cluster).allreduce_ring_chunked(1 * MB)
    finishes = run_collective(cluster, op)
    assert finishes[0] >= 0.0
