"""Tests for the allgather / reduce-scatter / alltoall collective family."""

import math

import numpy as np
import pytest

from repro.bench.scenarios import (
    Scenario,
    UnsupportedScenarioError,
    measure_allgather,
    measure_alltoall,
    run,
)
from repro.core import HopliteRuntime, ObjectID, ObjectValue, ReduceOp
from repro.net import Cluster, NetworkConfig
from repro.net.faults import FailureEvent

MB = 1024 * 1024


def _run_cluster(num_nodes, network=None):
    cluster = Cluster(num_nodes=num_nodes, network=network or NetworkConfig())
    return cluster, HopliteRuntime(cluster)


# ---------------------------------------------------------------------------
# Allgather
# ---------------------------------------------------------------------------


def test_allgather_every_participant_holds_every_object():
    num_nodes, nbytes = 4, 8 * MB
    cluster, runtime = _run_cluster(num_nodes)
    sim = cluster.sim
    source_ids = [ObjectID.of(f"ag-src-{i}") for i in range(num_nodes)]
    gathered = {}

    def participant(node_id):
        client = runtime.client(node_id)
        yield from client.put(
            source_ids[node_id],
            ObjectValue.from_array(np.full(4, float(node_id + 1)), logical_size=nbytes),
        )
        result = yield from client.allgather(source_ids)
        gathered[node_id] = [value.as_array() for value in result.values]

    for node_id in range(num_nodes):
        sim.process(participant(node_id))
    cluster.run(until=60.0)

    assert sorted(gathered) == list(range(num_nodes))
    for node_id, arrays in gathered.items():
        for index, array in enumerate(arrays):
            assert np.allclose(array, index + 1), (node_id, index)


def test_allgather_requires_sources():
    cluster, runtime = _run_cluster(2)
    with pytest.raises(ValueError):
        next(runtime.client(0).allgather([]))


# ---------------------------------------------------------------------------
# Reduce-scatter
# ---------------------------------------------------------------------------


def test_reduce_scatter_each_shard_is_its_column_sum():
    num_nodes, nbytes = 4, 4 * MB
    cluster, runtime = _run_cluster(num_nodes)
    sim = cluster.sim
    # matrix[(i, j)]: produced by participant i, destined to shard j.
    matrix = {
        (i, j): ObjectID.of(f"rs-{i}-{j}")
        for i in range(num_nodes)
        for j in range(num_nodes)
    }
    shards = {}

    def participant(node_id):
        client = runtime.client(node_id)
        for j in range(num_nodes):
            yield from client.put(
                matrix[(node_id, j)],
                ObjectValue.from_array(
                    np.full(2, float(10 * node_id + j)), logical_size=nbytes
                ),
            )
        column = [matrix[(i, node_id)] for i in range(num_nodes)]
        result = yield from client.reduce_scatter(
            ObjectID.of(f"rs-shard-{node_id}"), column, ReduceOp.SUM
        )
        shards[node_id] = result.value.as_array()

    for node_id in range(num_nodes):
        sim.process(participant(node_id))
    cluster.run(until=60.0)

    assert sorted(shards) == list(range(num_nodes))
    for j, array in shards.items():
        expected = sum(10 * i + j for i in range(num_nodes))
        assert np.allclose(array, expected), j


# ---------------------------------------------------------------------------
# Alltoall
# ---------------------------------------------------------------------------


def test_alltoall_delivers_personalized_payloads():
    num_nodes, nbytes = 4, 4 * MB
    cluster, runtime = _run_cluster(num_nodes)
    sim = cluster.sim
    pair = {
        (src, dst): ObjectID.of(f"a2a-{src}-{dst}")
        for src in range(num_nodes)
        for dst in range(num_nodes)
        if src != dst
    }
    received = {}

    def participant(node_id):
        client = runtime.client(node_id)
        sends = [
            (
                pair[(node_id, dst)],
                ObjectValue.from_array(
                    np.full(2, float(100 * node_id + dst)), logical_size=nbytes
                ),
            )
            for dst in range(num_nodes)
            if dst != node_id
        ]
        recv_ids = [pair[(src, node_id)] for src in range(num_nodes) if src != node_id]
        result = yield from client.alltoall(sends, recv_ids)
        received[node_id] = {
            oid: value.as_array() for oid, value in zip(result.recv_ids, result.values)
        }

    for node_id in range(num_nodes):
        sim.process(participant(node_id))
    cluster.run(until=60.0)

    assert sorted(received) == list(range(num_nodes))
    for dst, values in received.items():
        for src in range(num_nodes):
            if src == dst:
                continue
            assert np.allclose(values[pair[(src, dst)]], 100 * src + dst), (src, dst)


def test_alltoall_requires_work():
    cluster, runtime = _run_cluster(2)
    with pytest.raises(ValueError):
        next(runtime.client(0).alltoall([], []))


# ---------------------------------------------------------------------------
# Scenario drivers (acceptance: hoplite + MPI, failures, analytical bound)
# ---------------------------------------------------------------------------


def test_measure_allgather_all_systems():
    for system in ("hoplite", "openmpi", "gloo", "ray"):
        assert measure_allgather(system, 4, 4 * MB) > 0, system
    assert measure_allgather("optimal", 4, 4 * MB) == pytest.approx(
        3 * 4 * MB / NetworkConfig().bandwidth
    )
    with pytest.raises(UnsupportedScenarioError):
        measure_allgather("gloo_ring", 4, MB)
    with pytest.raises(ValueError):
        measure_allgather("hoplite", 1, MB)


def test_measure_alltoall_all_systems():
    for system in ("hoplite", "openmpi", "gloo", "ray"):
        assert measure_alltoall(system, 4, 4 * MB) > 0, system
    with pytest.raises(UnsupportedScenarioError):
        measure_alltoall("gloo_halving_doubling", 4, MB)
    with pytest.raises(ValueError):
        measure_alltoall("hoplite", 1, MB)


def test_hoplite_allgather_within_pipelined_bound():
    """Acceptance: completion within 1.5x of S_total/B + L*log2(n)."""
    network = NetworkConfig()
    for num_nodes in (4, 8, 16):
        for nbytes in (8 * MB, 32 * MB):
            latency = measure_allgather("hoplite", num_nodes, nbytes)
            bound = (
                num_nodes * nbytes / network.bandwidth
                + network.latency * math.log2(num_nodes)
            )
            assert latency <= 1.5 * bound, (num_nodes, nbytes, latency / bound)


def test_hoplite_alltoall_within_pipelined_bound():
    """Acceptance: flow-scheduled alltoall within 1.2x of (n-1) * S / B.

    The sequential-acquisition transport left this at ~1.5x (head-of-line
    blocking at busy receivers); the reservation-based admission closes it.
    """
    network = NetworkConfig()
    for num_nodes in (8, 16):
        for nbytes in (16 * MB, 32 * MB):
            latency = measure_alltoall("hoplite", num_nodes, nbytes)
            bound = (num_nodes - 1) * nbytes / network.bandwidth
            assert latency <= 1.2 * bound, (num_nodes, nbytes, latency / bound)


def test_alltoall_flow_stats_report_busy_links():
    stats = run(Scenario("alltoall", "hoplite", 4, 8 * MB))["usage"]
    assert stats["mean_uplink_utilization"] > 0.5
    assert stats["bytes_by_class"]["bulk"] == 4 * 3 * 8 * MB
    assert stats["control_messages"] > 0
    assert len(stats["links"]) == 8  # one up + one down per node


def test_hoplite_allgather_and_alltoall_beat_naive_plane():
    for measure in (measure_allgather, measure_alltoall):
        hoplite = measure("hoplite", 8, 16 * MB)
        ray = measure("ray", 8, 16 * MB)
        assert hoplite < ray, measure.__name__


def test_measure_allgather_completes_under_failures():
    failures = [FailureEvent(node_id=2, fail_at=0.02, recover_at=0.3)]
    for system in ("hoplite", "openmpi"):
        clean = measure_allgather(system, 4, 16 * MB)
        disturbed = measure_allgather(system, 4, 16 * MB, failures=failures)
        assert disturbed > 0, system
        # The failure costs time but the operation still terminates.
        assert disturbed >= clean, system


def test_measure_alltoall_completes_under_failures():
    failures = [FailureEvent(node_id=1, fail_at=0.02, recover_at=0.3)]
    for system in ("hoplite", "openmpi"):
        disturbed = measure_alltoall(system, 4, 16 * MB, failures=failures)
        assert disturbed > 0, system
