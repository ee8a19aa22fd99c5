"""Tests for the network configuration and block arithmetic."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.config import ClusterSpec, NetworkConfig


def test_default_config_matches_paper_testbed():
    config = NetworkConfig()
    # 10 Gbps NICs, 4 MB pipelining blocks, 64 KB small-object threshold.
    assert config.bandwidth == pytest.approx(1.25e9)
    assert config.block_size == 4 * 1024 * 1024
    assert config.small_object_threshold == 64 * 1024


def test_flow_scheduling_flag_is_gone():
    """Reservations are the only transport, so there is no flag to pick one."""
    assert "flow_scheduling" not in {f.name for f in dataclasses.fields(NetworkConfig)}
    with pytest.raises(TypeError):
        NetworkConfig(flow_scheduling=False)


def test_validation_errors():
    with pytest.raises(ValueError):
        NetworkConfig(bandwidth=0)
    with pytest.raises(ValueError):
        NetworkConfig(block_size=0)
    with pytest.raises(ValueError):
        NetworkConfig(latency=-1)
    with pytest.raises(ValueError):
        NetworkConfig(memcpy_bandwidth=0)
    with pytest.raises(ValueError):
        NetworkConfig(num_directory_shards=0)
    with pytest.raises(ValueError):
        ClusterSpec(num_nodes=0)
    with pytest.raises(ValueError):
        ClusterSpec(num_nodes=2, workers_per_node=0)


def test_validation_rejects_negative_timing_parameters():
    """Negative thresholds/rates/delays silently corrupt timing math."""
    with pytest.raises(ValueError):
        NetworkConfig(small_object_threshold=-1)
    with pytest.raises(ValueError):
        NetworkConfig(reduce_block_compute_bandwidth=0)
    with pytest.raises(ValueError):
        NetworkConfig(reduce_block_compute_bandwidth=-1e9)
    with pytest.raises(ValueError):
        NetworkConfig(failure_detection_delay=-0.1)
    # The boundary values stay legal: a zero threshold disables the
    # small-object fast path, a zero detection delay is an oracle detector.
    assert NetworkConfig(small_object_threshold=0).small_object_threshold == 0
    assert NetworkConfig(failure_detection_delay=0.0).failure_detection_delay == 0.0


def test_transmission_and_memcpy_times():
    config = NetworkConfig(bandwidth=1e9, memcpy_bandwidth=4e9)
    assert config.transmission_time(1e9) == pytest.approx(1.0)
    assert config.memcpy_time(2e9) == pytest.approx(0.5)
    assert config.reduce_compute_time(0) == 0


def test_num_blocks_and_block_bytes():
    config = NetworkConfig(block_size=1000)
    assert config.num_blocks(0) == 1
    assert config.num_blocks(1) == 1
    assert config.num_blocks(1000) == 1
    assert config.num_blocks(1001) == 2
    assert config.block_bytes(2500, 0) == 1000
    assert config.block_bytes(2500, 1) == 1000
    assert config.block_bytes(2500, 2) == 500
    with pytest.raises(IndexError):
        config.block_bytes(2500, 3)
    with pytest.raises(IndexError):
        config.block_bytes(2500, -1)


@settings(max_examples=100, deadline=None)
@given(
    nbytes=st.integers(min_value=1, max_value=10_000_000),
    block_size=st.integers(min_value=1, max_value=1_000_000),
)
def test_blocks_partition_the_object(nbytes, block_size):
    """Property: block sizes are positive, bounded by block_size, and sum to the object size."""
    config = NetworkConfig(block_size=block_size)
    total_blocks = config.num_blocks(nbytes)
    sizes = [config.block_bytes(nbytes, index) for index in range(total_blocks)]
    assert all(0 < size <= block_size for size in sizes)
    assert sum(sizes) == nbytes
    # All blocks except possibly the last are full.
    assert all(size == block_size for size in sizes[:-1])
