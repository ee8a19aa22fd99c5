"""Tests for the network configuration and block arithmetic."""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.config import NetworkConfig


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
    position=st.integers(min_value=0, max_value=9_999_999),
)
@example(nbytes=10_000_000, block_size=1, position=4_999_999)
def test_blocks_partition_the_object(nbytes, block_size, position):
    """Property: block sizes are positive, bounded by block_size, and sum to
    the object size; every block but the last is full.  Checked at the first
    block, the last two and one drawn block, so an object of ten million
    blocks costs four calls, not ten million."""
    config = NetworkConfig(block_size=block_size)
    total_blocks = config.num_blocks(nbytes)
    last = config.block_bytes(nbytes, total_blocks - 1)
    assert 0 < last <= block_size
    assert (total_blocks - 1) * block_size + last == nbytes
    for index in {0, max(total_blocks - 2, 0), position % total_blocks}:
        size = config.block_bytes(nbytes, index)
        assert size == (block_size if index < total_blocks - 1 else last)
