"""The seeded Poisson generators draw numpy's legacy stream, bit for bit.

:mod:`repro.net.failure` draws from the standard library's Mersenne Twister,
seeded and read the way ``numpy.random.RandomState`` is.  NumPy froze that
stream (NEP 19), so every schedule must equal the one a generator built on
``RandomState`` draws: this test imports numpy only as that reference.
"""

import numpy as np
import pytest

from repro.net.failure import poisson_control_plane_failures, poisson_failures
from repro.net.faults import ControlPlaneFailureEvent, FailureEvent

SEEDS = (*range(500), 2**32 - 1)


def reference_failures(node_ids, rate_per_second, horizon, downtime, seed):
    rng = np.random.RandomState(seed)
    events, time = [], 0.0
    while True:
        time += float(rng.exponential(1.0 / rate_per_second))
        if time >= horizon:
            return events
        node_id = int(rng.choice(list(node_ids)))
        events.append(FailureEvent(node_id, time, time + downtime))


def reference_control_plane(num_shards, rate_per_second, horizon, seed, include_lineage):
    rng = np.random.RandomState(seed)
    events, time = [], 0.0
    victims = num_shards + (1 if include_lineage else 0)
    while True:
        time += float(rng.exponential(1.0 / rate_per_second))
        if time >= horizon:
            return events
        pick = int(rng.randint(victims))
        if pick < num_shards:
            events.append(ControlPlaneFailureEvent("directory_shard", time, shard_id=pick))
        else:
            events.append(ControlPlaneFailureEvent("lineage", time))


NODE_SHAPES = {
    # The recovery workload's churn: nodes 1-7, 4/s over 0.8 s, 0.2 s down.
    "churn": (list(range(1, 8)), 4.0, 0.8, 0.2),
    # One node: numpy takes nothing from the stream for a one-value range.
    "one_node": ([5], 3.0, 4.0, 0.5),
    "16_nodes": (list(range(16)), 6.0, 2.0, 0.1),
    "32_nodes": (list(range(32)), 10.0, 1.5, 0.3),
}


@pytest.mark.parametrize("shape", NODE_SHAPES)
def test_node_schedules_match_numpy(shape):
    node_ids, rate, horizon, downtime = NODE_SHAPES[shape]
    for seed in SEEDS:
        expected = reference_failures(node_ids, rate, horizon, downtime, seed)
        assert poisson_failures(node_ids, rate, horizon, downtime, seed=seed) == expected, seed


CONTROL_PLANE_SHAPES = {
    "with_lineage": (4, 5.0, 1.0, True),
    "without_lineage": (4, 5.0, 1.0, False),
    "one_shard": (1, 5.0, 1.0, False),
}


@pytest.mark.parametrize("shape", CONTROL_PLANE_SHAPES)
def test_control_plane_schedules_match_numpy(shape):
    num_shards, rate, horizon, include_lineage = CONTROL_PLANE_SHAPES[shape]
    for seed in SEEDS:
        expected = reference_control_plane(num_shards, rate, horizon, seed, include_lineage)
        got = poisson_control_plane_failures(
            num_shards, rate, horizon, seed=seed, include_lineage=include_lineage
        )
        assert got == expected, seed


@pytest.mark.parametrize("seed", [-1, 2**32])
def test_out_of_range_seeds_raise_like_numpy(seed):
    with pytest.raises(ValueError):
        np.random.RandomState(seed)
    with pytest.raises(ValueError):
        poisson_failures([0, 1], 1.0, 1.0, 0.1, seed=seed)
    with pytest.raises(ValueError):
        poisson_control_plane_failures(2, 1.0, 1.0, seed=seed)


def test_node_ids_are_read_once_from_any_iterable():
    expected = poisson_failures([1, 2, 3], 4.0, 2.0, 0.2, seed=3)
    assert len(expected) > 1
    assert poisson_failures((n for n in (1, 2, 3)), 4.0, 2.0, 0.2, seed=3) == expected
    with pytest.raises(ValueError, match="node_ids"):
        poisson_failures(iter(()), 4.0, 2.0, 0.2)
