"""Seeded random failure schedules, drawn from ``np.random.RandomState``.

The numpy-free primitives (:class:`~repro.net.faults.FailureEvent`,
:func:`~repro.net.faults.schedule` and their control-plane twins) live in
:mod:`repro.net.faults`; this module adds only the generators that draw
random numbers, so it is the one failure module that imports numpy.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.net.faults import ControlPlaneFailureEvent, FailureEvent


def poisson_failures(
    node_ids: Sequence[int],
    rate_per_second: float,
    horizon: float,
    downtime: float,
    seed: int = 0,
) -> list[FailureEvent]:
    """Generate a random failure schedule (Poisson arrivals, fixed downtime).

    Useful for stress tests that go beyond the paper's single-failure
    experiment: every generated failure hits a random node and recovers
    ``downtime`` seconds later.
    """
    if len(node_ids) == 0:
        raise ValueError("node_ids must name at least one node")
    if rate_per_second < 0:
        raise ValueError("rate_per_second must be non-negative")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    rng = np.random.RandomState(seed)
    events: list[FailureEvent] = []
    time = 0.0
    if rate_per_second == 0:
        return events
    while True:
        time += float(rng.exponential(1.0 / rate_per_second))
        if time >= horizon:
            break
        node_id = int(rng.choice(list(node_ids)))
        events.append(
            FailureEvent(node_id=node_id, fail_at=time, recover_at=time + downtime)
        )
    return events


def poisson_control_plane_failures(
    num_shards: int,
    rate_per_second: float,
    horizon: float,
    seed: int = 0,
    include_lineage: bool = True,
) -> list[ControlPlaneFailureEvent]:
    """Seeded Poisson arrivals of control-plane kills (the new fault class).

    Each arrival targets a uniformly random victim among the directory
    shards plus (optionally) the lineage service.
    """
    if rate_per_second < 0:
        raise ValueError("rate_per_second must be non-negative")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    rng = np.random.RandomState(seed)
    events: list[ControlPlaneFailureEvent] = []
    time = 0.0
    if rate_per_second == 0:
        return events
    victims = num_shards + (1 if include_lineage else 0)
    while True:
        time += float(rng.exponential(1.0 / rate_per_second))
        if time >= horizon:
            break
        pick = int(rng.randint(victims))
        if pick < num_shards:
            events.append(
                ControlPlaneFailureEvent("directory_shard", time, shard_id=pick)
            )
        else:
            events.append(ControlPlaneFailureEvent("lineage", time))
    return events


