"""Seeded random failure schedules, drawn from numpy's legacy random stream.

The primitives (:class:`~repro.net.faults.FailureEvent`, its control-plane
twin and :func:`~repro.net.faults.install`) live in :mod:`repro.net.faults`;
this module adds only the generators that draw random numbers.  They draw exactly what ``numpy.random.RandomState(seed)``
would, since numpy froze that stream (NEP 19), but from the standard
library's Mersenne Twister, so neither module imports numpy: it loads only
where a payload array is handled.
"""

from __future__ import annotations

import math
import operator
import random
from typing import Iterable

from repro.net.faults import ControlPlaneFailureEvent, FailureEvent


class _LegacyRandomState(random.Random):
    """The draws of ``numpy.random.RandomState(seed)`` these generators use.

    numpy's legacy generator and :class:`random.Random` are the same MT19937
    with the same output tempering.  numpy seeds an integer with
    ``init_genrand`` (``random.seed`` would use ``init_by_array``, another
    stream), and ``random()`` is its legacy 53-bit double.
    """

    def __init__(self, seed: int) -> None:
        state = operator.index(seed)
        if not 0 <= state <= 0xFFFFFFFF:
            raise ValueError("Seed must be between 0 and 2**32 - 1")
        mt = [state]
        for i in range(1, 624):
            state = (1812433253 * (state ^ (state >> 30)) + i) & 0xFFFFFFFF
            mt.append(state)
        self.setstate((3, tuple(mt) + (624,), None))

    def exponential(self, scale: float) -> float:
        return scale * -math.log(1.0 - self.random())

    def randint(self, n: int) -> int:
        """Uniform on ``0..n-1`` by masked rejection; ``n == 1`` draws nothing."""
        if n < 1:
            raise ValueError("randint needs at least one value to draw")
        if n == 1:
            return 0
        mask = (1 << (n - 1).bit_length()) - 1
        while True:
            value = self.getrandbits(32) & mask
            if value < n:
                return value


def poisson_failures(
    node_ids: Iterable[int],
    rate_per_second: float,
    horizon: float,
    downtime: float,
    seed: int = 0,
) -> list[FailureEvent]:
    """Generate a random failure schedule (Poisson arrivals, fixed downtime).

    Useful for stress tests that go beyond the paper's single-failure
    experiment: every generated failure hits a random node and recovers
    ``downtime`` seconds later.  ``node_ids`` is read once, so any iterable
    will do.
    """
    node_ids = tuple(node_ids)
    if not node_ids:
        raise ValueError("node_ids must name at least one node")
    if rate_per_second < 0:
        raise ValueError("rate_per_second must be non-negative")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    rng = _LegacyRandomState(seed)
    events: list[FailureEvent] = []
    time = 0.0
    if rate_per_second == 0:
        return events
    while True:
        time += rng.exponential(1.0 / rate_per_second)
        if time >= horizon:
            break
        node_id = int(node_ids[rng.randint(len(node_ids))])
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
    rng = _LegacyRandomState(seed)
    events: list[ControlPlaneFailureEvent] = []
    time = 0.0
    if rate_per_second == 0:
        return events
    victims = num_shards + (1 if include_lineage else 0)
    while True:
        time += rng.exponential(1.0 / rate_per_second)
        if time >= horizon:
            break
        pick = rng.randint(victims)
        if pick < num_shards:
            events.append(
                ControlPlaneFailureEvent("directory_shard", time, shard_id=pick)
            )
        else:
            events.append(ControlPlaneFailureEvent("lineage", time))
    return events


