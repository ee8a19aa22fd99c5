"""Failure-injection helpers layered over the cluster's failure primitives."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.net.cluster import Cluster


@dataclass(frozen=True)
class FailureEvent:
    """One planned node failure (and optional recovery)."""

    node_id: int
    fail_at: float
    recover_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.fail_at < 0:
            raise ValueError("fail_at must be non-negative")
        if self.recover_at is not None and self.recover_at < self.fail_at:
            raise ValueError("recover_at must not precede fail_at")


def schedule(cluster: Cluster, events: Sequence[FailureEvent]) -> None:
    """Install a list of failure events on the cluster."""
    for event in events:
        cluster.schedule_failure(event.node_id, event.fail_at, event.recover_at)


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


@dataclass(frozen=True)
class ControlPlaneFailureEvent:
    """One planned control-plane kill: a directory shard or the lineage service.

    The ``control_plane`` fault class is orthogonal to node failures: it
    kills *service state* (a hash-sharded directory shard, or the
    orchestrator's lineage/ownership tables), which then recovers by WAL
    replay rather than by lineage re-execution of data tasks.
    """

    #: ``"directory_shard"`` or ``"lineage"``.
    target: str
    fail_at: float
    #: which shard dies (``directory_shard`` only; taken modulo the count).
    shard_id: int = 0


def schedule_control_plane(
    sim,
    events: Sequence[ControlPlaneFailureEvent],
    directory=None,
    orchestrator=None,
) -> None:
    """Install control-plane kill events against live service objects.

    Targets without a matching service (no orchestrator attached, say) are
    skipped, so one schedule works across scenario variants.
    """

    def _killer(event: ControlPlaneFailureEvent):
        yield sim.timeout(event.fail_at)
        if event.target == "directory_shard":
            if directory is not None and directory.shards:
                directory.fail_shard(event.shard_id % len(directory.shards))
        elif event.target == "lineage":
            if orchestrator is not None:
                orchestrator.kill_control_plane()
        else:  # pragma: no cover - schedule construction error
            raise ValueError(f"unknown control-plane target {event.target!r}")

    for event in events:
        sim.process(
            _killer(event), name=f"ctlfail-{event.target}-{event.shard_id}"
        )


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


def alternating_failures(
    node_ids: Sequence[int],
    period: float,
    downtime: float,
    count: int,
    start: float = 0.0,
) -> Iterator[FailureEvent]:
    """A deterministic round-robin failure schedule (one node down at a time)."""
    if period <= 0 or downtime < 0:
        raise ValueError("period must be positive and downtime non-negative")
    for index in range(count):
        node_id = node_ids[index % len(node_ids)]
        fail_at = start + index * period
        yield FailureEvent(node_id=node_id, fail_at=fail_at, recover_at=fail_at + downtime)
