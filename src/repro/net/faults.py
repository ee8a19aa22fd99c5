"""Failure schedules and their installation: the primitives without numpy.

A :class:`FailureEvent` plans one node failure and :func:`schedule` installs
a list of them on a cluster; :class:`ControlPlaneFailureEvent` and
:func:`schedule_control_plane` do the same for control-plane kills, and
:func:`alternating_failures` builds a deterministic round-robin schedule.
None of them draws a random number, so this module does not import numpy:
the scenario drivers and the apps load it on every run.  The seeded Poisson
generators, which do draw from numpy, are in :mod:`repro.net.failure`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

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


def alternating_failures(
    node_ids: Sequence[int],
    period: float,
    downtime: float,
    count: int,
    start: float = 0.0,
) -> Iterator[FailureEvent]:
    """A deterministic round-robin failure schedule (one node down at a time)."""
    if len(node_ids) == 0:
        raise ValueError("node_ids must name at least one node")
    if period <= 0 or downtime < 0:
        raise ValueError("period must be positive and downtime non-negative")
    for index in range(count):
        node_id = node_ids[index % len(node_ids)]
        fail_at = start + index * period
        yield FailureEvent(node_id=node_id, fail_at=fail_at, recover_at=fail_at + downtime)
