"""Fault schedules and their one installer: the primitives without numpy.

A run's faults are one schedule, a sequence of :class:`FailureEvent`
(a node goes down, and maybe rejoins) and :class:`ControlPlaneFailureEvent`
(a directory shard or the lineage service dies and replays its WAL).
:func:`install` puts a whole schedule on a run once the services it kills
exist.  Nothing here draws a random number: the seeded Poisson generators
are in :mod:`repro.net.failure`.  Neither module imports numpy, which
loads only where a payload array is handled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.net.cluster import Cluster


@dataclass(frozen=True)
class FailureEvent:
    """One planned node failure (and optional recovery)."""

    node_id: int
    fail_at: float
    recover_at: Optional[float] = None

    def __post_init__(self) -> None:
        # Each bound is written so that NaN fails it.
        if self.node_id < 0:
            raise ValueError("node_id must be non-negative")
        if not self.fail_at >= 0:
            raise ValueError("fail_at must be non-negative")
        if self.recover_at is not None and not self.recover_at >= self.fail_at:
            raise ValueError("recover_at must not precede fail_at")


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

    def __post_init__(self) -> None:
        if self.target not in ("directory_shard", "lineage"):
            raise ValueError("target must be 'directory_shard' or 'lineage'")
        if not (self.fail_at >= 0 and self.shard_id >= 0):
            raise ValueError("fail_at and shard_id must be non-negative")


Fault = Union[FailureEvent, ControlPlaneFailureEvent]


def install(cluster: Cluster, faults: Sequence[Fault], directory=None, orchestrator=None) -> None:
    """Install a fault schedule on a run, before the run's processes start.

    Node failures go in first, in schedule order.  Then the control-plane
    kills due at one instant run from one process, in schedule order,
    against ``directory`` (shard kills) or ``orchestrator`` (lineage
    kills); :func:`repro.bench.scenarios.supported` refuses a schedule that
    names a service the run lacks before a cluster is built.
    """
    sim = cluster.sim
    due: dict[float, list[ControlPlaneFailureEvent]] = {}
    for event in faults:
        if isinstance(event, FailureEvent):
            cluster.schedule_failure(event.node_id, event.fail_at, event.recover_at)
        else:
            due.setdefault(event.fail_at, []).append(event)

    def _killer(at: float, events: list[ControlPlaneFailureEvent]):
        yield sim.timeout(at)
        for event in events:
            if event.target == "directory_shard":
                directory.fail_shard(event.shard_id % len(directory.shards))
            else:
                orchestrator.kill_control_plane()

    for at, events in due.items():
        sim.process(_killer(at, events), name=f"control-plane-killer-{at}")
