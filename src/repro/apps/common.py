"""Shared plumbing for the application-level experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Optional, Sequence

from repro.collectives.plane import CommPlane
from repro.net.cluster import Cluster
from repro.net.failure import FailureEvent
from repro.net.transport import TransferError
from repro.store.objects import ObjectID, ObjectValue

#: one induced failure used by the fault-tolerance experiments (Figure 12).
FailureSchedule = FailureEvent


@dataclass
class AppResult:
    """Outcome of one application run."""

    app: str
    system: str
    num_nodes: int
    duration: float
    throughput: float
    #: per-iteration (or per-query) completion latencies, in order.
    iteration_latencies: list[float] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def summary(self) -> dict:
        return {
            "app": self.app,
            "system": self.system,
            "num_nodes": self.num_nodes,
            "duration": self.duration,
            "throughput": self.throughput,
            "iterations": len(self.iteration_latencies),
            **self.metrics,
        }


def reconstruct_on_recovery(
    cluster: Cluster,
    plane: CommPlane,
    node_id: int,
    objects: Sequence[tuple[ObjectID, ObjectValue]],
) -> Generator:
    """Framework-style object reconstruction: re-``Put`` after every rejoin.

    The paper delegates reconstruction of lost objects to the task
    framework's lineage re-execution (Section 6); this process stands in for
    it wherever failures are injected.  Re-putting an object that survived
    elsewhere is harmless — ``Put`` is idempotent per ObjectID.
    """
    sim = cluster.sim
    node = cluster.node(node_id)
    while True:
        yield node.failure_event()
        yield node.recovery_event()
        for object_id, value in objects:
            while node.alive:
                try:
                    yield from plane.put(node, object_id, value)
                    break
                except TransferError:
                    yield sim.timeout(cluster.config.failure_detection_delay)


def retry_across_failures(
    cluster: Cluster,
    node_id: int,
    attempt: Callable[[], Generator],
    on_retry: Optional[Callable[[], None]] = None,
) -> Generator:
    """Drive one participant's share of a collective, retrying across failures.

    Re-runs ``attempt`` until it completes: after the participant's own node
    fails, the retry waits for the rejoin; transient errors while the node is
    alive back off by one failure-detection delay.  Returns the successful
    attempt's result.
    """
    sim = cluster.sim
    node = cluster.node(node_id)
    while True:
        try:
            if not node.alive:
                yield node.recovery_event()
            result = yield from attempt()
            return result
        except TransferError:
            if on_retry is not None:
                on_retry()
            if node.alive:
                yield sim.timeout(cluster.config.failure_detection_delay)
