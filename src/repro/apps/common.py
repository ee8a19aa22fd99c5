"""Shared plumbing for the application-level experiments.

:func:`run_app` is the one harness every application runs through: it
builds the run, lets the app's ``start`` callback spawn its processes,
runs, checks and closes the run, and builds the :class:`AppResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Generator, Optional, Sequence

from repro.collectives.plane import CommPlane
from repro.collectives.systems import make_plane
from repro.net.cluster import Cluster
from repro.net.faults import FailureEvent, install
from repro.net.transport import TransferError
from repro.store.objects import ObjectID, ObjectValue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tasksys.system import TaskSystem

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


@dataclass(eq=False)
class Run:
    """One application run, as its ``start`` callback and processes see it."""

    cluster: Cluster
    #: the object plane; ``None`` for a static collective library.
    plane: Optional[CommPlane]
    task_system: Optional["TaskSystem"]
    #: per-iteration (or per-query) latencies, appended by the app.
    latencies: list[float] = field(default_factory=list)
    #: the driver's measured window; ``None`` means the end of the run.
    duration: Optional[float] = None
    #: the app's own metrics, filled by ``start`` or its processes.
    metrics: dict = field(default_factory=dict)


def run_app(
    app: str,
    system: str,
    num_nodes: int,
    count: int,
    work: float,
    failure: Optional[FailureSchedule],
    start: Callable[[Run], None],
    *,
    plane: bool,
    tasks: bool,
) -> AppResult:
    """Build, run, check and close one application run.

    In this order: a cluster of ``num_nodes``, the object plane ``system``
    (``plane=False`` skips it, for a static library), the ``failure``, and
    a :class:`~repro.tasksys.system.TaskSystem` if ``tasks``.  Then
    ``start(run)`` spawns the app's processes, which record ``count``
    latencies (and may set ``run.duration``).  Once the queue has drained,
    the run is checked (:meth:`~repro.sim.Simulator.check_failures`) and
    closed (:func:`close_run`), so reference counting frees it; a run that
    raises before the close stays open.  The throughput is ``work`` over
    the duration, and the metrics gain the task system's counters and
    ``events_processed``.

    Raises :class:`ValueError` for a ``count`` below 1 and, on a run with
    a task system, for a failure of the driver's node; and
    :class:`RuntimeError` if the run recorded fewer than ``count`` latencies.
    """
    if count < 1:
        raise ValueError(f"{app} needs a count of at least 1, got {count}")
    if tasks:
        from repro.tasksys.system import DRIVER_NODE, TaskSystem

        if failure is not None and failure.node_id == DRIVER_NODE:
            raise ValueError(f"{app} cannot survive a failure of its driver node {DRIVER_NODE}")
    cluster = Cluster(num_nodes)
    run = Run(cluster, make_plane(system, cluster) if plane else None, None)
    install(cluster, [failure] if failure else ())
    if tasks:
        run.task_system = TaskSystem(cluster, run.plane)
    start(run)
    cluster.run()
    cluster.sim.check_failures()
    close_run(cluster, run.plane, run.task_system)
    if len(run.latencies) < count:
        raise RuntimeError(
            f"{app} recorded {len(run.latencies)} of {count} latencies (unrecovered failure?)"
        )

    duration = cluster.sim.now if run.duration is None else run.duration
    metrics = dict(run.metrics)
    if run.task_system is not None:
        metrics.update(run.task_system.metrics.as_dict())
    metrics["events_processed"] = cluster.sim.events_processed
    return AppResult(
        app=app,
        system=system,
        num_nodes=num_nodes,
        duration=duration,
        throughput=work / duration if duration > 0 else 0.0,
        iteration_latencies=run.latencies,
        metrics=metrics,
    )


def close_run(cluster: Cluster, plane: Optional[CommPlane] = None, task_system=None) -> None:
    """Close a run once its queue has drained, so reference counting frees it.

    In this order: the task system forgets its records
    (:meth:`~repro.tasksys.system.TaskSystem.close`), the plane's runtime
    drops its clients and WAL hooks, and the cluster its listeners
    (:meth:`~repro.net.cluster.Cluster.close`).  Results, metrics and
    counters stay readable.
    """
    if task_system is not None:
        task_system.close()
    if plane is not None:
        plane.runtime.close()
    cluster.close()


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
