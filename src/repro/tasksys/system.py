"""The task system: submission, scheduling, execution, wait/get, recovery.

The model follows Section 2.1 of the paper:

* the driver (running on node 0, :data:`DRIVER_NODE`) submits tasks
  dynamically and receives :class:`~repro.tasksys.refs.ObjectRef` futures
  immediately;
* the scheduler places each task on one of the :data:`WORKERS_PER_NODE`
  worker slots of an alive node (round-robin, with an optional placement
  hint);
* a worker fetches the task's ObjectRef arguments through the communication
  plane, runs the task body (a generator that can consume simulated compute
  time and use the plane directly), and ``Put``s the result;
* when a node fails, tasks running on it fail and are resubmitted, and
  finished objects whose only copy lived there are reconstructed by
  re-executing their producer task (lineage), after the network's
  ``failure_detection_delay`` — well-behaving tasks never roll back.

For the collective orchestration layer (Section 6) the system additionally
supports:

* **idempotent re-submission by key** — submitting a task with a key
  already submitted returns the existing record instead of duplicating it
  (reviving it if it had failed permanently), so a recovery path that
  re-submits a collective's task set adopts the surviving tasks;
* **strict placement** — a task pinned to a rank's node waits for that node
  to recover instead of migrating, because a participant's share of a
  collective must produce its objects *on* that participant's node;
* **output adoption** — a re-executed task whose output already exists as a
  complete copy on an alive node (checked through the directory) finishes
  immediately instead of redoing the work, which is how a restarted
  root/caller adopts partials that completed during the failure-detection
  delay;
* **resource release on permanent failure** — a task that exhausts
  ``max_restarts`` mid-collective releases the store pins and plane
  reference counts it still holds (and aborts any reduce execution it
  started), so the object store can evict what the dead computation left
  behind.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Generator, Iterable, Optional, Sequence

from repro.collectives.plane import CommPlane
from repro.net.cluster import Cluster
from repro.net.node import Node
from repro.sim import Event, Interrupt, Process, Resource
from repro.store.objects import ObjectID, ObjectValue
from repro.tasksys.refs import ObjectRef


#: task worker slots on every node.
WORKERS_PER_NODE = 4
#: the node the driver runs on, and where driver-side gets and puts land.
DRIVER_NODE = 0


class TaskError(RuntimeError):
    """A task failed for a non-recoverable reason."""


class TaskStatus(Enum):
    PENDING = "pending"
    RUNNING = "running"
    FINISHED = "finished"
    FAILED = "failed"


@dataclass
class TaskSpec:
    """Everything needed to (re-)execute one task."""

    task_id: int
    func: Callable[..., Generator]
    args: tuple
    kwargs: dict
    output_id: ObjectID
    name: str = ""
    node_hint: Optional[int] = None
    max_restarts: int = 10
    #: idempotency key: re-submitting the same key adopts the existing
    #: record instead of duplicating the task.
    key: Optional[str] = None
    #: "soft" tasks migrate to any alive node on re-execution; "strict" tasks
    #: are pinned to ``node_hint`` and wait for it to recover.
    placement: str = "soft"

    def describe(self) -> str:
        return self.name or getattr(self.func, "__name__", f"task-{self.task_id}")


@dataclass
class TaskRecord:
    """Mutable execution state of a task."""

    spec: TaskSpec
    status: TaskStatus = TaskStatus.PENDING
    node_id: Optional[int] = None
    attempts: int = 0
    finished_event: Optional[Event] = None
    process: Optional[Process] = None
    result_size: int = 0
    failure: Optional[BaseException] = None
    #: (node_id, object_id) pairs this task pinned in a store (its own output
    #: put plus every ``ctx.put``); released if the task fails permanently.
    held_objects: list = field(default_factory=list)
    #: reduce targets this task is driving; their executions are aborted if
    #: the task fails permanently so slot streams drop their references.
    reduce_targets: list = field(default_factory=list)


class TaskContext:
    """Handed to every task body; the task's window onto the cluster."""

    def __init__(self, system: "TaskSystem", node: Node, spec: TaskSpec):
        self.system = system
        self.node = node
        self.spec = spec
        self.sim = system.sim
        self.plane = system.plane

    def compute(self, seconds: float):
        """Consume ``seconds`` of simulated compute time."""
        return self.sim.timeout(max(0.0, seconds))

    def get(self, ref: "ObjectRef | ObjectID", read_only: bool = True) -> Generator:
        object_id = ref.object_id if isinstance(ref, ObjectRef) else ref
        value = yield from self.system.fetch(self.node, object_id, read_only=read_only)
        return value

    def put(self, value: ObjectValue, object_id: Optional[ObjectID] = None) -> Generator:
        cluster = self.system.cluster
        object_id = object_id or ObjectID.unique(cluster, f"task{self.spec.task_id}-out")
        # Register the pin *before* the copy starts: an interrupted Put has
        # already created a pinned store entry that must not leak.
        self.system.note_held_object(self.spec.task_id, self.node.node_id, object_id)
        yield from self.plane.put(self.node, object_id, value)
        return ObjectRef(object_id=object_id, producer_task_id=self.spec.task_id)

    def reduce(self, target_id, source_refs, op, num_objects=None) -> Generator:
        source_ids = [
            ref.object_id if isinstance(ref, ObjectRef) else ref for ref in source_refs
        ]
        self.system.note_reduce_target(self.spec.task_id, target_id)
        result = yield from self.plane.reduce(
            self.node, target_id, source_ids, op, num_objects=num_objects
        )
        return result


class TaskSystem:
    """The dynamic-task runtime (a deliberately small Ray).

    The driver that builds one closes it once the queue has drained
    (:meth:`close`, then the plane's runtime and the cluster: see
    :func:`repro.apps.common.close_run`); an orchestrator closes its own
    (:meth:`~repro.tasksys.orchestrator.CollectiveOrchestrator.close`).
    """

    def __init__(self, cluster: Cluster, plane: CommPlane):
        self.cluster = cluster
        self.plane = plane
        self.sim = cluster.sim
        self.config = cluster.config
        self.driver_node = cluster.nodes[DRIVER_NODE]
        self._task_counter = itertools.count()
        self._rr_counter = itertools.count()
        self.tasks: dict[int, TaskRecord] = {}
        #: idempotency key -> task id of the live record for that key.
        self._by_key: dict[str, int] = {}
        #: object id -> producing task id (lineage for reconstruction).
        self.lineage: dict[ObjectID, int] = {}
        self.worker_slots: dict[int, Resource] = {
            node.node_id: Resource(self.sim, capacity=WORKERS_PER_NODE)
            for node in cluster.nodes
        }
        self.metrics = TaskSystemMetrics()
        for node in cluster.nodes:
            node.on_failure(self._on_node_failure)

    def close(self) -> None:
        """Forget the task records of a finished run.

        Call it once the queue has drained, before the cluster closes: a
        record's spec holds the task's arguments, which may lead back here
        (the orchestrator passes itself), so the records would keep the run
        a reference cycle.  Nothing can re-execute after the drain; the
        metrics stay readable.
        """
        self.tasks.clear()
        self._by_key.clear()
        self.lineage.clear()

    # -- submission ---------------------------------------------------------------
    def submit(
        self,
        func: Callable[..., Generator],
        args: Sequence[Any] = (),
        kwargs: Optional[dict] = None,
        node: Optional[int] = None,
        name: str = "",
        output_id: Optional[ObjectID] = None,
        max_restarts: int = 10,
        key: Optional[str] = None,
        placement: str = "soft",
    ) -> ObjectRef:
        """Submit a task; returns the future of its output immediately.

        ``func`` is a generator function ``func(ctx, *args, **kwargs)`` whose
        return value is an :class:`ObjectValue` (or ``None``); the system
        stores it under the returned ref's ObjectID.

        When ``key`` is given, submission is idempotent per key: a
        duplicate submission returns the existing record's ref (reviving it
        if it had failed permanently).
        """
        if placement not in ("soft", "strict"):
            raise ValueError(f"unknown placement {placement!r}")
        if placement == "strict" and node is None:
            raise ValueError("strict placement requires a node hint")
        if key is not None:
            existing_id = self._by_key.get(key)
            if existing_id is not None:
                record = self.tasks[existing_id]
                if record.status is TaskStatus.FAILED:
                    self._revive(record)
                self.metrics.deduplicated += 1
                return ObjectRef(
                    object_id=record.spec.output_id,
                    producer_task_id=record.spec.task_id,
                )
        task_id = next(self._task_counter)
        output = output_id or ObjectID.unique(self.cluster, f"task-{task_id}")
        spec = TaskSpec(
            task_id=task_id,
            func=func,
            args=tuple(args),
            kwargs=dict(kwargs or {}),
            output_id=output,
            name=name,
            node_hint=node,
            max_restarts=max_restarts,
            key=key,
            placement=placement,
        )
        record = TaskRecord(spec=spec, finished_event=Event(self.sim))
        self.tasks[task_id] = record
        if key is not None:
            self._by_key[key] = task_id
        self.lineage[output] = task_id
        self.metrics.submitted += 1
        self._launch(record)
        return ObjectRef(object_id=output, producer_task_id=task_id)

    def _revive(self, record: TaskRecord) -> None:
        """Re-launch a permanently failed record for a fresh round of attempts."""
        record.attempts = 0
        record.failure = None
        if record.finished_event is None or record.finished_event.triggered:
            record.finished_event = Event(self.sim)
        self._launch(record)

    # -- scheduling ------------------------------------------------------------------
    def _pick_node(self, spec: TaskSpec) -> Node:
        if spec.placement == "strict":
            # Pinned to its rank's node; _execute waits for recovery if down.
            return self.cluster.nodes[spec.node_hint]
        alive = [node for node in self.cluster.nodes if node.alive]
        if not alive:
            raise TaskError("no alive nodes to schedule on")
        if spec.node_hint is not None:
            hinted = self.cluster.nodes[spec.node_hint]
            if hinted.alive:
                return hinted
        index = next(self._rr_counter) % len(alive)
        return alive[index]

    def _launch(self, record: TaskRecord) -> None:
        node = self._pick_node(record.spec)
        record.node_id = node.node_id
        record.status = TaskStatus.PENDING
        record.attempts += 1
        record.process = self.sim.process(
            self._execute(record, node), name=f"task-{record.spec.describe()}"
        )

    # -- execution --------------------------------------------------------------------
    def _execute(self, record: TaskRecord, node: Node) -> Generator:
        spec = record.spec
        obs = self.cluster.obs
        span = None
        if obs is not None:
            # One span per *attempt*: a re-execution after a failure is a
            # sibling span in the same trace (found through the lineage key
            # ``"{spec_id}#role/rank"``), so fault-and-recover reads as one
            # trace with a failed attempt and its replacement.
            span = obs.tracer.start_span(
                f"task:{spec.describe()}",
                parent=(
                    obs.tracer.lineage_parent(spec.key)
                    if spec.key is not None
                    else None
                ),
                attempt=record.attempts,
                node=node.node_id,
            )
            obs.tracer.bind_object(spec.output_id, span)
        slot = self.worker_slots[node.node_id].request()
        try:
            if not node.alive and spec.placement == "strict":
                # A strict share belongs on this node; wait out the failure.
                yield node.recovery_event()
            yield slot
            if not node.alive:
                raise TaskError(f"node {node.node_id} died before task start")
            if record.attempts > 1 and self._object_available(spec.output_id):
                # Idempotent re-execution: the previous attempt's output
                # survived (or completed during the failure-detection delay);
                # adopt it instead of redoing the work.
                if span is not None:
                    span.attrs["adopted"] = True
                record.status = TaskStatus.FINISHED
                self.metrics.adoptions += 1
                self.metrics.finished += 1
                if not record.finished_event.triggered:
                    record.finished_event.succeed(spec.output_id)
                return
            record.status = TaskStatus.RUNNING
            context = TaskContext(self, node, spec)
            resolved_args = []
            for arg in spec.args:
                if isinstance(arg, ObjectRef):
                    value = yield from self.fetch(node, arg.object_id)
                    resolved_args.append(value)
                else:
                    resolved_args.append(arg)
            body = spec.func(context, *resolved_args, **spec.kwargs)
            result = None
            if body is not None and hasattr(body, "send"):
                result = yield from body
            elif body is not None:
                result = body
            if result is None:
                result = ObjectValue(size=0)
            if not isinstance(result, ObjectValue):
                raise TaskError(
                    f"task {spec.describe()} returned {type(result).__name__}, "
                    "expected ObjectValue or None"
                )
            if not node.alive:
                raise TaskError(f"node {node.node_id} died during task")
            self.note_held_object(spec.task_id, node.node_id, spec.output_id)
            yield from self.plane.put(node, spec.output_id, result)
            record.result_size = result.size
            record.status = TaskStatus.FINISHED
            self.metrics.finished += 1
            if not record.finished_event.triggered:
                record.finished_event.succeed(spec.output_id)
        except Interrupt:
            self._handle_task_failure(record, TaskError("interrupted by node failure"))
        except Exception as exc:  # noqa: BLE001 - any task failure goes to recovery
            self._handle_task_failure(record, exc)
        finally:
            slot.release()
            if span is not None:
                if record.status is TaskStatus.FINISHED:
                    span.finish("ok")
                elif record.status is TaskStatus.PENDING:
                    span.finish("retrying")
                else:
                    span.finish("failed")

    def _handle_task_failure(self, record: TaskRecord, exc: BaseException) -> None:
        if record.status is TaskStatus.FAILED:
            # Already finalized (permanently failed); the interrupt that
            # killed the process must not resubmit it.
            return
        record.failure = exc
        self.metrics.failures += 1
        if record.attempts <= record.spec.max_restarts:
            record.status = TaskStatus.PENDING
            self.sim.process(
                self._resubmit_after_delay(record),
                name=f"resubmit-{record.spec.describe()}",
            )
        else:
            record.status = TaskStatus.FAILED
            self._release_task_resources(record)
            if not record.finished_event.triggered:
                record.finished_event.fail(
                    TaskError(f"task {record.spec.describe()} failed permanently: {exc}")
                )

    # -- resource ledger ----------------------------------------------------------
    def note_held_object(self, task_id: int, node_id: int, object_id: ObjectID) -> None:
        """Record that a task pinned ``object_id`` on ``node_id``'s store."""
        record = self.tasks.get(task_id)
        if record is not None and (node_id, object_id) not in record.held_objects:
            record.held_objects.append((node_id, object_id))

    def note_reduce_target(self, task_id: int, target_id: ObjectID) -> None:
        """Record that a task is driving a reduce toward ``target_id``."""
        record = self.tasks.get(task_id)
        if record is not None and target_id not in record.reduce_targets:
            record.reduce_targets.append(target_id)

    def _release_task_resources(self, record: TaskRecord) -> None:
        """Release pins and plane references a permanently failed task holds.

        A task that dies mid-collective can leave (a) pinned, possibly
        unsealed store entries from interrupted ``Put``s and (b) a reduce
        execution whose slot streams hold reference counts on partials.
        Both would wedge eviction forever, so the framework cleans them up
        when it gives up on the task.
        """
        runtime = getattr(self.plane, "runtime", None)
        if runtime is not None:
            for target_id in record.reduce_targets:
                execution = runtime.active_reductions.get(target_id)
                if execution is not None:
                    execution.abort(f"task {record.spec.describe()} failed permanently")
                    self.metrics.aborted_reductions += 1
        for node_id, object_id in record.held_objects:
            store = None
            if runtime is not None:
                store = runtime.stores.get(node_id)
            if store is None:
                continue
            entry = store.objects.get(object_id)
            if entry is None:
                continue
            if self._held_by_another_live_task(record, node_id, object_id):
                # Another live task still depends on this copy's pin.
                continue
            entry.pinned = False
            if not entry.sealed and entry.ref_count == 0 and not entry.has_waiters:
                # An interrupted Put left a partial nobody will ever finish.
                store.delete(object_id)
            self.metrics.released_objects += 1
        record.held_objects = []
        record.reduce_targets = []

    def _held_by_another_live_task(
        self, record: TaskRecord, node_id: int, object_id: ObjectID
    ) -> bool:
        return any(
            other is not record
            and other.status is not TaskStatus.FAILED
            and (node_id, object_id) in other.held_objects
            for other in self.tasks.values()
        )

    def _resubmit_after_delay(self, record: TaskRecord) -> Generator:
        yield self.sim.timeout(self.config.failure_detection_delay)
        self.metrics.reconstructions += 1
        self._launch(record)

    # -- driver API --------------------------------------------------------------------
    def fetch(self, node: Node, object_id: ObjectID, read_only: bool = True) -> Generator:
        """Get an object through the plane, reconstructing it if it was lost."""
        value = yield from self.plane.get(node, object_id, read_only=read_only)
        return value

    def get(self, ref: ObjectRef, read_only: bool = True) -> Generator:
        """Driver-side get (runs on the driver node)."""
        value = yield from self.fetch(self.driver_node, ref.object_id, read_only=read_only)
        return value

    def wait(
        self,
        refs: Iterable[ObjectRef],
        num_returns: int = 1,
    ) -> Generator:
        """Block until ``num_returns`` of the given tasks have finished.

        Returns ``(ready_refs, pending_refs)`` like ``ray.wait``.
        """
        refs = list(refs)
        if num_returns <= 0 or num_returns > len(refs):
            raise ValueError(
                f"num_returns must be in [1, {len(refs)}], got {num_returns}"
            )
        pending = {ref: self._finished_event_for(ref) for ref in refs}
        ready: list[ObjectRef] = []
        while len(ready) < num_returns:
            try:
                yield self.sim.any_of(list(pending.values()))
            except BaseException:
                # A failed task's event holds its error, whose traceback holds
                # this frame: drop the frame's reference so the two are not a
                # cycle.
                del pending
                raise
            newly_ready = [ref for ref, event in pending.items() if event.triggered]
            for ref in newly_ready:
                ready.append(ref)
                del pending[ref]
        return ready[:num_returns] + ready[num_returns:], list(pending.keys())

    def _finished_event_for(self, ref: ObjectRef) -> Event:
        if ref.producer_task_id is None:
            event = Event(self.sim)
            event.succeed(ref.object_id)
            return event
        record = self.tasks[ref.producer_task_id]
        if record.status is TaskStatus.FINISHED:
            event = Event(self.sim)
            event.succeed(ref.object_id)
            return event
        return record.finished_event

    def put(self, value: ObjectValue, object_id: Optional[ObjectID] = None) -> Generator:
        """Driver-side put."""
        object_id = object_id or ObjectID.unique(self.cluster, "driver-put")
        yield from self.plane.put(self.driver_node, object_id, value)
        return ObjectRef(object_id=object_id, producer_task_id=None)

    # -- failure handling ---------------------------------------------------------------
    def _on_node_failure(self, node: Node) -> None:
        """Fail running tasks on the node and reconstruct lost finished objects."""
        for record in self.tasks.values():
            if record.node_id != node.node_id:
                continue
            if record.status is TaskStatus.RUNNING or record.status is TaskStatus.PENDING:
                if record.process is not None and record.process.is_alive:
                    record.process.interrupt(f"node {node.node_id} failed")
            elif record.status is TaskStatus.FINISHED:
                # The object's only guaranteed copy was on the failed node;
                # if no other node holds it, re-execute the producer task.
                if not self._object_available_elsewhere(record.spec.output_id, node):
                    record.status = TaskStatus.PENDING
                    record.finished_event = Event(self.sim)
                    self.sim.process(
                        self._resubmit_after_delay(record),
                        name=f"reconstruct-{record.spec.describe()}",
                    )

    def _object_available_elsewhere(self, object_id: ObjectID, failed_node: Node) -> bool:
        return self._object_available(object_id, excluding=failed_node.node_id)

    def _object_available(
        self, object_id: ObjectID, excluding: Optional[int] = None
    ) -> bool:
        """True if a complete copy of ``object_id`` lives on an alive node."""
        runtime = getattr(self.plane, "runtime", None)
        if runtime is None:
            return False
        locations = runtime.directory.locations_of(object_id)
        for node_id, info in locations.items():
            if node_id == excluding or not info.complete:
                continue
            if self.cluster.nodes[node_id].alive:
                return True
        return False


@dataclass
class TaskSystemMetrics:
    """Counters describing a run of the task system."""

    submitted: int = 0
    finished: int = 0
    failures: int = 0
    reconstructions: int = 0
    #: idempotent submissions answered from an existing record.
    deduplicated: int = 0
    #: re-executions that adopted a surviving output instead of re-running.
    adoptions: int = 0
    #: store entries unpinned/deleted when a task failed permanently.
    released_objects: int = 0
    #: reduce executions aborted when their driving task failed permanently.
    aborted_reductions: int = 0

    def as_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "finished": self.finished,
            "failures": self.failures,
            "reconstructions": self.reconstructions,
            "deduplicated": self.deduplicated,
            "adoptions": self.adoptions,
            "released_objects": self.released_objects,
            "aborted_reductions": self.aborted_reductions,
        }
