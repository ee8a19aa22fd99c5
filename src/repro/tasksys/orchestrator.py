"""Lineage-driven collective orchestration (the paper's Section 6, realized).

Hoplite's object plane makes every *transfer* fault-tolerant, but the paper
explicitly delegates the last failure class — the death of the node that
*called* the collective — to the task framework: "the task framework
re-executes a failed caller from lineage".  This module is that framework
layer.  It runs every collective as a re-executable task DAG instead of an
anonymous simulation process:

* each invocation is described by a durable
  :class:`~repro.tasksys.lineage.CollectiveSpec` recorded in a
  :class:`~repro.tasksys.lineage.LineageLog`;
* every participant's share — producing its source objects, driving the
  rooted reduce, gathering its column — is a *driver task* registered in the
  :class:`~repro.tasksys.system.TaskSystem` under an idempotency key derived
  from ``(spec_id, role, rank)``, so recovery re-submissions adopt surviving
  tasks instead of duplicating them; each task is retried up to
  :data:`DEFAULT_MAX_RESTARTS` times;
* per-rank shares use **strict placement** (their objects must materialize
  on their rank's node, so they wait out that node's downtime), while the
  root/caller share uses **soft placement** and migrates to any alive node —
  this is what makes root failure survivable without a job restart;
* an :class:`~repro.tasksys.lineage.OwnershipTable` maps every object the
  collective touches — sources, results, reduce partials, broadcast relay
  copies — to its producing spec, fed live by the executions through the
  runtime's orchestration hook;
* a re-executed root *adopts* surviving work through two mechanisms: the
  directory (a target that completed during the failure-detection delay is
  simply fetched) and the runtime's active-reduction registry (an in-flight
  reduce tree whose detached driver survived the caller keeps streaming and
  the restarted caller waits on it).

The result is the step from fault-*tolerant* to fault-*transparent*: any
node in the collective — peer, producer, or the root/caller itself — can die
mid-collective and the collective still terminates with the correct result,
with no job restart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, Optional, Tuple

from repro.core.runtime import LocalOrchestration
from repro.directory.service import DurableService
from repro.net.transport import TransferError
from repro.store.objects import ObjectID, ObjectValue
from repro.tasksys.lineage import (
    CollectiveSpec,
    LineageLog,
    OwnershipTable,
)
from repro.tasksys.refs import ObjectRef
from repro.tasksys.system import TaskSystem

#: logical size of a driver task's output marker: small enough for the
#: inline fast path, so outcome collection costs no bandwidth.
MARKER_BYTES = 1024

#: restart budget for collective driver tasks; generous because a share
#: under a hostile failure schedule legitimately retries many times.
DEFAULT_MAX_RESTARTS = 50


def _as_output(arrays) -> ObjectValue:
    """Pack received payload arrays into a tiny result marker."""
    arrays = [array for array in arrays if array is not None]
    if not arrays:
        return ObjectValue(size=0)
    import numpy as np

    stacked = arrays[0] if len(arrays) == 1 else np.stack(arrays)
    return ObjectValue.from_array(stacked, logical_size=MARKER_BYTES)


# ---------------------------------------------------------------------------
# Driver task bodies
# ---------------------------------------------------------------------------
#
# Each body receives only ``(orch, spec_id, rank)`` and re-derives its work
# from the lineage log, so a re-execution — possibly on a different node, in
# a different incarnation of its original node — needs nothing from the dead
# attempt.  All of them are idempotent: they check the directory before
# re-creating objects and rely on Put being idempotent per ObjectID.


def _producer_share(ctx, orch: "CollectiveOrchestrator", spec_id: str, rank: int):
    """Re-``Put`` the rank's source objects (skipping survivors)."""
    spec = yield from orch.lookup_spec(spec_id)
    for object_id in spec.sources.get(rank, ()):
        if orch.object_available(object_id):
            orch.metrics["source_adoptions"] += 1
            continue
        yield from ctx.plane.put(ctx.node, object_id, spec.payload_of(object_id))
    return None


def _broadcast_root_share(ctx, orch: "CollectiveOrchestrator", spec_id: str):
    """Produce the broadcast object — on *any* alive node, from lineage."""
    spec = yield from orch.lookup_spec(spec_id)
    (object_id,) = spec.sources[spec.root]
    if orch.object_available(object_id):
        orch.metrics["root_adoptions"] += 1
        return None
    yield from ctx.plane.put(ctx.node, object_id, spec.payload_of(object_id))
    return None


def _reduce_root_share(ctx, orch: "CollectiveOrchestrator", spec_id: str):
    """Drive the rooted reduce; adopt surviving work on re-execution.

    Adoption has two layers: a target that *completed* while this share was
    being re-scheduled is simply fetched (the directory remembers it), and
    an in-flight reduce whose detached driver survived the dead caller is
    joined through ``plane.reduce`` (the runtime's active-reduction
    registry), so the surviving partials keep streaming instead of being
    recomputed.
    """
    spec = yield from orch.lookup_spec(spec_id)
    target_id = spec.targets[spec.root]
    if orch.object_available(target_id):
        orch.metrics["root_adoptions"] += 1
    else:
        yield from ctx.plane.reduce(
            ctx.node, target_id, spec.all_source_ids(), spec.op
        )
    value = yield from ctx.get(target_id)
    return _as_output([None if value.payload is None else value.as_array()])


def _get_share(ctx, orch: "CollectiveOrchestrator", spec_id: str, rank: int):
    """Fetch the rank's receive set one by one (broadcast / allreduce)."""
    spec = yield from orch.lookup_spec(spec_id)
    arrays = []
    for object_id in spec.recvs.get(rank, ()):
        value = yield from ctx.get(object_id)
        arrays.append(None if value.payload is None else value.as_array())
    return _as_output(arrays)


def _allgather_share(ctx, orch: "CollectiveOrchestrator", spec_id: str, rank: int):
    """Gather every participant's object with the windowed rotation."""
    spec = yield from orch.lookup_spec(spec_id)
    result = yield from ctx.plane.allgather(ctx.node, list(spec.recvs[rank]))
    return _as_output(
        [None if v.payload is None else v.as_array() for v in result.values]
    )


def _reduce_scatter_share(ctx, orch: "CollectiveOrchestrator", spec_id: str, rank: int):
    """Reduce the rank's shard column into its target."""
    spec = yield from orch.lookup_spec(spec_id)
    target_id = spec.targets[rank]
    if orch.object_available(target_id):
        orch.metrics["target_adoptions"] += 1
        value = yield from ctx.get(target_id)
    else:
        result = yield from ctx.plane.reduce_scatter(
            ctx.node, target_id, spec.column_of(rank), spec.op
        )
        value = result.value
    return _as_output([None if value.payload is None else value.as_array()])


def _alltoall_share(ctx, orch: "CollectiveOrchestrator", spec_id: str, rank: int):
    """Exchange the rank's row and column of the alltoall matrix."""
    spec = yield from orch.lookup_spec(spec_id)
    sends = [
        (object_id, spec.payload_of(object_id))
        for object_id in spec.sources.get(rank, ())
        if not orch.object_available(object_id)
    ]
    recv_ids = list(spec.recvs.get(rank, ()))
    result = yield from ctx.plane.alltoall(ctx.node, sends, recv_ids)
    return _as_output(
        [None if v.payload is None else v.as_array() for v in result.values]
    )


# ---------------------------------------------------------------------------
# Orchestrator
# ---------------------------------------------------------------------------


@dataclass
class CollectiveOutcome:
    """What an :meth:`CollectiveOrchestrator.invoke` call returns."""

    spec: CollectiveSpec
    #: per-rank result payloads (ranks that hold results for this kind).
    results: Dict[int, ObjectValue] = field(default_factory=dict)
    #: every driver task submitted, keyed by (role, rank).
    refs: Dict[Tuple[str, int], ObjectRef] = field(default_factory=dict)
    completion_time: float = 0.0


class _RecordingOrchestration(LocalOrchestration):
    """The runtime hook that feeds the ownership table live."""

    def __init__(self, orchestrator: "CollectiveOrchestrator"):
        super().__init__(orchestrator.system.sim)
        self.orchestrator = orchestrator

    def spawn(self, generator, name: str = "", owner: Optional[ObjectID] = None):
        orchestrator = self.orchestrator
        orchestrator.metrics["driver_processes"] += 1
        if owner is not None:
            # Attribute the process to the spec that owns the object it
            # works toward (the collective target or an alltoall shard).
            owned = orchestrator.ownership.owner_of(owner)
            if owned is not None:
                counts = orchestrator.driver_processes_by_spec
                counts[owned.spec_id] = counts.get(owned.spec_id, 0) + 1
        return self.sim.process(generator, name=name)

    def record_partial(self, parent_id, partial_id, node_id=None) -> None:
        orchestrator = self.orchestrator
        orchestrator.control.wal.append("partial", (parent_id, partial_id, node_id))
        orchestrator.ownership.record_partial(parent_id, partial_id, node_id)

    def record_copy(self, object_id, node_id) -> None:
        orchestrator = self.orchestrator
        orchestrator.control.wal.append("copy", (object_id, node_id))
        orchestrator.ownership.record_copy(object_id, node_id)


class CollectiveOrchestrator:
    """Runs collectives as re-executable task DAGs with recorded lineage."""

    #: (kind -> (root share body or None, rank share body, ranks-with-results))
    _ROOTED_BODIES = {
        "broadcast": _broadcast_root_share,
        "reduce": _reduce_root_share,
        "allreduce": _reduce_root_share,
    }
    _RANK_BODIES = {
        "broadcast": _get_share,
        "allreduce": _get_share,
        "allgather": _allgather_share,
        "reduce_scatter": _reduce_scatter_share,
        "alltoall": _alltoall_share,
    }

    def __init__(self, system: TaskSystem):
        self.system = system
        self.cluster = system.cluster
        self.plane = system.plane
        self.sim = system.sim
        self.lineage = LineageLog()
        self.ownership = OwnershipTable()
        self.metrics: Dict[str, int] = {
            "invocations": 0,
            "driver_processes": 0,
            "root_adoptions": 0,
            "target_adoptions": 0,
            "source_adoptions": 0,
            "control_plane_kills": 0,
            "control_plane_resubmissions": 0,
        }
        #: spec_id -> collective-internal driver processes spawned for it.
        self.driver_processes_by_spec: Dict[str, int] = {}
        #: specs whose invocation finished (recovery never re-submits these).
        self.completed: set = set()
        #: the lineage/ownership services, a failure domain of their own
        #: (see :meth:`kill_control_plane`).  Every spec registration,
        #: submission, completion and dynamic ownership record lands in its
        #: WAL before it matters, so :meth:`replay_after_restart` can rebuild
        #: the whole orchestration state from the kill's snapshot plus the
        #: records appended while the plane was down.
        self.control = DurableService(self.cluster, "control-plane", self._snapshot)
        runtime = getattr(self.plane, "runtime", None)
        if runtime is not None:
            runtime.orchestration = _RecordingOrchestration(self)

    def close(self) -> None:
        """Cut the back-references a finished run leaves to the orchestrator.

        Call it once the queue has drained, before the runtime and the
        cluster close.  The runtime gets its default orchestration hook
        back, the control plane's WAL drops its hooks
        (:meth:`DurableService.close`) and the task system closes
        (:meth:`TaskSystem.close`).  Lineage, ownership and metrics stay
        readable.
        """
        runtime = getattr(self.plane, "runtime", None)
        if runtime is not None:
            runtime.orchestration = LocalOrchestration(self.sim)
        self.control.close()
        self.system.close()

    # -- directory-backed adoption checks ------------------------------------
    def object_available(self, object_id: ObjectID) -> bool:
        """True if a complete copy of ``object_id`` lives on an alive node."""
        runtime = getattr(self.plane, "runtime", None)
        if runtime is None:
            return False
        for node_id, info in runtime.directory.locations_of(object_id).items():
            if info.complete and self.cluster.nodes[node_id].alive:
                return True
        return False

    # -- registration ---------------------------------------------------------
    def register(self, spec: CollectiveSpec) -> None:
        """Record the spec durably and declare its objects' ownership."""
        is_new = spec.spec_id not in self.lineage
        if is_new:
            self.ownership.register_spec(spec)
        self.lineage.record(spec)
        if is_new:
            self.control.wal.append("spec", (spec,))

    # -- submission -----------------------------------------------------------
    def submit(self, spec: CollectiveSpec) -> Dict[Tuple[str, int], ObjectRef]:
        """(Re-)submit the spec's driver task set; idempotent per spec.

        Producer shares and per-rank shares are strict (pinned to their
        rank's node); the root/caller share is soft and migrates to any
        alive node on re-execution.  Re-submitting an already-running spec
        returns the existing tasks — the task system deduplicates on each
        task's key.
        """
        self.register(spec)
        self.lineage.note_submission(spec.spec_id)
        self.control.wal.append("submit", (spec.spec_id,))
        refs: Dict[Tuple[str, int], ObjectRef] = {}

        def _task(role, body, rank, node, placement, kwargs):
            refs[(role, rank)] = self.system.submit(
                body,
                kwargs=kwargs,
                node=node,
                name=f"{spec.spec_id}:{role}:{rank}",
                key=f"{spec.spec_id}#{role}/{rank}",
                placement=placement,
                max_restarts=DEFAULT_MAX_RESTARTS,
            )

        common = dict(orch=self, spec_id=spec.spec_id)
        rooted = spec.kind in self._ROOTED_BODIES
        for rank in spec.participants:
            # The root's sources are produced by its soft share for
            # broadcast (so a dead root's data is re-created elsewhere);
            # reduce sources live on their ranks and stay strict.
            if spec.sources.get(rank) and not (
                spec.kind == "broadcast" and rank == spec.root
            ) and spec.kind != "alltoall":
                _task(
                    "produce",
                    _producer_share,
                    rank,
                    rank,
                    "strict",
                    dict(common, rank=rank),
                )
        if rooted:
            _task(
                "root",
                self._ROOTED_BODIES[spec.kind],
                spec.root,
                spec.root,
                "soft",
                dict(common),
            )
        rank_body = self._RANK_BODIES.get(spec.kind)
        if rank_body is not None:
            for rank in spec.participants:
                if spec.kind == "broadcast" and rank == spec.root:
                    continue
                _task("share", rank_body, rank, rank, "strict", dict(common, rank=rank))
        return refs

    # -- invocation -----------------------------------------------------------
    def invoke(self, spec: CollectiveSpec) -> Generator:
        """Run the collective end to end; a framework-side driver generator.

        Blocks until every driver task has finished, then collects the
        per-rank result payloads.  The generator itself is framework state
        (the paper's assumption: the control plane outlives any data-plane
        node), so it is not bound to a node and survives every failure the
        task set can survive.
        """
        self.metrics["invocations"] += 1
        flight = self.cluster.flight
        if flight is not None:
            flight.phase(f"spec:{spec.spec_id}", f"invoke/{spec.kind}")
        obs = self.cluster.obs
        root_span = None
        if obs is not None:
            # The root span anchors the whole trace under the spec_id, and
            # binds every object the spec mentions so its blocks (and
            # re-executed shares after a fault) land in the same trace.
            parent = None
            for oid in spec.all_source_ids():
                parent = obs.tracer.span_for_object(oid)
                if parent is not None:
                    break
            root_span = obs.tracer.root_for_spec(
                spec.spec_id,
                spec.kind,
                parent=parent,
                participants=len(spec.participants),
            )
            for oid in spec.all_source_ids():
                obs.tracer.bind_object(oid, root_span)
            for oid in spec.targets.values():
                obs.tracer.bind_object(oid, root_span)
            for ids in spec.recvs.values():
                for oid in ids:
                    obs.tracer.bind_object(oid, root_span)
        refs = self.submit(spec)
        yield from self.system.wait(list(refs.values()), num_returns=len(refs))
        results: Dict[int, ObjectValue] = {}
        for (role, rank), ref in sorted(refs.items()):
            if role in ("root", "share"):
                value = yield from self.fetch(ref)
                results[rank] = value
        if root_span is not None:
            root_span.finish("ok")
        self.completed.add(spec.spec_id)
        self.control.wal.append("complete", (spec.spec_id,))
        if flight is not None:
            flight.phase(f"spec:{spec.spec_id}", "complete")
        return CollectiveOutcome(
            spec=spec,
            results=results,
            refs=refs,
            completion_time=self.sim.now,
        )

    def fetch(self, ref: ObjectRef) -> Generator:
        """Framework-side fetch: reads through any alive node, with retries."""
        delay = self.cluster.config.failure_detection_delay
        while True:
            node = next((n for n in self.cluster.nodes if n.alive), None)
            if node is None:
                yield self.sim.timeout(delay)
                continue
            try:
                value = yield from self.system.fetch(node, ref.object_id)
                return value
            except TransferError:
                yield self.sim.timeout(delay)

    # -- durability: the control plane as a failure domain ---------------------
    def lookup_spec(self, spec_id: str) -> Generator:
        """Task-side lineage read; parks while the control plane is down.

        On the (overwhelmingly common) alive path this yields nothing and
        schedules nothing — a plain dictionary read — so gating every driver
        task body through it costs zero simulated events.  While the plane
        is down the task parks (see :meth:`DurableService.park`) and re-reads
        the spec from the *replayed* log once recovery completes.
        """
        if not self.control.alive:
            yield from self.control.park()
        return self.lineage.spec(spec_id)

    def _snapshot(self):
        """Checkpoint state: lineage, submissions, completions, ownership."""
        ownership = self.ownership
        return (
            dict(self.lineage._specs),
            dict(self.lineage.submissions),
            set(self.completed),
            dict(ownership._objects),
            {spec_id: set(ids) for spec_id, ids in ownership._by_spec.items()},
            {object_id: set(ids) for object_id, ids in ownership._copies.items()},
        )

    def _restore(self, snapshot) -> None:
        self.lineage = LineageLog()
        self.ownership = OwnershipTable()
        self.completed = set()
        if snapshot is None:
            return
        specs, submissions, completed, objects, by_spec, copies = snapshot
        self.lineage._specs = dict(specs)
        self.lineage.submissions = dict(submissions)
        self.completed = set(completed)
        self.ownership._objects = dict(objects)
        self.ownership._by_spec = {
            spec_id: set(ids) for spec_id, ids in by_spec.items()
        }
        self.ownership._copies = {
            object_id: set(ids) for object_id, ids in copies.items()
        }

    def _replay_record(self, kind: str, data: tuple) -> None:
        if kind == "spec":
            (spec,) = data
            if spec.spec_id not in self.lineage:
                self.ownership.register_spec(spec)
            self.lineage.record(spec)
        elif kind == "submit":
            (spec_id,) = data
            self.lineage.submissions[spec_id] = (
                self.lineage.submissions.get(spec_id, 0) + 1
            )
        elif kind == "complete":
            (spec_id,) = data
            self.completed.add(spec_id)
        elif kind == "partial":
            parent_id, partial_id, node_id = data
            self.ownership.record_partial(parent_id, partial_id, node_id)
        elif kind == "copy":
            object_id, node_id = data
            self.ownership.record_copy(object_id, node_id)
        else:  # pragma: no cover - programming error
            raise ValueError(f"unknown control-plane WAL op {kind!r}")

    def kill_control_plane(self) -> None:
        """Kill the lineage/ownership services: their state is lost *now*.

        The in-memory tables are wiped to fresh instances; driver tasks
        reaching :meth:`lookup_spec` park (see :meth:`DurableService.park`)
        until the spawned recovery task replays the WAL.  Tasks already past
        their lookup keep running on the spec references they hold — exactly
        the semantics of a service process dying while its clients' RPCs
        were already answered.
        """
        if not self.control.kill():
            return
        self.metrics["control_plane_kills"] += 1
        self.lineage = LineageLog()
        self.ownership = OwnershipTable()
        self.completed = set()
        self.sim.process(
            self._recover_control_plane(), name="control-plane-recovery"
        )

    def replay_after_restart(self) -> Tuple[int, int]:
        """Rebuild orchestration state from the WAL; resume in-flight specs.

        Returns ``(records_applied, specs_resubmitted)``, where the first is
        the WAL's count (see :meth:`DurableService.replay`).  Only a killed
        plane replays.  Every spec
        that had been submitted but not completed at the kill is re-submitted
        from its durable spec — the task system's dedup by key turns that
        into adoption of surviving driver tasks rather than duplicate work,
        which is what "resume, don't restart" means operationally.
        """
        applied = self.control.replay(self._restore, self._replay_record)
        resubmitted = 0
        for spec in list(self.lineage):
            if spec.spec_id in self.completed:
                continue
            if self.lineage.submissions.get(spec.spec_id, 0) == 0:
                continue
            self.submit(spec)
            resubmitted += 1
        self.metrics["control_plane_resubmissions"] += resubmitted
        return applied, resubmitted

    def _recover_control_plane(self) -> Generator:
        yield self.sim.timeout(self.cluster.config.failure_detection_delay)
        applied, resubmitted = self.replay_after_restart()
        yield from self.control.revive(
            applied, f"applied={applied}/resubmitted={resubmitted}"
        )
