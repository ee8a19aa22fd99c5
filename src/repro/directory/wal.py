"""Write-ahead logging for control-plane state: a count, not a log.

Each :class:`~repro.directory.service.DurableService` — a directory shard,
or the orchestrator's lineage plane — owns one :class:`WriteAheadLog`.
Every mutation of the service's state is appended before (in program
order) its effect is considered durable.  While the service is up an
append only counts: a kill snapshots the state it is about to wipe, so
nothing appended before the kill is ever needed again.  While the service
is down the world keeps mutating (node purges arrive as callbacks, specs
complete), and those appends also keep their ``(kind, data)``.

Recovery is ``kill snapshot + downtime records``: the owner restores the
snapshot with its own ``restore`` function, then re-applies the downtime
records in append order with its own ``apply`` function.  The count sets
the simulated replay cost: it resets every :data:`CHECKPOINT_INTERVAL`
appends while the service is up (a checkpoint), and never while it is
down.  The log is never persisted: records hold live Python references
(this is a simulator).

Determinism discipline: appending is pure bookkeeping — it schedules no
simulated events and reads no wall clock — so a run with WAL recording on
is byte-identical to one with it off.  Only an explicit failure injection
(``fail_shard`` / ``kill_control_plane``) ever makes the log *matter*, and
then replay is itself deterministic: same history, same records, same
reconstructed state.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

#: appends after which a live service checkpoints (resets the count).
CHECKPOINT_INTERVAL = 512


class WriteAheadLog:
    """An append counter that keeps only the records appended while frozen.

    The owner supplies ``snapshot_fn`` (returns an opaque, *immutable-once-
    taken* snapshot of its current state), which :meth:`freeze` calls when
    the owner goes down, and drives replay with its own restore/apply
    callbacks.  ``on_append`` / ``on_checkpoint`` are observational hooks
    (metrics, flight-recorder phase marks): they must not schedule events.
    """

    __slots__ = (
        "snapshot_fn",
        "on_append",
        "on_checkpoint",
        "snapshot",
        "downtime",
        "count",
        "appends",
        "checkpoints",
        "replays",
        "frozen",
    )

    def __init__(
        self,
        snapshot_fn: Optional[Callable[[], Any]] = None,
        on_append: Optional[Callable[[str], None]] = None,
        on_checkpoint: Optional[Callable[[int], None]] = None,
    ):
        self.snapshot_fn = snapshot_fn
        self.on_append = on_append
        self.on_checkpoint = on_checkpoint
        #: the owner's state when it was last frozen (``None``: never).
        self.snapshot: Any = None
        #: ``(kind, data)`` appended since the last freeze, while frozen.
        self.downtime: list = []
        #: appends since the last checkpoint: what a replay reports applied.
        self.count = 0
        self.appends = 0
        self.checkpoints = 0
        self.replays = 0
        #: set while the owning service is down: appends keep their records
        #: and never checkpoint.
        self.frozen = False

    def append(self, kind: str, data: Any) -> None:
        """Append one mutation record."""
        self.appends += 1
        self.count += 1
        if self.on_append is not None:
            self.on_append(kind)
        if self.frozen:
            self.downtime.append((kind, data))
        elif self.count >= CHECKPOINT_INTERVAL:
            self.count = 0
            self.checkpoints += 1
            if self.on_checkpoint is not None:
                self.on_checkpoint(self.appends)

    def freeze(self) -> None:
        """The owner goes down: snapshot its state before it is wiped."""
        self.snapshot = self.snapshot_fn()
        self.downtime = []
        self.frozen = True

    def replay(
        self,
        restore_fn: Callable[[Any], None],
        apply_fn: Callable[[str, Any], None],
    ) -> int:
        """Reconstruct owner state: restore the snapshot, re-apply the
        downtime records.  Returns the count of records appended since the
        last checkpoint, which is what a replay from it would apply.
        """
        restore_fn(self.snapshot)
        for kind, data in self.downtime:
            apply_fn(kind, data)
        self.replays += 1
        return self.count
