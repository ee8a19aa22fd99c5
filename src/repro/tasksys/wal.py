"""Write-ahead logging with periodic checkpoints for control-plane state.

Each :class:`~repro.directory.service.DurableService` — a directory shard,
or the orchestrator's lineage plane — owns one :class:`WriteAheadLog`.
Every mutation of the service's state is appended as a
simulated-clock-stamped :class:`WalRecord` *before* (in program order) its
effect is considered durable, and the log periodically folds its tail into
a checkpoint snapshot so replay cost stays bounded by
``checkpoint_interval`` instead of growing with history.

Recovery is ``checkpoint + tail``: the owner restores the snapshot with its
own ``restore`` function, then re-applies the tail records in sequence
order with its own ``apply`` function.  The log is never persisted:
records hold live Python references (this is a simulator).

Determinism discipline: appending and checkpointing are pure bookkeeping —
they schedule no simulated events and read no wall clock — so a run with
WAL recording on is byte-identical to one with it off.  Only an explicit
failure injection (``fail_shard`` / ``kill_control_plane``) ever makes the
log *matter*, and then replay is itself deterministic: same history, same
records, same reconstructed state.
"""

from __future__ import annotations

from typing import Any, Callable, List, NamedTuple, Optional

#: default number of tail records that triggers an automatic checkpoint.
DEFAULT_CHECKPOINT_INTERVAL = 512


class WalRecord(NamedTuple):
    """One durable control-plane mutation.

    ``seq`` is the log-wide sequence number (monotonic, never reused across
    checkpoints), ``time`` the simulated clock at append, ``kind`` the
    operation tag the owner's ``apply`` function dispatches on, and ``data``
    the operation payload (a tuple of primitives / ObjectIDs / ObjectValues
    / CollectiveSpecs, held by reference).  A tuple: it equals
    ``(seq, time, kind, data)`` and hashes as it does.
    """

    seq: int
    time: float
    kind: str
    data: Any


class WriteAheadLog:
    """An in-memory WAL with periodic snapshot checkpoints.

    The owner supplies ``snapshot_fn`` (returns an opaque, *immutable-once-
    taken* snapshot of its current state) and drives replay with its own
    restore/apply callbacks; the log only guarantees ordering, stamping,
    and bounded tail length.  ``on_append`` / ``on_checkpoint`` are
    observational hooks (metrics, flight-recorder phase marks): they must
    not schedule events.
    """

    __slots__ = (
        "sim",
        "name",
        "checkpoint_interval",
        "snapshot_fn",
        "on_append",
        "on_checkpoint",
        "tail",
        "checkpoint_state",
        "checkpoint_seq",
        "checkpoint_time",
        "next_seq",
        "appends",
        "checkpoints",
        "replays",
        "frozen",
    )

    def __init__(
        self,
        sim,
        name: str,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
        snapshot_fn: Optional[Callable[[], Any]] = None,
        on_append: Optional[Callable[[WalRecord], None]] = None,
        on_checkpoint: Optional[Callable[[int], None]] = None,
    ):
        if checkpoint_interval <= 0:
            raise ValueError("checkpoint interval must be positive")
        self.sim = sim
        self.name = name
        self.checkpoint_interval = checkpoint_interval
        self.snapshot_fn = snapshot_fn
        self.on_append = on_append
        self.on_checkpoint = on_checkpoint
        #: records appended since the last checkpoint, in sequence order.
        self.tail: List[WalRecord] = []
        self.checkpoint_state: Any = None
        #: sequence number the checkpoint covers up to (exclusive).
        self.checkpoint_seq = 0
        self.checkpoint_time = 0.0
        self.next_seq = 0
        self.appends = 0
        self.checkpoints = 0
        self.replays = 0
        #: set while the owning service is down: appends still land (the
        #: world keeps mutating — node purges arrive as callbacks), but
        #: auto-checkpointing is suspended so no snapshot of wiped state can
        #: ever be taken.
        self.frozen = False

    def __len__(self) -> int:
        return len(self.tail)

    def append(self, kind: str, data: Any) -> WalRecord:
        """Append one mutation record, stamped with the simulated clock."""
        record = WalRecord(self.next_seq, self.sim._now, kind, data)
        self.next_seq += 1
        self.tail.append(record)
        self.appends += 1
        if self.on_append is not None:
            self.on_append(record)
        if (
            not self.frozen
            and self.snapshot_fn is not None
            and len(self.tail) >= self.checkpoint_interval
        ):
            self.checkpoint()
        return record

    def checkpoint(self) -> None:
        """Fold the tail into a fresh snapshot and truncate it."""
        if self.snapshot_fn is None:
            raise ValueError(f"WAL {self.name!r} has no snapshot function")
        if self.frozen:
            raise ValueError(f"WAL {self.name!r} is frozen (owner down)")
        self.checkpoint_state = self.snapshot_fn()
        self.checkpoint_seq = self.next_seq
        self.checkpoint_time = self.sim._now
        self.tail = []
        self.checkpoints += 1
        if self.on_checkpoint is not None:
            self.on_checkpoint(self.checkpoint_seq)

    def replay(
        self,
        restore_fn: Callable[[Any], None],
        apply_fn: Callable[[WalRecord], None],
    ) -> int:
        """Reconstruct owner state: restore the checkpoint, re-apply the tail.

        Returns the number of tail records applied.
        """
        restore_fn(self.checkpoint_state)
        for record in self.tail:
            apply_fn(record)
        self.replays += 1
        return len(self.tail)
