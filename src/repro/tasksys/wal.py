"""Write-ahead logging with periodic checkpoints for control-plane state.

ROADMAP open item 1: the directory, the :class:`~repro.tasksys.lineage.
LineageLog` and the :class:`~repro.tasksys.lineage.OwnershipTable` were
immortal in-memory structures — a silent single point of failure.  This
module is the durability layer both now share: every control-plane mutation
is appended to a :class:`WriteAheadLog` as a simulated-clock-stamped
:class:`WalRecord` *before* (in program order) its effect is considered
durable, and the log periodically folds its tail into a checkpoint snapshot
so replay cost stays bounded by ``checkpoint_interval`` instead of growing
with history.

Recovery is ``checkpoint + tail``: the owner restores the snapshot with its
own ``restore`` function, then re-applies the tail records in sequence
order with its own ``apply`` function.  The log itself is storage-agnostic
— records hold live Python references for speed (this is a simulator), and
:func:`record_to_wire` / :func:`record_from_wire` provide the canonical
JSON-safe wire form (the schema the ROADMAP documents) for the round-trip
serialization tests and for anyone who wants to persist a log for real.

Determinism discipline: appending and checkpointing are pure bookkeeping —
they schedule no simulated events and read no wall clock — so a run with
WAL recording on is byte-identical to one with it off.  Only an explicit
failure injection (``fail_shard`` / ``kill_control_plane``) ever makes the
log *matter*, and then replay is itself deterministic: same history, same
records, same reconstructed state.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.store.objects import ObjectID, ObjectValue, ReduceOp

#: default number of tail records that triggers an automatic checkpoint.
DEFAULT_CHECKPOINT_INTERVAL = 512


@dataclass(frozen=True)
class WalRecord:
    """One durable control-plane mutation.

    ``seq`` is the log-wide sequence number (monotonic, never reused across
    checkpoints), ``time`` the simulated clock at append, ``kind`` the
    operation tag the owner's ``apply`` function dispatches on, and ``data``
    the operation payload (a tuple of primitives / ObjectIDs / ObjectValues
    / CollectiveSpecs — everything :func:`to_wire` can encode).
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
        record = WalRecord(seq=self.next_seq, time=self.sim._now, kind=kind, data=data)
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
        upto_seq: Optional[int] = None,
    ) -> int:
        """Reconstruct owner state: restore the checkpoint, re-apply the tail.

        ``upto_seq`` (exclusive) limits replay to records appended before a
        given point — the crash-at-boundary tests use it to replay exactly
        the history that was durable at the kill.  Returns the number of
        tail records applied.
        """
        restore_fn(self.checkpoint_state)
        applied = 0
        for record in self.tail:
            if upto_seq is not None and record.seq >= upto_seq:
                break
            apply_fn(record)
            applied += 1
        self.replays += 1
        return applied


# ---------------------------------------------------------------------------
# Wire form
# ---------------------------------------------------------------------------
#
# The canonical JSON-safe encoding of a WAL record — the schema recorded in
# the ROADMAP.  Every value a control-plane op can carry round-trips:
#
#   None/bool/int/float/str    as themselves
#   bytes                      {"__bytes__": hex}
#   numpy ndarray              {"__ndarray__": {dtype, shape, data-hex}}
#   tuple                      {"__tuple__": [items]}
#   list                       [items]
#   dict                       {"__map__": [[key, value], ...]}  (any keys)
#   ObjectID                   {"__oid__": key}
#   ReduceOp                   {"__op__": name}
#   ObjectValue                {"__value__": {size, payload, metadata}}
#   CollectiveSpec             {"__spec__": {all dataclass fields}}


def to_wire(obj: Any) -> Any:
    """Encode one WAL payload value into JSON-safe plain data."""
    # Deferred import: lineage imports nothing from here, but keeping the
    # module edge one-directional at import time avoids a cycle.
    from repro.tasksys.lineage import CollectiveSpec

    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, bytes):
        return {"__bytes__": obj.hex()}
    # No array exists before numpy is loaded, so a run without one never
    # imports it here.
    np = sys.modules.get("numpy")
    if np is not None and isinstance(obj, np.ndarray):
        return {
            "__ndarray__": {
                "dtype": str(obj.dtype),
                "shape": list(obj.shape),
                "data": obj.tobytes().hex(),
            }
        }
    if isinstance(obj, tuple):
        return {"__tuple__": [to_wire(item) for item in obj]}
    if isinstance(obj, list):
        return [to_wire(item) for item in obj]
    if isinstance(obj, dict):
        return {"__map__": [[to_wire(k), to_wire(v)] for k, v in obj.items()]}
    if isinstance(obj, ObjectID):
        return {"__oid__": obj.key}
    if isinstance(obj, ReduceOp):
        return {"__op__": obj.name}
    if isinstance(obj, ObjectValue):
        return {
            "__value__": {
                "size": obj.size,
                "payload": to_wire(obj.payload),
                "metadata": to_wire(dict(obj.metadata)),
            }
        }
    if isinstance(obj, CollectiveSpec):
        return {
            "__spec__": {
                "spec_id": obj.spec_id,
                "kind": obj.kind,
                "participants": list(obj.participants),
                "root": obj.root,
                "op": to_wire(obj.op),
                "sources": to_wire(obj.sources),
                "targets": to_wire(obj.targets),
                "recvs": to_wire(obj.recvs),
                "payloads": to_wire(obj.payloads),
                "incarnation": obj.incarnation,
            }
        }
    raise TypeError(f"cannot encode {type(obj).__name__} for the WAL wire form")


def from_wire(obj: Any) -> Any:
    """Decode :func:`to_wire` output back into live values."""
    from repro.tasksys.lineage import CollectiveSpec

    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, list):
        return [from_wire(item) for item in obj]
    if isinstance(obj, dict):
        if "__bytes__" in obj:
            return bytes.fromhex(obj["__bytes__"])
        if "__ndarray__" in obj:
            import numpy as np

            spec = obj["__ndarray__"]
            flat = np.frombuffer(
                bytes.fromhex(spec["data"]), dtype=np.dtype(spec["dtype"])
            )
            return flat.reshape(spec["shape"]).copy()
        if "__tuple__" in obj:
            return tuple(from_wire(item) for item in obj["__tuple__"])
        if "__map__" in obj:
            return {from_wire(k): from_wire(v) for k, v in obj["__map__"]}
        if "__oid__" in obj:
            return ObjectID(obj["__oid__"])
        if "__op__" in obj:
            return ReduceOp[obj["__op__"]]
        if "__value__" in obj:
            spec = obj["__value__"]
            return ObjectValue(
                size=spec["size"],
                payload=from_wire(spec["payload"]),
                metadata=from_wire(spec["metadata"]),
            )
        if "__spec__" in obj:
            fields = obj["__spec__"]
            return CollectiveSpec(
                spec_id=fields["spec_id"],
                kind=fields["kind"],
                participants=tuple(fields["participants"]),
                root=fields["root"],
                op=from_wire(fields["op"]),
                sources=from_wire(fields["sources"]),
                targets=from_wire(fields["targets"]),
                recvs=from_wire(fields["recvs"]),
                payloads=from_wire(fields["payloads"]),
                incarnation=fields["incarnation"],
            )
    raise TypeError(f"cannot decode wire object {obj!r}")


def record_to_wire(record: WalRecord) -> dict:
    """The canonical JSON-safe form of one WAL record."""
    return {
        "seq": record.seq,
        "time": record.time,
        "kind": record.kind,
        "data": to_wire(record.data),
    }


def record_from_wire(wire: dict) -> WalRecord:
    return WalRecord(
        seq=wire["seq"],
        time=wire["time"],
        kind=wire["kind"],
        data=from_wire(wire["data"]),
    )
