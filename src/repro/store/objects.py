"""The object model shared by every layer: IDs, values, and reduce operators.

Objects in the reproduction carry two things:

* a *logical size* in bytes, which is what the simulator uses to compute
  transfer and copy times (a 1 GB object does not need a real 1 GB buffer);
* an optional *payload* (a NumPy array or raw bytes) used by functional
  tests, the examples, and the reduce operator so that correctness — not
  just timing — can be verified end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Union

if TYPE_CHECKING:
    import numpy as np

def reset_id_counter() -> None:
    """Do nothing: ObjectIDs are minted per cluster, so there is no global to reset.

    Kept only because the frozen benchmark harness (``perf/perfcells.py``)
    calls it before every simulation; it goes once that call does.
    """


#: numpy is imported only where a payload array is handled (here and in the
#: orchestrator's result marker), never at module level, so a run whose
#: objects carry no payload, faulted or not, never loads it.
Payload = Union["np.ndarray", bytes, None]


def _to_array(payload: Payload) -> "np.ndarray":
    """A payload as an array; bytes read as a uint8 buffer."""
    import numpy as np

    if isinstance(payload, bytes):
        return np.frombuffer(payload, dtype=np.uint8)
    return np.asarray(payload)


class ObjectID(NamedTuple):
    """A globally unique name for an immutable object.

    The application (or the task framework) generates ObjectIDs and passes
    them between tasks by value, exactly as in Table 1 of the paper.

    A tuple: it equals ``(key,)``, sorts by key and hashes as that tuple
    does, which keeps the iteration order of the sets and dicts it keys.
    """

    key: str

    @staticmethod
    def of(key: str) -> "ObjectID":
        return ObjectID(key)

    @staticmethod
    def unique(cluster, prefix: str = "obj") -> "ObjectID":
        """A fresh ID from ``cluster``'s own counter (``cluster.object_ids``).

        The IDs a run mints depend only on that run, never on what else ran
        earlier in the process.  That matters because directory shard
        placement hashes the ID.
        """
        return ObjectID(f"{prefix}-{next(cluster.object_ids)}")

    def derived(self, suffix: str) -> "ObjectID":
        """An ID derived from this one (used for internal partial results)."""
        return ObjectID(f"{self.key}/{suffix}")

    def __str__(self) -> str:
        return self.key


class ReduceOp(Enum):
    """Commutative, associative reduce operators supported by ``Reduce``."""

    SUM = "sum"
    MIN = "min"
    MAX = "max"
    PROD = "prod"

    def combine(self, left: Payload, right: Payload) -> Payload:
        """Combine two payloads.  ``None`` payloads are treated as identity."""
        if left is None:
            return right
        if right is None:
            return left
        import numpy as np

        left_arr = _to_array(left)
        right_arr = _to_array(right)
        if self is ReduceOp.SUM:
            return left_arr + right_arr
        if self is ReduceOp.MIN:
            return np.minimum(left_arr, right_arr)
        if self is ReduceOp.MAX:
            return np.maximum(left_arr, right_arr)
        if self is ReduceOp.PROD:
            return left_arr * right_arr
        raise ValueError(f"unsupported reduce op: {self!r}")  # pragma: no cover

    def combine_many(self, payloads: Sequence[Payload]) -> Payload:
        result: Payload = None
        for payload in payloads:
            result = self.combine(result, payload)
        return result


@dataclass
class ObjectValue:
    """An immutable object value: a logical size plus an optional payload."""

    size: int
    payload: Payload = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("object size must be non-negative")

    @staticmethod
    def from_array(array: np.ndarray, logical_size: Optional[int] = None) -> "ObjectValue":
        """Wrap a NumPy array.  ``logical_size`` overrides the simulated size."""
        import numpy as np

        array = np.asarray(array)
        size = int(array.nbytes) if logical_size is None else int(logical_size)
        return ObjectValue(size=size, payload=array)

    @staticmethod
    def from_bytes(data: bytes, logical_size: Optional[int] = None) -> "ObjectValue":
        size = len(data) if logical_size is None else int(logical_size)
        return ObjectValue(size=size, payload=data)

    @staticmethod
    def of_size(nbytes: int) -> "ObjectValue":
        """A size-only object (no payload); used by the benchmarks."""
        return ObjectValue(size=int(nbytes))

    def as_array(self) -> np.ndarray:
        if self.payload is None:
            raise ValueError("this object has no payload")
        return _to_array(self.payload)

    def copy(self) -> "ObjectValue":
        payload = self.payload
        # A payload is an array, immutable bytes or None: only an array needs
        # its own buffer, and telling it apart needs no numpy.
        if payload is not None and not isinstance(payload, bytes):
            payload = payload.copy()
        return ObjectValue(size=self.size, payload=payload, metadata=dict(self.metadata))
