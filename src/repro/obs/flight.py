"""Deterministic flight recorder + divergence bisection for the kernel.

PR 6 root-caused a bit-for-bit fast-path divergence with throwaway event-pop
tracing; this module makes that capability a subsystem.  A
:class:`FlightRecorder` is a bounded ring of ``(time, kind, resource,
detail)`` tuples stamped with the **simulated** clock:

``pop``
    every kernel event pop (absolute time, queue sequence number, event
    type) — the raw dispatch order, installed through ``Simulator.on_pop``;
``submit`` / ``grant`` / ``release`` / ``arrive``
    the *semantic* transfer timeline of every block that crosses a NIC:
    reservation submission, admission grant, link release, destination
    arrival, each tagged with the block's flow, flow class and size.  The
    coalescing fast paths retrofit these records from their boundary arrays
    at exactly the timestamps the per-block chain would have produced them,
    so a recording of a fast-path run and a recording of the per-block
    reference are **semantically identical** — the property the
    differential fuzz harness checks, and divergence bisection exploits;
``compute_start`` / ``compute_end``
    one reduce-slot combine of one block, on the slot's node (resource
    ``n{node}``, detail ``{object_id}/{block}``), from the per-block loop or
    a streaming :class:`~repro.net.coalesce.ComputeRun`'s delivered blocks;
``phase``
    fast-path state transitions (coalesce start, re-split) and
    orchestrator lifecycle marks.  Pure
    diagnostics: excluded from semantic comparison, since the fast paths
    legitimately restructure the event timeline they summarize.

Recording is zero-overhead when off: every instrumentation site pays one
``is not None`` branch (``cluster.flight``, ``sim.on_pop``), and the
differential digests prove that recording changes no simulated result.

:func:`first_divergence` turns two recordings (fast paths on / off) of the
same scenario into the first diverging semantic event — time, kind,
resource, detail — which is what ``python -m repro.bench.fuzz`` now reports
on a digest mismatch instead of a bare pair of hashes.  :func:`timeline`
pairs the semantic records back into per-block transfers and per-block
compute intervals: the one record of data movement on the simulated clock,
read by the critical-path profiler, the Chrome-trace export and the
metrics plane's link families.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Event, Simulator

#: record kinds compared across fast-path settings.  ``pop`` and ``phase``
#: are excluded: the fast paths collapse pops by design, and phase marks
#: only exist on the fast side.
SEMANTIC_KINDS = frozenset(
    {"submit", "grant", "release", "arrive", "compute_start", "compute_end"}
)

#: default ring capacity; at four fields a record, a full ring is ~100 MB
#: of tuples — far above any fuzz scenario, so comparisons never truncate.
DEFAULT_CAPACITY = 1_000_000


class FlightRecorder:
    """A bounded in-memory ring of simulated-time kernel/transfer records.

    Installed per cluster by ``cluster.enable_observability()``; the
    instrumentation sites find it through
    ``cluster.flight`` (one branch when absent).  Records are plain tuples,
    appended in call order; the *semantic* ordering (what
    :func:`semantic_records` compares) sorts by timestamp, because the fast
    paths retrofit past-timestamped records at their boundary walks.

    ``latency`` (``src, dst -> one-way seconds``, the cluster's
    ``Fabric.latency``) is what :func:`timeline` pairs arrivals with.  The
    record formats live here alone: sites write through :meth:`transfer`
    and :meth:`compute`, and :func:`timeline` parses them back.
    """

    __slots__ = ("sim", "latency", "capacity", "records", "dropped")

    def __init__(
        self, sim: "Simulator", latency: Callable[[int, int], float], capacity=DEFAULT_CAPACITY
    ):
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        self.sim = sim
        self.latency = latency
        self.capacity = capacity
        self.records: deque = deque(maxlen=capacity)
        #: records evicted by the ring bound (oldest-first); a non-zero
        #: count means dumps and comparisons see a truncated history.
        self.dropped = 0

    def record(self, time: float, kind: str, resource: str, detail: str) -> None:
        records = self.records
        if len(records) == self.capacity:
            self.dropped += 1
        records.append((time, kind, resource, detail))

    def transfer(
        self, src_id: int, dst_id: int, flow_id: str, nbytes: int, cls: str, **times
    ) -> None:
        """One block's records on ``src -> dst``, one per ``kind=time`` given
        (``submit``, ``grant``, ``release``, ``arrive``), in that order.

        ``cls`` is the flow class's label value (``FlowClass.label``)."""
        resource, detail = f"n{src_id}>n{dst_id}", f"{flow_id}/{cls}/{nbytes}"
        for kind, time in times.items():
            self.record(time, kind, resource, detail)

    def compute(self, node_id: int, object_id, block: int, start: float, end: float) -> None:
        """One reduce-slot combine of ``block`` of ``object_id`` on ``node_id``."""
        resource, detail = f"n{node_id}", f"{object_id}/{block}"
        self.record(start, "compute_start", resource, detail)
        self.record(end, "compute_end", resource, detail)

    def record_pop(self, when: float, seq: int, event: "Event") -> None:
        """The kernel's per-pop hook (installed as ``Simulator.on_pop``)."""
        self.record(when, "pop", f"seq={seq}", type(event).__name__)

    def phase(self, resource: str, detail: str) -> None:
        """A fast-path (or lifecycle) state transition at the current time."""
        self.record(self.sim._now, "phase", resource, detail)

    def __len__(self) -> int:
        return len(self.records)

    def dump(self, limit: Optional[int] = None) -> str:
        """Deterministic text rendering, in record (call) order.

        ``repr`` float timestamps round-trip exactly, so two dumps of the
        same simulated history are byte-identical.
        """
        records = list(self.records)
        if limit is not None:
            records = records[-limit:]
        lines = [
            f"{time!r} {kind} {resource} {detail}"
            for time, kind, resource, detail in records
        ]
        if self.dropped:
            lines.insert(0, f"# dropped={self.dropped} (ring capacity {self.capacity})")
        return "\n".join(lines)


def semantic_records(records) -> list[tuple]:
    """The comparable transfer timeline of one recording.

    Filters to :data:`SEMANTIC_KINDS` and sorts by ``(time, kind, resource,
    detail)``: the fast paths append past-timestamped records at boundary
    walks, so call order differs across settings while the timeline does
    not.
    """
    if isinstance(records, FlightRecorder):
        records = records.records
    return sorted(r for r in records if r[1] in SEMANTIC_KINDS)


@dataclass(frozen=True)
class Divergence:
    """The first semantic record where two recordings disagree."""

    index: int
    record_on: Optional[tuple]
    record_off: Optional[tuple]

    def describe(self) -> str:
        def _one(label: str, record: Optional[tuple]) -> str:
            if record is None:
                return f"  {label}: <no record>"
            time, kind, resource, detail = record
            return f"  {label}: t={time!r} {kind} {resource} {detail}"

        return "\n".join(
            [
                f"first diverging semantic event (index {self.index}):",
                _one("fast-on ", self.record_on),
                _one("fast-off", self.record_off),
            ]
        )


def first_divergence(on_records, off_records) -> Optional[Divergence]:
    """The first diverging semantic event between two recordings, or None.

    Accepts recorders or raw record iterables; both sides are normalized
    through :func:`semantic_records` first.
    """
    on = semantic_records(on_records)
    off = semantic_records(off_records)
    for index, (a, b) in enumerate(zip(on, off)):
        if a != b:
            return Divergence(index=index, record_on=a, record_off=b)
    if len(on) != len(off):
        index = min(len(on), len(off))
        return Divergence(
            index=index,
            record_on=on[index] if index < len(on) else None,
            record_off=off[index] if index < len(off) else None,
        )
    return None


class Transfer(NamedTuple):
    """One block on the wire, paired from its semantic records.

    ``arrive`` is None for a block released but never delivered (its
    destination died, or the block was cut mid-transmission).  ``cls`` is
    the flow class's label value.
    """

    src: int
    dst: int
    flow: str
    nbytes: int
    submit: float
    grant: float
    release: float
    arrive: Optional[float]
    cls: str


class Compute(NamedTuple):
    """One reduce-slot combine of one block on ``node``."""

    node: int
    object_id: str
    block: int
    start: float
    end: float


def timeline(recorder: FlightRecorder) -> tuple[list[Transfer], list[Compute]]:
    """Per-block transfers and compute intervals of one recording, sorted.

    Records pair FIFO per ``(resource, detail)``: the ``k``-th submit,
    grant and release of one flow's same-size blocks on one node pair are
    one block.  Arrivals pair with those releases in order, through the
    recorder's ``latency``: a release still unpaired when a later one's
    arrival comes (``release + latency`` earlier than that arrival) was
    lost to a node failure and gets no arrival, instead of taking the next
    block's.  A ring that dropped records would pair wrongly, so it raises
    ``ValueError``.
    """
    if recorder.dropped:
        raise ValueError(
            f"flight recorder dropped {recorder.dropped} records "
            f"(ring capacity {recorder.capacity}); its timeline is incomplete"
        )
    by_key: dict[tuple[str, str], dict[str, list[float]]] = {}
    for time, kind, resource, detail in semantic_records(recorder):
        by_key.setdefault((resource, detail), {}).setdefault(kind, []).append(time)
    transfers: list[Transfer] = []
    computes: list[Compute] = []
    for (resource, detail), times in by_key.items():
        if ">" not in resource:
            head, _, tail = detail.rpartition("/")
            for start, end in zip(times["compute_start"], times["compute_end"]):
                computes.append(Compute(int(resource[1:]), head, int(tail), start, end))
            continue
        flow, cls, nbytes = detail.rsplit("/", 2)
        src, dst = (int(name[1:]) for name in resource.split(">"))
        releases = times["release"]
        arrives: list[Optional[float]] = [None] * len(releases)
        latency = recorder.latency(src, dst)
        k = 0
        for arrive in times.get("arrive", ()):
            while releases[k] + latency < arrive:
                k += 1
            arrives[k] = arrive
            k += 1
        transfers.extend(
            Transfer(src, dst, flow, int(nbytes), *phases, cls)
            for phases in zip(times["submit"], times["grant"], releases, arrives)
        )
    transfers.sort(key=lambda t: t[:7])  # ``arrive`` may be None
    computes.sort()
    return transfers, computes
