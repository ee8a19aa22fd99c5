"""Causal critical-path profiling of collectives from the flight recorder.

The SLO table (``bench/fleet.py``) says *which* (tenant, op) cell missed
its target; this module says *why*.  It rebuilds the causal dependency
chain of an operation from the flight recorder's per-block timeline
(:func:`repro.obs.flight.timeline`: submit → grant → release → arrival of
every block, and every reduce-slot combine) and from the tracer's task
attempts (failure/retry windows), walks the chain backward from the op's
completion, and attributes every second of the op's wall time to exactly
one of :data:`CATEGORIES`:

``grant_wait``
    the critical transfer sat in an admission queue;
``tx``
    the critical transfer occupied its links (serialization time);
``propagation``
    one-way path latency of the critical transfer;
``compute``
    a reduce slot was combining blocks;
``detect``
    a node was down but the failure-detection delay had not elapsed
    (from the observability plane's membership transitions);
``recovery``
    a task attempt that ended in retry/failure was occupying the window;
``straggler``
    none of the above: the op was waiting on something untraced (an
    unstarted peer, a local memcpy, scheduling slack).

The attribution is an exact partition of the op's ``[start, end]`` window
— the categories sum to the critical-path length to float tolerance —
because the backward walk clips every blamed segment to the uncovered
prefix and classifies the remaining gaps through one prioritized pass.

Blame is also projected onto links: a unit on the critical path blames
its claimed links with ``bytes x (blamed_time / (grant_wait + tx))``, so
``top_link`` names the link direction the op most waited on or occupied
(a "71% grant_wait on rack0/up" rendering).

The fast paths retrofit the per-block records exactly, so blame is the same
with them on or off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

from repro.obs.flight import timeline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability
    from repro.obs.flight import Compute
    from repro.obs.trace import Span

#: blame categories, in rendering order.  The gap classifier applies the
#: non-transfer ones in priority order detect > recovery > compute >
#: straggler so overlapping evidence never double-counts.
CATEGORIES = (
    "grant_wait",
    "tx",
    "propagation",
    "compute",
    "detect",
    "recovery",
    "straggler",
)

_EPS = 1e-12


@dataclass(frozen=True)
class TransferUnit:
    """One causal transfer on the wire: submit -> grant -> tx end -> arrival."""

    submit: float
    grant: float
    tx_end: float
    arrive: float
    nbytes: int
    links: tuple
    flow: str = ""


@dataclass
class OpBlame:
    """The critical-path attribution of one operation window."""

    name: str
    trace_id: str
    start: float
    end: float
    categories: dict = field(default_factory=dict)
    link_blame: dict = field(default_factory=dict)
    attrs: dict = field(default_factory=dict)

    @property
    def length(self) -> float:
        return self.end - self.start

    def top_category(self) -> tuple[str, float]:
        """``(category, fraction_of_length)`` of the dominant category."""
        if self.length <= 0:
            return ("straggler", 0.0)
        cat = max(CATEGORIES, key=lambda c: self.categories.get(c, 0.0))
        return (cat, self.categories.get(cat, 0.0) / self.length)

    def top_link(self) -> Optional[str]:
        """The link direction carrying the most blame-bytes, or None."""
        if not self.link_blame:
            return None
        return max(sorted(self.link_blame), key=lambda k: self.link_blame[k])

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "start": self.start,
            "end": self.end,
            "length": self.length,
            "categories": {c: self.categories.get(c, 0.0) for c in CATEGORIES},
            "link_blame": dict(sorted(self.link_blame.items())),
            "attrs": dict(self.attrs),
        }


# -- interval helpers --------------------------------------------------------
def _merge(intervals: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    """Sorted, overlap-merged copy of ``intervals`` (empty ones dropped)."""
    merged: list[tuple[float, float]] = []
    for a, b in sorted(i for i in intervals if i[1] > i[0]):
        if merged and a <= merged[-1][1]:
            if b > merged[-1][1]:
                merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))
    return merged


def _split(
    segments: list[tuple[float, float]], covers: list[tuple[float, float]]
) -> tuple[float, list[tuple[float, float]]]:
    """Total time of ``segments`` covered by ``covers``, plus the uncovered rest."""
    covered = 0.0
    rest: list[tuple[float, float]] = []
    for s, e in segments:
        cursor = s
        for a, b in covers:
            if b <= cursor:
                continue
            if a >= e:
                break
            lo, hi = max(a, cursor), min(b, e)
            if hi > lo:
                if lo > cursor:
                    rest.append((cursor, lo))
                covered += hi - lo
                cursor = hi
        if cursor < e:
            rest.append((cursor, e))
    return covered, rest


def _classify_gap(
    a: float,
    b: float,
    layers: list[tuple[str, list[tuple[float, float]]]],
    categories: dict,
) -> None:
    """Attribute the untraced window ``[a, b]`` through the priority layers."""
    if b - a <= _EPS:
        return
    segments = [(a, b)]
    for category, covers in layers:
        if not covers or not segments:
            continue
        covered, segments = _split(segments, covers)
        if covered > 0.0:
            categories[category] = categories.get(category, 0.0) + covered
    leftover = sum(e - s for s, e in segments)
    if leftover > 0.0:
        categories["straggler"] = categories.get("straggler", 0.0) + leftover


# -- flight records -> evidence ---------------------------------------------
def _evidence(obs: "Observability") -> tuple[list[TransferUnit], list["Compute"]]:
    """Transfer units and compute records of the plane's flight recorder.

    A block never delivered has no propagation.
    """
    fabric = obs.fabric
    transfers, computes = timeline(obs.flight)
    links: dict[tuple[int, int], tuple] = {}
    units = []
    for t in transfers:
        key = (t.src, t.dst)
        if key not in links:
            # The link directions a src->dst block claims, for link blame.
            links[key] = (f"n{t.src}/up", f"n{t.dst}/down") + tuple(
                link.name for link in fabric.path_links(*key)
            )
        arrive = t.release if t.arrive is None else t.arrive
        units.append(
            TransferUnit(t.submit, t.grant, t.release, arrive, t.nbytes, links[key], t.flow)
        )
    return units, computes


def detect_intervals(obs: "Observability") -> list[tuple[float, float]]:
    """Failure-detection windows from the plane's membership transitions."""
    delay = obs.config.failure_detection_delay
    return _merge(
        (at, at + delay) for at, _node, kind in obs.node_events if kind == "down"
    )


def _recovery_interval(span: "Span") -> Optional[tuple[float, float]]:
    if (
        span.name.startswith("task:")
        and span.end is not None
        and span.status in ("retrying", "failed")
    ):
        return (span.start, span.end)
    return None


# -- the walk ----------------------------------------------------------------
def blame_window(
    name: str,
    trace_id: str,
    start: float,
    end: float,
    units: list[TransferUnit],
    busy: list[tuple[float, float]],
    detect: list[tuple[float, float]],
    recovery: list[tuple[float, float]],
    attrs: Optional[dict] = None,
) -> OpBlame:
    """Walk the causal chain backward from ``end`` and partition the window.

    The walk repeatedly takes the candidate with the latest arrival no
    later than the uncovered cursor, classifies the gap between that
    arrival and the cursor (detect > recovery > compute > straggler), then
    attributes the candidate's own phases — propagation, tx, grant wait —
    clipped to the still-uncovered prefix, and moves the cursor to the
    candidate's submission.  Every second of ``[start, end]`` lands in
    exactly one category.
    """
    blame = OpBlame(
        name=name,
        trace_id=trace_id,
        start=start,
        end=end,
        categories={c: 0.0 for c in CATEGORIES},
        attrs=dict(attrs or ()),
    )
    layers = [
        ("detect", detect),
        ("recovery", _merge(recovery)),
        ("compute", _merge(busy)),
    ]
    categories = blame.categories
    link_blame = blame.link_blame
    ordered = sorted(units, key=lambda u: (u.arrive, u.submit))
    i = len(ordered) - 1
    cursor = end
    while cursor - start > _EPS:
        while i >= 0 and ordered[i].arrive > cursor:
            i -= 1
        if i < 0:
            _classify_gap(start, cursor, layers, categories)
            break
        unit = ordered[i]
        i -= 1
        if unit.arrive < cursor:
            _classify_gap(unit.arrive, cursor, layers, categories)
            cursor = unit.arrive
            if cursor - start <= _EPS:
                break
        lo = max(start, unit.submit)
        if lo >= cursor:
            continue  # zero uncovered extent: the next candidate must help
        prop = _overlap(unit.tx_end, unit.arrive, lo, cursor)
        tx = _overlap(unit.grant, unit.tx_end, lo, cursor)
        grant_wait = _overlap(unit.submit, unit.grant, lo, cursor)
        categories["propagation"] += prop
        categories["tx"] += tx
        categories["grant_wait"] += grant_wait
        blamed = tx + grant_wait
        if blamed > 0.0 and unit.links:
            denom = (unit.tx_end - unit.grant) + (unit.grant - unit.submit)
            share = unit.nbytes * (blamed / denom) if denom > 0 else 0.0
            for link in unit.links:
                link_blame[link] = link_blame.get(link, 0.0) + share
        cursor = lo
    return blame


def _overlap(a: float, b: float, lo: float, hi: float) -> float:
    return max(0.0, min(b, hi) - max(a, lo))


# -- whole-plane entry points ------------------------------------------------
def op_blames(obs: "Observability") -> list[OpBlame]:
    """One blame per finished ``op:*`` span recorded by the fleet harness.

    Evidence attaches to the op whose span is the nearest ``op:*``
    ancestor: a task attempt through its own span, a block through the
    span its flow's object is bound to (``Tracer.span_for_flow``), a reduce
    combine through its output object's binding.  Collective traces reach
    the op through the cross-trace parent link ``Tracer.root_for_spec``
    records.
    """
    tracer = obs.tracer
    # A parent span is always recorded before its children, so one pass in
    # recording order finds every span's nearest op ancestor.
    owner: dict[Optional[int], Optional[int]] = {}
    for span in tracer.spans:
        owner[span.span_id] = (
            span.span_id if span.name.startswith("op:") else owner.get(span.parent_id)
        )

    def _op(span: Optional["Span"]) -> Optional[int]:
        return owner.get(span.span_id) if span is not None else None

    ops = [s for s in tracer.spans if s.name.startswith("op:") and s.end is not None]
    units: dict[int, list[TransferUnit]] = {s.span_id: [] for s in ops}
    busy: dict[int, list[tuple[float, float]]] = {s.span_id: [] for s in ops}
    recovery: dict[int, list[tuple[float, float]]] = {s.span_id: [] for s in ops}
    all_units, computes = _evidence(obs)
    for unit in all_units:
        units.get(_op(tracer.span_for_flow(unit.flow, unit.submit)), []).append(unit)
    for compute in computes:
        busy.get(_op(tracer.span_for_object(compute.object_id, compute.start)), []).append(
            (compute.start, compute.end)
        )
    for span in tracer.spans:
        interval = _recovery_interval(span)
        if interval is not None:
            recovery.get(_op(span), []).append(interval)
    detect = detect_intervals(obs)
    return [
        blame_window(
            name=op.name,
            trace_id=op.trace_id,
            start=op.start,
            end=op.end,
            units=units[op.span_id],
            busy=busy[op.span_id],
            detect=detect,
            recovery=recovery[op.span_id],
            attrs=op.attrs,
        )
        for op in ops
    ]


def cluster_blame(obs: "Observability", name: str = "scenario") -> OpBlame:
    """Blame over the full observed window of one cluster (perf scenarios).

    The window runs from the earliest finished span start or block
    submission to the latest finished span end, block arrival (release for
    a block never delivered) or combine end.
    """
    units, computes = _evidence(obs)
    busy = [(compute.start, compute.end) for compute in computes]
    finished = [s for s in obs.tracer.spans if s.end is not None]
    starts = [s.start for s in finished] + [u.submit for u in units] + [a for a, _ in busy]
    ends = [s.end for s in finished] + [u.arrive for u in units] + [b for _, b in busy]
    if not starts:
        now = obs.sim._now
        return blame_window(name, "", now, now, [], [], [], [])
    recovery = [
        interval
        for interval in map(_recovery_interval, finished)
        if interval is not None
    ]
    return blame_window(
        name, "", min(starts), max(ends), units, busy, detect_intervals(obs), recovery
    )


# -- aggregation + rendering -------------------------------------------------
@dataclass
class BlameRow:
    """One (tenant, op) cell of the fleet blame table."""

    tenant: str
    op: str
    count: int
    total: float
    categories: dict
    link_blame: dict

    def top_category(self) -> tuple[str, float]:
        if self.total <= 0:
            return ("straggler", 0.0)
        cat = max(CATEGORIES, key=lambda c: self.categories.get(c, 0.0))
        return (cat, self.categories.get(cat, 0.0) / self.total)

    def top_link(self) -> Optional[str]:
        if not self.link_blame:
            return None
        return max(sorted(self.link_blame), key=lambda k: self.link_blame[k])

    def as_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "op": self.op,
            "count": self.count,
            "total": self.total,
            "categories": {c: self.categories.get(c, 0.0) for c in CATEGORIES},
            "link_blame": dict(sorted(self.link_blame.items())),
        }


def aggregate_blames(blames: Iterable[OpBlame]) -> list[BlameRow]:
    """Sum per-op blames into (tenant, op) cells, sorted like the SLO table."""
    cells: dict[tuple[str, str], BlameRow] = {}
    for blame in blames:
        key = (str(blame.attrs.get("tenant", "?")), str(blame.attrs.get("op", "?")))
        row = cells.get(key)
        if row is None:
            row = cells[key] = BlameRow(
                tenant=key[0],
                op=key[1],
                count=0,
                total=0.0,
                categories={c: 0.0 for c in CATEGORIES},
                link_blame={},
            )
        row.count += 1
        row.total += blame.length
        for category, value in blame.categories.items():
            row.categories[category] = row.categories.get(category, 0.0) + value
        for link, nbytes in blame.link_blame.items():
            row.link_blame[link] = row.link_blame.get(link, 0.0) + nbytes
    return [cells[key] for key in sorted(cells)]


def format_blame_table(rows: Iterable[BlameRow]) -> str:
    """Deterministic text table, rendered next to the SLO table."""
    header = (
        f"{'tenant':<10} {'op':<10} {'ops':>4} {'cp_total':>10}  "
        + " ".join(f"{c:>10}" for c in CATEGORIES)
        + "  top_link"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        total = row.total if row.total > 0 else 1.0
        shares = " ".join(
            f"{100.0 * row.categories.get(c, 0.0) / total:>9.1f}%" for c in CATEGORIES
        )
        top = row.top_link() or "-"
        lines.append(
            f"{row.tenant:<10} {row.op:<10} {row.count:>4} {row.total:>10.4f}  "
            f"{shares}  {top}"
        )
    return "\n".join(lines)
