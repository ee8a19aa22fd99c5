"""Span-based tracing of collectives on the simulated clock.

A :class:`Tracer` records the logical structure of a run as :class:`Span`
trees: ``op:`` spans (one per fleet operation), one ``collective:`` **root
span** per collective invocation (its ``trace_id`` *is* the ``spec_id``, so
lineage and traces share a key space), and one ``task:`` **driver-task
span** per task *attempt* (re-executions after a failure are additional
spans in the same trace — a fault-and-recover shows up as one trace with a
failed attempt and its replacement).  Data movement is not a span: the
flight recorder (:mod:`repro.obs.flight`) holds every block's timeline,
and the tracer's object bindings say which span each block belongs to.

The linking chain is the orchestrator's own lineage:

* the root span registers under the spec_id
  (:meth:`Tracer.root_for_spec`), and binds every ObjectID the spec
  mentions (:meth:`Tracer.bind_object`);
* a driver task's ``key`` is ``"{spec_id}#{role}/{rank}"`` — the task
  system recovers the spec_id by splitting on ``"#"`` and parents each
  attempt span on the registered root (:meth:`Tracer.lineage_parent`);
* a transfer's flow id embeds the ObjectID it moves
  (``"get:{object_id}->n{dst}"``), so a block finds its owning span
  through the object binding in effect when it was submitted
  (:meth:`Tracer.span_for_flow`).

Like the metrics registry, tracing is purely observational: spans are
plain records stamped with simulated time, never simulation events.
"""

from __future__ import annotations

import math
from itertools import count
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Simulator


class Span:
    """One timed operation in a trace, stamped with simulated time."""

    __slots__ = (
        "sim",
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start",
        "end",
        "status",
        "attrs",
    )

    def __init__(
        self,
        sim: "Simulator",
        trace_id: str,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start: float,
        attrs: dict,
    ):
        #: the clock :meth:`finish` stamps (the tracer, which lists every
        #: span, would make each span a reference cycle with it).
        self.sim = sim
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.status = "open"
        self.attrs = attrs

    def finish(self, status: str = "ok") -> None:
        if self.end is None:
            self.end = self.sim._now
            self.status = status

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r} trace={self.trace_id!r} id={self.span_id}"
            f" parent={self.parent_id} [{self.start}..{self.end}] {self.status})"
        )


class Tracer:
    """Records spans; groups them into traces; links through lineage."""

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.spans: list[Span] = []
        self._next_id = count(1)
        #: spec_id -> its root span (the lineage anchor of the trace).
        self._roots: dict[str, Span] = {}
        #: str(object_id) -> its ``(time, span)`` bindings, in binding order.
        self._objects: dict[str, list[tuple[float, Span]]] = {}

    # -- recording ---------------------------------------------------------
    def start_span(
        self,
        name: str,
        trace_id: Optional[str] = None,
        parent: Optional[Span] = None,
        **attrs,
    ) -> Span:
        if parent is not None and trace_id is None:
            trace_id = parent.trace_id
        span = Span(
            self.sim,
            trace_id if trace_id is not None else f"trace-{name}",
            next(self._next_id),
            parent.span_id if parent is not None else None,
            name,
            self.sim._now,
            attrs,
        )
        self.spans.append(span)
        return span

    def root_for_spec(
        self, spec_id: str, kind: str = "", parent: Optional[Span] = None, **attrs
    ) -> Span:
        """The root span of ``spec_id``'s trace (one per spec, reused).

        Re-submitting a spec extends the same trace: recovery is part of
        the collective's story, not a new one.
        ``parent`` (when the invoking caller bound one of the spec's source
        objects to its own span, e.g. a fleet op span) records a cross-trace
        causal link: the trace_id stays the spec_id, but ``parent_id`` points
        into the caller's trace so the critical-path profiler can attribute
        the collective's transfers to the caller's operation.
        """
        root = self._roots.get(spec_id)
        if root is None:
            root = self.start_span(
                f"collective:{kind or 'unknown'}",
                trace_id=spec_id,
                parent=parent,
                **attrs,
            )
            self._roots[spec_id] = root
        return root

    def lineage_parent(self, key: str) -> Optional[Span]:
        """The root span a task key (``"{spec_id}#role/rank"``) descends from."""
        spec_id, sep, _ = key.partition("#")
        if not sep:
            return None
        return self._roots.get(spec_id)

    def bind_object(self, object_id, span: Span) -> None:
        """Attribute transfers of ``object_id`` from now on to ``span``'s trace;
        blocks and combines that started earlier keep their earlier binding."""
        self._objects.setdefault(str(object_id), []).append((self.sim._now, span))

    def span_for_object(self, object_id, at: float = math.inf) -> Optional[Span]:
        """The span ``object_id`` was bound to at time ``at``, or None.

        ``at`` defaults to now (the latest binding).  An internal partial
        derived from a bound object (``"{object_id}/{suffix}"``, see
        ``ObjectID.derived``) resolves to that object's span.
        """
        key = str(object_id)
        while True:
            for bound_at, span in reversed(self._objects.get(key, ())):
                if bound_at <= at:
                    return span
            key, sep, _ = key.rpartition("/")
            if not sep:
                return None

    def span_for_flow(self, flow_id: str, at: float = math.inf) -> Optional[Span]:
        """The span a flow id's embedded object id was bound to at ``at``.

        Flow ids follow ``"{verb}:{object_id}->n{node}"`` (with variants);
        unbound or unparseable flows resolve to None.  Reduce partials tag
        the *source* endpoint onto the object id
        (``"reduce:{target}:n2->n0"``), so a miss retries with a trailing
        ``:nX`` stripped.
        """
        _, sep, rest = flow_id.partition(":")
        if not sep:
            return self.span_for_object(flow_id, at)
        oid, arrow, _ = rest.partition("->")
        key = oid if arrow else rest
        span = self.span_for_object(key, at)
        if span is None:
            head, sep2, tail = key.rpartition(":")
            if sep2 and head and tail.startswith("n"):
                span = self.span_for_object(head, at)
        return span

    # -- reading -----------------------------------------------------------
    def trace(self, trace_id: str) -> list[Span]:
        return [span for span in self.spans if span.trace_id == trace_id]
