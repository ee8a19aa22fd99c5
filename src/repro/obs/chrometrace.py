"""Serialize spans + flight records to Perfetto / ``chrome://tracing`` JSON.

The observability plane already records everything a trace viewer wants —
span trees on the simulated clock (``obs.tracer``) and the per-block
transfer and compute timeline (the flight recorder, read through
:func:`repro.obs.flight.timeline`) — but only as Python objects.  This module renders them in the
Chrome Trace Event format (the JSON Perfetto and ``chrome://tracing`` both
load), with:

* one thread track per **rank** (``task:`` spans, which carry a ``node``
  attribute, and reduce combines land on that node's track; other spans
  group by trace id under an "ops" process);
* one thread track per **link direction** (each block's grant→release
  hold is a duration event, its arrival an instant);
* **counter tracks** for admission queue depth (one counter per NIC
  direction: blocks submitted and not yet granted, stepping at each
  submit and grant of a block that waited).

Timestamps convert simulated seconds to trace microseconds.  The output is
deterministic for a deterministic scenario: events are emitted in sorted
order, pids/tids are assigned from sorted track names, and
:func:`dump_chrome_trace` serializes with sorted keys — CI pins a golden
digest of a fixed-seed export on exactly this property.  Host-clock
figures never appear here: ``perf/run.py`` writes its own host-time traces.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Optional

from repro.obs.flight import FlightRecorder, timeline

_US = 1e6  # simulated seconds -> trace microseconds


def _span_track(span) -> tuple[str, str]:
    """(process, thread) names for one span."""
    node = span.attrs.get("node")
    if node is not None:
        return ("ranks", f"rank {node}")
    return ("ops", str(span.trace_id))


def _complete(name: str, cat: str, start: float, end: float, args: dict) -> dict:
    """A duration ("complete") event from ``start`` to ``end``."""
    return {
        "ph": "X",
        "name": name,
        "cat": cat,
        "ts": start * _US,
        "dur": (end - start) * _US,
        "args": args,
    }


def _queue_depths(transfers) -> list[dict]:
    """Counter events: per NIC direction, blocks submitted but not granted.

    A block that waited for admission counts on the NIC directions it
    claims, its source uplink and destination downlink, from its submit to
    its grant; the depth steps once per instant at which it changes.
    """
    deltas: Counter = Counter()
    for block in transfers:
        if block.grant > block.submit:
            for link in (f"n{block.src}/up", f"n{block.dst}/down"):
                deltas[link, block.submit] += 1
                deltas[link, block.grant] -= 1
    rows, depth = [], Counter()
    for (link, t), delta in sorted(deltas.items()):
        if delta:
            depth[link] += delta
            args = {"depth": depth[link]}
            rows.append({"ph": "C", "name": f"queue {link}", "ts": t * _US, "args": args})
    return rows


def to_chrome_trace(obs=None, flight: Optional[FlightRecorder] = None) -> dict:
    """Build a Chrome Trace Event document from the recorded surfaces.

    ``obs`` is an :class:`repro.obs.Observability` (spans), ``flight`` a
    :class:`~repro.obs.flight.FlightRecorder` (transfer and compute
    timeline, and the queue-depth counters); either may be ``None``.
    """
    # (process_name, thread_name, event-dict-without-pid/tid); ids are
    # assigned over the sorted track-name set afterwards so the numbering
    # never depends on recording order.
    rows: list[tuple[str, str, dict]] = []

    if obs is not None:
        for span in obs.tracer.spans:
            if span.end is None:
                continue
            args = {str(k): v for k, v in span.attrs.items()}
            args["trace_id"] = str(span.trace_id)
            args["status"] = span.status
            category = span.name.partition(":")[0]
            event = _complete(span.name, category, span.start, span.end, args)
            rows.append((*_span_track(span), event))

    counter_rows: list[dict] = []
    if flight is not None:
        transfers, computes = timeline(flight)
        counter_rows = _queue_depths(transfers)
        for block in transfers:
            link = f"n{block.src}>n{block.dst}"
            args = {"flow": f"{block.flow}/{block.nbytes}"}
            hold = _complete(f"hold {args['flow']}", "link", block.grant, block.release, args)
            rows.append(("links", link, hold))
            if block.arrive is not None:
                arrive = {
                    "ph": "i",
                    "s": "t",
                    "name": f"arrive {args['flow']}",
                    "cat": "link",
                    "ts": block.arrive * _US,
                    "args": args,
                }
                rows.append(("links", link, arrive))
        for compute in computes:
            args = {"object": compute.object_id, "block": compute.block}
            event = _complete("compute", "compute", compute.start, compute.end, args)
            rows.append(("ranks", f"rank {compute.node}", event))

    # Deterministic integer pids/tids from the sorted track-name universe.
    processes = sorted({process for process, _thread, _event in rows})
    if counter_rows:
        processes.append("counters")
    pid_of = {name: index + 1 for index, name in enumerate(processes)}
    threads = sorted({(process, thread) for process, thread, _event in rows})
    tid_of = {key: index + 1 for index, key in enumerate(threads)}

    events: list[dict] = []
    for name in processes:
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid_of[name],
                "tid": 0,
                "args": {"name": name},
            }
        )
    for process, thread in threads:
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pid_of[process],
                "tid": tid_of[(process, thread)],
                "args": {"name": thread},
            }
        )
    body: list[dict] = []
    for process, thread, event in rows:
        event["pid"] = pid_of[process]
        event["tid"] = tid_of[(process, thread)]
        body.append(event)
    counter_pid = pid_of.get("counters")
    for event in counter_rows:
        event["pid"] = counter_pid
        event["tid"] = 0
        body.append(event)
    body.sort(
        key=lambda e: (e["ts"], e["pid"], e["tid"], e["ph"], e["name"])
    )
    return {"displayTimeUnit": "ms", "traceEvents": events + body}


def dump_chrome_trace(
    path: str, obs=None, flight: Optional[FlightRecorder] = None
) -> dict:
    """Write :func:`to_chrome_trace` output to ``path`` (returns the doc).

    Serialized with sorted keys and compact separators: two runs of the
    same seed produce byte-identical files.
    """
    doc = to_chrome_trace(obs=obs, flight=flight)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
    return doc
