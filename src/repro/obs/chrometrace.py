"""Serialize spans + flight records to Perfetto / ``chrome://tracing`` JSON.

The observability plane already records everything a trace viewer wants —
span trees on the simulated clock (``obs.tracer``), the semantic transfer
timeline (grant/release/arrive flight records), and the windowed
``link_queue_depth`` gauge — but only as Python objects.  This module
renders them in the Chrome Trace Event format (the JSON Perfetto and
``chrome://tracing`` both load), with:

* one thread track per **rank** (spans carrying a ``src``/``rank``/``node``
  attribute land on that node's track; other spans group by trace id under
  an "ops" process);
* one thread track per **link direction** (flight grant→release pairs
  become duration events, arrivals become instants);
* **counter tracks** for admission queue depth (one counter per link, fed
  from the ``link_queue_depth`` gauge series).

Timestamps convert simulated seconds to trace microseconds.  The output is
deterministic for a deterministic scenario: events are emitted in sorted
order, pids/tids are assigned from sorted track names, and
:func:`dump_chrome_trace` serializes with sorted keys — CI pins a golden
digest of a fixed-seed export on exactly this property.  Host-clock
figures never appear here: ``perf/run.py`` writes its own host-time traces.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.obs.flight import SEMANTIC_KINDS, FlightRecorder

_US = 1e6  # simulated seconds -> trace microseconds


def _span_track(span) -> tuple[str, str]:
    """(process, thread) names for one span."""
    attrs = span.attrs
    for key in ("src", "rank", "node"):
        owner = attrs.get(key)
        if owner is not None:
            return ("ranks", f"rank {owner}")
    return ("ops", str(span.trace_id))


def to_chrome_trace(obs=None, flight: Optional[FlightRecorder] = None) -> dict:
    """Build a Chrome Trace Event document from the recorded surfaces.

    ``obs`` is an :class:`repro.obs.Observability` (spans + queue-depth
    counters), ``flight`` a :class:`~repro.obs.flight.FlightRecorder`
    (transfer timeline); either may be ``None``.
    """
    # (process_name, thread_name, event-dict-without-pid/tid); ids are
    # assigned over the sorted track-name set afterwards so the numbering
    # never depends on recording order.
    rows: list[tuple[str, str, dict]] = []

    if obs is not None:
        for span in obs.tracer.spans:
            if span.end is None:
                continue
            process, thread = _span_track(span)
            args = {str(k): v for k, v in span.attrs.items()}
            args["trace_id"] = str(span.trace_id)
            args["status"] = span.status
            rows.append(
                (
                    process,
                    thread,
                    {
                        "ph": "X",
                        "name": span.name,
                        "cat": span.name.partition(":")[0],
                        "ts": span.start * _US,
                        "dur": (span.end - span.start) * _US,
                        "args": args,
                    },
                )
            )

    if flight is not None:
        # grant -> release pairing per (link, flow/bytes detail), FIFO: the
        # semantic timeline is sorted by time, so the earliest unmatched
        # grant is the one this release closes.
        open_grants: dict[tuple[str, str], list[float]] = {}
        for time, kind, resource, detail in sorted(
            r for r in flight.records if r[1] in SEMANTIC_KINDS
        ):
            if kind == "grant":
                open_grants.setdefault((resource, detail), []).append(time)
            elif kind == "release":
                starts = open_grants.get((resource, detail))
                start = starts.pop(0) if starts else time
                rows.append(
                    (
                        "links",
                        resource,
                        {
                            "ph": "X",
                            "name": f"hold {detail}",
                            "cat": "link",
                            "ts": start * _US,
                            "dur": (time - start) * _US,
                            "args": {"flow": detail},
                        },
                    )
                )
            else:  # arrive
                rows.append(
                    (
                        "links",
                        resource,
                        {
                            "ph": "i",
                            "s": "t",
                            "name": f"arrive {detail}",
                            "cat": "link",
                            "ts": time * _US,
                            "args": {"flow": detail},
                        },
                    )
                )

    counter_rows: list[dict] = []
    if obs is not None:
        family = obs.registry.families.get("link_queue_depth")
        if family is not None:
            for child in family.sorted_children():
                link = str(child.label_values[0])
                for t, value in child.series():
                    counter_rows.append(
                        {
                            "ph": "C",
                            "name": f"queue {link}",
                            "ts": t * _US,
                            "args": {"depth": value},
                        }
                    )

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
