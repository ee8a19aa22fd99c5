"""Tests for the Chrome-trace (Perfetto) exporter."""

import json

from repro.obs.chrometrace import to_chrome_trace


def _traced_fleet():
    from repro.bench.fleet import run_fleet

    return run_fleet(num_jobs=8, num_racks=2, nodes_per_rack=4, quick=True)


def _serialized() -> str:
    result = _traced_fleet()
    doc = to_chrome_trace(obs=result.obs, flight=result.cluster.flight)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def test_fixed_seed_export_is_byte_identical():
    """The golden-determinism property CI checks: same seed, same bytes."""
    assert _serialized() == _serialized()


def test_trace_structure():
    result = _traced_fleet()
    doc = to_chrome_trace(obs=result.obs, flight=result.cluster.flight)
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    by_phase: dict = {}
    for event in events:
        by_phase.setdefault(event["ph"], []).append(event)

    # Metadata names every process and thread with deterministic ids.
    meta = by_phase["M"]
    process_names = {
        e["args"]["name"]: e["pid"] for e in meta if e["name"] == "process_name"
    }
    assert {"ranks", "links", "counters"} <= set(process_names)
    thread_names = [e for e in meta if e["name"] == "thread_name"]
    rank_pid = process_names["ranks"]
    rank_tracks = {
        e["args"]["name"] for e in thread_names if e["pid"] == rank_pid
    }
    assert any(name.startswith("rank ") for name in rank_tracks)
    link_pid = process_names["links"]
    link_tracks = {
        e["args"]["name"] for e in thread_names if e["pid"] == link_pid
    }
    assert any(">" in name for name in link_tracks)  # n{src}>n{dst}

    # Complete events: reduce combines on rank tracks, grant->release
    # holds on links.
    complete = by_phase["X"]
    assert any(e["pid"] == rank_pid and e["cat"] == "compute" for e in complete)
    holds = [e for e in complete if e["pid"] == link_pid]
    assert holds and all(e["dur"] >= 0.0 for e in holds)
    assert all(e["ts"] >= 0.0 for e in complete)

    # Instants: arrivals on link tracks.
    instants = by_phase["i"]
    assert any(e["name"].startswith("arrive ") for e in instants)

    # Counter tracks: per NIC direction, the blocks submitted and not yet
    # granted, read from the timeline.  Each track steps at submits and
    # grants, never goes negative, and drains back to zero.
    counters = by_phase["C"]
    assert counters and all(e["pid"] == process_names["counters"] for e in counters)
    tracks: dict = {}
    for e in counters:
        assert e["name"].startswith("queue n") and e["name"].endswith(("/up", "/down"))
        tracks.setdefault(e["name"], []).append(e["args"]["depth"])
    assert all(depth >= 0 for depths in tracks.values() for depth in depths)
    assert all(depths[-1] == 0 and max(depths) > 0 for depths in tracks.values())

    # Ordering: body events are sorted by timestamp after the metadata.
    body = [e for e in events if e["ph"] != "M"]
    assert [e["ts"] for e in body] == sorted(e["ts"] for e in body)


def test_empty_inputs_yield_empty_trace():
    doc = to_chrome_trace()
    assert doc["traceEvents"] == []


def test_spans_without_owner_group_by_trace_id():
    from repro.obs.chrometrace import _span_track

    class FakeSpan:
        attrs = {"bytes": 1}
        trace_id = "t-42"

    assert _span_track(FakeSpan()) == ("ops", "t-42")

    class Owned:
        attrs = {"node": 3}
        trace_id = "t-43"

    assert _span_track(Owned()) == ("ranks", "rank 3")
