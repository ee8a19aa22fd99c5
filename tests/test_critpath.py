"""The causal critical-path profiler: walk semantics and end-to-end blame.

The synthetic cases pin the backward walk's arithmetic — the exact
partition of an op window into the seven blame categories, the priority
order of the gap classifier, proportional link blame — and the span ->
evidence conversion.  The end-to-end case runs a fault-and-recover
allreduce under ``trace_transfers`` and checks the whole-cluster blame
partitions exactly and surfaces the failure as detect/recovery time.
"""

import numpy as np
import pytest

from repro.net.cluster import Cluster
from repro.net.config import NetworkConfig
from repro.obs.critpath import (
    CATEGORIES,
    BlameRow,
    TransferUnit,
    aggregate_blames,
    blame_window,
    cluster_blame,
    format_blame_table,
    unit_from_span,
)
from repro.obs.trace import Span, Tracer
from repro.store.objects import ObjectID, ObjectValue, ReduceOp

MB = 1024 * 1024


def _unit(submit, grant, tx_end, arrive, nbytes=MB, links=(), flow=""):
    return TransferUnit(
        submit=submit,
        grant=grant,
        tx_end=tx_end,
        arrive=arrive,
        nbytes=nbytes,
        links=tuple(links),
        flow=flow,
    )


def _sum(blame):
    return sum(blame.categories.values())


# ---------------------------------------------------------------------------
# The backward walk
# ---------------------------------------------------------------------------


def test_two_unit_chain_partitions_exactly():
    """Two back-to-back transfers plus leading/trailing slack."""
    units = [
        _unit(0.5, 1.0, 2.0, 2.5),  # gw 0.5, tx 1.0, prop 0.5
        _unit(2.5, 4.0, 5.0, 5.5),  # gw 1.5, tx 1.0, prop 0.5
    ]
    blame = blame_window("op", "t", 0.0, 6.0, units, [], [], [])
    c = blame.categories
    assert c["grant_wait"] == pytest.approx(2.0)
    assert c["tx"] == pytest.approx(2.0)
    assert c["propagation"] == pytest.approx(1.0)
    # [0, 0.5) before the first submit and (5.5, 6.0] after the last
    # arrival have no evidence: straggler.
    assert c["straggler"] == pytest.approx(1.0)
    assert c["compute"] == c["detect"] == c["recovery"] == 0.0
    assert _sum(blame) == pytest.approx(blame.length)
    assert blame.top_category()[0] in ("grant_wait", "tx")


def test_gap_classifier_priority_order():
    """detect > recovery > compute > straggler, overlap never double-counts."""
    blame = blame_window(
        "op",
        "t",
        0.0,
        10.0,
        units=[],
        busy=[(3.0, 6.0)],
        detect=[(1.0, 2.0)],
        recovery=[(1.5, 4.0)],
    )
    c = blame.categories
    assert c["detect"] == pytest.approx(1.0)  # [1, 2) wins over recovery
    assert c["recovery"] == pytest.approx(2.0)  # [2, 4) left after detect
    assert c["compute"] == pytest.approx(2.0)  # [4, 6) left after recovery
    assert c["straggler"] == pytest.approx(5.0)  # [0, 1) + [6, 10)
    assert _sum(blame) == pytest.approx(10.0)


def test_overlapping_units_never_overcount():
    """Concurrent transfers: blame clips to the uncovered prefix."""
    units = [
        _unit(0.0, 0.0, 2.0, 2.0),
        _unit(0.0, 0.0, 2.5, 2.5),  # the later arrival drives the walk
    ]
    blame = blame_window("op", "t", 0.0, 2.5, units, [], [], [])
    assert _sum(blame) == pytest.approx(2.5)
    assert blame.categories["tx"] == pytest.approx(2.5)


def test_link_blame_is_proportional_to_blamed_time():
    unit = _unit(0.0, 2.0, 3.0, 3.0, nbytes=1000, links=("rack0/up",))
    # Full window: gw 2.0 + tx 1.0 blamed -> all 1000 bytes.
    full = blame_window("op", "t", 0.0, 3.0, [unit], [], [], [])
    assert full.link_blame["rack0/up"] == pytest.approx(1000.0)
    assert full.top_link() == "rack0/up"
    # Window clipped to the last 0.5s of tx: 0.5 / 3.0 of the bytes.
    part = blame_window("op", "t", 2.5, 3.0, [unit], [], [], [])
    assert part.link_blame["rack0/up"] == pytest.approx(1000.0 / 6.0)


def test_empty_window_is_all_zero():
    blame = blame_window("op", "t", 1.0, 1.0, [], [], [], [])
    assert blame.length == 0.0 and _sum(blame) == 0.0
    assert blame.top_category() == ("straggler", 0.0)
    assert blame.top_link() is None


# ---------------------------------------------------------------------------
# Span -> evidence
# ---------------------------------------------------------------------------


def test_unit_from_block_span():
    span = Span(
        None,
        "t",
        1,
        None,
        "block",
        1.0,
        {
            "grant_wait": 0.25,
            "lat": 0.001,
            "bytes": 4 * MB,
            "links": ("n0/up", "n1/down"),
            "flow": "get:x->n1",
        },
    )
    span.end = 2.0
    unit = unit_from_span(span)
    assert unit == TransferUnit(
        submit=1.0,
        grant=1.25,
        tx_end=2.0,
        arrive=2.001,
        nbytes=4 * MB,
        links=("n0/up", "n1/down"),
        flow="get:x->n1",
    )
    # Unfinished spans contribute nothing.
    span.end = None
    assert unit_from_span(span) is None


def test_unit_from_coalesced_run_span():
    span = Span(
        None,
        "t",
        1,
        None,
        "coalesced_run",
        0.0,
        {"s0": 0.5, "tx_sum": 1.0, "bytes": 8 * MB, "links": ("n0/up",)},
    )
    span.end = 2.0
    unit = unit_from_span(span)
    assert unit.submit == 0.0 and unit.grant == 0.5
    assert unit.tx_end == pytest.approx(1.5) and unit.arrive == 2.0
    # tx_sum overshooting the arrival (clock skew) clamps, keeping the
    # phases ordered submit <= grant <= tx_end <= arrive.
    span.attrs["tx_sum"] = 10.0
    clamped = unit_from_span(span)
    assert clamped.tx_end == clamped.arrive == 2.0
    # Other span names are not transfer evidence.
    other = Span(None, "t", 2, None, "task:x", 0.0, {})
    other.end = 1.0
    assert unit_from_span(other) is None


def test_span_for_flow_strips_reduce_source_endpoint():
    class _Clock:
        _now = 0.0

    tracer = Tracer(_Clock())
    span = tracer.start_span("collective:reduce", trace_id="spec-1")
    tracer.bind_object("target:n2", span)
    # A reduce partial's flow id embeds the source endpoint after the oid.
    assert tracer.span_for_flow("reduce:target:n2->n0") is span
    # The bare form without a tag still resolves.
    tracer.bind_object("plain", span)
    assert tracer.span_for_flow("get:plain->n3") is span
    assert tracer.span_for_flow("get:unknown->n3") is None


# ---------------------------------------------------------------------------
# Aggregation + rendering
# ---------------------------------------------------------------------------


def test_aggregate_and_format_blame_table():
    from repro.obs.critpath import OpBlame

    def _blame(tenant, op, gw, tx):
        b = OpBlame(
            name=f"op:{op}",
            trace_id="t",
            start=0.0,
            end=gw + tx,
            categories={c: 0.0 for c in CATEGORIES},
            attrs={"tenant": tenant, "op": op},
        )
        b.categories["grant_wait"] = gw
        b.categories["tx"] = tx
        b.link_blame["rack0/up"] = 100.0
        return b

    rows = aggregate_blames(
        [
            _blame("prod", "allreduce", 1.0, 1.0),
            _blame("prod", "allreduce", 3.0, 1.0),
            _blame("batch", "gather", 0.0, 2.0),
        ]
    )
    assert [(r.tenant, r.op) for r in rows] == [
        ("batch", "gather"),
        ("prod", "allreduce"),
    ]
    prod = rows[1]
    assert prod.count == 2 and prod.total == pytest.approx(6.0)
    assert prod.top_category() == ("grant_wait", pytest.approx(4.0 / 6.0))
    assert prod.link_blame["rack0/up"] == pytest.approx(200.0)
    table = format_blame_table(rows)
    assert table == format_blame_table(rows)  # deterministic
    assert "rack0/up" in table and "grant_wait" in table
    assert "prod" in table and "batch" in table


def test_blame_row_as_dict_is_json_shaped():
    row = BlameRow(
        tenant="prod",
        op="gather",
        count=1,
        total=1.0,
        categories={"tx": 1.0},
        link_blame={"a": 1.0, "b": 2.0},
    )
    d = row.as_dict()
    assert set(d["categories"]) == set(CATEGORIES)
    assert list(d["link_blame"]) == ["a", "b"]


# ---------------------------------------------------------------------------
# End to end: a traced fault-and-recover collective
# ---------------------------------------------------------------------------


def test_cluster_blame_on_fault_and_recover_run():
    """The whole traced window partitions; the fault shows up as blame."""
    cluster = Cluster(num_nodes=5, network=NetworkConfig(bandwidth=1.25e8))
    obs = cluster.enable_observability(trace_transfers=True)

    from repro.collectives.plane import HoplitePlane
    from repro.core.runtime import HopliteRuntime
    from repro.tasksys import CollectiveOrchestrator, CollectiveSpec, TaskSystem

    runtime = HopliteRuntime(cluster)
    system = TaskSystem(cluster, HoplitePlane(runtime))
    orchestrator = CollectiveOrchestrator(system)
    cluster.schedule_failure(2, at=0.2, recover_at=0.5)

    ranks = list(range(5))
    sources = {i: ObjectID.unique(cluster, f"blame-src{i}") for i in ranks}
    spec = CollectiveSpec.reduce(
        "blamed",
        0,
        ranks,
        sources,
        ObjectID.unique(cluster, "blame-target"),
        {
            sources[i]: ObjectValue.from_array(
                np.full(4, float(i + 1)), logical_size=16 * MB
            )
            for i in ranks
        },
        ReduceOp.SUM,
        allreduce=True,
    )
    done = {}

    def driver():
        done["outcome"] = yield from orchestrator.invoke(spec)

    cluster.sim.process(driver())
    cluster.run(until=240.0)
    assert "outcome" in done

    # The plane recorded the membership transitions the detect window needs.
    assert (0.2, 2, "down") in obs.node_events
    assert (0.5, 2, "up") in obs.node_events

    blame = cluster_blame(obs, "fault-allreduce")
    assert blame.length > 0
    assert _sum(blame) == pytest.approx(blame.length, rel=1e-9)
    # Real transfers put real time on the wire...
    assert blame.categories["tx"] > 0
    assert blame.link_blame and blame.top_link() is not None
    # ...and the failure is visible as detection and/or recovery time.
    assert blame.categories["detect"] + blame.categories["recovery"] > 0
