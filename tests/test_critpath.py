"""The causal critical-path profiler: walk semantics and end-to-end blame.

The synthetic cases pin the backward walk's arithmetic — the exact
partition of an op window into the seven blame categories, the priority
order of the gap classifier, proportional link blame — and the flight
record -> evidence pairing.  The end-to-end cases run real collectives
under the observability plane: a fault-and-recover allreduce whose
whole-cluster blame partitions exactly and surfaces the failure as
detect/recovery time, and a band of cells whose blame is identical with
the fast paths on and off.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.bench.scenarios import Scenario, run
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
    op_blames,
)
from repro.obs.flight import FlightRecorder, Transfer, timeline
from repro.obs.trace import Tracer
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
# Flight records -> evidence
# ---------------------------------------------------------------------------


class _Clock:
    _now = 0.0


def _block(recorder, submit, grant, release, arrive=None, flow="get:x->n1"):
    """Record one n0 -> n1 block the way the transport does."""
    recorder.transfer(0, 1, flow, 4 * MB, "bulk", submit=submit, grant=grant, release=release)
    if arrive is not None:
        recorder.transfer(0, 1, flow, 4 * MB, "bulk", arrive=arrive)


def test_timeline_pairs_same_size_blocks_fifo():
    """Two same-size blocks of one flow on one link pair in order."""
    recorder = FlightRecorder(_Clock(), lambda src, dst: 0.5)
    # The second block queues behind the first and is recorded (at its
    # release) after the first block's arrival.
    _block(recorder, 1.0, 1.0, 2.0)
    recorder.transfer(0, 1, "get:x->n1", 4 * MB, "bulk", arrive=2.5)
    _block(recorder, 1.5, 2.0, 3.0, arrive=3.5)
    recorder.compute(1, "target", 0, 2.5, 2.75)
    transfers, computes = timeline(recorder)
    assert transfers == [
        Transfer(0, 1, "get:x->n1", 4 * MB, 1.0, 1.0, 2.0, 2.5, "bulk"),
        Transfer(0, 1, "get:x->n1", 4 * MB, 1.5, 2.0, 3.0, 3.5, "bulk"),
    ]
    assert [(c.node, c.object_id, c.block, c.start, c.end) for c in computes] == [
        (1, "target", 0, 2.5, 2.75)
    ]


def test_lost_block_does_not_take_the_next_blocks_arrival():
    """Paired through the link latency, an overdue release is a lost block."""
    recorder = FlightRecorder(_Clock(), lambda src, dst: 0.5)
    _block(recorder, 0.0, 0.0, 1.0)  # lost: would have arrived at 1.5
    _block(recorder, 4.0, 4.0, 5.0, arrive=5.5)  # re-fetched after recovery
    transfers, _ = timeline(recorder)
    assert [t.arrive for t in transfers] == [None, 5.5]


def _hand_recorded_cluster():
    cluster = Cluster(num_nodes=2, network=NetworkConfig())
    obs = cluster.enable_observability()
    return cluster, obs


def test_undelivered_block_has_no_arrival_or_propagation():
    """A block released whose destination died before arrival."""
    cluster, obs = _hand_recorded_cluster()
    _block(cluster.flight, 0.5, 1.0, 2.0)  # released, never arrived
    (transfer,), _ = timeline(cluster.flight)
    assert transfer.arrive is None
    blame = cluster_blame(obs)
    # The window closes at the release; nothing of it is propagation.
    assert (blame.start, blame.end) == (0.5, 2.0)
    assert blame.categories["propagation"] == 0.0
    assert blame.categories["grant_wait"] == pytest.approx(0.5)
    assert blame.categories["tx"] == pytest.approx(1.0)
    assert blame.link_blame == {"n0/up": 4 * MB, "n1/down": 4 * MB}


def test_truncated_recording_refuses_to_blame():
    """Blame from a ring that dropped records would be silently wrong."""
    cluster, obs = _hand_recorded_cluster()
    cluster.flight = FlightRecorder(cluster.sim, cluster.fabric.latency, capacity=3)
    cluster.sim.on_pop = cluster.flight.record_pop
    from repro.core.runtime import HopliteRuntime

    runtime = HopliteRuntime(cluster)
    oid = ObjectID.unique(cluster, "truncated")

    def driver():
        yield from runtime.client(0).put(oid, ObjectValue.of_size(8 * MB))
        yield from runtime.client(1).get(oid)

    cluster.sim.process(driver())
    cluster.run()
    assert cluster.flight.dropped > 0
    with pytest.raises(ValueError, match="dropped"):
        cluster_blame(obs)


def test_span_for_flow_strips_reduce_source_endpoint():
    tracer = Tracer(_Clock())
    span = tracer.start_span("collective:reduce", trace_id="spec-1")
    tracer.bind_object("target:n2", span)
    # A reduce partial's flow id embeds the source endpoint after the oid.
    assert tracer.span_for_flow("reduce:target:n2->n0") is span
    # The bare form without a tag still resolves.
    tracer.bind_object("plain", span)
    assert tracer.span_for_flow("get:plain->n3") is span
    assert tracer.span_for_flow("get:unknown->n3") is None
    # An internal partial derived from a bound object resolves to its span.
    assert tracer.span_for_flow("reduce:plain/hier0-rack1:n4->n0") is span
    assert tracer.span_for_object("plain/stage-r1-c2-g0") is span


def test_rebinding_an_object_keeps_earlier_blocks_on_the_earlier_span():
    clock = _Clock()
    tracer = Tracer(clock)
    first = tracer.start_span("op:a")
    tracer.bind_object("x", first)
    clock._now = 2.0
    second = tracer.start_span("op:b")
    tracer.bind_object("x", second)
    assert tracer.span_for_flow("get:x->n1", 1.0) is first
    assert tracer.span_for_flow("get:x->n1", 2.0) is second
    assert tracer.span_for_object("x") is second
    assert tracer.span_for_object("x", -1.0) is None


def test_one_source_of_two_ops_blames_each_op_for_its_own_blocks():
    """A later op binding the same object does not take the earlier op's blocks."""
    from repro.core.runtime import HopliteRuntime

    cluster = Cluster(num_nodes=5, network=NetworkConfig())
    obs = cluster.enable_observability()
    runtime = HopliteRuntime(cluster)
    oid = ObjectID.unique(cluster, "shared")

    def op(name, readers):
        span = obs.tracer.start_span(f"op:{name}")
        obs.tracer.bind_object(oid, span)
        for node in readers:
            yield from runtime.client(node).get(oid)
        span.finish("ok")

    def driver():
        yield from runtime.client(0).put(oid, ObjectValue.of_size(8 * MB))
        yield from op("first", (1, 2))
        yield from op("second", (3, 4))

    cluster.sim.process(driver())
    cluster.run()
    blames = {blame.name: blame for blame in op_blames(obs)}
    downlinks = {
        name: {link for link in blame.link_blame if link.endswith("/down")}
        for name, blame in blames.items()
    }
    assert downlinks["op:first"] and downlinks["op:first"] <= {"n1/down", "n2/down"}
    assert downlinks["op:second"] and downlinks["op:second"] <= {"n3/down", "n4/down"}


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


def _fault_allreduce(fast_paths):
    cluster = Cluster(
        num_nodes=5, network=NetworkConfig(bandwidth=1.25e8), fast_paths=fast_paths
    )
    obs = cluster.enable_observability()

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
    return obs


def test_cluster_blame_on_fault_and_recover_run():
    """The whole traced window partitions; the fault shows up as blame."""
    obs = _fault_allreduce(fast_paths=True)

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

    # The same blame with every fast path off.
    off = cluster_blame(_fault_allreduce(fast_paths=False), "fault-allreduce")
    assert (blame.categories, blame.link_blame) == (off.categories, off.link_blame)


#: cells whose blame the fast paths changed while blame was read from spans.
BLAME_CELLS = {
    "broadcast": Scenario("broadcast", "hoplite", 16, 256 * MB),
    "broadcast-staggered": Scenario("broadcast", "hoplite", 16, 256 * MB, arrivals=0.1),
    "reduce": Scenario("reduce", "hoplite", 16, 256 * MB),
    "allreduce-staggered": Scenario("allreduce", "hoplite", 16, 256 * MB, arrivals=0.1),
    "gather": Scenario("gather", "hoplite", 8, 32 * MB),
    "allgather": Scenario("allgather", "hoplite", 8, 32 * MB),
}


def _scenario_blame(scenario, fast_paths):
    planes = []

    def observe(cluster):
        planes.append(cluster.enable_observability())

    run(replace(scenario, fast_paths=fast_paths), observe=observe)
    return cluster_blame(planes[0])


@pytest.mark.parametrize("cell", sorted(BLAME_CELLS))
def test_blame_is_the_same_with_fast_paths_on_and_off(cell):
    on = _scenario_blame(BLAME_CELLS[cell], fast_paths=True)
    off = _scenario_blame(BLAME_CELLS[cell], fast_paths=False)
    assert on.length > 0
    assert (on.start, on.end) == (off.start, off.end)
    assert on.categories == off.categories
    assert on.link_blame == off.link_blame
