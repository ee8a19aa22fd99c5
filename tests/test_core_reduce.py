"""Tests for the dynamic tree reduce: shape, placement, correctness, failures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HopliteOptions, HopliteRuntime, ObjectID, ObjectValue, ReduceOp
from repro.core.reduce import build_inorder_tree, choose_reduce_degree, reduce_time_model
from repro.bench.scenarios import collect_flow_usage
from repro.net import Cluster, NetworkConfig
from repro.net.flowsched import FlowClass
from repro.obs.flight import timeline

MB = 1024 * 1024
KB = 1024


# ---------------------------------------------------------------------------
# Tree shape
# ---------------------------------------------------------------------------


def inorder_traversal(slots) -> list[int]:
    """Generalized in-order traversal of the tree: first child, node, rest."""
    if not slots:
        return []
    roots = [slot.rank for slot in slots if slot.parent is None]
    order: list[int] = []

    def visit(rank: int) -> None:
        children = slots[rank].children
        if children:
            visit(children[0])
        order.append(rank)
        for child in children[1:]:
            visit(child)

    for root in roots:
        visit(root)
    return order


def tree_depth(slots) -> int:
    """Height of the tree in edges."""
    if not slots:
        return 0

    def depth(rank: int) -> int:
        children = slots[rank].children
        if not children:
            return 0
        return 1 + max(depth(child) for child in children)

    return max(depth(slot.rank) for slot in slots if slot.parent is None)


def test_chain_tree_shape():
    slots = build_inorder_tree(5, 1)
    assert inorder_traversal(slots) == [0, 1, 2, 3, 4]
    # Chain: each rank's parent is the next arrival; the last arrival is the root.
    assert [slot.parent for slot in slots] == [1, 2, 3, 4, None]
    assert tree_depth(slots) == 4


def test_flat_tree_shape():
    slots = build_inorder_tree(6, 0)
    assert inorder_traversal(slots) == [0, 1, 2, 3, 4, 5]
    root = [slot for slot in slots if slot.parent is None][0]
    # Flat tree: the second arrival is the root and everyone else is its child.
    assert root.rank == 1
    assert sorted(root.children) == [0, 2, 3, 4, 5]
    assert tree_depth(slots) == 1


def test_binary_tree_shape_matches_paper_example():
    slots = build_inorder_tree(6, 2)
    assert inorder_traversal(slots) == [0, 1, 2, 3, 4, 5]
    assert tree_depth(slots) <= 3
    root = [slot for slot in slots if slot.parent is None][0]
    assert len(root.children) <= 2


def test_empty_and_single_slot_trees():
    assert build_inorder_tree(0, 2) == []
    single = build_inorder_tree(1, 2)
    assert single[0].parent is None and single[0].children == []


@settings(max_examples=80, deadline=None)
@given(
    num_slots=st.integers(min_value=1, max_value=40),
    degree=st.integers(min_value=0, max_value=6),
)
def test_inorder_tree_properties(num_slots, degree):
    """Property: the tree is a valid d-ary tree whose in-order walk is arrival order."""
    slots = build_inorder_tree(num_slots, degree)
    assert len(slots) == num_slots
    effective_degree = num_slots if degree <= 0 else degree
    roots = [slot for slot in slots if slot.parent is None]
    assert len(roots) == 1
    for slot in slots:
        assert len(slot.children) <= effective_degree
        for child in slot.children:
            assert slots[child].parent == slot.rank
    assert inorder_traversal(slots) == list(range(num_slots))


# ---------------------------------------------------------------------------
# Degree selection model (Equation 1)
# ---------------------------------------------------------------------------


def test_time_model_limits():
    latency, bandwidth = 1e-4, 1.25e9
    nbytes = 1024
    # Tiny objects: flat tree has the lowest estimate.
    flat = reduce_time_model(16, 0, nbytes, latency, bandwidth)
    chain = reduce_time_model(16, 1, nbytes, latency, bandwidth)
    assert flat < chain
    # Huge objects: the chain has the lowest estimate.
    nbytes = 1 << 30
    flat = reduce_time_model(16, 0, nbytes, latency, bandwidth)
    chain = reduce_time_model(16, 1, nbytes, latency, bandwidth)
    binary = reduce_time_model(16, 2, nbytes, latency, bandwidth)
    assert chain < binary < flat
    assert reduce_time_model(1, 2, nbytes, latency, bandwidth) == pytest.approx(latency)


@settings(max_examples=200, deadline=None)
@given(
    num_objects=st.integers(min_value=2, max_value=512),
    size_exp=st.floats(min_value=0.0, max_value=33.0),     # 1 B .. 8 GB
    latency_exp=st.floats(min_value=-6.0, max_value=-1.0),  # 1 us .. 100 ms
    bandwidth_exp=st.floats(min_value=6.0, max_value=11.0),  # 1 MB/s .. 100 GB/s
)
def test_choose_degree_is_bruteforce_argmin(num_objects, size_exp, latency_exp, bandwidth_exp):
    """Property: the selected degree achieves the brute-force minimum of the
    Equation 1 model over the paper's candidate set d in {1, 2, n}."""
    object_size = 2.0 ** size_exp
    latency = 10.0 ** latency_exp
    bandwidth = 10.0 ** bandwidth_exp
    chosen = choose_reduce_degree(num_objects, object_size, latency, bandwidth)
    assert chosen in (1, 2, num_objects)
    chosen_candidate = 0 if chosen == num_objects else chosen
    chosen_time = reduce_time_model(num_objects, chosen_candidate, object_size, latency, bandwidth)
    best_time = min(
        reduce_time_model(num_objects, candidate, object_size, latency, bandwidth)
        for candidate in (1, 2, 0)
    )
    assert chosen_time <= best_time * (1.0 + 1e-12)


def test_choose_reduce_degree_extremes_and_candidates():
    latency, bandwidth = 5e-5, 1.25e9
    assert choose_reduce_degree(16, 1 * KB, latency, bandwidth) == 16
    assert choose_reduce_degree(16, 1 << 30, latency, bandwidth) == 1
    assert choose_reduce_degree(1, 1 << 30, latency, bandwidth) == 1
    # Restricting the candidate set is honoured.
    assert choose_reduce_degree(16, 1 << 30, latency, bandwidth, candidates=(2,)) == 2


@pytest.mark.parametrize(
    "num_objects, nbytes, degree",
    [(16, 4 * KB, 16), (16, 32 * MB, 1), (64, 4 * KB, 64), (64, 256 * MB, 1)],
)
def test_choose_reduce_degree_on_the_default_network(num_objects, nbytes, degree):
    """Equation 1 picks the flat tree for small objects and the chain for
    large ones (the Fig. 15 crossover) on the default network."""
    config = NetworkConfig()
    assert choose_reduce_degree(num_objects, nbytes, config.latency, config.bandwidth) == degree


# ---------------------------------------------------------------------------
# End-to-end reduce
# ---------------------------------------------------------------------------


def run_reduce(
    num_nodes,
    nbytes,
    num_objects=None,
    options=None,
    producer_delays=None,
    failure=None,
    op=ReduceOp.SUM,
    fast_paths=True,
):
    """All nodes put one object (value = node_id + 1); node 0 reduces and gets."""
    cluster = Cluster(num_nodes=num_nodes, network=NetworkConfig(), fast_paths=fast_paths)
    runtime = HopliteRuntime(cluster, options=options)
    sim = cluster.sim
    source_ids = [ObjectID.of(f"src-{i}") for i in range(num_nodes)]
    target_id = ObjectID.of("target")
    outcome = {}

    def producer(node_id):
        delay = (producer_delays or {}).get(node_id, 0.0)
        if delay:
            yield sim.timeout(delay)
        value = ObjectValue.from_array(
            np.full(4, float(node_id + 1)), logical_size=nbytes
        )
        yield from runtime.client(node_id).put(source_ids[node_id], value)

    def reducer():
        client = runtime.client(0)
        result = yield from client.reduce(target_id, source_ids, op, num_objects=num_objects)
        value = yield from client.get(target_id)
        outcome["result"] = result
        outcome["array"] = value.as_array()
        outcome["finish"] = sim.now

    for node_id in range(num_nodes):
        sim.process(producer(node_id))
    sim.process(reducer())
    if failure is not None:
        cluster.schedule_failure(*failure)
    cluster.run(until=600.0)
    return outcome, runtime


def test_reduce_sum_correctness_all_objects():
    outcome, _ = run_reduce(6, 32 * MB)
    assert np.allclose(outcome["array"], sum(range(1, 7)))
    assert sorted(o.key for o in outcome["result"].reduced_ids) == [
        f"src-{i}" for i in range(6)
    ]
    assert outcome["result"].unreduced_ids == []


def test_reduce_min_and_max():
    outcome, _ = run_reduce(4, 8 * MB, op=ReduceOp.MAX)
    assert np.allclose(outcome["array"], 4.0)
    outcome, _ = run_reduce(4, 8 * MB, op=ReduceOp.MIN)
    assert np.allclose(outcome["array"], 1.0)


def test_reduce_subset_takes_earliest_arrivals():
    delays = {0: 0.0, 1: 0.01, 2: 0.02, 3: 0.5, 4: 0.6, 5: 0.7}
    outcome, _ = run_reduce(6, 16 * MB, num_objects=3, producer_delays=delays)
    result = outcome["result"]
    assert len(result.reduced_ids) == 3
    assert sorted(o.key for o in result.reduced_ids) == ["src-0", "src-1", "src-2"]
    assert np.allclose(outcome["array"], 1 + 2 + 3)
    assert len(result.unreduced_ids) == 3


def test_reduce_degree_override_is_respected():
    for degree, expected in ((1, 1), (2, 2), (0, 5)):
        outcome, _ = run_reduce(
            5, 16 * MB, options=HopliteOptions(reduce_degree=degree)
        )
        assert outcome["result"].degree == expected
        assert np.allclose(outcome["array"], sum(range(1, 6)))


def test_reduce_selects_chain_for_large_and_flat_for_small():
    large, _ = run_reduce(6, 64 * MB)
    assert large["result"].degree == 1
    small, _ = run_reduce(
        6, 4 * KB, options=HopliteOptions(enable_small_object_cache=False)
    )
    assert small["result"].degree == 6


def _same_node_chain(fast_paths):
    """A degree-1 reduce over two objects on node 1 and two on node 2."""
    cluster = Cluster(num_nodes=3, network=NetworkConfig(), fast_paths=fast_paths)
    cluster.enable_observability()
    runtime = HopliteRuntime(cluster, options=HopliteOptions(reduce_degree=1))
    sim = cluster.sim
    source_ids = [ObjectID.of(f"src-{i}") for i in range(4)]
    hosts = (1, 1, 2, 2)
    outcome = {}

    def producer(index):
        yield sim.timeout(0.1 * index)
        value = ObjectValue.from_array(np.full(4, float(index + 1)), logical_size=32 * MB)
        yield from runtime.client(hosts[index]).put(source_ids[index], value)

    def reducer():
        client = runtime.client(0)
        result = yield from client.reduce(ObjectID.of("target"), source_ids, ReduceOp.SUM)
        value = yield from client.get(ObjectID.of("target"))
        outcome["result"] = result
        outcome["array"] = value.as_array()
        outcome["time"] = sim.now

    for index in range(4):
        sim.process(producer(index))
    sim.process(reducer())
    cluster.run(until=600.0)
    usage = collect_flow_usage(cluster)
    del usage["events_processed"], usage["fastpath"]
    return outcome, usage, timeline(cluster.flight), cluster


@pytest.mark.parametrize("fast_paths", [True, False])
def test_same_node_partials_stream_without_touching_the_network(fast_paths):
    """A chain over two objects per node: the partial between the two objects
    of one node streams through its memcpy channel, so the only partial on
    the network is the one that crosses from node 1 to node 2.  The result
    time, the flow usage and the flight timeline are the same with fast
    paths on and off."""
    outcome, usage, flight, cluster = _same_node_chain(fast_paths)
    assert np.allclose(outcome["array"], 1 + 2 + 3 + 4)
    assert outcome["result"].degree == 1
    transfers, _computes = flight
    partials = {(t.src, t.dst) for t in transfers if t.flow.startswith("reduce:")}
    assert partials == {(1, 2)}
    assert cluster.node(1).uplink_sched.bytes_by_class[FlowClass.REDUCE_PARTIAL] == 32 * MB
    assert cluster.node(2).uplink_sched.bytes_by_class[FlowClass.REDUCE_PARTIAL] == 0
    assert (cluster.fastpath_stats.counts["coalesced_runs"] > 0) == fast_paths

    other, other_usage, other_flight, _ = _same_node_chain(not fast_paths)
    assert outcome["time"] == other["time"]
    assert usage == other_usage
    assert flight == other_flight


def test_runtime_degree_follows_the_model_over_one_two_and_flat():
    """Without an override the runtime picks the Equation 1 argmin over
    d in {1, 2, n}: flat for tiny objects, a binary tree in between, and a
    chain once bandwidth dominates."""
    config = NetworkConfig()
    options = HopliteOptions(enable_small_object_cache=False)
    chosen = {}
    for nbytes in (4 * KB, 96 * KB, 4 * MB):
        outcome, _ = run_reduce(6, nbytes, options=options)
        assert np.allclose(outcome["array"], sum(range(1, 7)))
        chosen[nbytes] = outcome["result"].degree
        assert chosen[nbytes] == choose_reduce_degree(
            6, nbytes, config.latency, config.bandwidth
        )
    assert chosen == {4 * KB: 6, 96 * KB: 2, 4 * MB: 1}


def test_reduce_single_source():
    outcome, _ = run_reduce(1, 4 * MB)
    assert np.allclose(outcome["array"], 1.0)


def test_reduce_makes_progress_before_last_arrival():
    """The reduce of early arrivals overlaps the wait for the last object."""
    nbytes = 64 * MB
    stagger = {node_id: 0.15 * node_id for node_id in range(6)}
    outcome, runtime = run_reduce(6, nbytes, producer_delays=stagger)
    last_arrival = max(stagger.values())
    transfer = runtime.config.transmission_time(nbytes)
    # If nothing overlapped, the finish would be at least last_arrival plus
    # several full transfers; with streaming it is close to one transfer after
    # the last arrival (plus the final Get by the caller).
    assert outcome["finish"] < last_arrival + 3.0 * transfer
    assert np.allclose(outcome["array"], sum(range(1, 7)))


def test_reduce_replaces_failed_participant():
    """A participant that dies is replaced by the next available object (Section 3.5.2)."""
    delays = {node_id: 0.02 * node_id for node_id in range(8)}
    outcome, _ = run_reduce(
        8,
        32 * MB,
        num_objects=5,
        producer_delays=delays,
        failure=(2, 0.08, None),
    )
    result = outcome["result"]
    assert len(result.reduced_ids) == 5
    # src-2 was lost with its node and must have been replaced by a later object.
    reduced_keys = {o.key for o in result.reduced_ids}
    assert "src-2" not in reduced_keys
    expected = sum(int(key.split("-")[1]) + 1 for key in reduced_keys)
    assert np.allclose(outcome["array"], expected)


def test_failure_during_a_compute_run_matches_per_block(monkeypatch):
    """A slot's node dies while its ComputeRun is still combining.

    Staggered arrivals 20 ms apart; each failure instant falls inside the
    failed node's slot's ComputeRun after its last input arrived, so, as on
    the per-block loop, no wait notices the failure before the last
    combine.  The result, the reduced set and the finish time equal the
    per-block reference, and the probe shows the run's failure hook ran
    while the run was still virtual.
    """
    from repro.net import coalesce

    entered = []
    hook = coalesce.ComputeRun._on_node_failure

    def probe(run, node):
        entered.append((node.node_id, run.state == coalesce._VIRTUAL))
        hook(run, node)

    monkeypatch.setattr(coalesce.ComputeRun, "_on_node_failure", probe)
    delays = {node_id: 0.02 * node_id for node_id in range(8)}
    for node_id, fail_at in ((2, 0.0676), (3, 0.0876), (4, 0.1076)):
        results = []
        for fast_paths in (True, False):
            entered.clear()
            outcome, _ = run_reduce(
                8,
                32 * MB,
                num_objects=5,
                producer_delays=delays,
                failure=(node_id, fail_at, None),
                fast_paths=fast_paths,
            )
            reduced = sorted(o.key for o in outcome["result"].reduced_ids)
            results.append((outcome["array"].tolist(), reduced, outcome["finish"]))
            if fast_paths:
                assert (node_id, True) in entered, (node_id, entered)
            else:
                assert entered == []
        assert results[0] == results[1], node_id
        assert f"src-{node_id}" not in results[0][1]


def test_reduce_waits_for_reconstruction_when_nothing_can_replace():
    """With no spare objects, the reduce completes only after the failed object reappears."""
    cluster = Cluster(num_nodes=3, network=NetworkConfig())
    runtime = HopliteRuntime(cluster)
    sim = cluster.sim
    source_ids = [ObjectID.of(f"g-{i}") for i in range(3)]
    target_id = ObjectID.of("t")
    outcome = {}

    def producer(node_id, delay=0.0):
        if delay:
            yield sim.timeout(delay)
        yield from runtime.client(node_id).put(
            source_ids[node_id],
            ObjectValue.from_array(np.full(2, float(node_id + 1)), logical_size=16 * MB),
        )

    def reducer():
        result = yield from runtime.client(0).reduce(target_id, source_ids, ReduceOp.SUM)
        value = yield from runtime.client(0).get(target_id)
        outcome["array"] = value.as_array()
        outcome["finish"] = sim.now
        outcome["result"] = result

    for node_id in range(3):
        sim.process(producer(node_id))
    sim.process(reducer())
    # Node 2 dies while its Put is still in flight, so its object is lost and
    # nothing can replace it; it "recovers" by re-putting the same ObjectID
    # (in a real deployment the task system re-executes the producer task).
    cluster.schedule_failure(2, at=0.003, recover_at=1.0)

    def reconstruct():
        yield sim.timeout(1.1)
        yield from runtime.client(2).put(
            source_ids[2], ObjectValue.from_array(np.full(2, 3.0), logical_size=16 * MB)
        )

    sim.process(reconstruct())
    cluster.run(until=300.0)
    assert "array" in outcome, "reduce did not complete after reconstruction"
    assert np.allclose(outcome["array"], 1 + 2 + 3)
    assert outcome["finish"] >= 1.1


def test_incremental_reduce_composes():
    """The output of one Reduce can be a source of the next (Section 3.4.2)."""
    cluster = Cluster(num_nodes=4, network=NetworkConfig())
    runtime = HopliteRuntime(cluster)
    sim = cluster.sim
    stage_one = ObjectID.of("stage-one")
    stage_two = ObjectID.of("stage-two")
    src = [ObjectID.of(f"s{i}") for i in range(4)]
    outcome = {}

    def producer(node_id):
        yield from runtime.client(node_id).put(
            src[node_id],
            ObjectValue.from_array(np.full(2, float(node_id + 1)), logical_size=8 * MB),
        )

    def reducer():
        client = runtime.client(0)
        yield from client.reduce(stage_one, src[:2], ReduceOp.SUM)
        yield from client.reduce(stage_two, [stage_one, src[2], src[3]], ReduceOp.SUM)
        value = yield from client.get(stage_two)
        outcome["array"] = value.as_array()

    for node_id in range(4):
        sim.process(producer(node_id))
    sim.process(reducer())
    cluster.run(until=300.0)
    assert np.allclose(outcome["array"], 1 + 2 + 3 + 4)


def test_reduce_argument_validation():
    cluster = Cluster(num_nodes=2, network=NetworkConfig())
    runtime = HopliteRuntime(cluster)
    client = runtime.client(0)
    with pytest.raises(ValueError):
        next(client.reduce(ObjectID.of("t"), []))
    with pytest.raises(ValueError):
        next(client.reduce(ObjectID.of("t"), [ObjectID.of("a")], num_objects=5))
