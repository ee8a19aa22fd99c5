"""Microbenchmarks and exactness checks for coalesced block transfers.

Three properties pin the fast path (see ``net/coalesce``):

* **uncontended O(1)**: a multi-block transfer on idle, stream-exclusive
  links completes in O(1) simulator events per flow instead of O(blocks);
* **contested re-split**: the moment a competing flow claims a link, the
  run re-splits to per-block granularity — per-block interleaving and
  fair-share timing are *identical* to the reference per-block execution;
* **exactness everywhere**: completion times, per-link byte/busy
  accounting, and block-progress observations match the per-block
  reference bit for bit (the golden digests extend this to full scenarios).
"""

from repro.net.cluster import Cluster
from repro.net.config import NetworkConfig
from repro.net.flowsched import Flow, FlowClass
from repro.net.transport import local_copy, transfer_bytes

MB = 1024 * 1024


def _cluster(num_nodes=3, fast_paths=True):
    return Cluster(num_nodes=num_nodes, network=NetworkConfig(), fast_paths=fast_paths)


def _drive_transfer(cluster, src, dst, nbytes, flow=None, start=0.0):
    sim = cluster.sim
    done = {}

    def _proc():
        if start:
            yield sim.timeout(start)
        yield from transfer_bytes(cluster.config, src, dst, nbytes, flow)
        done["t"] = sim.now

    sim.process(_proc(), name=f"xfer-{src.node_id}-{dst.node_id}")
    return done


def test_uncontended_transfer_is_o1_events():
    """16 blocks over an idle path: a handful of events, not ~5 per block."""
    cluster = _cluster()
    done = _drive_transfer(cluster, cluster.node(0), cluster.node(1), 64 * MB)
    cluster.run()
    events = cluster.sim.events_processed
    assert done["t"] > 0
    # Per-block this run costs ~80 events (5 per block); coalesced it is a
    # constant independent of the block count.
    assert events <= 12, events


def test_uncontended_transfer_time_matches_per_block_reference():
    ref_cluster = _cluster(fast_paths=False)
    ref = _drive_transfer(ref_cluster, ref_cluster.node(0), ref_cluster.node(1), 64 * MB)
    ref_cluster.run()

    fast_cluster = _cluster()
    fast = _drive_transfer(
        fast_cluster, fast_cluster.node(0), fast_cluster.node(1), 64 * MB
    )
    fast_cluster.run()

    assert fast["t"] == ref["t"]
    # Link accounting is replicated block by block: bytes AND busy time.
    for node_id in (0, 1):
        ref_up = ref_cluster.node(node_id).uplink_sched
        fast_up = fast_cluster.node(node_id).uplink_sched
        assert fast_up.bytes_by_class == ref_up.bytes_by_class
        assert fast_up.busy_time == ref_up.busy_time
        assert fast_up.reservations_granted == ref_up.reservations_granted


def _two_flow_times(enabled, stagger=0.01):
    """Two flows sharing node 0's uplink; the second arrives mid-run."""
    cluster = _cluster(3, fast_paths=enabled)
    flow_a = Flow("a", FlowClass.BULK)
    flow_b = Flow("b", FlowClass.BULK)
    done_a = _drive_transfer(cluster, cluster.node(0), cluster.node(1), 64 * MB, flow_a)
    done_b = _drive_transfer(
        cluster, cluster.node(0), cluster.node(2), 64 * MB, flow_b, start=stagger
    )
    cluster.run()
    scheds = {
        node.node_id: dict(node.uplink_sched.bytes_by_class)
        for node in cluster.nodes
    }
    return done_a["t"], done_b["t"], scheds, cluster.node(0).uplink_sched.busy_time


def test_contested_run_resplits_to_per_block_fair_share():
    """A competitor arriving mid-run forces a re-split: per-block interleaving
    and fair-share completion times are bit-identical to the reference."""
    ref = _two_flow_times(enabled=False)
    fast = _two_flow_times(enabled=True)
    assert fast == ref
    # The shared uplink really was time-shared: the first flow finishes later
    # than an uncontended run would (its tail interleaves with flow b).
    solo_cluster = _cluster()
    solo = _drive_transfer(solo_cluster, solo_cluster.node(0), solo_cluster.node(1), 64 * MB)
    solo_cluster.run()
    assert ref[0] > solo["t"]


def test_contested_run_with_simultaneous_start_matches_reference():
    """Both flows start at t=0: neither may coalesce past the other."""
    ref = _two_flow_times(enabled=False, stagger=0.0)
    fast = _two_flow_times(enabled=True, stagger=0.0)
    assert fast == ref


def test_local_copy_coalesces_and_matches_reference():
    results = {}
    for enabled in (False, True):
        cluster = _cluster(1, fast_paths=enabled)
        sim = cluster.sim
        done = {}

        def _proc():
            yield from local_copy(cluster.config, cluster.node(0), 64 * MB)
            done["t"] = sim.now

        sim.process(_proc(), name="copy")
        cluster.run()
        results[enabled] = (done["t"], sim.events_processed)
    assert results[True][0] == results[False][0]
    # 16 blocks: per-block pays one timeout each (the memcpy slot is
    # granted at submission with nothing else to run, so its wake is
    # skipped), plus the process's start and end; coalesced is O(1).
    assert results[True][1] <= 6, results[True][1]
    assert results[False][1] == 18, results[False][1]


def test_pull_cascade_is_o1_events_per_hop():
    """A put feeding a chain of gets: every hop rides the arithmetic
    schedule of the hop above it (the relay cascade)."""
    from repro.core.runtime import HopliteRuntime
    from repro.store.objects import ObjectID, ObjectValue

    def _run(enabled):
        cluster = _cluster(4, fast_paths=enabled)
        runtime = HopliteRuntime(cluster)
        sim = cluster.sim
        object_id = ObjectID.of("chain-obj")
        finish = {}

        def _put():
            yield from runtime.client(cluster.node(0)).put(
                object_id, ObjectValue.of_size(64 * MB)
            )

        def _get(node_id):
            yield from runtime.client(cluster.node(node_id)).get(object_id)
            finish[node_id] = sim.now

        sim.process(_put(), name="put")
        for node_id in (1, 2, 3):
            sim.process(_get(node_id), name=f"get-{node_id}")
        cluster.run()
        return dict(finish), sim.events_processed

    ref_finish, ref_events = _run(False)
    fast_finish, fast_events = _run(True)
    assert fast_finish == ref_finish
    # 3 receivers x 16 blocks: the reference pays ~5 events per transferred
    # block; the cascade pays a small constant per hop.  The Put copy-in
    # coalesces after its first block, so what remains is that block and
    # the directory RPCs.
    assert fast_events < ref_events * 0.25, (fast_events, ref_events)


def test_inflight_progress_is_readable_at_exact_times():
    """blocks_ready on a coalesced destination is exact at any instant."""
    from repro.core.runtime import HopliteRuntime
    from repro.store.objects import ObjectID, ObjectValue

    def _probe(enabled, at):
        cluster = _cluster(2, fast_paths=enabled)
        runtime = HopliteRuntime(cluster)
        sim = cluster.sim
        object_id = ObjectID.of("probe-obj")
        seen = {}

        def _put():
            yield from runtime.client(cluster.node(0)).put(
                object_id, ObjectValue.of_size(64 * MB)
            )

        def _get():
            yield from runtime.client(cluster.node(1)).get(object_id)

        def _prober():
            yield sim.timeout(at)
            entry = runtime.store(cluster.node(1)).try_get_entry(object_id)
            seen["ready"] = None if entry is None else entry.blocks_ready

        sim.process(_put(), name="put")
        sim.process(_get(), name="get")
        sim.process(_prober(), name="probe")
        cluster.run()
        return seen["ready"]

    for at in (0.05, 0.2, 0.31, 0.44):
        assert _probe(True, at) == _probe(False, at), at


# ---------------------------------------------------------------------------
# The pipelined Put copy-in
# ---------------------------------------------------------------------------


def _scenario_on_off(scenario):
    """``(latency, flow fingerprint, events)`` with fast paths off, then on."""
    from dataclasses import replace

    from repro.bench.digest import _flow_fingerprint
    from repro.bench.scenarios import run

    results = []
    for enabled in (False, True):
        result = run(replace(scenario, fast_paths=enabled))
        results.append(
            (result["latency"], _flow_fingerprint(result["usage"]), result["events"])
        )
    return results


def test_copy_in_coalesces_in_a_synchronized_reduce():
    """Sixteen 256 MB Puts start together: each copy-in after its first
    block is one run, and the reduce reads it exactly."""
    from repro.bench.scenarios import Scenario

    off, on = _scenario_on_off(Scenario("reduce", "hoplite", 16, 256 * MB))
    assert on[:2] == off[:2]
    assert on[2] < off[2] / 4, (on[2], off[2])


def test_same_instant_copy_ins_stay_per_block():
    """An 8 MB alltoall starts 15 two-block copy-ins at once on each node.

    The first block of every copy-in is per-block, so none of them may
    coalesce: a run started at block 0 here would be contested at once,
    and its re-split would reorder same-instant ties.
    """
    from repro.bench.scenarios import Scenario

    off, on = _scenario_on_off(Scenario("alltoall", "hoplite", 16, 8 * MB))
    assert on == off


def _copy_in_case(enabled, second_put_at=None, reader_at=None, fail_at=None):
    """A 64 MB Put on node 0 pulled by node 1, disturbed one way or another.

    ``second_put_at``: a second 64 MB Put on node 0 (pulled by node 2)
    starts that long into the first.  ``reader_at``: a sealed 16 MB object
    on node 0 is read with ``read_only=False`` that long into the copy-in.
    ``fail_at``: node 0 fails at that instant.  Returns the completion log,
    the flow fingerprint and the fast-path counters.
    """
    from repro.bench.digest import _flow_fingerprint
    from repro.bench.scenarios import collect_flow_usage
    from repro.core.runtime import HopliteRuntime
    from repro.store.objects import ObjectID, ObjectValue

    cluster = _cluster(3, fast_paths=enabled)
    runtime = HopliteRuntime(cluster)
    sim = cluster.sim
    log = []

    def _put(object_id, at, size=64 * MB):
        yield sim.timeout(at)
        try:
            yield from runtime.client(cluster.node(0)).put(
                object_id, ObjectValue.of_size(size)
            )
        except Exception as exc:  # the failure cases surface here
            log.append(("put", str(object_id), type(exc).__name__, sim.now))
        else:
            log.append(("put", str(object_id), sim.now))

    def _get(node_id, object_id, at=0.0, read_only=True):
        yield sim.timeout(at)
        yield from runtime.client(cluster.node(node_id)).get(
            object_id, read_only=read_only
        )
        log.append(("get", node_id, str(object_id), sim.now))

    first = ObjectID.of("copy-in")
    start = 0.0
    if reader_at is not None:
        sealed = ObjectID.of("sealed")
        sim.process(_put(sealed, 0.0, 16 * MB), name="put-sealed")
        start = 0.005
        sim.process(_get(0, sealed, start + reader_at, read_only=False), name="reader")
    sim.process(_put(first, start), name="put")
    sim.process(_get(1, first), name="get")
    if second_put_at is not None:
        second = ObjectID.of("second")
        sim.process(_put(second, start + second_put_at), name="put-second")
        sim.process(_get(2, second), name="get-second")
    if fail_at is not None:
        cluster.schedule_failure(0, at=fail_at)
    cluster.run()
    usage = _flow_fingerprint(collect_flow_usage(cluster))
    return log, usage, dict(cluster.fastpath_stats.counts)


def test_contested_copy_in_matches_reference():
    """A second Put or a copying read on the node re-splits the copy-in."""
    resplits = 0
    for kwargs in (
        {"second_put_at": 0.0001},
        {"second_put_at": 0.003},
        {"second_put_at": 0.0065},
        {"second_put_at": 0.012},
        {"reader_at": 0.0001},
        {"reader_at": 0.004},
        {"reader_at": 0.012},
    ):
        log, usage, counts = _copy_in_case(True, **kwargs)
        assert (log, usage) == _copy_in_case(False, **kwargs)[:2], kwargs
        resplits += counts["resplits"]
    assert resplits > 0


def test_failed_copy_in_matches_reference():
    """The Put's node fails mid copy-in: same failure, same instant."""
    for fail_at in (0.003, 0.009):
        log, usage, counts = _copy_in_case(True, fail_at=fail_at)
        assert (log, usage) == _copy_in_case(False, fail_at=fail_at)[:2], fail_at
        assert log[0][2] == "NodeFailedError", log
        assert counts["resplits"] > 0


def test_scheduled_waiter_keeps_a_partial_copy_busy():
    """A waiter moved onto a copy-in's exact-time firing still counts.

    The Put's copy-in coalesces after its first block, so a wait for the
    whole object taken at 4 ms rides the run's schedule, not the entry's
    progress waiters; eviction must still see the copy as waited on.
    """
    from repro.core.runtime import HopliteRuntime
    from repro.store.objects import ObjectID, ObjectValue

    def _probe(enabled):
        cluster = _cluster(2, fast_paths=enabled)
        runtime = HopliteRuntime(cluster)
        sim = cluster.sim
        object_id = ObjectID.of("waited-obj")
        seen = {}

        def _put():
            yield from runtime.client(cluster.node(0)).put(
                object_id, ObjectValue.of_size(64 * MB)
            )

        def _waiter():
            yield sim.timeout(0.004)
            entry = runtime.store(cluster.node(0)).try_get_entry(object_id)
            event = entry.wait_for_blocks(entry.num_blocks)
            seen["busy"] = entry.has_waiters
            yield event
            seen["done"] = entry.has_waiters

        sim.process(_put(), name="put")
        sim.process(_waiter(), name="waiter")
        cluster.run()
        return seen, dict(cluster.fastpath_stats.counts)

    on, counts = _probe(True)
    assert counts["coalesced_runs"] == 1
    assert on == _probe(False)[0] == {"busy": True, "done": False}


# ---------------------------------------------------------------------------
# Link accounting and the staggered reduce
# ---------------------------------------------------------------------------


def _usage_without_fastpath_counters(usage):
    """Everything ``collect_flow_usage`` reports but what fast paths may move."""
    return {
        key: value
        for key, value in usage.items()
        if key not in ("events_processed", "fastpath")
    }


def test_link_accounting_matches_per_block(monkeypatch):
    """Busy time and utilization equal the per-block chain's, bit for bit.

    A coalesced block is credited ``release - grant`` like a per-block
    one, not its transmission time: ``(s + tx) - s`` can differ from
    ``tx`` in the last bits, which showed in the broadcast's utilization.
    The cells cover a partial last block (a run of two block sizes), tier
    links in the claim set (two racks at 2:1) and a staggered reduce whose
    slots combine in ComputeRuns.
    """
    from dataclasses import replace

    from repro.bench.scenarios import Scenario, run
    from repro.net.coalesce import ComputeRun
    from repro.net.topology import Topology

    compute_runs = []
    original_run = ComputeRun.run

    def counting_run(self):
        compute_runs.append(self)
        return original_run(self)

    monkeypatch.setattr(ComputeRun, "run", counting_run)
    racks = NetworkConfig(topology=Topology.racks(2, 4, oversubscription=2.0))
    for scenario in (
        Scenario("broadcast", "hoplite", 16, 256 * MB),
        Scenario("reduce", "hoplite", 16, 256 * MB),
        Scenario("allreduce", "hoplite", 8, 64 * MB, arrivals=0.01),
        Scenario("p2p", "hoplite", 2, 256 * MB),
        Scenario("broadcast", "hoplite", 8, 65 * MB + 12345),
        Scenario("broadcast", "hoplite", 8, 256 * MB, network=racks),
        Scenario("reduce", "hoplite", 16, 256 * MB, arrivals=0.1),
    ):
        off = run(replace(scenario, fast_paths=False))
        del compute_runs[:]
        on = run(scenario)
        assert on["usage"]["fastpath"]["coalesced_runs"] > 0, scenario
        if scenario.network is racks:
            assert on["usage"]["tier_bytes"]["rack_uplink"] > 0
        if scenario.arrivals:
            assert compute_runs, scenario
        assert _usage_without_fastpath_counters(
            on["usage"]
        ) == _usage_without_fastpath_counters(off["usage"]), scenario


def test_staggered_reduce_stays_coalesced():
    """Staggered arrivals: each slot combines in a few ComputeRuns.

    A slot that parks on an input goes back to the ComputeRun check when it
    wakes, and parks on a scheduled input without barring its coalescing;
    the chain of partial streams above it then cascades on its schedule.
    Latency, link usage and the flight timeline equal the per-block
    reference.
    """
    from dataclasses import replace

    from repro.bench.scenarios import Scenario, run
    from repro.obs.flight import timeline

    def _observed(scenario):
        clusters = []

        def observe(cluster):
            cluster.enable_observability()
            clusters.append(cluster)

        result = run(scenario, observe=observe)
        return result, timeline(clusters[0].flight)

    for scenario, max_events in (
        (Scenario("reduce", "hoplite", 16, 256 * MB, arrivals=0.1), 600),
        (Scenario("reduce", "hoplite", 16, 256 * MB, arrivals=0.02), 600),
        (Scenario("reduce", "hoplite", 8, 64 * MB, arrivals=0.01), 600),
        (Scenario("allreduce", "hoplite", 16, 256 * MB, arrivals=0.1), None),
    ):
        off, off_timeline = _observed(replace(scenario, fast_paths=False))
        on, on_timeline = _observed(scenario)
        if max_events is not None:
            assert on["events"] <= max_events, (scenario, on["events"])
        assert on["latency"] == off["latency"], scenario
        assert _usage_without_fastpath_counters(
            on["usage"]
        ) == _usage_without_fastpath_counters(off["usage"]), scenario
        assert on_timeline == off_timeline, scenario


def test_driver_kill_detaches_a_compute_run_as_per_block():
    """A driver kill mid-reduce tears down a slot whose ComputeRun is in flight.

    The repair resets or freezes the slot's output, which detaches the run
    before the interrupt lands: the run then delivers no mark, as the
    per-block loop does after a reset, and records the combines it
    finished.  Latency and the flight timeline equal the per-block
    reference.
    """
    from repro.bench.scenarios import Kill, Scenario, run
    from repro.obs.flight import first_divergence

    def _observed(fast_paths):
        clusters = []

        def observe(cluster):
            cluster.enable_observability()
            clusters.append(cluster)

        scenario = Scenario(
            "reduce", "hoplite", 8, 16 * MB, network=NetworkConfig(bandwidth=1.25e8),
            kill=Kill("driver", fraction=0.5, downtime=0.2), fast_paths=fast_paths,
        )
        return run(scenario, observe=observe)["latency"], clusters[0].flight

    off, off_flight = _observed(False)
    on, on_flight = _observed(True)
    assert repr(off) == "0.9103221227999995"
    assert repr(on) == repr(off)
    assert first_divergence(on_flight, off_flight) is None


def test_waiters_beyond_the_window_wake_as_per_block_after_a_resplit(monkeypatch):
    """Two waiters parked past a run's schedule window stay on per-block marks.

    The source holds half the object, so the run's window covers those
    blocks only; waiters on blocks 10 and 12 (registered in reverse order)
    stay on ordinary marks.  A competing stream re-splits the run mid-way,
    and the run delivers its blocks with those waiters still parked (the
    per-block branch of ``mark_blocks_ready`` runs; its wake order is
    pinned by ``test_mark_blocks_ready_wakes_parked_waiters_as_per_block_marks``).
    The source's remaining blocks land later.  Wake order, wake values and
    the flight timeline equal the per-block reference.
    """
    from repro.net.coalesce import nic_path_links, register_stream, unregister_stream
    from repro.net.transport import stream_blocks
    from repro.obs.flight import timeline
    from repro.store.object_store import StoredObject
    from repro.store.objects import ObjectID

    nbytes = 64 * MB
    ranges_with_waiters = []
    mark_blocks_ready = StoredObject.mark_blocks_ready

    def recording_mark_blocks_ready(entry, first, count):
        if entry._progress_waiters:
            ranges_with_waiters.append(count)
        mark_blocks_ready(entry, first, count)

    monkeypatch.setattr(StoredObject, "mark_blocks_ready", recording_mark_blocks_ready)

    def _run(enabled):
        cluster = _cluster(3, fast_paths=enabled)
        cluster.enable_observability()
        sim, config = cluster.sim, cluster.config
        src, dst = cluster.node(0), cluster.node(1)
        blocks = config.num_blocks(nbytes)
        source = StoredObject(sim, ObjectID.of("window-src"), nbytes, blocks)
        for k in range(blocks // 2):
            source.mark_block_ready(k)
        entry = StoredObject(sim, ObjectID.of("window-dst"), nbytes, blocks)
        wakes = []

        def _pull():
            links = nic_path_links(src, dst)
            register_stream(links)
            try:
                yield from stream_blocks(
                    config, src, dst, links, nbytes, None, entry=entry, source=source,
                    watch=(src,),
                )
            finally:
                unregister_stream(links)

        def _waiter(threshold):
            value = yield entry.wait_for_blocks(threshold)
            wakes.append((threshold, sim.now, value))

        def _produce():
            for k in range(blocks // 2, blocks):
                yield sim.timeout(0.005)
                source.mark_block_ready(k)

        sim.process(_pull(), name="pull")
        sim.process(_waiter(12), name="waiter-12")
        sim.process(_waiter(10), name="waiter-10")
        sim.process(_produce(), name="produce")
        _drive_transfer(cluster, src, cluster.node(2), 16 * MB, start=0.01)
        cluster.run()
        return wakes, entry.blocks_ready, timeline(cluster.flight), cluster.fastpath_stats.counts

    off_wakes, off_ready, off_timeline, _ = _run(False)
    on_wakes, on_ready, on_timeline, counts = _run(True)
    assert counts["coalesced_runs"] >= 1 and counts["resplits"] >= 1, counts
    assert any(count >= 2 for count in ranges_with_waiters), ranges_with_waiters
    assert [threshold for threshold, _, _ in off_wakes] == [10, 12]
    assert on_wakes == off_wakes
    assert on_ready == off_ready == 16
    assert on_timeline == off_timeline


def test_account_run_repeats_the_per_block_floats():
    """One-call link crediting is bit-exact.

    ``LinkScheduler.account_run`` must leave the accumulators one
    ``account`` per hold would, for arbitrary (non-representable) times.
    """
    import random

    from repro.net.flowsched import DEFAULT_FLOW

    rng = random.Random(7)
    cluster = _cluster(2)
    per_block, bulk = cluster.node(0).uplink_sched, cluster.node(1).uplink_sched
    holds = [rng.uniform(1e-4, 1e-2) for _ in range(300)]
    first = rng.uniform(1.0, 2.0)
    for sched in (per_block, bulk):
        sched.account(DEFAULT_FLOW, MB, first)
    for hold in holds:
        per_block.account(DEFAULT_FLOW, 4 * MB, hold)
    bulk.account_run(DEFAULT_FLOW, 300 * 4 * MB, holds)
    assert bulk.busy_time == per_block.busy_time
    assert bulk.bytes_by_class == per_block.bytes_by_class
    assert bulk.reservations_granted == per_block.reservations_granted == 301


def test_mark_blocks_ready_wakes_parked_waiters_as_per_block_marks():
    """With waiters parked, a range mark repeats the per-block mark sequence.

    Waiters on 3, 2 and 7 blocks park in that order.  Marking blocks 0-3
    must wake the one on 2 first with value 2, then the one on 3 with
    value 3, and leave the one on 7 parked: what four ``mark_block_ready``
    calls give.  A single mark of block 3 would wake both with value 4,
    in parking order.
    """
    from repro.sim.core import Simulator
    from repro.store.object_store import StoredObject
    from repro.store.objects import ObjectID

    def _wakes(mark):
        sim = Simulator()
        entry = StoredObject(sim, ObjectID.of("range-marks"), 8 * MB, 8)
        wakes = []

        def _waiter(threshold):
            value = yield entry.wait_for_blocks(threshold)
            wakes.append((threshold, value))

        for threshold in (3, 2, 7):
            sim.process(_waiter(threshold), name=f"waiter-{threshold}")
        sim.run()
        mark(entry)
        sim.run()
        return wakes, entry.blocks_ready

    def _per_block(entry):
        for block in range(4):
            entry.mark_block_ready(block)

    expected = ([(2, 2), (3, 3)], 4)
    assert _wakes(_per_block) == expected
    assert _wakes(lambda entry: entry.mark_blocks_ready(0, 4)) == expected
