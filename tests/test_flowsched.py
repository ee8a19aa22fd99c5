"""Tests for the reservation-based flow-scheduled transport.

Covers head-of-line freedom (the motivating scenario: a sender with an idle
second receiver must not wait behind a busy first receiver), reservation
cancellation, priority classes, and per-flow accounting (read from the
flight recorder's timeline).
"""

import dataclasses

import pytest

from repro.net import Cluster, NetworkConfig, Topology, TransferError, flowsched
from repro.net.flowsched import (
    Flow,
    FlowClass,
    Reservation,
    _build_route,
    path_latency,
    path_transmission_time,
)
from repro.net.node import Node
from repro.net.transport import transfer_bytes
from repro.obs.flight import timeline
from repro.sim import SimulationError, Simulator

MB = 1024 * 1024


def make_cluster(num_nodes=4, **overrides):
    config = NetworkConfig(**overrides)
    return Cluster(num_nodes=num_nodes, network=config), config


# ---------------------------------------------------------------------------
# Head-of-line blocking regression
# ---------------------------------------------------------------------------


def _hol_scenario(config):
    """Sender A feeds a busy receiver B and an idle receiver C.

    D occupies B's downlink with one long 128 MB transmission; A->B (64 MB)
    and A->C (32 MB) start just after it.  A transport that held A's uplink
    while A->B waits for B's downlink would starve A->C although both of its
    links are idle.  Returns the per-flow finish times.
    """
    from repro.net.transport import transfer_block

    cluster = Cluster(num_nodes=4, network=config)
    sim = cluster.sim
    a, b, c, d = (cluster.node(i) for i in range(4))
    finish = {}

    def move(src, dst, nbytes, key, delay=0.0, single_block=False):
        if delay > 0:
            yield sim.timeout(delay)
        if single_block:
            yield from transfer_block(config, src, dst, nbytes)
        else:
            yield from transfer_bytes(config, src, dst, nbytes)
        finish[key] = sim.now

    # One long unbroken occupancy of B's downlink (a receiver busy for ~0.1s).
    sim.process(move(d, b, 128 * MB, "d->b", single_block=True))
    sim.process(move(a, b, 64 * MB, "a->b", delay=1e-6))
    # Arrives just after a->b, so a->b is already queued on B when it starts.
    sim.process(move(a, c, 32 * MB, "a->c", delay=2e-6))
    cluster.run()
    return finish


def test_idle_receiver_is_not_blocked_behind_a_busy_one():
    """Head-of-line freedom, pinned by analytic bounds.

    ``ideal(x)`` is an uncontended ``x``-byte transfer: its serialization
    plus one propagation latency per block.  While B is busy, the queued
    A->B reservation holds nothing, so A's uplink belongs to A->C.
    """
    config = NetworkConfig()
    finish = _hol_scenario(config)

    def ideal(nbytes):
        return config.transmission_time(nbytes) + config.num_blocks(nbytes) * config.latency

    # The idle receiver is served at (near) full line rate ...
    assert finish["a->c"] <= 1.05 * ideal(32 * MB), finish
    # ... so C never waits out B's busy period,
    assert finish["a->c"] < finish["d->b"], finish
    # and the flows interleave: C finishes long before A->B.
    assert finish["a->c"] < finish["a->b"], finish
    # Work conservation: A->B's first block is granted the instant D's
    # transmission frees B's downlink (one latency of slack).
    bound = config.transmission_time(128 * MB) + config.latency + ideal(64 * MB)
    assert finish["a->b"] <= bound, finish


def test_idle_sender_is_not_blocked_behind_a_busy_one():
    """The mirror image at the receiver: B is fed by a busy sender A and an
    idle sender C.  The A->B reservation queued on A's busy uplink claims
    nothing, so B's downlink belongs to C->B."""
    cluster, config = make_cluster()
    sim = cluster.sim
    a, b, c, d = (cluster.node(i) for i in range(4))
    finish = {}

    def move(src, dst, nbytes, key, delay=0.0, single_block=False):
        if delay:
            yield sim.timeout(delay)
        if single_block:
            yield from flowsched.transfer_block(config, src, dst, nbytes)
        else:
            yield from transfer_bytes(config, src, dst, nbytes)
        finish[key] = sim.now

    # One long unbroken occupancy of A's uplink (a sender busy for ~0.1s).
    sim.process(move(a, d, 128 * MB, "a->d", single_block=True))
    sim.process(move(a, b, 64 * MB, "a->b", delay=1e-6))
    sim.process(move(c, b, 32 * MB, "c->b", delay=2e-6))
    cluster.run()

    def ideal(nbytes):
        return config.transmission_time(nbytes) + config.num_blocks(nbytes) * config.latency

    assert finish["c->b"] <= 2e-6 + ideal(32 * MB) * (1 + 1e-9), finish
    assert finish["c->b"] < finish["a->d"] < finish["a->b"], finish
    # A->B's first block is granted the instant A's uplink frees.
    bound = config.transmission_time(128 * MB) + config.latency + ideal(64 * MB)
    assert finish["a->b"] <= bound, finish


def test_busy_receiver_still_shares_fairly_under_scheduler():
    """B's downlink serves both senders block by block (fair interleaving)."""
    cluster, config = make_cluster()
    sim = cluster.sim
    finish = {}

    def move(src_id, dst_id, key):
        yield from transfer_bytes(
            config, cluster.node(src_id), cluster.node(dst_id), 32 * MB
        )
        finish[key] = sim.now

    sim.process(move(0, 1, "a"))
    sim.process(move(2, 1, "b"))
    cluster.run()
    # Two 32 MB flows into one 10 Gbps downlink: the first to finish still
    # waits out all but one block of the interleaved pair.
    pair_time = 2 * config.transmission_time(32 * MB)
    assert min(finish.values()) >= pair_time - config.transmission_time(config.block_size)


# ---------------------------------------------------------------------------
# Reservations
# ---------------------------------------------------------------------------


def test_pending_reservation_holds_nothing_and_cancels_cleanly():
    cluster, config = make_cluster()
    src, dst, other = cluster.node(0), cluster.node(1), cluster.node(2)
    # Occupy dst's downlink so the reservation cannot be admitted.
    blocker = Reservation(other, dst, MB, Flow("blocker"))
    assert blocker.granted
    pending = Reservation(src, dst, MB, Flow("pending"))
    assert not pending.granted
    # The pending reservation holds neither link slot.
    assert src.uplink.in_use == 0
    assert dst.downlink.in_use == 1
    assert src.uplink.queue_length == 1
    pending.release()
    assert src.uplink.queue_length == 0
    assert dst.downlink.queue_length == 0
    # Release is idempotent.
    pending.release()
    blocker.release()
    assert dst.downlink.in_use == 0


def test_reservation_admitted_when_both_slots_free():
    cluster, config = make_cluster()
    src, dst, other = cluster.node(0), cluster.node(1), cluster.node(2)
    blocker = Reservation(other, dst, MB, Flow("blocker"))
    pending = Reservation(src, dst, MB, Flow("pending"))
    assert not pending.granted
    blocker.release()
    assert pending.granted
    assert src.uplink.in_use == 1 and dst.downlink.in_use == 1
    pending.release()


def test_reduce_partial_class_cuts_ahead_of_bulk():
    """A later reduce-partial reservation is admitted before queued bulk."""
    cluster, config = make_cluster(num_nodes=5)
    dst = cluster.node(0)
    holder = Reservation(cluster.node(1), dst, MB, Flow("hold", FlowClass.BULK))
    bulk = Reservation(cluster.node(2), dst, MB, Flow("bulk", FlowClass.BULK))
    partial = Reservation(
        cluster.node(3), dst, MB, Flow("partial", FlowClass.REDUCE_PARTIAL)
    )
    assert holder.granted and not bulk.granted and not partial.granted
    holder.release()
    assert partial.granted and not bulk.granted
    partial.release()
    assert bulk.granted
    bulk.release()


def test_failure_before_admission_raises_and_withdraws_reservation():
    cluster, config = make_cluster()
    sim = cluster.sim
    src, dst, other = cluster.node(0), cluster.node(1), cluster.node(2)
    # Keep dst's downlink busy so src's transfer waits for admission.
    blocker = sim.process(transfer_bytes(config, other, dst, 256 * MB))
    process = sim.process(flowsched.transfer_block(config, src, dst, 4 * MB))
    # Fail dst during the blocker's first block, while the reservation is
    # still queued for admission.
    cluster.schedule_failure(1, at=0.001)
    cluster.run()
    assert not process.ok
    assert isinstance(process.value, TransferError)
    process.defused = True
    assert not blocker.ok
    blocker.defused = True
    # No ghost claim survives the failure.
    assert src.uplink.queue_length == 0 and src.uplink.in_use == 0


# ---------------------------------------------------------------------------
# Accounting
# ---------------------------------------------------------------------------


def _flow_bytes(cluster):
    """Bytes each ``(src, dst, flow)`` moved, from the flight recorder."""
    transfers, _computes = timeline(cluster.flight)
    totals = {}
    for t in transfers:
        key = (t.src, t.dst, t.flow)
        totals[key] = totals.get(key, 0) + t.nbytes
    return totals


def test_per_flow_accounting_on_both_link_ends():
    cluster, config = make_cluster()
    cluster.enable_observability(trace_transfers=True)
    sim = cluster.sim
    src, dst = cluster.node(0), cluster.node(1)
    flow = Flow("bench:flow", FlowClass.BULK)
    process = sim.process(transfer_bytes(config, src, dst, 8 * MB, flow))
    cluster.run()
    assert process.ok
    # The flight recorder attributes every byte to the flow.
    assert _flow_bytes(cluster) == {(0, 1, "bench:flow"): 8 * MB}
    for sched in (src.uplink_sched, dst.downlink_sched):
        assert sched.bytes_by_class[FlowClass.BULK] == 8 * MB
        assert sched.reservations_granted == config.num_blocks(8 * MB)
    # The link was busy for exactly the serialization time.
    assert src.uplink_sched.busy_time == pytest.approx(config.transmission_time(8 * MB))
    assert 0 < src.uplink_sched.utilization(cluster.now) <= 1.0


def test_concurrent_flows_are_attributed_per_flow_and_class():
    """Two flows out of one uplink interleave block by block; the flight
    recorder attributes each block to its own flow, and the uplink's
    per-class totals add the flows of each class."""
    cluster, config = make_cluster()
    cluster.enable_observability(trace_transfers=True)
    sim = cluster.sim
    src = cluster.node(0)
    bulk = Flow("bulk", FlowClass.BULK)
    partial = Flow("partial", FlowClass.REDUCE_PARTIAL)
    first = sim.process(transfer_bytes(config, src, cluster.node(1), 8 * MB, bulk))
    second = sim.process(transfer_bytes(config, src, cluster.node(2), 12 * MB, partial))
    cluster.run()
    assert first.ok and second.ok
    assert _flow_bytes(cluster) == {(0, 1, "bulk"): 8 * MB, (0, 2, "partial"): 12 * MB}
    sched = src.uplink_sched
    assert sched.bytes_by_class[FlowClass.BULK] == 8 * MB
    assert sched.bytes_by_class[FlowClass.REDUCE_PARTIAL] == 12 * MB
    assert sched.reservations_granted == config.num_blocks(8 * MB) + config.num_blocks(12 * MB)
    # One uplink serialized both flows back to back.
    assert sched.busy_time == pytest.approx(config.transmission_time(20 * MB))


def test_untagged_transfers_fall_back_to_default_flow():
    cluster, config = make_cluster()
    cluster.enable_observability(trace_transfers=True)
    sim = cluster.sim
    process = sim.process(transfer_bytes(config, cluster.node(0), cluster.node(1), MB))
    cluster.run()
    assert process.ok
    assert _flow_bytes(cluster) == {(0, 1, "untagged"): MB}


# ---------------------------------------------------------------------------
# Route-cached timing
# ---------------------------------------------------------------------------


def _two_zone_cluster():
    """Four racks in two zones, oversubscribed, with tier latencies and one
    slow and one fast NIC: every pair class has its own rate and latency."""
    topology = Topology.racks(
        4,
        2,
        oversubscription=4.0,
        zones=(0, 0, 1, 1),
        zone_oversubscription=2.0,
        rack_latency=3e-6,
        zone_latency=7e-6,
        nic_bandwidths=(None, 6.25e8, None, None, None, None, 5e9, None),
    )
    config = NetworkConfig(topology=topology)
    return Cluster(num_nodes=8, network=config), config


@pytest.mark.parametrize("fabric", ["flat", "two-zone"])
def test_route_timing_equals_the_path_functions_bit_for_bit(fabric):
    if fabric == "flat":
        cluster, config = make_cluster(num_nodes=5)
    else:
        cluster, config = _two_zone_cluster()
    nbytes = 3 * config.block_size + 12345
    last = config.num_blocks(nbytes) - 1
    full, partial = config.block_bytes(nbytes, 0), config.block_bytes(nbytes, last)
    assert full == config.block_size and 0 < partial < full
    for src in cluster.nodes:
        for dst in cluster.nodes:
            if src is dst:
                continue
            _claims, _path, rate, latency = _build_route(src, dst)
            for nb in (full, partial):
                assert nb / rate == path_transmission_time(config, src, dst, nb)
            assert latency == path_latency(config, src, dst)


def _one_block(config, src, dst, nbytes):
    """Run one block transfer on idle links; return its arrival time."""
    done = {}

    def body():
        done["at"] = yield from flowsched.transfer_block(config, src, dst, nbytes)

    src.sim.process(body())
    src.sim.run()
    return done["at"]


def test_two_zone_block_arrives_at_path_timing():
    cluster, config = _two_zone_cluster()
    src, dst = cluster.node(1), cluster.node(6)  # slow NIC, cross-zone
    nb = config.block_size
    arrival = _one_block(config, src, dst, nb)
    expected = path_transmission_time(config, src, dst, nb) + path_latency(config, src, dst)
    assert arrival == expected
    assert path_latency(config, src, dst) > config.latency  # tier extras counted


def test_node_without_cluster_is_timed_by_the_path_functions():
    sim = Simulator()
    config = NetworkConfig(bandwidth=1e9, latency=2e-5)
    src, dst = Node(sim, 0), Node(sim, 1)
    nb = config.block_size // 3
    arrival = _one_block(config, src, dst, nb)
    assert arrival == config.transmission_time(nb) + config.latency
    _claims, path, rate, latency = src.routes[dst.node_id]
    assert path == () and rate is None and latency is None


def test_foreign_config_is_rejected_before_any_claim():
    """Blocks are timed by the cluster's fabric, so a config other than the
    cluster's is rejected instead of being silently ignored; an equal copy
    counts as foreign too.  The rejection leaves no claim behind."""
    cluster, config = make_cluster()
    src, dst = cluster.node(0), cluster.node(1)
    for foreign in (NetworkConfig(bandwidth=1e9, latency=3e-5), dataclasses.replace(config)):
        assert foreign is not cluster.config
        with pytest.raises(SimulationError):
            next(flowsched.transfer_block(foreign, src, dst, foreign.block_size))
    assert dst.node_id not in src.routes
    assert src.uplink.in_use == 0 and dst.downlink.in_use == 0
    nb = config.block_size
    arrival = _one_block(cluster.config, src, dst, nb)
    assert arrival == path_transmission_time(config, src, dst, nb) + path_latency(config, src, dst)
