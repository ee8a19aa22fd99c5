"""The wait-vs-peer-failure race (:class:`repro.net.errors.FailureRace`).

A transfer wait that a peer's death must cut short races the awaited
event against its peers' failures.  The per-block waits do not: a block
queued for admission waits on its reservation, which the dying node fails
(:func:`repro.net.flowsched.fail_queued`), and a stream gate on a block the
source already holds wakes whatever fails.  These tests pin four things:

* the race leaves no failure listener behind, neither per wait nor after
  whole collectives (``any_of([event, node.failure_event()])`` leaked one
  listener per wait, thousands per node on a 32-node alltoall);
* the per-block waits register no listener at all;
* a peer dying while a block is queued for admission still fails the
  transfer at the failure instant and withdraws the claim from every link
  it was queued on, tier links included;
* the kernel sees the same queue pops, at the same times, as with the
  ``any_of`` form the race replaced, minus the relay pop that form takes
  after the admission wake, so same-timestamp ties break as before.
"""

import pytest

from repro.bench.scenarios import Scenario, run
from repro.net import Cluster, NetworkConfig, TransferError
from repro.net.errors import FailureRace, _check_alive
from repro.net.flowsched import (
    DEFAULT_FLOW,
    Reservation,
    path_latency,
    path_transmission_time,
    transfer_block,
)
from repro.net.topology import Topology
from repro.sim import AnyOf, Event

MB = 1024 * 1024


# ---------------------------------------------------------------------------
# The primitive
# ---------------------------------------------------------------------------


def test_race_fires_with_event_value_and_drops_listeners():
    cluster = Cluster(num_nodes=2)
    sim = cluster.sim
    a, b = cluster.nodes
    gate = Event(sim)
    race = FailureRace(gate, (a, b))
    assert len(a.failure_listeners) == 1 and len(b.failure_listeners) == 1
    gate.succeed("block")
    cluster.run()
    assert race.ok and race.value == "block"
    assert not a.failure_listeners and not b.failure_listeners
    # A later failure is no longer this race's business.
    a.fail()
    cluster.run()
    assert race.value == "block"


def test_race_fires_on_failure_and_drops_every_listener():
    cluster = Cluster(num_nodes=2)
    sim = cluster.sim
    a, b = cluster.nodes
    gate = Event(sim)
    race = FailureRace(gate, (a, b))
    b.fail()
    assert not a.failure_listeners and not b.failure_listeners
    cluster.run()
    assert race.ok and race.value is b
    # The awaited event may still fire later; the race stays decided.
    gate.succeed("late")
    cluster.run()
    assert race.value is b


def test_race_against_a_dead_node_fires_without_registering():
    cluster = Cluster(num_nodes=2)
    a, b = cluster.nodes
    b.fail()
    race = FailureRace(Event(cluster.sim), (a, b))
    assert not a.failure_listeners and not b.failure_listeners
    cluster.run()
    assert race.ok and race.value is b


def test_cancel_detaches_an_undecided_race():
    cluster = Cluster(num_nodes=2)
    a, b = cluster.nodes
    race = FailureRace(Event(cluster.sim), (a, b))
    race.cancel()
    race.cancel()  # idempotent
    assert not a.failure_listeners and not b.failure_listeners
    a.fail()
    cluster.run()
    assert not race.triggered


def test_interrupted_waiter_leaves_no_listener():
    from repro.net.errors import race_failure
    from repro.sim import Interrupt

    cluster = Cluster(num_nodes=2)
    sim = cluster.sim
    a, b = cluster.nodes

    def waiter():
        try:
            yield from race_failure(Event(sim), (a, b))
        except Interrupt:
            return "interrupted"

    proc = sim.process(waiter())
    cluster.run()
    assert len(a.failure_listeners) == 1
    proc.interrupt()
    cluster.run()
    assert proc.value == "interrupted"
    assert not a.failure_listeners and not b.failure_listeners


# ---------------------------------------------------------------------------
# No leak across whole collectives
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("collective", ["alltoall", "allgather", "allreduce"])
def test_no_failure_listener_leak_after_32_node_collective(collective, monkeypatch):
    """Only the long-lived per-node services stay registered: the
    directory, the store and the object manager.  A reduce execution's
    repair hook is removed once the execution finishes.  ``run()`` closes
    its cluster, which drops every listener, so the counts are read just
    before the close."""
    counts = []
    close = Cluster.close

    def counting_close(cluster):
        counts.append(max(len(node.failure_listeners) for node in cluster.nodes))
        close(cluster)

    monkeypatch.setattr(Cluster, "close", counting_close)
    run(Scenario(collective, "hoplite", 32, 32 * MB))
    (count,) = counts
    assert 0 < count <= 3


# ---------------------------------------------------------------------------
# Per-block waits register no listener
# ---------------------------------------------------------------------------


def test_queued_admission_registers_no_failure_listener():
    """Node 1's block queues behind node 0's on node 2's downlink and waits
    on its reservation alone."""
    cluster = Cluster(num_nodes=3)
    sim = cluster.sim
    src, dst = cluster.node(1), cluster.node(2)
    samples = []
    sim.on_pop = lambda _when, _seq, _event: samples.append(
        (src.uplink.queue_length, len(src.failure_listeners), len(dst.failure_listeners))
    )
    for sender in (cluster.node(0), src):
        sim.process(transfer_block(cluster.config, sender, dst, 4 * MB))
    cluster.run()
    assert any(queued for queued, _, _ in samples)
    assert all(up == down == 0 for _, up, down in samples)


def test_stream_over_held_source_blocks_registers_no_failure_listener():
    """A stream gate on a block the source already holds takes no race."""
    from repro.net.coalesce import nic_path_links
    from repro.net.transport import stream_blocks
    from repro.store.object_store import StoredObject
    from repro.store.objects import ObjectID

    nbytes = 16 * MB
    # Fast paths off: every block takes the per-block gate.
    cluster = Cluster(num_nodes=2, fast_paths=False)
    sim, config = cluster.sim, cluster.config
    src, dst = cluster.nodes
    blocks = config.num_blocks(nbytes)
    source = StoredObject(sim, ObjectID.of("held-src"), nbytes, blocks)
    for k in range(blocks):
        source.mark_block_ready(k)
    entry = StoredObject(sim, ObjectID.of("held-dst"), nbytes, blocks)
    listeners = []
    sim.on_pop = lambda _when, _seq, _event: listeners.append(
        len(src.failure_listeners) + len(dst.failure_listeners)
    )
    sim.process(
        stream_blocks(
            config, src, dst, nic_path_links(src, dst), nbytes, None,
            entry=entry, source=source, watch=(src, dst),
        )
    )
    cluster.run()
    assert entry.blocks_ready == blocks > 1
    assert listeners and not any(listeners)


# ---------------------------------------------------------------------------
# Peer death during queued admission
# ---------------------------------------------------------------------------


class _PeerFailed(Event):
    """The reference's failure wake, told apart from other events by type."""

    __slots__ = ()


def _any_of_transfer_block(config, src, dst, nbytes):
    """The admission race as ``any_of`` over a fresh event and closure.

    The form :class:`FailureRace` replaced, kept as the reference the
    kernel's pop sequence is compared against.
    """
    sim = src.sim
    _check_alive(src, dst)
    reservation = Reservation(src, dst, nbytes, DEFAULT_FLOW)
    try:
        if not reservation.triggered:
            peer_failed = _PeerFailed(sim)

            def _notify(node):
                if not peer_failed.triggered:
                    peer_failed.succeed(node)

            src.on_failure(_notify)
            dst.on_failure(_notify)
            try:
                yield sim.any_of([reservation, peer_failed])
            finally:
                src.remove_failure_listener(_notify)
                dst.remove_failure_listener(_notify)
            if not reservation.triggered:
                dead = src if not src.alive else dst
                raise TransferError(f"node {dead.node_id} failed", node=dead)
        _check_alive(src, dst)
        yield sim.timeout(path_transmission_time(config, src, dst, nbytes))
        _check_alive(src, dst)
    finally:
        reservation.release()
    yield sim.timeout(path_latency(config, src, dst))
    _check_alive(dst)
    return sim.now


def _two_flows(transfer, fail_node=None, fail_at=0.001):
    """Nodes 0 and 1 each send one block to node 2; 1's waits for admission.

    Returns the kernel's pops as ``(when, event)``, each flow's outcome,
    and the cluster.
    """
    config = NetworkConfig()
    cluster = Cluster(num_nodes=3, network=config)
    sim = cluster.sim
    pops = []
    sim.on_pop = lambda when, _seq, event: pops.append((when, event))
    outcome = {}

    def flow(src_id):
        src, dst = cluster.node(src_id), cluster.node(2)
        try:
            yield from transfer(config, src, dst, 4 * MB)
            outcome[src_id] = ("ok", sim.now)
        except TransferError:
            outcome[src_id] = ("failed", sim.now)

    sim.process(flow(0))
    sim.process(flow(1))
    if fail_node is not None:
        cluster.schedule_failure(fail_node, at=fail_at)
    cluster.run()
    return pops, outcome, cluster


def _as_reservation_form(event):
    """What a pop of the ``any_of`` reference is when the wait is on the
    reservation itself: ``None`` for the relay that form no longer takes."""
    if isinstance(event, AnyOf):
        # After a grant the AnyOf is a relay; after a peer's death it is the
        # admission wake, which the failed reservation now is.
        granted = isinstance(event.value[0], Reservation)
        return None if granted else "Reservation"
    if isinstance(event, _PeerFailed):
        return "Event"  # the relay event that fails the reservation
    return type(event).__name__


@pytest.mark.parametrize("fail_node", [None, 1, 2], ids=["no-fault", "src-dies", "dst-dies"])
def test_queued_admission_pops_match_any_of_form(fail_node, monkeypatch):
    """Outcomes and times equal the ``any_of`` reference, and so do the
    pops, but for the relay pop that form takes after a grant: a queued
    block waits on its reservation directly, one hop where the reference
    took two.  A peer's death still takes two hops: a relay event, then
    the failed reservation."""
    pops, outcome, _ = _two_flows(transfer_block, fail_node)
    # The reference learns of the death through its own listener alone.
    monkeypatch.setattr("repro.net.node.queued_on", lambda node: [])
    ref_pops, ref_outcome, _ = _two_flows(_any_of_transfer_block, fail_node)
    assert outcome == ref_outcome
    expected = [(when, _as_reservation_form(event)) for when, event in ref_pops]
    # Node 1's block is the one queued wait; only a granted one drops a pop.
    assert len(expected) - len(pops) == (1 if fail_node is None else 0)
    assert [(when, type(event).__name__) for when, event in pops] == [
        (when, kind) for when, kind in expected if kind is not None
    ]


@pytest.mark.parametrize("fail_node", [1, 2], ids=["src-dies", "dst-dies"])
def test_peer_death_during_queued_admission(fail_node):
    fail_at = 0.001
    config = NetworkConfig()
    # The failure lands while node 1's block is still queued behind node 0's.
    assert fail_at < config.transmission_time(4 * MB)
    _, outcome, cluster = _two_flows(transfer_block, fail_node, fail_at)
    # TransferError surfaces at the failure instant (two zero-delay hops).
    assert outcome[1] == ("failed", fail_at)
    src, dst = cluster.node(1), cluster.node(2)
    # The queued claim was withdrawn from both NIC queues: no ghost claim.
    assert src.uplink.queue_length == 0 and src.uplink.in_use == 0
    assert dst.downlink.queue_length == 0 and dst.downlink.in_use == 0
    # And neither endpoint keeps a listener.
    assert not src.failure_listeners and not dst.failure_listeners


def test_queued_admission_wakes_in_its_waits_listener_order():
    """A dying node wakes a queued admission where a listener registered
    when it began to wait would have run: after the waits that began
    before it, before the ones that began after, two queue hops out like
    any listener-driven wake."""
    cluster = Cluster(num_nodes=3)
    sim, config = cluster.sim, cluster.config
    dst = cluster.node(2)
    order = []

    def watcher(name, start):
        if start:
            yield sim.timeout(start)
        yield sim.any_of([dst.failure_event()])
        order.append(name)

    def flow(src_id):
        try:
            yield from transfer_block(config, cluster.node(src_id), dst, 4 * MB)
        except TransferError:
            order.append(f"failed-{src_id}")

    sim.process(watcher("before", 0.0))
    sim.process(flow(0))
    sim.process(flow(1))  # queued behind node 0's block
    sim.process(watcher("after", 0.0005))
    cluster.schedule_failure(2, at=0.001)
    cluster.run()
    # Node 0's block, already moving, fails when its transmission ends.
    assert order == ["before", "failed-1", "after", "failed-0"]


@pytest.mark.parametrize("fail_node", [1, 4], ids=["src-dies", "dst-dies"])
def test_peer_death_withdraws_a_queued_cross_rack_claim_from_tier_links(fail_node):
    """Nodes 0 and 1 (rack 0) each send a block to node 4 (rack 1); node 1's
    queues on node 4's downlink while its claim also covers the rack tier
    links.  A peer's death fails it at that instant and leaves every
    claimed queue empty, and no link ever accounts it as granted."""
    fail_at = 0.001
    cluster = Cluster(8, topology=Topology.racks(2, 4, oversubscription=2.0))
    sim, config = cluster.sim, cluster.config
    dst = cluster.node(4)
    failures = []

    def flow(src):
        try:
            yield from transfer_block(config, src, dst, 4 * MB)
        except TransferError as error:
            claims = src.routes[dst.node_id][0]
            failures.append((src.node_id, sim.now, error.node.node_id, claims))
            assert all(link.queue_length == 0 for link in claims)

    for src_id in (0, 1):
        sim.process(flow(cluster.node(src_id)))
    cluster.schedule_failure(fail_node, at=fail_at)
    cluster.run()

    (claims_0, path_0), (claims_1, path_1) = (
        cluster.node(src_id).routes[dst.node_id][:2] for src_id in (0, 1)
    )
    assert path_1 and path_1 == path_0  # both cross the rack tier links
    assert (1, fail_at, fail_node, claims_1) in failures
    assert all(link.queue_length == 0 and link.in_use == 0 for link in claims_1)
    scheds = {
        id(node.uplink): node.uplink_sched for node in cluster.nodes
    } | {id(node.downlink): node.downlink_sched for node in cluster.nodes} | {
        id(link.resource): link.sched for link in path_1
    }
    # Node 0's block is the only grant on any of node 1's claimed links.
    assert [scheds[id(link)].reservations_granted for link in claims_1] == [
        int(link in claims_0) for link in claims_1
    ]
