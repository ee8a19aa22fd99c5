"""The wait-vs-peer-failure race (:class:`repro.net.errors.FailureRace`).

Every blocking wait of a transfer races the awaited event against its
peers' failures.  These tests pin three things:

* the race leaves no failure listener behind, neither per wait nor after
  whole collectives (``any_of([event, node.failure_event()])`` leaked one
  listener per wait, thousands per node on a 32-node alltoall);
* a peer dying while a block is queued for admission still fails the
  transfer at the failure instant and withdraws the claim;
* the kernel sees the same queue pops, at the same times and sequence
  numbers, as with the ``any_of`` form it replaced, so same-timestamp ties
  break as before.
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
from repro.sim import Event

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
def test_no_failure_listener_leak_after_32_node_collective(collective):
    """Only the long-lived per-node services stay registered: the
    directory, the store and the object manager.  A reduce execution's
    repair hook is removed once the execution finishes."""
    clusters = []
    run(Scenario(collective, "hoplite", 32, 32 * MB), observe=clusters.append)
    (cluster,) = clusters
    assert max(len(node.failure_listeners) for node in cluster.nodes) <= 3


# ---------------------------------------------------------------------------
# Peer death during queued admission
# ---------------------------------------------------------------------------


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
            peer_failed = Event(sim)

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

    Returns the kernel's ``(when, seq)`` pops, each flow's outcome, and the
    cluster.
    """
    config = NetworkConfig()
    cluster = Cluster(num_nodes=3, network=config)
    sim = cluster.sim
    pops = []
    sim.on_pop = lambda when, seq, _event: pops.append((when, seq))
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


@pytest.mark.parametrize("fail_node", [None, 1, 2], ids=["no-fault", "src-dies", "dst-dies"])
def test_queued_admission_pops_match_any_of_form(fail_node):
    pops, outcome, _ = _two_flows(transfer_block, fail_node)
    ref_pops, ref_outcome, _ = _two_flows(_any_of_transfer_block, fail_node)
    assert outcome == ref_outcome
    assert pops == ref_pops


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
