"""Tests for the cluster, nodes, failure injection, and failure schedules."""

from typing import Iterator, Sequence

import pytest

from repro.net import Cluster
from repro.net.failure import poisson_failures
from repro.net.faults import FailureEvent, install


def alternating_failures(
    node_ids: Sequence[int],
    period: float,
    downtime: float,
    count: int,
    start: float = 0.0,
) -> Iterator[FailureEvent]:
    """A deterministic round-robin failure schedule (one node down at a time)."""
    if len(node_ids) == 0:
        raise ValueError("node_ids must name at least one node")
    if period <= 0 or downtime < 0:
        raise ValueError("period must be positive and downtime non-negative")
    for index in range(count):
        node_id = node_ids[index % len(node_ids)]
        fail_at = start + index * period
        yield FailureEvent(node_id=node_id, fail_at=fail_at, recover_at=fail_at + downtime)


def test_cluster_construction_and_accessors():
    cluster = Cluster(num_nodes=4)
    assert len(cluster) == 4
    assert [node.node_id for node in cluster] == [0, 1, 2, 3]
    assert cluster.node(2).node_id == 2
    assert cluster.now == 0.0
    assert len(cluster.alive_nodes()) == 4
    with pytest.raises(ValueError):
        Cluster(num_nodes=0)


def test_node_failure_and_recovery_listeners():
    cluster = Cluster(num_nodes=2)
    node = cluster.node(1)
    events = []
    node.on_failure(lambda n: events.append(("fail", n.node_id)))
    node.on_recovery(lambda n: events.append(("recover", n.node_id)))

    assert node.alive
    node.fail()
    node.fail()  # idempotent
    assert not node.alive
    node.recover()
    node.recover()  # idempotent
    assert node.alive
    assert node.incarnation == 1
    assert events == [("fail", 1), ("recover", 1)]


def test_failure_listeners_run_in_registration_order_after_removals():
    node = Cluster(num_nodes=1).node(0)
    calls = []

    class Listener:
        def __init__(self, name):
            self.name = name

        def on_fail(self, _node):
            calls.append(self.name)

    a, b, c, d = (Listener(name) for name in "abcd")
    node.on_failure(a.on_fail)
    node.on_failure(b.on_fail)
    node.on_failure(c.on_fail)
    # A fresh bound method equals the registered one, as with a list.
    node.remove_failure_listener(b.on_fail)
    node.on_failure(d.on_fail)
    node.remove_failure_listener(a.on_fail)
    node.remove_failure_listener(a.on_fail)  # no-op once removed
    node.on_failure(b.on_fail)  # re-registered: now the newest
    node.on_failure(a.on_fail)
    assert len(node.failure_listeners) == 4
    node.fail()
    assert calls == ["c", "d", "b", "a"]


def test_registering_a_failure_listener_twice_raises():
    node = Cluster(num_nodes=1).node(0)

    def listener(_node):
        pass

    node.on_failure(listener)
    with pytest.raises(ValueError):
        node.on_failure(listener)
    assert len(node.failure_listeners) == 1


def test_failure_and_recovery_events():
    cluster = Cluster(num_nodes=2)
    node = cluster.node(0)
    sim = cluster.sim

    waited = {}

    def waiter(sim):
        yield node.failure_event()
        waited["failed_at"] = sim.now
        yield node.recovery_event()
        waited["recovered_at"] = sim.now

    sim.process(waiter(sim))
    cluster.schedule_failure(0, at=2.0, recover_at=5.0)
    cluster.run()
    assert waited["failed_at"] == pytest.approx(2.0)
    assert waited["recovered_at"] == pytest.approx(5.0)


def test_failure_event_on_already_failed_node_fires_immediately():
    cluster = Cluster(num_nodes=1)
    node = cluster.node(0)
    node.fail()
    assert node.failure_event().triggered
    node.recover()
    assert node.recovery_event().triggered


def test_schedule_failure_validation():
    cluster = Cluster(num_nodes=2)
    with pytest.raises(ValueError):
        cluster.schedule_failure(0, at=1.0, recover_at=0.5)
    cluster.run(until=5.0)
    with pytest.raises(ValueError):
        cluster.schedule_failure(0, at=1.0)


def test_schedule_failures_batch():
    cluster = Cluster(num_nodes=3)
    install(cluster, [FailureEvent(0, 1.0, 2.0), FailureEvent(1, 1.5)])
    cluster.run()
    assert cluster.node(0).alive
    assert not cluster.node(1).alive


def test_node_equality_and_repr():
    cluster = Cluster(num_nodes=2)
    assert cluster.node(0) == cluster.node(0)
    assert cluster.node(0) != cluster.node(1)
    assert "Node 0" in repr(cluster.node(0))


def test_poisson_failure_schedule_is_deterministic_and_bounded():
    events_a = poisson_failures([0, 1, 2], rate_per_second=0.5, horizon=20.0, downtime=1.0, seed=7)
    events_b = poisson_failures([0, 1, 2], rate_per_second=0.5, horizon=20.0, downtime=1.0, seed=7)
    assert events_a == events_b
    for event in events_a:
        assert 0 <= event.fail_at < 20.0
        assert event.recover_at == pytest.approx(event.fail_at + 1.0)
        assert event.node_id in (0, 1, 2)
    assert poisson_failures([0], rate_per_second=0.0, horizon=10.0, downtime=1.0) == []
    with pytest.raises(ValueError):
        poisson_failures([0], rate_per_second=-1, horizon=10, downtime=1)


def test_alternating_failures_round_robin():
    events = list(alternating_failures([1, 2], period=5.0, downtime=1.0, count=4, start=2.0))
    assert [event.node_id for event in events] == [1, 2, 1, 2]
    assert [event.fail_at for event in events] == [2.0, 7.0, 12.0, 17.0]
    with pytest.raises(ValueError):
        list(alternating_failures([1], period=0, downtime=1, count=1))


def test_poisson_failures_rejects_empty_node_ids():
    with pytest.raises(ValueError, match="node_ids"):
        poisson_failures([], rate_per_second=1.0, horizon=10.0, downtime=1.0)


def test_alternating_failures_rejects_empty_node_ids():
    with pytest.raises(ValueError, match="node_ids"):
        list(alternating_failures([], period=1.0, downtime=0.5, count=3))


def test_schedule_helper_applies_events():
    cluster = Cluster(num_nodes=2)
    install(cluster, [FailureEvent(node_id=1, fail_at=1.0, recover_at=None)])
    cluster.run()
    assert not cluster.node(1).alive
