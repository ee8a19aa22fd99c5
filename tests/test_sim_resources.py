"""Unit and property tests for simulation resources (Resource, MultiRequest)."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    MultiRequest,
    Resource,
    SimulationError,
    Simulator,
)


def test_resource_serializes_exclusive_access():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    log = []

    def user(sim, name, hold):
        request = resource.request()
        yield request
        log.append((name, "start", sim.now))
        yield sim.timeout(hold)
        request.release()
        log.append((name, "end", sim.now))

    sim.process(user(sim, "a", 2.0))
    sim.process(user(sim, "b", 1.0))
    sim.run()
    assert log == [
        ("a", "start", 0.0),
        ("a", "end", 2.0),
        ("b", "start", 2.0),
        ("b", "end", 3.0),
    ]


def test_resource_capacity_allows_concurrency():
    sim = Simulator()
    resource = Resource(sim, capacity=2)
    finish = []

    def user(sim):
        with (yield resource.request()):
            yield sim.timeout(1.0)
        finish.append(sim.now)

    def runner(sim):
        request = resource.request()
        yield request
        yield sim.timeout(1.0)
        request.release()
        finish.append(sim.now)

    for _ in range(4):
        sim.process(runner(sim))
    sim.run()
    # Two run immediately, two queue behind them.
    assert sorted(finish) == [1.0, 1.0, 2.0, 2.0]


def test_resource_invalid_requests():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_resource_release_of_ungranted_request_cancels_it():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    first = resource.request()
    second = resource.request()
    assert not second.triggered
    second.release()  # cancel while still queued
    assert resource.queue_length == 0
    first.release()
    assert resource.available == 1


def test_priority_resource_is_fifo_within_a_priority():
    """Plain requests share priority 0, so waiters are granted in arrival order."""
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    order = []

    def user(sim, name, delay):
        yield sim.timeout(delay)
        request = resource.request()
        yield request
        order.append((name, sim.now))
        yield sim.timeout(1.0)
        request.release()

    for index, name in enumerate(("holder", "a", "b", "c")):
        sim.process(user(sim, name, 0.1 * index))
    sim.run()
    assert order == [("holder", 0.0), ("a", 1.0), ("b", 2.0), ("c", 3.0)]


def test_multi_request_grants_atomically_and_holds_nothing_while_pending():
    sim = Simulator()
    first, second = Resource(sim, capacity=1), Resource(sim, capacity=1)
    holder = second.request()
    assert holder.triggered
    joint = MultiRequest(sim, (first, second))
    # Pending: neither resource is held, both queues see the claim.
    assert not joint.granted
    assert first.in_use == 0 and second.in_use == 1
    assert first.queue_length == 1 and second.queue_length == 1
    holder.release()
    # The moment both fit, the whole claim set is debited at once.
    assert joint.granted
    assert first.in_use == 1 and second.in_use == 1
    assert first.queue_length == 0 and second.queue_length == 0
    joint.release()
    assert first.in_use == 0 and second.in_use == 0


def test_multi_request_is_skipped_not_blocking_the_queue():
    """Work conservation: a later request passes an unmatchable multi-request."""
    sim = Simulator()
    first, second = Resource(sim, capacity=1), Resource(sim, capacity=1)
    holder = second.request()
    joint = MultiRequest(sim, (first, second))
    assert not joint.granted
    # A single request on the free resource is granted straight past the
    # pending multi-request.
    bypass = first.request()
    assert bypass.triggered
    bypass.release()
    holder.release()
    assert joint.granted
    joint.release()


def test_multi_request_cancel_withdraws_every_claim():
    sim = Simulator()
    first, second = Resource(sim, capacity=1), Resource(sim, capacity=1)
    holder = second.request()
    joint = MultiRequest(sim, (first, second))
    joint.release()  # withdraws the pending claim
    assert first.queue_length == 0 and second.queue_length == 0
    joint.release()  # idempotent
    holder.release()
    # A cancelled claim is never granted, even once capacity frees up.
    assert not joint.granted
    assert first.in_use == 0 and second.in_use == 0


def test_multi_request_priority_orders_admission():
    sim = Simulator()
    first, second = Resource(sim, capacity=1), Resource(sim, capacity=1)
    holder = second.request()
    low = MultiRequest(sim, (first, second), priority=2)
    high = MultiRequest(sim, (first, second), priority=1)
    holder.release()
    assert high.granted and not low.granted
    high.release()
    assert low.granted
    low.release()


def test_multi_request_validation():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        MultiRequest(sim, [])
    with pytest.raises(SimulationError):
        MultiRequest(sim, (resource, resource))


@settings(max_examples=30, deadline=None)
@given(
    holds=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),  # src link
            st.integers(min_value=0, max_value=2),  # dst link
            st.floats(min_value=0.01, max_value=1.0),
        ),
        min_size=1,
        max_size=14,
    )
)
def test_multi_requests_never_exceed_capacity_or_leak(holds):
    """Property: atomic pair claims respect each link's capacity and drain."""
    sim = Simulator()
    links = [Resource(sim, capacity=1) for _ in range(3)]

    def user(sim, src, dst, hold):
        if src == dst:
            dst = (dst + 1) % 3
        joint = MultiRequest(sim, (links[src], links[dst]))
        yield joint
        assert all(link.in_use <= link.capacity for link in links)
        yield sim.timeout(hold)
        joint.release()

    for src, dst, hold in holds:
        sim.process(user(sim, src, dst, hold))
    sim.run()
    assert all(link.in_use == 0 for link in links)
    assert all(link.queue_length == 0 for link in links)


def test_released_requests_need_no_cycle_collection():
    """A granted request's value is the request itself; once released, the
    request must be freed by reference counting, not left as cyclic garbage
    (one cycle per block transferred otherwise)."""
    sim = Simulator()
    first, second = Resource(sim, capacity=1), Resource(sim, capacity=1)

    def user(sim):
        for _ in range(5):
            joint = MultiRequest(sim, (first, second))
            yield joint
            yield sim.timeout(1.0)
            joint.release()
            single = first.request()
            yield single
            single.release()

    gc.collect()
    gc.disable()
    try:
        sim.process(user(sim))
        sim.run()
        leftover = [obj for obj in gc.get_objects() if isinstance(obj, MultiRequest)]
    finally:
        gc.enable()
    assert leftover == []


@settings(max_examples=40, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=4),
    holds=st.lists(st.floats(min_value=0.01, max_value=2.0), min_size=1, max_size=12),
)
def test_resource_never_exceeds_capacity(capacity, holds):
    """Property: concurrent holders never exceed the configured capacity."""
    sim = Simulator()
    resource = Resource(sim, capacity=capacity)
    active = {"now": 0, "max": 0}

    def user(sim, hold):
        request = resource.request()
        yield request
        active["now"] += 1
        active["max"] = max(active["max"], active["now"])
        assert resource.in_use <= capacity
        yield sim.timeout(hold)
        active["now"] -= 1
        request.release()

    for hold in holds:
        sim.process(user(sim, hold))
    sim.run()
    assert active["now"] == 0
    assert active["max"] <= capacity
    assert resource.in_use == 0
