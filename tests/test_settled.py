"""``Simulator.settled()``: when a same-instant wake may be skipped.

A stream gate on a block its source already holds, and a memcpy slot
granted at submission, continue at once when ``settled()`` holds instead of
taking a queue hop.  The kernel tests pin when the predicate holds; the
cell tests pin the claim that makes skipping exact: with the hops forced
back (``settled`` patched to answer ``False``), every run pops the same
events in the same order at the same instants, plus exactly the hops the
shipped run skipped.
"""

import sys

import pytest

from repro.bench.digest import churn_scenario
from repro.bench.scenarios import Kill, Scenario, run
from repro.net import transport
from repro.sim import Simulator
from repro.sim.resources import Resource

MB = 1024 * 1024


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------


def _resumed_after_timeout(sim, body=lambda: None):
    """A lone process that records ``settled()`` after ``body`` runs."""
    seen = []

    def proc():
        yield sim.timeout(1.0)
        body()
        seen.append(sim.settled())

    sim.process(proc())
    return seen


def test_settled_inside_a_lone_process_resume():
    sim = Simulator()
    seen = _resumed_after_timeout(sim)
    sim.run()
    assert seen == [True]


def test_not_settled_outside_a_dispatch():
    sim = Simulator()
    assert not sim.settled()
    _resumed_after_timeout(sim)
    sim.run()
    assert not sim.settled()


def test_not_settled_with_an_urgent_event_pending():
    sim = Simulator()
    seen = _resumed_after_timeout(sim, body=lambda: sim.event().succeed())
    sim.run()
    assert seen == [False]


def test_settled_only_in_the_last_callback():
    sim = Simulator()
    seen = []
    event = sim.event()
    for _ in range(3):
        event.add_callback(lambda _event: seen.append(sim.settled()))
    event.succeed()
    sim.run()
    assert seen == [False, False, True]


def test_not_settled_under_run_until_an_event():
    sim = Simulator()
    seen = _resumed_after_timeout(sim)
    stop = sim.timeout(2.0)
    sim.run(until=stop)
    assert seen == [False]


def test_not_settled_under_step():
    sim = Simulator()
    seen = _resumed_after_timeout(sim)
    while sim.peek() != float("inf"):
        sim.step()
    assert seen == [False]


def test_not_settled_after_a_callback_raised():
    sim = Simulator()
    event = sim.event()

    def boom(_event):
        raise ValueError("boom")

    event.add_callback(boom)
    event.succeed()
    with pytest.raises(ValueError):
        sim.run()
    assert not sim._urgent
    assert not sim.settled()


def test_run_until_a_time_settles():
    sim = Simulator()
    seen = _resumed_after_timeout(sim)
    sim.run(until=5.0)
    assert seen == [True]


# ---------------------------------------------------------------------------
# Skipping is exact: the pop order with the hops forced back
# ---------------------------------------------------------------------------


CELLS = {
    "alltoall-16": Scenario("alltoall", "hoplite", 16, 8 * MB),
    "allgather-16": Scenario("allgather", "hoplite", 16, 8 * MB),
    "allreduce-16": Scenario("allreduce", "hoplite", 16, 8 * MB),
    "churn-allgather-seed3": churn_scenario("allgather", 3),
    "directory-kill": Scenario(
        "allgather", "hoplite", 8, 16 * MB, kill=Kill("directory", fraction=0.5)
    ),
}


def _observed(scenario: Scenario, monkeypatch, answers=None):
    """Run ``scenario``; return its latency, its pops, ``settled()``'s
    answers and how many waits were left out.

    Without ``answers`` this is the shipped run, and every pop is listed as
    ``(when, event type name)``.  With ``answers`` (the shipped run's, in
    call order) ``settled()`` answers ``False``, so every wait takes its
    hop, and each pop that a ``True`` answer skipped in the shipped run is
    left out: both relay hops of a held gate (found by wrapping
    ``transport.relay``) or the wake of a memcpy request granted at
    submission (found by wrapping ``Resource.request``).
    """
    settled, relay, request = Simulator.settled, transport.relay, Resource.request
    calls: list = []
    skipped: dict = {}  # id -> event, kept alive so the ids stay unique
    gate: list = []
    granted: list = [None]
    pops: list = []

    def spy_settled(sim):
        index = len(calls)
        calls.append(settled(sim) if answers is None else False)
        if answers is not None and answers[index]:
            if sys._getframe(1).f_code is transport.local_copy_block.__code__:
                req = granted[0]
                assert req is not None and req.triggered
                skipped[id(req)] = req
            else:
                gate.append(True)
        return calls[index]

    def spy_relay(event, exception=None):
        if gate:
            gate.clear()
            skipped[id(event)] = event
        relay(event, exception)

    def spy_request(resource):
        req = request(resource)
        granted[0] = req if req.triggered else None
        return req

    def on_pop(when, _seq, event):
        if skipped:
            if id(event) in skipped:
                return
            value = event._value
            if type(value) is tuple and len(value) == 2 and id(value[0]) in skipped:
                return  # the relay hop in front of a skipped gate
        pops.append((when, type(event).__name__))

    def observe(cluster):
        cluster.sim.on_pop = on_pop

    monkeypatch.setattr(Simulator, "settled", spy_settled)
    monkeypatch.setattr(transport, "relay", spy_relay)
    monkeypatch.setattr(Resource, "request", spy_request)
    try:
        latency = run(scenario, observe=observe)["latency"]
    finally:
        monkeypatch.undo()
    return latency, pops, calls, len(skipped)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_skipped_hops_move_no_other_pop(cell, monkeypatch):
    scenario = CELLS[cell]
    latency, pops, answers, _ = _observed(scenario, monkeypatch)
    assert any(answers), "the cell never skips a hop"
    forced_latency, forced_pops, forced_calls, skipped = _observed(
        scenario, monkeypatch, answers=answers
    )
    assert len(forced_calls) == len(answers)
    assert skipped == sum(answers)
    assert forced_latency == latency
    assert forced_pops == pops


def test_held_gate_and_memcpy_skips_both_fire(monkeypatch):
    """Both call sites skip somewhere in the cells above."""
    sites = set()
    settled = Simulator.settled

    def spy(sim):
        answer = settled(sim)
        if answer:
            sites.add(sys._getframe(1).f_code.co_name)
        return answer

    monkeypatch.setattr(Simulator, "settled", spy)
    run(CELLS["allreduce-16"])
    run(CELLS["churn-allgather-seed3"])
    assert sites == {"stream_blocks", "local_copy_block"}

