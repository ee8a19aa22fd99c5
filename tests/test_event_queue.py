"""The kernel's two-tier event queue pops exactly like one heap.

:class:`~repro.sim.Simulator` keeps urgent events (triggers, interrupts,
silent-grant wakes) in a FIFO deque and only timed events in its heap.
These tests run random programs on it and on a reference kernel with a
single ``(time, priority, sequence)`` heap, and require the same pops —
the same ``(when, seq)`` pairs in the same order — the same program
outcome, and the same ``peek()`` wherever a run stops early.
"""

import heapq

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import Interrupt, MultiRequest, Resource, SimulationError, Simulator
from repro.sim.core import _PROCESSED, URGENT, Event

EVENTS = 4
RESOURCES = 3
INF = float("inf")


class _UrgentIntoHeap:
    """Stands in for the urgent deque: urgent entries go on the heap at now."""

    def __init__(self, sim):
        self._sim = sim

    def append(self, entry):
        seq, event = entry
        heapq.heappush(self._sim._queue, (self._sim._now, URGENT, seq, event))

    def popleft(self):  # pragma: no cover - the reference never pops here
        raise AssertionError("the single-heap reference has no urgent tier")

    def __bool__(self):
        return False


class SingleHeapSimulator(Simulator):
    """Reference kernel: every event in one ``(time, priority, seq)`` heap."""

    def __init__(self):
        super().__init__()
        self._urgent = _UrgentIntoHeap(self)

    def peek(self):
        return self._queue[0][0] if self._queue else INF

    def step(self):
        when, _priority, seq, event = heapq.heappop(self._queue)
        self._now = when
        self.events_processed += 1
        if self.on_pop is not None:
            self.on_pop(when, seq, event)
        callbacks = event.callbacks
        event.callbacks = _PROCESSED
        for callback in callbacks or ():
            callback(event)
        if not event._ok and not event.defused:
            self.unhandled_failures.append(event)

    def run(self, until=None):
        stop_event, stop_time = None, INF
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError("in the past")
        while self._queue:
            if stop_event is not None and stop_event.callbacks is _PROCESSED:
                break
            if self._queue[0][0] > stop_time:
                self._now = stop_time
                break
            self.step()
        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError("ran out of events")
            if not stop_event.ok:
                stop_event.defused = True
                raise stop_event._exception
            return stop_event.value
        if stop_time != INF and self._now < stop_time:
            self._now = stop_time
        return None


# -- random programs ----------------------------------------------------------

_DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0])
_OPS = st.one_of(
    st.tuples(st.just("timeout"), _DELAYS),
    st.tuples(st.just("succeed"), st.integers(0, EVENTS - 1)),
    st.tuples(st.just("fail"), st.integers(0, EVENTS - 1)),
    st.tuples(st.just("wait"), st.integers(0, EVENTS - 1)),
    st.tuples(st.just("at"), _DELAYS),
    st.tuples(st.just("urgent_at"), st.just(0)),
    st.tuples(st.just("callback"), _DELAYS, st.integers(0, EVENTS - 1)),
    st.tuples(st.just("interrupt"), st.integers(0, 4)),
    st.tuples(st.just("claim"), st.integers(0, RESOURCES - 1), _DELAYS),
)
_PROGRAMS = st.lists(st.lists(_OPS, max_size=8), min_size=1, max_size=5)
_STOPS = st.lists(
    st.one_of(
        st.tuples(st.just("time"), st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0])),
        st.tuples(st.just("event"), st.integers(0, EVENTS - 1)),
        st.tuples(st.just("process"), st.integers(0, 4)),
    ),
    max_size=3,
)


def _execute(sim, programs, stops):
    """Run ``programs`` on ``sim``; everything observable, as one value."""
    pops = []
    sim.on_pop = lambda when, seq, _event: pops.append((when, seq))
    log = []
    events = [sim.event() for _ in range(EVENTS)]
    resources = [Resource(sim) for _ in range(RESOURCES)]
    procs = []

    def body(pid, ops):
        for op in ops:
            kind = op[0]
            try:
                if kind == "timeout":
                    yield sim.timeout(op[1])
                elif kind == "succeed":
                    if not events[op[1]].triggered:
                        events[op[1]].succeed(pid)
                elif kind == "fail":
                    if not events[op[1]].triggered:
                        events[op[1]].fail(ValueError(pid))
                elif kind == "wait":
                    value = yield events[op[1]]
                    log.append(("value", pid, value))
                elif kind == "at":
                    yield sim.wake_at(sim.now + op[1])
                elif kind == "urgent_at":
                    event = Event(sim)
                    event._ok = True
                    sim.schedule_at(event, sim.now, URGENT)
                    yield event
                elif kind == "callback":
                    target = events[op[2]]

                    def fire(_timeout, target=target, pid=pid):
                        if not target.triggered:
                            target.succeed(("callback", pid))

                    sim.timeout(op[1]).add_callback(fire)
                elif kind == "interrupt":
                    if op[1] < len(procs) and op[1] != pid:
                        procs[op[1]].interrupt(pid)
                elif kind == "claim":
                    first = resources[op[1]]
                    second = resources[(op[1] + 1) % RESOURCES]
                    claim = MultiRequest(sim, (first, second))
                    try:
                        yield claim  # a silent grant is woken by this yield
                        yield sim.timeout(op[2])
                    finally:
                        claim.release()
            except (Interrupt, ValueError) as exc:
                log.append(("caught", pid, type(exc).__name__, sim.now))
            log.append((kind, pid, sim.now))

    for pid, ops in enumerate(programs):
        procs.append(sim.process(body(pid, ops)))

    checkpoints = []
    for kind, arg in stops:
        target = arg if kind == "time" else events[arg] if kind == "event" else None
        if kind == "process":
            target = procs[arg % len(procs)]
        try:
            sim.run(until=target)
            outcome = "ok"
        except (SimulationError, ValueError) as exc:
            outcome = type(exc).__name__
        checkpoints.append((outcome, sim.now, sim.peek(), len(pops)))
    sim.run()
    return pops, log, checkpoints, sim.now, sim.events_processed


@settings(max_examples=150, deadline=None)
@given(programs=_PROGRAMS, stops=_STOPS)
# An interrupt scheduled before its target's first step: the claim the
# process then waits on must not resume it later from ``wait``.
@example(
    programs=[[], [], [("interrupt", 3)], [("claim", 0, 0.0), ("wait", 0)]],
    stops=[],
)
def test_two_tier_queue_pops_like_a_single_heap(programs, stops):
    two_tier = _execute(Simulator(), programs, stops)
    reference = _execute(SingleHeapSimulator(), programs, stops)
    assert two_tier == reference


# -- run() stopping with urgent events still pending --------------------------


def _chain(sim, gate, done):
    yield gate
    # Two zero-delay triggers queued behind the gate's own pop: still
    # pending when run(until=gate) returns.
    done[0].succeed("first")
    done[1].succeed("second")
    yield sim.timeout(1.0)


@pytest.mark.parametrize("kernel", [Simulator, SingleHeapSimulator])
def test_run_until_event_leaves_urgent_events_pending_then_resumes(kernel):
    sim = kernel()
    pops = []
    sim.on_pop = lambda when, seq, _event: pops.append((when, seq))
    gate = sim.timeout(0.5)
    done = [sim.event(), sim.event()]
    proc = sim.process(_chain(sim, gate, done))
    sim.run(until=gate)
    assert sim.now == 0.5 and sim.peek() == 0.5
    assert not done[0].processed and not done[1].processed
    if kernel is Simulator:
        assert len(sim._urgent) == 2
    sim.run(until=2.0)
    assert done[0].processed and done[1].processed and proc.processed
    assert sim.now == 2.0
    assert pops == [(0.0, 1), (0.5, 0), (0.5, 2), (0.5, 3), (1.5, 4), (1.5, 5)]


def test_peek_sees_the_urgent_tier_first():
    sim = Simulator()
    sim.timeout(2.0)
    assert sim.peek() == 2.0
    sim.run(until=1.0)
    sim.event().succeed()
    assert sim.peek() == 1.0
    sim.step()
    assert sim.peek() == 2.0


# -- urgent events can only be scheduled now ----------------------------------


def test_urgent_event_at_another_instant_raises():
    sim = Simulator()
    sim.run(until=1.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(Event(sim), 2.0, URGENT)
    with pytest.raises(SimulationError):
        sim._schedule(Event(sim), URGENT, 0.5)
    # Scheduling at the current instant is the urgent tier's contract.
    sim.schedule_at(Event(sim), 1.0, URGENT)
    sim._schedule(Event(sim), URGENT)
    assert len(sim._urgent) == 2 and not sim._queue
