"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Interrupt,
    ProcessFailure,
    SimulationError,
    Simulator,
)


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.5)
        yield sim.timeout(0.5)
        return sim.now

    process = sim.process(proc(sim))
    sim.run()
    assert process.value == pytest.approx(2.0)
    assert sim.now == pytest.approx(2.0)


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_nan_time_rejected():
    # A NaN compares false both ways: in the heap it would be skipped as if
    # the event were not there.
    nan = float("nan")
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(nan)
    with pytest.raises(SimulationError):
        sim.wake_at(nan)
    with pytest.raises(SimulationError):
        sim.schedule_at(sim.event(), nan)
    with pytest.raises(SimulationError):
        sim.run(until=nan)
    assert sim.peek() == float("inf")


def test_process_return_value_and_waiting():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1.0)
        return 42

    def parent(sim):
        value = yield sim.process(child(sim))
        return value * 2

    parent_proc = sim.process(parent(sim))
    sim.run()
    assert parent_proc.value == 84


def test_event_succeed_and_value():
    sim = Simulator()
    event = sim.event()
    assert not event.triggered
    event.succeed("payload")
    assert event.triggered and event.ok
    with pytest.raises(SimulationError):
        event.succeed("again")


def test_event_value_before_trigger_raises():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_event_fail_requires_exception():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError):
        event.fail("not an exception")  # type: ignore[arg-type]


def test_event_failure_propagates_into_process():
    sim = Simulator()
    event = sim.event()
    seen = {}

    def proc(sim):
        try:
            yield event
        except ValueError as exc:
            seen["error"] = str(exc)
        return "handled"

    process = sim.process(proc(sim))
    event.fail(ValueError("boom"))
    sim.run()
    assert process.value == "handled"
    assert seen["error"] == "boom"


def test_unhandled_process_failure_is_recorded():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("unobserved")

    sim.process(proc(sim))
    sim.run()
    assert len(sim.unhandled_failures) == 1


def test_check_failures_names_the_first_unconsumed_failure():
    sim = Simulator()

    def proc(sim, delay, error):
        yield sim.timeout(delay)
        raise error

    sim.check_failures()  # nothing recorded: a no-op
    sim.process(proc(sim, 1.0, RuntimeError("unobserved")), name="driver")
    sim.process(proc(sim, 2.0, ValueError("second")), name="other")
    sim.run()
    with pytest.raises(ProcessFailure, match="^process 'driver' failed") as raised:
        sim.check_failures()
    assert "RuntimeError('unobserved')" in str(raised.value)
    assert "(2 unconsumed failure(s))" in str(raised.value)
    assert isinstance(raised.value.__cause__, RuntimeError)
    assert len(sim.unhandled_failures) == 2  # the kernel keeps recording


def test_failure_consumed_after_it_popped_is_not_reported():
    """A failure that pops with no waiter and is consumed later in the run
    (a process yields the already-failed event) is not reported; one that
    nobody ever consumes stays reported."""
    sim = Simulator()
    consumed, ignored = sim.event(), sim.event()
    caught = []

    def late_waiter(sim):
        yield sim.timeout(1.0)
        try:
            yield consumed
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(late_waiter(sim))
    consumed.fail(RuntimeError("consumed"))
    ignored.fail(RuntimeError("never consumed"))
    sim.run()
    assert caught == ["consumed"]
    assert sim.unhandled_failures == [ignored]


def test_run_until_time_stops_mid_simulation():
    sim = Simulator()
    ticks = []

    def proc(sim):
        for _ in range(10):
            yield sim.timeout(1.0)
            ticks.append(sim.now)

    sim.process(proc(sim))
    sim.run(until=3.5)
    assert ticks == [1.0, 2.0, 3.0]
    assert sim.now == pytest.approx(3.5)
    sim.run()
    assert len(ticks) == 10


def test_run_until_event_returns_its_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2.0)
        return "done"

    process = sim.process(proc(sim))
    assert sim.run(until=process) == "done"


def test_run_until_failed_event_raises():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        raise KeyError("nope")

    process = sim.process(proc(sim))
    with pytest.raises(KeyError):
        sim.run(until=process)


def test_run_until_past_time_rejected():
    sim = Simulator()
    sim.process(iter_timeout(sim, 5.0))
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def iter_timeout(sim, delay):
    yield sim.timeout(delay)


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def proc(sim):
        yield "not an event"

    process = sim.process(proc(sim))
    sim.run()
    assert process.triggered and not process.ok
    assert isinstance(process.value, SimulationError)
    process.defused = True


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_process_start_and_finish_keep_their_queue_positions():
    """A process's bootstrap and its completion each take the urgent-tier
    slot, and the sequence number, that ``succeed()`` gives a plain event
    triggered at the same point, however they interleave at one instant."""
    sim = Simulator()
    labels = {}
    pops = []
    log = []
    sim.on_pop = lambda when, seq, event: pops.append((seq, labels.get(event, "bootstrap")))

    def plain(name):
        event = sim.event()
        labels[event] = name
        event.add_callback(lambda _event: log.append(name))
        return event

    def returns_at_once(name):
        log.append(f"{name} runs")
        return name
        yield  # pragma: no cover - makes this a generator

    def yields_then_returns(name, gate):
        log.append(f"{name} runs")
        yield gate
        log.append(f"{name} resumed")
        return name

    def spawn(generator, name):
        process = sim.process(generator, name=name)
        labels[process] = name
        process.add_callback(lambda _event: log.append(f"{name} done"))
        return process

    gate = plain("gate")
    plain("e1").succeed()  # seq 0
    spawn(returns_at_once("p1"), "p1")  # bootstrap seq 1
    late = plain("e2")
    late.add_callback(lambda _event: spawn(returns_at_once("p3"), "p3"))
    late.add_callback(lambda _event: gate.succeed())
    late.succeed()  # seq 2
    spawn(yields_then_returns("p2", gate), "p2")  # bootstrap seq 3
    sim.run()

    assert pops == [
        (0, "e1"),
        (1, "bootstrap"),  # p1 runs and returns: completion seq 4
        (2, "e2"),  # spawns p3 (bootstrap seq 5) and succeeds gate (seq 6)
        (3, "bootstrap"),  # p2 runs and waits on gate
        (4, "p1"),
        (5, "bootstrap"),  # p3 runs and returns: completion seq 7
        (6, "gate"),  # p2 resumes and returns: completion seq 8
        (7, "p3"),
        (8, "p2"),
    ]
    assert log == [
        "e1",
        "p1 runs",
        "e2",
        "p2 runs",
        "p1 done",
        "p3 runs",
        "gate",
        "p2 resumed",
        "p3 done",
        "p2 done",
    ]
    assert sim.now == 0.0 and sim.unhandled_failures == []


def test_process_accepts_any_generator_protocol_object():
    class Coroutine:
        """Not a ``GeneratorType``, but it has ``send`` and ``throw``."""

        def send(self, _value):
            raise StopIteration("done")

        def throw(self, exc):  # pragma: no cover - never failed here
            raise exc

    sim = Simulator()
    process = sim.process(Coroutine())
    sim.run()
    assert process.value == "done"
    with pytest.raises(SimulationError, match="requires a generator, got list"):
        sim.process([])  # type: ignore[arg-type]


def test_all_of_waits_for_every_event():
    sim = Simulator()

    def proc(sim):
        t1 = sim.timeout(1.0, value="a")
        t2 = sim.timeout(3.0, value="b")
        values = yield sim.all_of([t1, t2])
        return values, sim.now

    process = sim.process(proc(sim))
    sim.run()
    values, when = process.value
    assert sorted(values) == ["a", "b"]
    assert when == pytest.approx(3.0)


def test_any_of_returns_at_first_event():
    sim = Simulator()

    def proc(sim):
        t1 = sim.timeout(1.0, value="fast")
        t2 = sim.timeout(5.0, value="slow")
        yield sim.any_of([t1, t2])
        return sim.now

    process = sim.process(proc(sim))
    sim.run()
    assert process.value == pytest.approx(1.0)
    # The queue still drains the slower timeout without error.
    assert sim.now == pytest.approx(5.0)


def test_condition_operators():
    sim = Simulator()

    def proc(sim):
        a = sim.timeout(1.0)
        b = sim.timeout(2.0)
        combined = a & b
        assert isinstance(combined, AllOf)
        either = a | b
        assert isinstance(either, AnyOf)
        yield combined
        return sim.now

    process = sim.process(proc(sim))
    sim.run()
    assert process.value == pytest.approx(2.0)


def test_empty_condition_fires_immediately():
    sim = Simulator()
    condition = AllOf(sim, [])
    assert condition.triggered


def test_interrupt_is_delivered_and_process_continues():
    sim = Simulator()
    log = []

    def victim(sim):
        try:
            yield sim.timeout(10.0)
        except Interrupt as interrupt:
            log.append(("interrupted", sim.now, interrupt.cause))
        yield sim.timeout(1.0)
        return "recovered"

    def attacker(sim, target):
        yield sim.timeout(2.0)
        target.interrupt("failure injected")

    target = sim.process(victim(sim))
    sim.process(attacker(sim, target))
    sim.run()
    assert target.value == "recovered"
    assert log == [("interrupted", 2.0, "failure injected")]


def _waiter(sim, waits, log):
    """Wait on each event ``waits`` makes, in turn, logging how each wait ended."""
    for make in waits:
        try:
            value = yield make()
            log.append(("resumed", sim.now, value))
        except Interrupt as interrupt:
            log.append(("interrupted", sim.now, interrupt.cause))


def test_interrupt_before_first_step_leaves_no_stale_wake():
    # The interrupt is scheduled before the process has a target; the first
    # step then waits on a timeout, which must not resume the process later.
    sim = Simulator()
    gate = sim.event()
    log = []
    process = sim.process(_waiter(sim, [lambda: sim.timeout(1.0), lambda: gate], log))
    process.interrupt("early")
    sim.run(until=2.0)
    assert log == [("interrupted", 0.0, "early")]
    assert process.is_alive
    gate.succeed("open")
    sim.run()
    assert log == [("interrupted", 0.0, "early"), ("resumed", 2.0, "open")]


def test_double_interrupt_leaves_no_stale_wake():
    # The first delivery lets the process wait on a new timeout; the second
    # delivery must detach it, or the timeout resumes the process at 1.5
    # while it waits on the gate.
    sim = Simulator()
    gate = sim.event()
    log = []
    waits = [lambda: sim.timeout(5.0), lambda: sim.timeout(1.0), lambda: gate]
    process = sim.process(_waiter(sim, waits, log))
    sim.run(until=0.5)
    process.interrupt("first")
    process.interrupt("second")
    sim.run(until=3.0)
    assert log == [("interrupted", 0.5, "first"), ("interrupted", 0.5, "second")]
    gate.succeed("open")
    sim.run()
    assert log[2:] == [("resumed", 3.0, "open")]


def test_interrupt_detaches_only_the_interrupted_waiter():
    # Two processes wait on one gate; interrupting one must leave the
    # other's wake on the gate.
    sim = Simulator()
    gate = sim.event()
    log_a, log_b = [], []
    a = sim.process(_waiter(sim, [lambda: gate], log_a))
    b = sim.process(_waiter(sim, [lambda: gate], log_b))
    sim.run(until=1.0)
    a.interrupt("stop")
    sim.run(until=2.0)
    gate.succeed("open")
    sim.run()
    assert log_a == [("interrupted", 1.0, "stop")]
    assert log_b == [("resumed", 2.0, "open")]
    assert a.ok and b.ok


def test_interrupt_of_process_that_finishes_first_is_dropped():
    # The interrupt is queued behind the process's first step, which
    # returns: delivery finds a finished process and leaves its value.
    sim = Simulator()

    def instant(sim):
        return "done"
        yield  # pragma: no cover - makes this a generator

    process = sim.process(instant(sim))
    process.interrupt("late")
    sim.run()
    assert process.ok and process.value == "done"
    assert sim.unhandled_failures == []


def test_interrupting_finished_process_is_noop():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(0.1)

    process = sim.process(quick(sim))
    sim.run()
    process.interrupt("too late")  # must not raise
    sim.run()
    assert process.ok


def test_events_at_same_time_fire_in_fifo_order():
    sim = Simulator()
    order = []

    def proc(sim, name):
        yield sim.timeout(1.0)
        order.append(name)

    for name in ("a", "b", "c"):
        sim.process(proc(sim, name))
    sim.run()
    assert order == ["a", "b", "c"]


def test_step_on_empty_queue_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.step()


def test_run_reads_on_pop_once_when_it_starts():
    # on_pop is the kernel's only hook.  One installed from inside a running
    # callback takes effect at the next run(), which reports every pop.
    assert [name for name in Simulator.__slots__ if name.startswith("on_")] == ["on_pop"]
    sim = Simulator()
    pops = []

    def install(sim):
        yield sim.timeout(1.0)
        sim.on_pop = lambda when, seq, _event: pops.append((when, seq))
        yield sim.timeout(1.0)
        yield sim.timeout(1.0)

    sim.process(install(sim))
    sim.run(until=1.5)
    assert pops == []
    before = sim.events_processed
    sim.run()
    assert len(pops) == sim.events_processed - before == 3
    assert pops == sorted(pops)


def test_step_dispatches_like_run():
    # perf/ times the kernel by wrapping step(): stepping until the queue
    # drains must pop the same (when, seq) order to the same end state.
    def trace(drive):
        sim = Simulator()
        pops = []
        sim.on_pop = lambda when, seq, _event: pops.append((when, seq))
        gate = sim.event()
        log = []
        sim.process(_waiter(sim, [lambda: sim.timeout(1.0), lambda: gate], log))

        def opener(sim):
            yield sim.timeout(2.0)
            gate.succeed("open")

        sim.process(opener(sim))
        drive(sim)
        return pops, log, sim.now, sim.events_processed

    def step_all(sim):
        while sim.peek() != float("inf"):
            sim.step()

    stepped = trace(step_all)
    assert stepped == trace(lambda sim: sim.run())
    assert stepped[1] == [("resumed", 1.0, None), ("resumed", 2.0, "open")]


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(4.0)
    assert sim.peek() == pytest.approx(0.0) or sim.peek() <= 4.0
