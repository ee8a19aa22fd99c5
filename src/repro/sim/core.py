"""Core event loop, events, and processes for the simulation kernel.

The design follows the classic discrete-event pattern:

* A :class:`Simulator` owns a priority queue of scheduled events keyed by
  ``(time, priority, sequence)``.
* An :class:`Event` is a one-shot signal.  It can *succeed* with a value or
  *fail* with an exception.  Callbacks attached to the event run when the
  simulator pops it off the queue.
* A :class:`Process` wraps a generator.  Every value the generator yields
  must be an :class:`Event`; the process is resumed (``send``/``throw``) when
  that event fires.  A process is itself an event that fires when the
  generator terminates, so processes can wait on one another.

The module is intentionally small and has no external dependencies so that
unit tests of the higher layers never depend on wall-clock time.

Performance notes (the kernel is the hot loop of every benchmark):

* every class here carries ``__slots__`` — a simulation allocates millions
  of events and the per-instance ``__dict__`` was a third of the kernel's
  footprint and a measurable share of its time;
* an event's callback list is allocated lazily on the first
  :meth:`Event.add_callback`; most events (timeouts with a single waiting
  process, fire-and-forget grants) carry zero or one callback, so the
  eager empty list was pure churn.  ``callbacks`` keeps its public
  contract: falsy while empty, a list while waiters exist, and the
  ``_PROCESSED`` sentinel (an empty tuple — also falsy) once the event has
  left the queue;
* :meth:`Simulator.schedule_at` places an event at an *absolute* timestamp,
  which the coalesced-transfer fast path uses to land wake-ups on exactly
  the accumulated float boundary a per-block chain of timeouts would have
  produced (``now + (t - now)`` does not round-trip in floating point);
* the queue has two tiers.  Every ``URGENT`` event (a ``succeed``/``fail``
  trigger, an interrupt, a silent multi-request grant's wake) is scheduled
  at the current instant, so in the single ``(time, priority, sequence)``
  heap it would sort before everything else: no timed event is earlier,
  and a timed event at the same instant has the larger priority.  Urgent
  events therefore pop in FIFO order of their sequence numbers, ahead of
  the heap — exactly what a ``deque`` gives without a heap push and pop.
  Only timed (``NORMAL``) events go on the heap.  Both tiers draw from one
  sequence counter, so ``on_pop`` sees the same ``(when, seq)`` pairs a
  single heap would produce, and scheduling an urgent event at any other
  instant raises :class:`SimulationError` instead of breaking the order;
* :meth:`Simulator.run` pops and dispatches inline, with its one hook
  (``on_pop``) in a local, and ``succeed``/``fail``/:class:`Timeout`
  schedule inline: the kernel's own cost is a few method calls per
  event, so each call saved is measurable over the hundreds of
  thousands of events of a contended run;
* a finished process holds no reference to itself: it drops its cached
  ``_resume`` bound method when its generator ends, and a failure's
  traceback starts in the generator rather than in the kernel frame that
  caught it.  Either self-reference would make every process a reference
  cycle, and a fleet of runs would spend a fifth of its host time in the
  cyclic garbage collector instead of being freed by reference counting;
* :meth:`Simulator.settled` tells a running process that a same-instant
  wake it would schedule now is the very next pop: :meth:`run` is inside
  the last callback of the event it dispatches and the urgent tier is
  empty.  A wait that must take a queue hop only to keep that order (a
  stream gate on a block its source already holds, a memcpy slot granted
  at submission) continues at once instead.  The skipped pops could only
  have run themselves, and the sequence counter merely advances less, so
  every later event still sorts after every queued one: the relative pop
  order, and with it every simulated result, is unchanged.
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappop, heappush
from types import GeneratorType
from typing import Any, Callable, Generator, Iterable, Optional


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries an arbitrary payload describing why the
    interrupt happened (for example, a node-failure record).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class ProcessFailure(Exception):
    """Wraps an exception that escaped a process nobody was waiting on."""


# Priorities used to order events that fire at the same timestamp.  Urgent
# events (process resumptions) run before normal events so that chains of
# zero-delay causality settle deterministically.
URGENT = 0
NORMAL = 1

#: Sentinel marking an event whose callbacks have already run.  An empty
#: tuple: falsy (so ``bool(event.callbacks)`` still means "has waiters"),
#: immutable, and identity-comparable.
_PROCESSED: tuple = ()


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*.  Calling :meth:`succeed` or :meth:`fail`
    *triggers* it, scheduling its callbacks to run at the current simulation
    time.  Once triggered its value is immutable.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exception", "_ok", "defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: ``None`` until the first callback registers; a list while waiters
        #: exist; the ``_PROCESSED`` sentinel once callbacks have run.
        self.callbacks: Any = None
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._ok: Optional[bool] = None
        #: Set once a failure has been delivered to at least one waiter (or
        #: explicitly acknowledged).  A failed event that leaves the queue
        #: still undefused is appended to ``Simulator.unhandled_failures``,
        #: and dropped from it when :meth:`Simulator.run` returns if a waiter
        #: defused it meanwhile; nothing raises, so read that list to catch
        #: lost errors.
        self.defused = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been succeeded or failed."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event left the queue)."""
        return self.callbacks is _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        if self._ok is None:
            raise SimulationError("event value read before it was triggered")
        if self._exception is not None:
            return self._exception
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._ok is not None:
            raise SimulationError("event has already been triggered")
        self._ok = True
        self._value = value
        # Inline Simulator._schedule(self, URGENT): the urgent tier.
        sim = self.sim
        seq = sim._sequence
        sim._sequence = seq + 1
        sim._urgent.append((seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._ok is not None:
            raise SimulationError("event has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._exception = exception
        sim = self.sim
        seq = sim._sequence
        sim._sequence = seq + 1
        sim._urgent.append((seq, self))
        return self

    # -- composition ------------------------------------------------------
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        callbacks = self.callbacks
        if callbacks is _PROCESSED:
            # Already processed: run immediately at the current time.
            callback(self)
        elif callbacks is None:
            self.callbacks = [callback]
        else:
            callbacks.append(callback)

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.sim, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.sim, [self, other])

    def __repr__(self) -> str:
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"negative or NaN timeout delay: {delay!r}")
        self.sim = sim
        self.callbacks = None
        self._value = value
        self._exception = None
        self._ok = True
        self.defused = False
        self.delay = delay
        # Inline Simulator._schedule(self, NORMAL, delay): the timed tier.
        seq = sim._sequence
        sim._sequence = seq + 1
        heappush(sim._queue, (sim._now + delay, NORMAL, seq, self))

    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover
        raise SimulationError("a Timeout is triggered automatically")

    def fail(self, exception: BaseException) -> "Event":  # pragma: no cover
        raise SimulationError("a Timeout is triggered automatically")


class _Condition(Event):
    """Base class for AllOf / AnyOf composition events.

    A condition keeps the number of its members, not the members: each
    pending member holds the condition through its callback, so a list of
    members would make every condition with a member that never fires (a
    wait on a node failure that does not come) a reference cycle.
    """

    __slots__ = ("_count", "_matched")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        Event.__init__(self, sim)
        events = list(events)
        self._count = len(events)
        self._matched: list[Event] = []
        if not events:
            self.succeed([])
            return
        for event in events:
            if event.sim is not sim:
                raise SimulationError("cannot mix events from different simulators")
            event.add_callback(self._check)

    def _satisfied(self) -> bool:  # pragma: no cover - abstract hook
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event.ok:
                event.defused = True
            return
        if not event.ok:
            event.defused = True
            self.fail(event._exception)  # type: ignore[arg-type]
            return
        self._matched.append(event)
        if self._satisfied():
            self.succeed([e.value for e in self._matched])


class AllOf(_Condition):
    """Fires when every component event has succeeded."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return len(self._matched) == self._count


class AnyOf(_Condition):
    """Fires when the first component event succeeds."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return len(self._matched) >= 1


def _without_frame(exc: BaseException) -> BaseException:
    """``exc`` with the catching frame (:meth:`Process._resume`) cut off.

    That frame holds the failed process, which holds ``exc``: kept in the
    traceback, it would make every failed process a reference cycle.
    """
    tb = exc.__traceback__
    return exc.with_traceback(tb.tb_next if tb is not None else None)


class Process(Event):
    """A generator-based coroutine running on the simulator.

    The wrapped generator yields :class:`Event` objects.  When a yielded
    event succeeds, the event's value is sent into the generator; when it
    fails, the exception is thrown into the generator.  The process itself
    is an event that succeeds with the generator's return value.
    """

    __slots__ = ("generator", "name", "_target", "_resume_bound")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        # Event.__init__ inlined: a run starts tens of thousands of processes.
        self.sim = sim
        self.callbacks = self._value = self._exception = self._ok = None
        self.defused = False
        if type(generator) is not GeneratorType and (
            not hasattr(generator, "send") or not hasattr(generator, "throw")
        ):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        # One bound method reused for every resumption: creating a fresh
        # bound method per yield was measurable at millions of yields.
        self._resume_bound = resume = self._resume
        # Kick-start the process now: ``succeed()``'s urgent-tier append.
        bootstrap = Event(sim)
        bootstrap._ok = True
        bootstrap.callbacks = [resume]
        seq = sim._sequence
        sim._sequence = seq + 1
        sim._urgent.append((seq, bootstrap))

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process.

        Interrupting a finished process is a no-op, which keeps failure
        injection code simple (a node may already have died for another
        reason).
        """
        if self.triggered:
            return
        self._detach()
        interrupt_event = Event(self.sim)
        interrupt_event._ok = False
        interrupt_event._exception = Interrupt(cause)
        interrupt_event.defused = True
        self.sim._schedule(interrupt_event, URGENT)
        interrupt_event.add_callback(self._deliver_interrupt)

    def close(self) -> None:
        """Abandon a process that waits on an event which can no longer fire.

        Only on a drained simulator (raises :class:`SimulationError` while
        events are queued).  A process parked for good, such as a
        reconstructor waiting for a failure that never came, holds itself
        through its cached ``_resume``, so it is a reference cycle.
        Closing detaches it from its target, drops that method and closes
        its generator where it waits.  The process is never triggered:
        nothing is scheduled and no waiter runs.  Closing a finished
        process does nothing.
        """
        if self._ok is not None:
            return
        if self.sim.peek() != float("inf"):
            raise SimulationError("cannot close a process with events still queued")
        self._detach()
        self._target = self._resume_bound = None
        self.generator.close()

    def _detach(self) -> None:
        """Stop the event the process waits on from resuming it."""
        target = self._target
        if target is not None and type(target.callbacks) is list:
            try:
                target.callbacks.remove(self._resume_bound)
            except ValueError:
                pass

    def _deliver_interrupt(self, event: Event) -> None:
        # Detach again: between the interrupt and its delivery the process
        # may have taken a step (its first one, or the delivery of an
        # earlier interrupt) and started waiting on a new target, which
        # would otherwise resume it later, while it waits on something else.
        self._detach()
        self._resume(event)

    def _resume(self, event: Event) -> None:
        if self._ok is not None:
            return
        self._target = None
        try:
            if event._ok:
                next_event = self.generator.send(event._value)
            else:
                event.defused = True
                next_event = self.generator.throw(event._exception)
        except StopIteration as stop:
            self._resume_bound = None
            # succeed(stop.value) inlined: only its generator ends a process.
            self._ok = True
            self._value = stop.value
            sim = self.sim
            seq = sim._sequence
            sim._sequence = seq + 1
            sim._urgent.append((seq, self))
            return
        except BaseException as exc:  # noqa: BLE001 - propagate to waiters
            self._resume_bound = None
            self.fail(_without_frame(exc))
            return
        if not isinstance(next_event, Event):
            error = SimulationError(
                f"process {self.name!r} yielded a non-event: {next_event!r}"
            )
            try:
                self.generator.throw(error)
            except StopIteration as stop:
                self._resume_bound = None
                self.succeed(stop.value)
            except BaseException as exc:  # noqa: BLE001
                self._resume_bound = None
                self.fail(_without_frame(exc))
            return
        self._target = next_event
        next_event.add_callback(self._resume_bound)


class Simulator:
    """The discrete-event scheduler.

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield sim.timeout(1.0)
            return "done"

        proc = sim.process(worker(sim))
        sim.run()
        assert proc.value == "done"
    """

    __slots__ = (
        "_now",
        "_queue",
        "_urgent",
        "_sequence",
        "events_processed",
        "unhandled_failures",
        "on_pop",
        "_arrivals",
        "_settled",
    )

    def __init__(self):
        self._now = 0.0
        #: the timed tier: a heap of ``(time, NORMAL, seq, event)``.
        self._queue: list[tuple[float, int, int, Event]] = []
        #: the urgent tier: ``(seq, event)`` pairs due now, in FIFO order.
        self._urgent: deque[tuple[int, Event]] = deque()
        self._sequence = 0
        #: Events dispatched so far (``collect_flow_usage()`` reports it as
        #: ``events_processed``; ``perf/`` reports it as ``sim.events``).
        self.events_processed = 0
        #: Failed events whose exception no waiter had consumed when the
        #: last :meth:`run` returned.
        self.unhandled_failures: list[Event] = []
        #: Optional per-pop flight-recorder hook, called as
        #: ``on_pop(when, seq, event)`` with the popped entry's queue
        #: sequence number after the clock advances and before callbacks
        #: run.  It is read once when :meth:`run` starts (and on every
        #: :meth:`step`): install or remove it between runs, not from inside
        #: a callback.  ``None`` costs one branch per event.  The hook must
        #: be purely observational — it runs inside the kernel's dispatch
        #: frame.  The slot has one owner: ``Cluster.enable_observability()``
        #: installs the flight recorder here, and raises rather than
        #: overwrite a hook that is already set.
        self.on_pop: Optional[Callable[[float, int, Event], None]] = None
        #: arrival stamps of admission requests (FIFO within a priority;
        #: see :mod:`repro.sim.resources`), counted per simulator.  Node
        #: failure listeners draw their registration stamps here too, so a
        #: dying node fails its queued admissions in the order their waits
        #: began among its listeners (see ``repro.net.node.Node.fail``).
        self._arrivals = itertools.count()
        #: set by :meth:`run` around the last callback of each dispatch
        #: (see :meth:`settled`).
        self._settled = False

    # -- time -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event construction -------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        self.schedule_at(event, self._now + delay, priority)

    def schedule_at(self, event: Event, at: float, priority: int = NORMAL) -> None:
        """Place ``event`` in the queue at the *absolute* time ``at``.

        Used by fast paths that must land a wake-up on exactly the float
        timestamp an equivalent chain of relative timeouts would have
        reached (relative scheduling would re-round through ``now + delay``).
        ``at`` must not lie in the past, and an ``URGENT`` event can only be
        scheduled now (the urgent tier's order relies on it).
        """
        if not at >= self._now:  # also rejects NaN
            raise SimulationError(f"schedule_at({at}) is in the past or NaN (now={self._now})")
        seq = self._sequence
        self._sequence = seq + 1
        if priority == URGENT:
            if at != self._now:
                raise SimulationError(
                    f"an urgent event can only be scheduled now (at={at}, now={self._now})"
                )
            self._urgent.append((seq, event))
        else:
            heappush(self._queue, (at, priority, seq, event))

    def wake_at(self, at: float) -> Event:
        """An already-succeeded event that pops at the absolute time ``at``.

        Behaves like a :class:`Timeout` aimed at an exact timestamp: yield
        it from a process to sleep until then, or attach callbacks to run
        work at that instant.
        """
        event = Event(self)
        event._ok = True
        self.schedule_at(event, at)
        return event

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        if self._urgent:
            return self._now
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    def settled(self) -> bool:
        """True if a same-instant wake scheduled now would be the next pop.

        That holds while :meth:`run` (not :meth:`step`, and not
        ``run(until=<event>)``, which may stop before the wake pops) is
        inside the last callback of the event it dispatches, and the urgent
        tier is empty: nothing can run between now and that wake, so the
        waiter may continue at once instead.  The caller must be that
        callback's tail, as a process resumed by it is: whatever it does
        next would have run when the wake popped.
        """
        return self._settled and not self._urgent

    def step(self) -> None:
        """Process a single event (:meth:`run` dispatches the same way,
        except that :meth:`settled` stays false here)."""
        if not self._urgent and not self._queue:
            raise SimulationError("step() called on an empty event queue")
        if self._urgent:
            seq, event = self._urgent.popleft()
            when = self._now
        else:
            when, _priority, seq, event = heappop(self._queue)
            self._now = when
        self.events_processed += 1
        if self.on_pop is not None:
            self.on_pop(when, seq, event)
        callbacks = event.callbacks
        event.callbacks = _PROCESSED
        if callbacks is not None:
            for callback in callbacks:
                callback(event)
        if not event._ok and not event.defused:
            self.unhandled_failures.append(event)

    def check_failures(self) -> None:
        """Raise :class:`ProcessFailure`, naming the first entry of
        :attr:`unhandled_failures`, if there is one.  Drivers call it after
        :meth:`run`, so a process that raised unheard cannot end a run
        silently with its results missing."""
        failures = self.unhandled_failures
        if failures:
            first = failures[0]
            what = f"process {first.name!r}" if isinstance(first, Process) else repr(first)
            raise ProcessFailure(
                f"{what} failed and no waiter consumed it: {first._exception!r}"
                f" ({len(failures)} unconsumed failure(s))"
            ) from first._exception

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a number
        (run until that simulated time), or an :class:`Event` (run until it
        fires, returning its value or raising its exception).
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if not stop_time >= self._now:  # also rejects NaN
                raise SimulationError(
                    f"run(until={stop_time}) is in the past or NaN (now={self._now})"
                )

        heap = self._queue
        urgent = self._urgent
        popleft = urgent.popleft
        unhandled = self.unhandled_failures
        on_pop = self.on_pop
        # A stop event may end the run before a wake scheduled now pops.
        settle = stop_event is None
        self._settled = False
        try:
            while True:
                if stop_event is not None and stop_event.callbacks is _PROCESSED:
                    break
                if urgent:
                    seq, event = popleft()
                    when = self._now
                elif heap:
                    if heap[0][0] > stop_time:
                        self._now = stop_time
                        break
                    when, _priority, seq, event = heappop(heap)
                    self._now = when
                else:
                    break
                self.events_processed += 1
                if on_pop is not None:
                    on_pop(when, seq, event)
                callbacks = event.callbacks
                event.callbacks = _PROCESSED
                if callbacks:
                    # The list is ours now (the event holds _PROCESSED).
                    last = callbacks.pop()
                    for callback in callbacks:
                        callback(event)
                    self._settled = settle
                    last(event)
                    self._settled = False
                if not event._ok and not event.defused:
                    unhandled.append(event)
        finally:
            self._settled = False
            # A failure recorded when it popped unheard may have reached a
            # waiter since (a process that yields an already-failed event
            # defuses it): only what nobody consumed stays reported.
            if unhandled:
                unhandled[:] = [event for event in unhandled if not event.defused]

        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(
                    "simulation ran out of events before the awaited event fired"
                )
            if not stop_event.ok:
                stop_event.defused = True
                raise stop_event._exception  # type: ignore[misc]
            return stop_event.value
        if stop_time != float("inf") and self._now < stop_time:
            self._now = stop_time
        return None
