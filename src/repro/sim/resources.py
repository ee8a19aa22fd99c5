"""Shared resources for simulation processes.

Three primitives cover everything the higher layers need:

* :class:`Resource` — a counted resource (e.g. a worker pool slot, a NIC
  transmit slot).  Requests queue FIFO and are granted as capacity frees up.
* :class:`MultiRequest` — a cancellable claim on *several* resources at once,
  granted atomically only when every resource has capacity simultaneously.
  A claim set that fits at submission is granted there and is never queued;
  only one that does not fit enters the claimed resources' queues.  Unlike
  single requests, a pending multi-request never blocks the requests behind
  it: the grant scan skips it until its whole claim set is free.  This
  is the admission primitive behind the flow-scheduled transport
  (:mod:`repro.net.flowsched`) — it removes the hold-one-wait-for-the-other
  head-of-line blocking of sequential acquisition, and it cannot deadlock
  because it never holds a partial claim.
* :class:`PriorityResource` — a :class:`Resource` whose queue is ordered by
  a numeric priority (low first), FIFO within a priority.

Admission is *incremental*: a release wakes only the queue of the released
resource (never a global rescan), the priority queue is maintained by
``bisect.insort`` on a ``(priority, sequence)`` key instead of a linear
scan, and the grant scan stops as soon as the resource is saturated — with
capacity-1 NIC slots that turns the former O(waiters) rescan per release
into O(grants).

Resources also support *virtual holds* (:meth:`Resource.add_virtual_hold`):
an occupancy schedule evaluated arithmetically instead of via scheduled
events.  The coalesced-transfer fast path uses them to keep a link's
``in_use`` exactly what an equivalent per-block chain of grants and releases
would show at any instant, without paying one event pair per block.  The
moment anyone requests the resource, every virtual hold is told to
materialize (``on_contest``) before the new request is tested or queued, so
admission decisions only ever see real holds.
"""

from __future__ import annotations

import itertools
from bisect import insort
from operator import attrgetter
from typing import Any, Optional, Sequence

from repro.sim.core import URGENT, Event, SimulationError, Simulator

#: process-global arrival stamper for queue ordering.  Only *differences*
#: matter (FIFO within a priority class), so sharing it across simulators
#: cannot leak state between runs (``tests/test_hermetic.py`` pins this).
_arrival_stamp = itertools.count()


#: the admission queue order: priority, then arrival (FIFO).
_queue_key = attrgetter("sort_key")


def validate_claims(claims: Sequence[tuple["Resource", int]]) -> tuple:
    """Check a multi-request claim set; return it as a tuple.

    A claim set is non-empty, claims each resource at most once, and
    claims between one unit and the resource's capacity on each.
    """
    if not claims:
        raise SimulationError("a multi-request needs at least one claim")
    seen: set[int] = set()
    for resource, amount in claims:
        if amount <= 0 or amount > resource.capacity:
            raise SimulationError(
                f"cannot claim {amount} units of a capacity-{resource.capacity} resource"
            )
        if id(resource) in seen:
            raise SimulationError("a multi-request cannot claim a resource twice")
        seen.add(id(resource))
    return tuple(claims)


def _drop_self_value(request: "Event") -> None:
    """Break a released request's ``value is self`` reference cycle.

    A granted request carries itself as its value, which makes every
    request a cycle only the cyclic collector can free — one per block
    transferred.  Once the request is released and no waiter is left to
    receive the value, the value is dead, so clearing it lets reference
    counting free the request at once.
    """
    if not request.callbacks and request._value is request:
        request._value = None


class _Request(Event):
    """A pending claim on a resource; usable as a context manager."""

    __slots__ = ("resource", "amount", "priority", "sort_key")

    is_multi = False

    def __init__(self, resource: "Resource", amount: int = 1, priority: int = 0):
        Event.__init__(self, resource.sim)
        self.resource = resource
        self.amount = amount
        self.priority = priority
        self.sort_key = (priority, next(_arrival_stamp))

    def __enter__(self) -> "_Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request."""
        self.resource._cancel(self)


class MultiRequest(Event):
    """A cancellable claim on several resources, granted atomically.

    ``claims`` is a sequence of ``(resource, amount)`` pairs.  The request is
    granted only at an instant when *all* claims fit: at once if they fit at
    submission, otherwise it enqueues on every claimed resource (ordered by
    ``priority``, FIFO within equal priorities) until a grant scan finds
    them all free.  It never holds one resource while waiting for another,
    so a set of multi-requests cannot deadlock, and a busy partner resource
    never parks the claimed capacity idle.

    Usable as a context manager like a single request; ``release`` frees a
    granted claim or withdraws a pending one.
    """

    __slots__ = (
        "claims",
        "priority",
        "sort_key",
        "granted_at",
        "_released",
        "_blocked_on",
        "_blocked_limit",
        "_silent",
    )

    is_multi = True

    def __init__(
        self,
        sim: Simulator,
        claims: Sequence[tuple["Resource", int]],
        priority: int = 0,
    ):
        Event.__init__(self, sim)
        self._submit(validate_claims(claims), priority)

    def _submit(self, claims: tuple, priority: int) -> None:
        """Grant an already validated claim set now, or enqueue it.

        Subclasses that claim a cached, pre-validated set (a flow
        reservation's route) call this instead of :meth:`__init__`.  A set
        that fits at submission is granted without touching any queue; only
        a set that does not fit is enqueued, with its blocker recorded.
        """
        self.claims = claims
        self.priority = priority
        self.sort_key = (priority, next(_arrival_stamp))
        self._released = False
        #: granted at construction with no possible waiter: the trigger is
        #: recorded but not queued (the queue pop would be dead weight); the
        #: first add_callback schedules it (see below).
        self._silent = False
        # Contest every virtual hold first, so the fit test sees real holds
        # only (materializing grants nothing, so the order is immaterial).
        for resource, _amount in claims:
            if resource._virtual:
                resource._materialize_virtual()
        for resource, amount in claims:
            if resource._in_use + amount > resource.capacity:
                #: simulated time of the grant (``None`` while pending).
                self.granted_at: Optional[float] = None
                # The blocker: while it stays above ``_blocked_limit`` the
                # set cannot fit, so grant scans skip this request with one
                # comparison (only queued requests are ever scanned).
                self._blocked_on = resource
                self._blocked_limit = resource.capacity - amount
                for queued_on, _amount in claims:
                    insort(queued_on._waiting, self, key=_queue_key)
                return
        for resource, amount in claims:
            resource._in_use += amount
        self.granted_at = self.sim._now
        # Nobody can hold a reference yet, so no callback can exist: trigger
        # without queueing (add_callback schedules on demand).
        self._ok = True
        self._value = self
        self._silent = True

    def add_callback(self, callback) -> None:
        if self._silent:
            self._silent = False
            self.sim._schedule(self, URGENT)  # as succeed() would have
        Event.add_callback(self, callback)

    @property
    def granted(self) -> bool:
        return self.granted_at is not None

    def __enter__(self) -> "MultiRequest":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.release()

    def release(self) -> None:
        """Free a granted claim, or withdraw it if still pending."""
        if self._released:
            return
        self._released = True
        if self.granted_at is not None:
            for resource, amount in self.claims:
                resource._in_use -= amount
            for resource, _amount in self.claims:
                resource._grant()
        else:
            for resource, _amount in self.claims:
                resource._cancel(self)
        _drop_self_value(self)

    def cancel(self) -> None:
        """Withdraw the claim (alias of :meth:`release` for pending requests)."""
        self.release()


class Resource:
    """A counted resource with priority-then-FIFO granting.

    Plain :meth:`request` calls all share priority 0, so the default behaviour
    is pure FIFO.  A waiting single request that does not fit blocks every
    request behind it (strict serialization); a waiting :class:`MultiRequest`
    whose partner resources are busy is skipped so later requests keep the
    resource busy (work conservation).
    """

    __slots__ = (
        "sim",
        "capacity",
        "_in_use",
        "_waiting",
        "_granted",
        "_virtual",
        "_streams",
    )

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity <= 0:
            raise SimulationError("resource capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiting: list[Event] = []
        self._granted: set[int] = set()
        #: active virtual holds (coalesced transfers); ``None`` when unused.
        self._virtual: Optional[list] = None
        #: multi-block transfer streams currently using this resource.  A
        #: coalesced run requires exclusive streams (== 1, itself): two
        #: per-block streams sharing a link interleave in an order set by
        #: event-queue history, which arithmetic cannot reproduce.
        self._streams = 0

    @property
    def in_use(self) -> int:
        """Units held right now — real grants plus virtual-hold occupancy."""
        virtual = self._virtual
        if not virtual:
            return self._in_use
        now = self.sim._now
        return self._in_use + sum(hold.occupied(now) for hold in virtual)

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    @property
    def queue_length(self) -> int:
        """Requests waiting right now."""
        return len(self._waiting)

    # -- virtual holds ------------------------------------------------------
    def add_virtual_hold(self, hold: Any) -> None:
        """Attach an arithmetic occupancy schedule (see module docstring).

        ``hold`` must expose ``occupied(at) -> int`` and ``on_contest()``;
        the latter is invoked *synchronously, before queue insertion*, the
        first time any request enqueues here, and must convert the schedule
        into real holds (or drop it) and detach itself.
        """
        if self._virtual is None:
            self._virtual = [hold]
        else:
            self._virtual.append(hold)

    def remove_virtual_hold(self, hold: Any) -> None:
        virtual = self._virtual
        if virtual is not None:
            try:
                virtual.remove(hold)
            except ValueError:
                pass

    def _materialize_virtual(self) -> None:
        while self._virtual:
            hold = self._virtual[0]
            hold.on_contest()
            # on_contest must detach the hold; guard against a no-op
            # implementation wedging the loop.
            if self._virtual and self._virtual[0] is hold:  # pragma: no cover
                self._virtual.pop(0)

    # -- queueing -----------------------------------------------------------
    def _enqueue(self, request: Event) -> None:
        """Insert by priority (low first), FIFO within equal priorities."""
        if self._virtual:
            self._materialize_virtual()
        insort(self._waiting, request, key=_queue_key)

    def request(self, amount: int = 1) -> _Request:
        if amount <= 0 or amount > self.capacity:
            raise SimulationError(
                f"cannot request {amount} units of a capacity-{self.capacity} resource"
            )
        req = _Request(self, amount)
        self._enqueue(req)
        self._grant()
        return req

    def release(self, request: _Request) -> None:
        if id(request) in self._granted:
            self._granted.discard(id(request))
            self._in_use -= request.amount
            self._grant()
        else:
            self._cancel(request)
        _drop_self_value(request)

    def _cancel(self, request: Event) -> None:
        try:
            self._waiting.remove(request)
        except ValueError:
            pass

    def _grant(self) -> None:
        waiting = self._waiting
        capacity = self.capacity
        # Only a grant below changes this resource's occupancy.
        in_use = self._in_use
        index = 0
        while index < len(waiting):
            if in_use >= capacity:
                # Saturated: nothing below can be granted (a multi-request's
                # claim check would fail on this resource too).  Triggered
                # leftovers, if any, are purged by later scans.
                break
            req = waiting[index]
            if req._ok is not None:
                del waiting[index]
                continue
            if req.is_multi:
                # A fitting multi-request is committed here, leaving every
                # queue it waits in (do not advance); a failed match is
                # skipped rather than blocking the queue — the
                # matching-based admission discipline.  Every queued
                # multi-request has a recorded blocker; while the blocker
                # still cannot fit its claim the request is skipped with one
                # comparison (the blocker's state is the only thing that
                # could have unblocked it).
                if req._blocked_on._in_use > req._blocked_limit:
                    index += 1
                    continue
                claims = req.claims
                for resource, amount in claims:
                    limit = resource.capacity - amount
                    if resource._in_use > limit:
                        req._blocked_on = resource
                        req._blocked_limit = limit
                        index += 1
                        break
                else:
                    del waiting[index]
                    for resource, amount in claims:
                        resource._in_use += amount
                        if resource is not self:
                            resource._waiting.remove(req)
                    in_use = self._in_use
                    req.granted_at = self.sim._now
                    req.succeed(req)
                continue
            if in_use + req.amount > capacity:
                # Strict FIFO for single requests: nothing behind a blocked
                # single request is granted (MultiRequests included — they
                # will be retried by their other resources' grant scans, and
                # by this one once the blocked head is granted).
                break
            del waiting[index]
            in_use += req.amount
            self._in_use = in_use
            self._granted.add(id(req))
            req.succeed(req)


class PriorityResource(Resource):
    """A resource whose queue is ordered by a numeric priority (low first)."""

    __slots__ = ()

    def request(self, amount: int = 1, priority: int = 0) -> _Request:
        if amount <= 0 or amount > self.capacity:
            raise SimulationError(
                f"cannot request {amount} units of a capacity-{self.capacity} resource"
            )
        req = _Request(self, amount, priority)
        self._enqueue(req)
        self._grant()
        return req
