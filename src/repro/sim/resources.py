"""Shared resources for simulation processes.

Two primitives cover everything the higher layers need:

* :class:`Resource` — a counted resource (a worker pool slot, a NIC
  direction, a shared fabric link, a memory-copy channel).  Every claim on
  it is one unit.
* :class:`MultiRequest` — the one request type: a cancellable claim on one
  unit of each of one or more resources, granted atomically only when every
  resource has a free unit at once.  :meth:`Resource.request` is a
  one-claim multi-request.  A claim set that fits at submission is granted
  there and is never queued; only one that does not fit enters the claimed
  resources' queues, ordered by priority (low first), FIFO within a
  priority.  A pending request never blocks the requests behind it: the
  grant scan skips it until its whole claim set is free.  This is the
  admission primitive behind the flow-scheduled transport
  (:mod:`repro.net.flowsched`): it removes the hold-one-wait-for-the-other
  head-of-line blocking of sequential acquisition, and it cannot deadlock
  because it never holds a partial claim.  For a one-claim request the skip
  never fires (a queued request's only resource is saturated, so nothing
  behind it fits either), so plain requests grant in strict FIFO order.

Admission is *incremental*: a release wakes only the queues of the released
resources (never a global rescan), a queue is kept sorted on a
``(priority, arrival)`` key (an append when the new key sorts last, as most
do, and ``bisect.insort`` otherwise) instead of a linear scan,
and the grant scan stops as soon as the resource is saturated — with
capacity-1 NIC slots that makes each release O(grants).  Arrivals are
stamped by the request's own :class:`~repro.sim.Simulator`, so no state is
shared between runs.

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

from bisect import insort
from operator import attrgetter
from typing import Any, Optional, Sequence

from repro.sim.core import URGENT, Event, SimulationError, Simulator

#: the admission queue order: priority, then arrival (FIFO).
_queue_key = attrgetter("sort_key")


def validate_claims(claims: Sequence["Resource"]) -> tuple:
    """Check a claim set; return it as a tuple.

    A claim set is non-empty and claims each resource at most once.
    """
    claims = tuple(claims)
    if not claims:
        raise SimulationError("a multi-request needs at least one claim")
    if len(set(map(id, claims))) != len(claims):
        raise SimulationError("a multi-request cannot claim a resource twice")
    return claims


class MultiRequest(Event):
    """A cancellable claim on one unit of several resources, granted atomically.

    ``claims`` is a sequence of resources.  The request is granted only at
    an instant when *all* of them have a free unit: at once if they do at
    submission, otherwise it enqueues on every claimed resource (ordered by
    ``priority``, FIFO within equal priorities) until a grant scan finds
    them all free.  It never holds one resource while waiting for another,
    so a set of multi-requests cannot deadlock, and a busy partner resource
    never parks the claimed capacity idle.

    Usable as a context manager; :meth:`release` frees a granted claim or
    withdraws a pending one.
    """

    __slots__ = (
        "claims",
        "priority",
        "sort_key",
        "granted_at",
        "_released",
        "_blocked_on",
        "_silent",
    )

    def __init__(self, sim: Simulator, claims: Sequence["Resource"], priority: int = 0):
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
        self.sort_key = (priority, next(self.sim._arrivals))
        self._released = False
        #: granted at construction with no possible waiter: the trigger is
        #: recorded but not queued (the queue pop would be dead weight); the
        #: first add_callback schedules it (see below).
        self._silent = False
        # Contest every virtual hold first, so the fit test sees real holds
        # only (materializing grants nothing, so the order is immaterial).
        for resource in claims:
            if resource._virtual:
                resource._materialize_virtual()
        for resource in claims:
            if resource._in_use >= resource.capacity:
                #: simulated time of the grant (``None`` while pending).
                self.granted_at: Optional[float] = None
                # The blocker: while it stays saturated the set cannot fit,
                # so grant scans skip this request with one comparison
                # (only queued requests are ever scanned).
                self._blocked_on = resource
                key = self.sort_key
                for queued_on in claims:
                    waiting = queued_on._waiting
                    # Most arrivals sort last (same or lower priority than
                    # the tail): append without the bisection.
                    if not waiting or waiting[-1].sort_key < key:
                        waiting.append(self)
                    else:
                        insort(waiting, self, key=_queue_key)
                return
        for resource in claims:
            resource._in_use += 1
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
        """Free a granted claim, or withdraw it if still pending; idempotent."""
        if self._released:
            return
        self._released = True
        if self.granted_at is not None:
            for resource in self.claims:
                resource._in_use -= 1
            for resource in self.claims:
                resource._grant()
        else:
            for resource in self.claims:
                try:
                    resource._waiting.remove(self)
                except ValueError:
                    pass
        # A granted request carries itself as its value, which makes every
        # request a cycle only the cyclic collector can free — one per block
        # transferred.  Once no waiter is left to receive the value it is
        # dead, so clearing it lets reference counting free the request.
        if not self.callbacks and self._value is self:
            self._value = None


class Resource:
    """A counted resource whose queue grants priority-then-FIFO.

    Plain :meth:`request` calls all share priority 0, so the default
    behaviour is pure FIFO.  A waiting request whose partner resources are
    busy is skipped so later requests keep the resource busy (work
    conservation).
    """

    __slots__ = (
        "sim",
        "capacity",
        "_in_use",
        "_waiting",
        "_virtual",
        "_streams",
    )

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity <= 0:
            raise SimulationError("resource capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiting: list[MultiRequest] = []
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

    # -- admission ----------------------------------------------------------
    def request(self) -> MultiRequest:
        """Claim one unit: a one-claim :class:`MultiRequest` at priority 0."""
        # A one-resource claim set is valid by construction: skip the checks.
        req = MultiRequest.__new__(MultiRequest)
        Event.__init__(req, self.sim)
        req._submit((self,), 0)
        return req

    def _grant(self) -> None:
        waiting = self._waiting
        capacity = self.capacity
        # Only a grant below changes this resource's occupancy.
        in_use = self._in_use
        index = 0
        while index < len(waiting):
            if in_use >= capacity:
                # Saturated: nothing below can be granted (every queued
                # request claims a unit here).  Triggered leftovers, if any,
                # are purged by later scans.
                break
            req = waiting[index]
            if req._ok is not None:
                del waiting[index]
                continue
            # A fitting request is committed here, leaving every queue it
            # waits in (do not advance); a failed match is skipped rather
            # than blocking the queue — the matching-based admission
            # discipline.  While the recorded blocker stays saturated the
            # request is skipped with one comparison (the blocker's state
            # is the only thing that could have unblocked it).
            blocker = req._blocked_on
            if blocker._in_use >= blocker.capacity:
                index += 1
                continue
            claims = req.claims
            for resource in claims:
                if resource._in_use >= resource.capacity:
                    req._blocked_on = resource
                    index += 1
                    break
            else:
                del waiting[index]
                for resource in claims:
                    resource._in_use += 1
                    if resource is not self:
                        resource._waiting.remove(req)
                in_use += 1
                req.granted_at = self.sim._now
                req.succeed(req)
