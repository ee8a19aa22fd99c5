"""Differential test: admission grants exactly like the queue-every-request form.

:class:`~repro.sim.MultiRequest` grants a claim set that fits at submission
without entering any queue, and the grant scan commits a fitting queued
request inline.  The reference below is the form both replaced: every
multi-request enqueues on each claimed resource, the first grant attempt
runs after enqueueing, and the scan commits through ``_try_grant``, which
repeats the fit check and removes the request from every queue.  Its plain
requests are a second request type with a strict-FIFO grant rule (a blocked
single stops the scan); the library's are one-claim multi-requests, so this
also proves they grant in the same order.

Every claim is one unit.  Random programs of submits and releases (a
release of a pending request withdraws it) on 2–4 resources run on both;
after every step the requests granted (in grant order) and each resource's
queue length and occupancy must agree.
"""

import itertools
from bisect import insort
from operator import attrgetter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import MultiRequest, Resource, Simulator
from repro.sim.core import URGENT, Event

_queue_key = attrgetter("sort_key")


# ---------------------------------------------------------------------------
# Reference admission: every request enqueues, the scan commits via _try_grant
# ---------------------------------------------------------------------------


class _RefRequest(Event):
    is_multi = False

    def __init__(self, resource, stamp):
        Event.__init__(self, resource.sim)
        self.resource = resource
        self.sort_key = (0, stamp)

    def release(self):
        self.resource.release(self)


class _RefMultiRequest(Event):
    is_multi = True

    def __init__(self, sim, claims, priority, stamp):
        Event.__init__(self, sim)
        self.claims = tuple(claims)
        self.priority = priority
        self.sort_key = (priority, stamp)
        self.granted_at = None
        self._released = False
        self._blocked_on = None
        self._silent = False
        for resource in self.claims:
            resource._enqueue(self)
        self._try_grant(initial=True)

    def add_callback(self, callback):
        if self._silent:
            self._silent = False
            self.sim._schedule(self, URGENT)
        Event.add_callback(self, callback)

    def _try_grant(self, initial=False):
        if self._ok is not None or self._released:
            return False
        for resource in self.claims:
            if resource._in_use >= resource.capacity:
                self._blocked_on = resource
                return False
        self._blocked_on = None
        for resource in self.claims:
            resource._in_use += 1
            resource._granted.add(id(self))
            resource._cancel(self)
        self.granted_at = self.sim.now
        if initial:
            self._ok = True
            self._value = self
            self._silent = True
        else:
            self.succeed(self)
        return True

    def release(self):
        if self._released:
            return
        self._released = True
        if self.granted_at is not None:
            for resource in self.claims:
                resource._granted.discard(id(self))
                resource._in_use -= 1
            for resource in self.claims:
                resource._grant()
        else:
            for resource in self.claims:
                resource._cancel(self)


class _RefResource:
    def __init__(self, sim, capacity):
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiting = []
        self._granted = set()

    @property
    def queue_length(self):
        return len(self._waiting)

    def _enqueue(self, request):
        insort(self._waiting, request, key=_queue_key)

    def request(self, stamp):
        req = _RefRequest(self, stamp)
        self._enqueue(req)
        self._grant()
        return req

    def release(self, request):
        if id(request) in self._granted:
            self._granted.discard(id(request))
            self._in_use -= 1
            self._grant()
        else:
            self._cancel(request)

    def _cancel(self, request):
        try:
            self._waiting.remove(request)
        except ValueError:
            pass

    def _grant(self):
        waiting = self._waiting
        capacity = self.capacity
        in_use = self._in_use
        index = 0
        while index < len(waiting):
            if in_use >= capacity:
                break
            req = waiting[index]
            if req._ok is not None:
                del waiting[index]
                continue
            if req.is_multi:
                blocked_on = req._blocked_on
                if blocked_on is not None and blocked_on._in_use >= blocked_on.capacity:
                    index += 1
                    continue
                for resource in req.claims:
                    if resource._in_use >= resource.capacity:
                        req._blocked_on = resource
                        index += 1
                        break
                else:
                    req._try_grant()
                    in_use = self._in_use
                continue
            if in_use + 1 > capacity:
                # Strict FIFO for single requests: nothing behind a blocked
                # single is granted.
                break
            del waiting[index]
            in_use += 1
            self._in_use = in_use
            self._granted.add(id(req))
            req.succeed(req)


# ---------------------------------------------------------------------------
# One program, two admission implementations
# ---------------------------------------------------------------------------


class _Real:
    """The library's admission behind the driver's three operations."""

    def __init__(self, capacities):
        self.sim = Simulator()
        self.resources = [Resource(self.sim, cap) for cap in capacities]

    def single(self, index):
        return self.resources[index].request()

    def multi(self, claims, priority):
        return MultiRequest(self.sim, [self.resources[i] for i in claims], priority)


class _Reference(_Real):
    """The reference admission above, stamped from its own arrival counter."""

    def __init__(self, capacities):
        self.sim = Simulator()
        self.resources = [_RefResource(self.sim, cap) for cap in capacities]
        self._stamps = itertools.count()

    def single(self, index):
        return self.resources[index].request(next(self._stamps))

    def multi(self, claims, priority):
        return _RefMultiRequest(
            self.sim, [self.resources[i] for i in claims], priority, next(self._stamps)
        )


def _execute(impl, program):
    """Run ``program``; per step, the grant order and each resource's state."""
    requests = []
    granted = set()
    trace = []
    for op in program:
        kind = op[0]
        if kind == "single":
            requests.append(impl.single(*op[1:]))
        elif kind == "multi":
            requests.append(impl.multi(*op[1:]))
        elif requests:
            requests[op[1] % len(requests)].release()
        # Grant order: scan grants trigger through the urgent queue in
        # grant order; a grant at submission triggers without queueing.
        order = [requests.index(event) for _seq, event in impl.sim._urgent]
        impl.sim._urgent.clear()
        for number, req in enumerate(requests):
            if req._ok is not None and number not in granted and number not in order:
                order.insert(0, number)
        granted.update(order)
        trace.append(
            (
                op,
                order,
                [resource.queue_length for resource in impl.resources],
                [resource._in_use for resource in impl.resources],
            )
        )
    return trace


@st.composite
def _programs(draw):
    capacities = draw(st.lists(st.integers(1, 2), min_size=2, max_size=4))
    count = len(capacities)
    single = st.tuples(st.just("single"), st.integers(0, count - 1))
    multi = st.tuples(
        st.just("multi"),
        st.lists(st.integers(0, count - 1), min_size=1, max_size=min(3, count), unique=True).map(
            tuple
        ),
        st.integers(0, 2),
    )
    release = st.tuples(st.just("release"), st.integers(0, 30))
    ops = draw(st.lists(st.one_of(single, multi, multi, release), min_size=1, max_size=30))
    return capacities, ops


@settings(max_examples=300, deadline=None)
@given(case=_programs())
# A claim set that fits at submission while another multi-request is queued:
# the blocked ({0, 1}) claim stays queued, the {1} claim is granted at once.
@example(
    case=(
        [1, 1],
        [("multi", (0,), 0), ("multi", (0, 1), 0), ("multi", (1,), 0), ("release", 0)],
    )
)
# A queued single on a saturated resource, a multi-request of a later,
# lower-priority class queued behind it, then releases: the single is
# granted first, as the strict-FIFO reference grants it.
@example(
    case=(
        [1, 1],
        [
            ("single", 0),
            ("single", 0),
            ("multi", (0, 1), 2),
            ("release", 0),
            ("release", 1),
        ],
    )
)
def test_admission_grants_like_the_enqueue_everything_reference(case):
    capacities, program = case
    assert _execute(_Real(capacities), program) == _execute(_Reference(capacities), program)
