"""Coalesced block transfers: many blocks of one flow, O(1) timeline events.

The per-block transfer chain (reserve -> transmit -> release -> propagate,
then again for the next block) is what the simulated protocols *mean*, but
driving it one event per step makes large objects cost hundreds of kernel
round-trips per hop.  On an **uncontended** reservation the whole chain is
deterministic arithmetic: block ``j`` of the run transmits over
``[s_j, e_j)`` and lands at ``arr_j = e_j + L``, with ``s_{j+1} = arr_j``.
A :class:`CoalescedRun` precomputes exactly those boundaries (with the same
left-to-right float additions the per-block chain performs), sleeps once
until the end, and retrofits every side effect — link-scheduler accounting,
destination block marks — that the per-block chain would have produced.

Exactness is the design constraint; three mechanisms preserve it:

* **virtual holds** (:meth:`~repro.sim.resources.Resource.add_virtual_hold`)
  make each claimed link's ``in_use`` read ``1`` during transmission windows
  and ``0`` during propagation gaps — what per-block grants/releases would
  show — so load probes (e.g. directory source selection) see identical
  state at every instant;
* **re-splitting**: the moment anything disturbs the run — a competing
  request enqueues on a claimed link, or an endpoint fails — the run
  *materializes*: it truncates at the current block boundary, converts the
  current transmission window (if any) into a real hold released exactly at
  the boundary, and hands control back to the per-block loop, which from
  then on behaves block by block (per-block interleaving, fair-share timing
  and failure surfacing preserved);
* **arithmetic progress** (:class:`InflightSchedule` on the destination
  entry): readers of ``blocks_ready`` and ``wait_for_blocks`` during the
  run are answered from the boundary arrays — the same values, at the same
  times, a per-block mark sequence would have produced.

Cost model: a run costs O(1) kernel events and O(1) Python calls however
many blocks it moves, besides one tight float recurrence over its
boundaries (:func:`_boundaries`); its at most two block sizes are timed
once each (:func:`run_blocks`).  It settles in bulk and stays exact: each
link accumulator sees the per-block chain's float sequence (``busy_time``
adds each ``e_j - s_j`` in block order), and the destination gets one mark
for the whole range only when no progress waiter exists
(``StoredObject.mark_blocks_ready``).  Flight records stay per block.

Eligibility (:func:`coalesce_eligible`) is deliberately conservative: every
claimed link must be idle with an empty queue and no other virtual hold,
both endpoints alive, at least two blocks available to move, and the
cluster built with fast paths on (``Cluster(fast_paths=True)``, the
default).  Anything else falls back to the per-block path, whose behaviour
is the definition of correct.

One loop starts runs, :func:`repro.net.transport.stream_blocks`, and one
builder makes them, :func:`build_run`.  A reduce slot's combine loop is the
other coalesced timeline here (:class:`ComputeRun`): it holds no link.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial
from operator import sub
from typing import TYPE_CHECKING, Callable, Generator, Optional, Sequence

from repro.net.errors import NodeFailedError
from repro.net.fastpath import stats_for
from repro.net.flowsched import DEFAULT_FLOW, path_latency, path_transmission_time
from repro.sim.core import Event, Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.flowsched import Flow, LinkScheduler
    from repro.net.node import Node
    from repro.sim.resources import Resource
    from repro.store.object_store import StoredObject

#: run states
_VIRTUAL, _MATERIALIZED, _DONE = range(3)


def _boundaries(
    now: float, tx: Sequence[float], latency: float, ready_times: Optional[Sequence[float]]
) -> tuple[list[float], list[float], list[float]]:
    """Block boundaries ``(s, e, arr)`` with the per-block chain's floats:
    ``e_j = s_j + tx_j``, ``arr_j = e_j + L``, ``s_{j+1} = max(arr_j, ready_j)``.

    Without ``ready_times`` no block waits: ``s_{j+1} = arr_j``.
    """
    s, e, arr = [], [], []
    t = now
    for j, tx_j in enumerate(tx):
        if ready_times is not None and ready_times[j] > t:
            t = ready_times[j]
        s.append(t)
        t = t + tx_j
        e.append(t)
        t = t + latency
        arr.append(t)
    return s, e, arr


class _Timeline:
    """The driver's sleep shared by both run kinds: one exact-time wake-up
    that a disturbance may cut short (:meth:`_wake_driver`)."""

    __slots__ = ("sim", "_wake")

    def _sleep(self, target: float) -> Event:
        wake = Event(self.sim)
        self._wake = wake
        trigger = self.sim.wake_at(target)
        trigger.callbacks = [lambda _ev, wake=wake: self._fire(wake)]
        return wake

    def _fire(self, wake: Event) -> None:
        if wake is self._wake:
            self._wake_driver()

    def _wake_driver(self) -> None:
        wake = self._wake
        if wake is not None and wake._ok is None:
            self._wake = None
            wake.succeed()


class InflightSchedule:
    """Arithmetic block-arrival schedule attached to a destination entry.

    While attached, ``entry.blocks_ready`` is computed from the arrival
    boundaries instead of stored marks, and ``wait_for_blocks`` thresholds
    inside the window are answered by events scheduled at the exact arrival
    timestamps.  ``limit`` truncates the schedule when the run re-splits;
    arrivals at or beyond it are delivered (or not) by whoever continues
    the transfer, through ordinary marks.
    """

    __slots__ = ("entry", "base", "arrivals", "limit", "firings", "run", "dependents")

    def __init__(
        self, entry: "StoredObject", base: int, arrivals: Sequence[float], run: "CoalescedRun"
    ):
        self.entry = entry
        self.base = base
        self.arrivals = arrivals
        self.limit = len(arrivals)
        #: the producing run (so a consumer can force a re-split).
        self.run = run
        #: downstream coalesced runs whose schedules were built from these
        #: arrival times (relay cascade); truncation re-splits them too,
        #: last attached first (an insertion-ordered set).
        self.dependents: dict["CoalescedRun", None] = {}
        #: scheduled waiter firings: mutable ``[threshold, event, active]``.
        self.firings: list[list] = []

    def ready_now(self, now: float) -> int:
        arrived = bisect_right(self.arrivals, now)
        if arrived > self.limit:
            arrived = self.limit
        return self.base + arrived

    def schedule_waiter(self, threshold: int, event: Event) -> None:
        """Arrange for ``event`` to fire at the threshold block's arrival."""
        firing = [threshold, event, True]
        self.firings.append(firing)
        sim = self.entry.sim
        trigger = sim.wake_at(self.arrivals[threshold - self.base - 1])
        trigger.callbacks = [lambda _ev, firing=firing: self._fire(firing)]

    def _fire(self, firing: list) -> None:
        if not firing[2]:
            return
        firing[2] = False
        threshold, event = firing[0], firing[1]
        entry = self.entry
        ready = entry.blocks_ready
        if event._ok is not None:  # pragma: no cover - defensive
            return
        if ready >= threshold:
            event.succeed(ready)
        else:
            # The run was truncated before this block; whoever resumed the
            # transfer will mark it eventually and fire the waiter then.
            entry._progress_waiters.append((threshold, event))

    def truncate(self, limit: int) -> None:
        """Arrivals at or beyond ``limit`` are no longer guaranteed.

        Dependent runs built their own boundaries from those arrivals, so
        they re-split at their current block (whose source block provably
        arrived already — a dependent block cannot start before its source
        block landed).
        """
        if limit < self.limit:
            self.limit = limit
        while self.dependents:
            self.dependents.popitem()[0]._materialize()

    def close(self) -> None:
        """Detach; pending scheduled waiters go back to ordinary marks."""
        for firing in self.firings:
            if firing[2]:
                firing[2] = False
                if firing[1]._ok is None:
                    self.entry._progress_waiters.append((firing[0], firing[1]))
        self.firings.clear()
        if self.entry._inflight is self:
            self.entry._inflight = None


class CoalescedRun(_Timeline):
    """Drive ``n`` consecutive blocks of one flow as a single timeline event.

    Built by :func:`build_run`, for ``stream_blocks`` after
    :func:`coalesce_eligible` held.  The run is its own virtual hold object
    (``occupied`` / ``on_contest``) for every claimed link.
    """

    __slots__ = (
        "src",
        "dst",
        "flow",
        "sizes",
        "links",
        "entry",
        "base",
        "n",
        "s",
        "e",
        "arr",
        "state",
        "cur",
        "in_tx",
        "post_arrival",
        "schedule",
        "src_schedule",
        "_accounted",
        "_synthetic",
        "_listening",
        "_flight",
        "_flight_key",
        "_flight_flow",
    )

    def __init__(
        self,
        sim: Simulator,
        src: "Node",
        dst: "Node",
        flow: Optional["Flow"],
        sizes: Sequence[int],
        tx: Sequence[float],
        latency: float,
        links: Sequence[tuple["Resource", Optional["LinkScheduler"]]],
        entry: Optional["StoredObject"] = None,
        base: int = 0,
        ready_times: Optional[Sequence[float]] = None,
        src_schedule: Optional[InflightSchedule] = None,
    ):
        self.sim = sim
        self.src = src
        self.dst = dst
        self.flow = flow
        self.sizes = list(sizes)
        self.links = list(links)
        self.entry = entry
        self.base = base
        self.n = len(self.sizes)
        # ``ready_times`` (absolute) gate blocks the source has not
        # produced yet: the relay cascade.
        self.s, self.e, self.arr = _boundaries(sim._now, tx, latency, ready_times)
        self.state = _VIRTUAL
        self.cur = 0
        self.in_tx = False
        self.post_arrival = False
        self.schedule: Optional[InflightSchedule] = None
        self.src_schedule = src_schedule
        self._wake: Optional[Event] = None
        self._accounted = 0  # blocks fully link-accounted so far
        self._synthetic = False
        self._listening = False
        self._flight = None
        self._flight_key = ""
        self._flight_flow = None

    # -- virtual-hold protocol (shared by every claimed resource) ----------
    def occupied(self, at: float) -> int:
        if self.state != _VIRTUAL:  # pragma: no cover - detached before then
            return 0
        i = bisect_right(self.s, at) - 1
        if i < 0 or i >= self.n:
            return 0
        return 1 if at < self.e[i] else 0

    def on_contest(self) -> None:
        self._materialize()

    def _on_peer_failure(self, _node: "Node") -> None:
        # In the materialized state the boundary continuation re-checks
        # liveness itself, exactly like the per-block chain does.
        if self.state == _VIRTUAL:
            self._materialize()

    def _materialize(self) -> None:
        """Truncate at the current block boundary and go real.

        Synchronous and side-effect-free w.r.t. simulated behaviour: it only
        converts the arithmetic occupancy into real holds (when inside a
        transmission window) and wakes the driver, which then walks the
        remaining boundary exactly as the per-block chain would have.
        """
        if self.state != _VIRTUAL:
            return
        stats_for(self.src).bump("resplits")
        if self._flight is not None:
            self._flight.phase(self._flight_key, "resplit")
        now = self.sim._now
        i = bisect_right(self.s, now) - 1
        if i < 0:
            # Disturbed before the first block even started (a cascaded run
            # still waiting for its first source block): nothing happened
            # yet — hand everything back to the per-block loop.
            self.cur = -1
        else:
            if i >= self.n:  # pragma: no cover - defensive
                i = self.n - 1
            self.cur = i
            self.in_tx = now < self.e[i]
            self.post_arrival = (not self.in_tx) and now >= self.arr[i]
        self.state = _MATERIALIZED
        for resource, _sched in self.links:
            resource.remove_virtual_hold(self)
        if self.in_tx:
            # The current block keeps transmitting: hold every link for real
            # until the boundary, as the per-block grant would.
            for resource, _sched in self.links:
                resource._in_use += 1
            self._synthetic = True
        if self.schedule is not None:
            # Arrivals after ``now`` (beyond the current block's, which the
            # driver delivers) are no longer scheduled; dependent cascaded
            # runs re-split with us.
            self.schedule.truncate(bisect_right(self.arr, now))
        self._wake_driver()

    # -- plumbing ----------------------------------------------------------
    def _attach(self) -> None:
        stats_for(self.src).bump("coalesced_runs")
        cluster = self.src.cluster
        if cluster is not None and cluster.flight is not None and self.src is not self.dst:
            # Local copies (src is dst) move through the memcpy channel on
            # the per-block path and record nothing there; mirroring that
            # keeps on/off recordings semantically identical.
            self._flight = cluster.flight
            self._flight_key = f"n{self.src.node_id}>n{self.dst.node_id}"
            self._flight_flow = self.flow or DEFAULT_FLOW
            self._flight.phase(
                self._flight_key, f"coalesce_start/{type(self).__name__}/{self.n}"
            )
        for resource, _sched in self.links:
            resource.add_virtual_hold(self)
        self.src.on_failure(self._on_peer_failure)
        if self.dst is not self.src:
            self.dst.on_failure(self._on_peer_failure)
        self._listening = True
        if self.entry is not None:
            self.schedule = InflightSchedule(self.entry, self.base, self.arr, self)
            self.entry._begin_inflight(self.schedule)
        if self.src_schedule is not None:
            self.src_schedule.dependents[self] = None

    def _detach(self) -> None:
        if self.src_schedule is not None:
            self.src_schedule.dependents.pop(self, None)
            self.src_schedule = None
        # Unconditional: a materialized run already removed its holds (the
        # removal is idempotent), but an *undisturbed* run reaches here in
        # the _DONE state with its holds still attached — leaving them would
        # wedge `coalesce_eligible` (non-empty ``_virtual``) for every later
        # run on these links.
        for resource, _sched in self.links:
            resource.remove_virtual_hold(self)
        if self._synthetic:
            self._release_synthetic()
        if self._listening:
            self._listening = False
            self.src.remove_failure_listener(self._on_peer_failure)
            if self.dst is not self.src:
                self.dst.remove_failure_listener(self._on_peer_failure)
        if self.schedule is not None:
            self.schedule.close()
            self.schedule = None
        self._wake = None

    def _release_synthetic(self) -> None:
        self._synthetic = False
        for resource, _sched in self.links:
            resource._in_use -= 1
        for resource, _sched in self.links:
            resource._grant()

    def _account_full(self, count: int) -> None:
        """Link-account blocks ``[_accounted, count)`` at their full hold.

        Each link is credited the whole range in one call, in block order.
        The per-block chain credits ``release - grant``, not ``tx``:
        ``(s + tx) - s`` may differ from ``tx`` in the last bits.
        """
        first = self._accounted
        if count <= first:
            return
        s, e = self.s[first:count], self.e[first:count]
        holds = list(map(sub, e, s))
        sizes = self.sizes[first:count]
        nbytes = sum(sizes)
        for _resource, sched in self.links:
            if sched is not None:
                sched.account_run(self.flow, nbytes, holds)
        if self._flight is not None:
            for size, start, end in zip(sizes, s, e):
                self._record(size, submit=start, grant=start, release=end)
        self._accounted = count

    def _account_partial(self, j: int, hold: float) -> None:
        """One block released mid-transmission (interrupt semantics)."""
        for _resource, sched in self.links:
            if sched is not None:
                sched.account(self.flow, self.sizes[j], hold)
        if self._flight is not None:
            self._record(
                self.sizes[j], submit=self.s[j], grant=self.s[j], release=self.s[j] + hold
            )
        self._accounted = max(self._accounted, j + 1)

    def _record(self, nbytes: int, **times) -> None:
        """This run's flight records of one block (see ``FlightRecorder.transfer``)."""
        flow = self._flight_flow
        self._flight.transfer(
            self.src.node_id, self.dst.node_id, flow.flow_id, nbytes, flow.flow_class.label,
            **times,
        )

    def _deliver(self, count: int) -> None:
        """Destination marks (and flight arrivals) for the first ``count`` blocks.

        Must run after the inflight schedule is closed so the marks write
        through to the stored counter (and fire any re-registered waiters).
        """
        if self.schedule is not None:
            self.schedule.close()
            self.schedule = None
        if self.entry is not None:
            self.entry.mark_blocks_ready(self.base, count)
        if self._flight is not None:
            for nbytes, arrive in zip(self.sizes[:count], self.arr):
                self._record(nbytes, arrive=arrive)

    # -- the driver --------------------------------------------------------
    def run(self) -> Generator:
        """Generator driven from the owning process; returns blocks completed.

        Raises :class:`NodeFailedError` at exactly the simulated time the
        per-block chain would have surfaced a peer failure.  On a contest it
        returns after the current block's boundary; the caller's per-block
        loop takes over from there.
        """
        sim = self.sim
        self._attach()
        try:
            end = self.arr[-1]
            while self.state == _VIRTUAL and sim._now < end:
                yield self._sleep(end)
            if self.state == _VIRTUAL:
                # Undisturbed: everything happened as precomputed.
                self.state = _DONE
                self._account_full(self.n)
                self._deliver(self.n)
                return self.n

            # Re-split at block ``i``.  Walk its remaining boundary exactly
            # like the per-block chain: transmit to e_i (holding the links),
            # release, propagate to arr_i, then hand back to the caller.
            i = self.cur
            if i < 0:
                # Disturbed while still waiting for the first source block:
                # nothing moved, nothing to account.
                self.state = _DONE
                self._deliver(0)
                return 0
            if self.in_tx:
                while sim._now < self.e[i]:
                    yield self._sleep(self.e[i])
                self._account_full(i + 1)
                self._release_synthetic()
                if not self.src.alive or not self.dst.alive:
                    self.state = _DONE
                    self._deliver(i)
                    dead = self.src if not self.src.alive else self.dst
                    raise NodeFailedError(f"node {dead.node_id} is down", node=dead)
            while sim._now < self.arr[i]:
                yield self._sleep(self.arr[i])
            self._account_full(i + 1)
            self.state = _DONE
            if not self.post_arrival and not self.dst.alive:
                # The per-block chain's final liveness check at arr_i.  (If
                # the disturbance came after arr_i — a cascaded run parked
                # waiting for its next source block — that check already
                # passed back then, so a later dst death surfaces through
                # the per-block loop, not here.)
                self._deliver(i)
                raise NodeFailedError(f"node {self.dst.node_id} is down", node=self.dst)
            self._deliver(i + 1)
            return i + 1
        finally:
            if self.state != _DONE:
                # Unwound mid-run (the owning process was interrupted or the
                # generator closed while asleep): replicate the accounting a
                # per-block chain torn down at this instant would show —
                # completed blocks in full, a current transmission window
                # released early at a partial hold, marks only for blocks
                # that actually arrived.
                now = sim._now
                cap = self.cur if self.state == _MATERIALIZED else self.n - 1
                i = bisect_right(self.s, now) - 1
                if i > cap:  # pragma: no cover - defensive
                    i = cap
                if i >= 0:
                    if now < self.e[i]:
                        self._account_full(i)
                        if self._accounted <= i:
                            self._account_partial(i, now - self.s[i])
                    else:
                        self._account_full(i + 1)
                arrived = bisect_right(self.arr, now)
                if arrived > cap:
                    arrived = cap
                if arrived < 0:
                    arrived = 0
                self.state = _DONE
                if self.schedule is not None:
                    self.schedule.truncate(arrived)
                self._deliver(arrived)
            self._detach()


def register_stream(links: Sequence[tuple["Resource", object]]) -> None:
    """Announce a multi-block transfer stream on its claim set.

    Every multi-block loop brackets itself with ``register_stream`` /
    ``unregister_stream``: each caller of ``stream_blocks`` (whole-object
    sends and local copies, the Put copy-in, the broadcast pull, the
    reduce partial stream) and the static baselines' per-block
    ``StaticOperation.send_segmented``.  Two purposes:

    * a coalesced run starts only on links it has to itself
      (:func:`coalesce_eligible` checks ``_streams == 1``) — per-block
      streams sharing a link interleave block-by-block in an order set by
      event-queue history, which a coalesced schedule cannot reproduce;
    * a *new* stream materializes any standing coalesced run on its links
      before taking its first action, so the run re-splits to per-block
      granularity before the interleaving begins.
    """
    for resource, _sched in links:
        resource._streams += 1
        if resource._virtual:
            resource._materialize_virtual()


def unregister_stream(links: Sequence[tuple["Resource", object]]) -> None:
    # Departure is never a disturbance: a leaving stream has no pending
    # requests (its last release already triggered the grant scans), so no
    # standing run's plan can be invalidated by it.
    for resource, _sched in links:
        resource._streams -= 1


class ComputeRun(_Timeline):
    """A streaming compute loop (reduce slot) as one timeline event.

    The reduce slot's inner loop — wait for every input to reach block ``k``,
    pay the combine time, mark the output block — holds no resources at all:
    its entire timeline is arithmetic once each input's availability times
    are known (``ready_times``: already-present blocks at 0.0, future blocks
    at their scheduled arrival).  Mark time recurrence, identical to the
    per-block loop's float sequence::

        t_k = max(t_{k-1}, ready_k) + compute_k

    The output entry carries an :class:`InflightSchedule` over the ``t_k``,
    so downstream consumers (the parent's partial stream) read and cascade
    on it exactly as they do on a transfer run.  Disturbances:

    * an *input* schedule truncates -> finish the block in flight (its input
      provably arrived) and hand back to the per-block loop;
    * the *slot's own node* fails -> the per-block loop only notices at its
      next wait-with-nothing-to-wait-for, so the run continues marking until
      the first genuine wait after the failure, then stops there with
      ``failure_stop`` set (the caller returns, as the per-block loop does);
    * an interrupt -> marks whose times have passed stand, the rest are
      dropped;
    * the output's progress is reset or frozen (a reduce repair detaches
      the run, ``entry`` is ``None``) -> no mark is delivered, as after the
      per-block loop's reset, but the combines done so far are still
      recorded.
    """

    __slots__ = (
        "node",
        "entry",
        "object_id",
        "base",
        "n",
        "t",
        "s",
        "schedule",
        "input_schedules",
        "state",
        "end_at",
        "mark_limit",
        "failure_stop",
        "_listening",
    )

    def __init__(
        self,
        sim: Simulator,
        node: "Node",
        entry: "StoredObject",
        base: int,
        compute_times: Sequence[float],
        ready_times: Sequence[float],
        input_schedules: Sequence[InflightSchedule],
    ):
        self.sim = sim
        self.node = node
        self.entry = entry
        self.object_id = entry.object_id
        self.base = base
        self.n = len(compute_times)
        # ``t + 0.0 == t``: the transfer recurrence with no propagation.
        self.s, self.t, _ = _boundaries(sim._now, compute_times, 0.0, ready_times)
        self.schedule: Optional[InflightSchedule] = None
        self.input_schedules = list(input_schedules)
        self.state = _VIRTUAL
        self.end_at = self.t[-1]
        self.mark_limit = self.n
        self.failure_stop = False
        self._wake: Optional[Event] = None
        self._listening = False

    # -- disturbance handling ---------------------------------------------
    def _materialize(self) -> None:
        """An input schedule truncated: stop after the block in flight."""
        if self.state != _VIRTUAL:
            return
        now = self.sim._now
        done = bisect_right(self.t, now)
        if done >= self.n:  # pragma: no cover - end already reached
            return
        self.state = _MATERIALIZED
        if now < self.s[done]:
            # Waiting for input ``done`` — its scheduled arrival is now
            # uncertain, so nothing more happens in this run.
            self.mark_limit = done
            self.end_at = now
        else:
            # Mid-compute: the inputs of block ``done`` arrived for real;
            # finish it at its boundary, then hand back.
            self.mark_limit = done + 1
            self.end_at = self.t[done]
        if self.schedule is not None:
            self.schedule.truncate(done)
        self._wake_driver()

    def _on_node_failure(self, _node: "Node") -> None:
        """The slot's node died: run on until the first genuine wait."""
        if self.state != _VIRTUAL:
            return
        now = self.sim._now
        done = bisect_right(self.t, now)
        if done >= self.n:  # pragma: no cover - end already reached
            return
        if now < self.s[done]:
            # Inside a wait: the per-block race fires right now.
            stop = done
            end = now
        else:
            # Inside (or exactly at the end of) a compute: keep going until
            # the next block whose inputs are not yet there.
            stop = None
            for k in range(done + 1, self.n):
                if self.s[k] > self.t[k - 1]:
                    stop = k
                    end = self.t[k - 1]
                    break
            if stop is None:
                return  # no further waits: the run completes as scheduled
        self.state = _MATERIALIZED
        self.failure_stop = True
        self.end_at = end
        self.mark_limit = stop
        if self.schedule is not None:
            self.schedule.truncate(stop)
        self._wake_driver()

    def _deliver(self, count: int) -> None:
        if self.schedule is not None:
            if count < self.n:
                self.schedule.truncate(count)
            self.schedule.close()
            self.schedule = None
        base = self.base
        if self.entry is not None:
            self.entry.mark_blocks_ready(base, count)
        cluster = self.node.cluster
        if cluster is not None and cluster.flight is not None:
            # The per-block loop's records, for every finished combine.
            compute = cluster.flight.compute
            node_id, object_id, s, t = self.node.node_id, self.object_id, self.s, self.t
            for k in range(count):
                if t[k] > s[k]:
                    compute(node_id, object_id, base + k, s[k], t[k])

    def run(self) -> Generator:
        sim = self.sim
        self.schedule = InflightSchedule(self.entry, self.base, self.t, self)
        self.entry._begin_inflight(self.schedule)
        for input_schedule in self.input_schedules:
            input_schedule.dependents[self] = None
        self.node.on_failure(self._on_node_failure)
        self._listening = True
        delivered = None
        try:
            while sim._now < self.end_at:
                yield self._sleep(self.end_at)
            delivered = self.mark_limit if self.state != _VIRTUAL else self.n
            self.state = _DONE
            self._deliver(delivered)
            return delivered
        finally:
            if delivered is None:
                # Interrupted while asleep: past marks stand, rest dropped.
                self.state = _DONE
                self._deliver(bisect_right(self.t, sim._now))
            if self._listening:
                self._listening = False
                self.node.remove_failure_listener(self._on_node_failure)
            for input_schedule in self.input_schedules:
                input_schedule.dependents.pop(self, None)
            if self.schedule is not None:  # pragma: no cover - defensive
                self.schedule.close()
                self.schedule = None


def input_coverage(entry: "StoredObject", upto: int) -> int:
    """How many blocks of ``entry`` have known present-or-scheduled times.

    Counts from the start of the object: present blocks, plus — while a
    coalesced/compute run streams into the entry — blocks with scheduled
    arrival times.  Capped at ``upto``.
    """
    if entry.sealed:
        return upto
    ready = entry.blocks_ready
    inflight = entry._inflight
    if inflight is not None and not entry._no_coalesce:
        scheduled = inflight.base + inflight.limit
        if scheduled > ready:
            ready = scheduled
    return ready if ready < upto else upto


def arrival_times(entry: "StoredObject", index: int, end: int) -> list[float]:
    """When blocks ``[index, end)`` of ``entry`` are (or will be) present.

    ``0.0`` for present blocks, then a slice of the in-flight schedule's
    arrivals; ``end`` is at most :func:`input_coverage`.
    """
    present = min(max(entry.blocks_ready, index), end)
    times = [0.0] * (present - index)
    if present < end:
        inflight = entry._inflight
        times += inflight.arrivals[present - inflight.base : end - inflight.base]
    return times


def run_blocks(
    config, nbytes: int, index: int, end: int, time_of: Callable[[int], float]
) -> tuple[list[int], list[float]]:
    """Sizes and per-block times of blocks ``[index, end)`` of ``nbytes``.

    Every block but an object's last is full, so a run has at most two
    sizes, and ``time_of`` (a pure function of the size) runs once each.
    """
    full, head = config.block_size, end - 1 - index
    last = config.block_bytes(nbytes, end - 1)
    last_time = time_of(last)
    full_time = last_time if last == full or not head else time_of(full)
    return [full] * head + [last], [full_time] * head + [last_time]


def coalesce_eligible(
    links: Sequence[tuple["Resource", object]], src: "Node", dst: "Node"
) -> bool:
    """Whether a run can start right now: exclusive, idle, live endpoints.

    A cluster built with ``fast_paths=False`` never starts one.
    """
    cluster = src.cluster
    if cluster is not None and not cluster.fast_paths:
        return False
    if not (src.alive and dst.alive):
        return False
    for resource, _sched in links:
        if (
            resource._streams > 1
            or resource._waiting
            or resource._virtual
            or resource._in_use >= resource.capacity
        ):
            return False
    return True


def build_run(
    config,
    src: "Node",
    dst: "Node",
    flow: Optional["Flow"],
    links: Sequence[tuple["Resource", Optional["LinkScheduler"]]],
    nbytes: int,
    index: int,
    end: int,
    entry: Optional["StoredObject"] = None,
    source: Optional["StoredObject"] = None,
) -> CoalescedRun:
    """The coalesced run for blocks ``[index, end)`` of one ``nbytes`` stream.

    The only place a :class:`CoalescedRun` is built.  A local copy
    (``src is dst``) is timed by the memcpy channel, a move between nodes by
    its NIC path.  With a ``source`` entry, blocks it has not produced yet
    are gated on its in-flight schedule (the relay cascade); with an
    ``entry``, the run's marks ride an :class:`InflightSchedule` on it.  The
    caller has already checked :func:`coalesce_eligible`, the entry's
    ``_no_coalesce`` and that ``end - index >= 2``.
    """
    ready_times = None
    src_schedule = None
    if source is not None and source.blocks_ready < end:
        src_schedule = source._inflight
        ready_times = arrival_times(source, index, end)
    if src is dst:
        sizes, tx = run_blocks(config, nbytes, index, end, config.memcpy_time)
        latency = 0.0
    else:
        sizes, tx = run_blocks(
            config, nbytes, index, end, partial(path_transmission_time, config, src, dst)
        )
        latency = path_latency(config, src, dst)
    return CoalescedRun(
        src.sim,
        src,
        dst,
        flow or DEFAULT_FLOW,
        sizes,
        tx,
        latency,
        links,
        entry=entry,
        base=index,
        ready_times=ready_times,
        src_schedule=src_schedule,
    )


def nic_path_links(
    src: "Node", dst: "Node"
) -> list[tuple["Resource", Optional["LinkScheduler"]]]:
    """The claim set of one ``src -> dst`` block, with accounting scheds."""
    links: list[tuple["Resource", Optional["LinkScheduler"]]] = [
        (src.uplink, src.uplink_sched),
        (dst.downlink, dst.downlink_sched),
    ]
    fabric = src.cluster.fabric if src.cluster is not None else None
    if fabric is not None:
        for link in fabric.path_links(src.node_id, dst.node_id):
            links.append((link.resource, link.sched))
    return links
