"""A simulated cluster node: NIC, memory-copy channel, and liveness."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.net.flowsched import LinkScheduler, fail_queued, queued_on
from repro.sim import Event, Resource, Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.net.cluster import Cluster


class Node:
    """A physical node in the simulated cluster.

    Each node has:

    * an uplink and a downlink, each modelled as a serializing bandwidth pipe
      (a capacity-1 :class:`~repro.sim.Resource`) — concurrent transfers in
      the same direction interleave at block granularity, which approximates
      fair sharing and reproduces sender/receiver bottlenecks;
    * a :class:`~repro.net.flowsched.LinkScheduler` per NIC direction that
      admits flow-scheduled reservations on that link and accumulates
      per-flow utilization accounting;
    * a memory-copy channel used for worker-to-store and store-to-worker
      copies inside the node;
    * a liveness flag plus an incarnation counter used by failure injection.
    """

    def __init__(self, sim: Simulator, node_id: int, cluster: Optional["Cluster"] = None):
        self.sim = sim
        self.node_id = node_id
        self.cluster = cluster
        self.uplink = Resource(sim, capacity=1)
        self.downlink = Resource(sim, capacity=1)
        self.uplink_sched = LinkScheduler(sim, self.uplink, "up")
        self.downlink_sched = LinkScheduler(sim, self.downlink, "down")
        self.memcpy_channel = Resource(sim, capacity=1)
        self.alive = True
        #: Incremented every time the node recovers from a failure.  Stale
        #: transfers and stale store contents compare incarnations to detect
        #: that they belong to a previous life of the node.
        self.incarnation = 0
        #: Callbacks invoked with this node when it fails, in registration
        #: order, each mapped to its registration stamp.  A dict so removing
        #: one is O(1): a wait on a block the source does not hold yet
        #: registers and drops a listener.  Per-block waits register none:
        #: a queued admission learns of the death through its reservation
        #: (see :meth:`fail`), and a block the source already holds wakes
        #: regardless.  Stamps come from the simulator's arrival counter,
        #: which also stamps admission requests, so the two share one order.
        self.failure_listeners: dict[Callable[["Node"], None], int] = {}
        #: Callbacks invoked with this node when it recovers.
        self.recovery_listeners: list[Callable[["Node"], None]] = []
        #: Flow-scheduler routes from this node, by destination node id
        #: (built on first use by :mod:`repro.net.flowsched`).
        self.routes: dict[int, tuple] = {}

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"<Node {self.node_id} {state}>"

    def __hash__(self) -> int:
        return hash(("node", self.node_id))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Node) and other.node_id == self.node_id

    # -- failure handling ---------------------------------------------------
    def fail(self) -> None:
        """Mark the node as failed and notify listeners.

        Listeners are responsible for tearing down transfers, dropping store
        contents, and killing tasks that ran on the node.  Every block still
        queued for admission on this node's uplink or downlink fails too
        (:func:`~repro.net.flowsched.fail_queued`), at the place a listener
        registered when it began to wait would have: by its arrival stamp
        among the listeners' stamps, so waiters wake in the order they
        began to wait, whichever way they wait.
        """
        if not self.alive:
            return
        self.alive = False
        queued = queued_on(self)
        index = 0
        for listener, stamp in list(self.failure_listeners.items()):
            while index < len(queued) and queued[index].sort_key[1] < stamp:
                fail_queued(queued[index], self)
                index += 1
            listener(self)
        for reservation in queued[index:]:
            fail_queued(reservation, self)

    def recover(self) -> None:
        """Bring the node back with a fresh incarnation."""
        if self.alive:
            return
        self.alive = True
        self.incarnation += 1
        for listener in list(self.recovery_listeners):
            listener(self)

    def on_failure(self, callback: Callable[["Node"], None]) -> None:
        """Register a failure listener; registering one twice raises."""
        if callback in self.failure_listeners:
            raise ValueError(f"{callback!r} is already a failure listener of {self!r}")
        self.failure_listeners[callback] = next(self.sim._arrivals)

    def remove_failure_listener(self, callback: Callable[["Node"], None]) -> None:
        """Deregister a failure listener (no-op if it is not registered).

        Short-lived waiters (e.g. a stream racing its source's next block
        against a peer failure) must remove their listeners when the race
        resolves, or the listener set grows with every wait.
        """
        self.failure_listeners.pop(callback, None)

    def on_recovery(self, callback: Callable[["Node"], None]) -> None:
        self.recovery_listeners.append(callback)

    def failure_event(self) -> Event:
        """An event that fires when (or if) this node fails.

        Its listener stays registered until the node fails.  To race a
        blocking wait against a peer's failure, use
        :class:`~repro.net.errors.FailureRace`, which drops its listeners
        as soon as the race is decided.  A block queued for admission needs
        neither: the node fails its queued reservations itself
        (:meth:`fail`).
        """
        event = Event(self.sim)
        if not self.alive:
            event.succeed(self)
            return event

        def _notify(node: "Node") -> None:
            if not event.triggered:
                event.succeed(node)

        self.on_failure(_notify)
        return event

    def recovery_event(self) -> Event:
        """An event that fires when (or if) this node recovers."""
        event = Event(self.sim)
        if self.alive:
            event.succeed(self)
            return event

        def _notify(node: "Node") -> None:
            if not event.triggered:
                event.succeed(node)

        self.on_recovery(_notify)
        return event
