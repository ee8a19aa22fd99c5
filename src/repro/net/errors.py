"""Transfer failure types, liveness checks, and the wait-vs-failure race.

These live in their own leaf module so both :mod:`repro.net.transport` and
:mod:`repro.net.flowsched` can import them at module scope (the two import
each other lazily, and the former per-block function-body imports showed up
in kernel profiles).  ``repro.net.transport`` re-exports the error types, so
existing ``from repro.net.transport import TransferError`` call sites are
unaffected.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional, Sequence

from repro.sim import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.node import Node


class TransferError(Exception):
    """A data transfer failed (usually because a peer node died)."""

    def __init__(self, message: str, node: Optional["Node"] = None):
        super().__init__(message)
        self.node = node


class NodeFailedError(TransferError):
    """An operation was attempted on or against a failed node."""


def _check_alive(*nodes: "Node") -> None:
    for node in nodes:
        if not node.alive:
            raise NodeFailedError(f"node {node.node_id} is down", node=node)


class FailureRace(Event):
    """Wait for ``event``, but wake early if any of ``nodes`` fails.

    A transfer wait that a peer's death must cut short (a gate on a block
    the source does not hold yet, a seal) races the awaited event against
    its peers' failures.  The race fires with the awaited event's value, or
    with the failed node; callers tell the two apart by re-checking
    ``event`` or the nodes' liveness.  Queued admission needs no race: a
    dying node fails the reservations queued on its links
    (:func:`repro.net.flowsched.fail_queued`), and a gate on a block the
    source already holds wakes whatever fails.

    One bound method is registered as the failure listener of every node
    and removed as soon as the race is decided, so no listener outlives the
    wait.  Both outcomes take the same two queue hops as
    ``sim.any_of([event, node.failure_event(), ...])``: the awaited event
    (or a relay event the listener fires) pops first, then this event, then
    the waiting process resumes.  Same-timestamp ties therefore break
    exactly as they do under ``any_of``.
    """

    __slots__ = ("_nodes", "_listener")

    def __init__(self, event: Event, nodes: Sequence["Node"]):
        Event.__init__(self, event.sim)
        self._nodes = nodes
        self._listener = None
        for node in nodes:
            if not node.alive:
                self._relay(node)
                break
        else:
            # Written straight into each node's listener dict, with one
            # registration stamp (see Node.failure_listeners): a node listed
            # twice, as a same-node stream lists it, holds the listener
            # once, and the first call decides the race either way.
            listener = self._listener = self._on_failure
            stamp = next(self.sim._arrivals)
            for node in nodes:
                node.failure_listeners[listener] = stamp
        event.add_callback(self._on_event)

    def cancel(self) -> None:
        """Drop the failure listeners now (idempotent).

        A decided race has already dropped them; a waiter that unwinds
        before the race is decided (an interrupt) calls this in a
        ``finally`` so its listeners do not outlive it.
        """
        listener = self._listener
        if listener is not None:
            self._listener = None
            for node in self._nodes:
                node.failure_listeners.pop(listener, None)

    def _relay(self, node: "Node") -> None:
        relay = Event(self.sim)
        relay.callbacks = [self._on_relay]
        relay.succeed(node)

    def _on_failure(self, node: "Node") -> None:
        if self._listener is not None:
            self.cancel()
            self._relay(node)

    def _on_relay(self, relay: Event) -> None:
        if self._ok is None:
            self.succeed(relay._value)

    def _on_event(self, event: Event) -> None:
        if self._ok is not None:
            if not event._ok:
                event.defused = True
            return
        self.cancel()
        if event._ok:
            self.succeed(event._value)
        else:
            event.defused = True
            self.fail(event._exception)


def relay(event: Event, exception: Optional[BaseException] = None) -> None:
    """Trigger ``event`` one urgent queue hop from now, with no listener.

    It succeeds, or fails with ``exception``, when a relay event scheduled
    now pops: the hop a race takes from the event that decides it to
    itself.  A waiter on ``event`` therefore wakes two hops from now, as a
    waiter on a :class:`FailureRace` decided now would.
    """
    hop = Event(event.sim)
    hop.callbacks = [_trigger]
    hop.succeed((event, exception))


def _trigger(hop: Event) -> None:
    event, exception = hop._value
    if exception is None:
        event.succeed()
    else:
        event.fail(exception)


def race_failure(event: Event, nodes: Sequence["Node"]) -> Generator:
    """``yield from`` form of :class:`FailureRace`: wait, then let go.

    The race is cancelled however the waiter leaves, so an interrupted
    waiter leaves no listener behind either.  Per-block waits inline the
    same ``try: yield race / finally: race.cancel()`` instead, which saves
    a generator frame per block.
    """
    race = FailureRace(event, nodes)
    try:
        yield race
    finally:
        race.cancel()
