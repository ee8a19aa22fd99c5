"""Reservation-based flow scheduling for NIC links.

This is the admission layer between the collective protocols and the raw
uplink/downlink resources, and the only way a block crosses a link.
Acquiring the links one at a time (hold the sender's uplink, then queue on
the receiver's downlink) would park a sender's NIC idle-but-held whenever
its receiver is busy — head-of-line blocking.  Real transports avoid this
with per-flow queueing and admission at the bottleneck (flow-queuing AQM,
receiver-driven admission); this module reproduces that discipline for the
simulated NICs:

* every block transfer is a :class:`Reservation` — a cancellable claim on
  **both** the source uplink slot and the destination downlink slot, granted
  atomically only when the two are simultaneously free (a matching on the
  bipartite uplink/downlink graph, built on
  :class:`~repro.sim.resources.MultiRequest`);
* a sender whose flow toward one busy receiver is waiting keeps serving its
  flows toward idle receivers — pending reservations never hold capacity;
* flows carry metadata: a ``flow_id`` the flight recorder tags each block
  with, and a :class:`FlowClass` priority (control > reduce-partial > bulk)
  that orders the admission queues, so reduce partials cut ahead of bulk
  broadcast traffic when both contend for a link;
* each NIC direction has a :class:`LinkScheduler` that owns the admission
  queue of its link and accumulates per-class byte counts and busy time for
  the utilization reports in :mod:`repro.bench.scenarios`.  Per-flow bytes
  and the metrics plane's link families (``link_bytes``,
  ``link_grant_wait_seconds``) are read from the flight recorder's
  timeline (:func:`repro.obs.flight.timeline`), which records every
  block's flow and flow class; a scheduler feeds the metrics plane only
  its control-message count.

The first block of a ``src -> dst`` flow caches its *route* on the source
node: ``(claims, path, rate, latency)`` — the validated claim set, the
shared tier links on the path, the path bottleneck rate and the one-way
latency.  :func:`transfer_block` times each block from it, bit for bit what
:func:`path_transmission_time` and :func:`path_latency` return.

Failure semantics: a dead endpoint raises
:class:`~repro.net.transport.TransferError`, and a reservation still waiting
for admission when its peer dies is cancelled (withdrawn from every queue)
before the error propagates, so no ghost claim survives the failure.  The
failure-detection delay is paid in the retry loops of the protocols above.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import TYPE_CHECKING, Generator, Optional

from repro.net.config import NetworkConfig
from repro.net.errors import FailureRace, TransferError, _check_alive
from repro.sim import Event, MultiRequest, Resource, SimulationError, Simulator
from repro.sim.resources import validate_claims

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.net.node import Node


class FlowClass(IntEnum):
    """Priority classes for link admission (lower value = admitted first)."""

    CONTROL = 0
    REDUCE_PARTIAL = 1
    BULK = 2

    @property
    def label(self) -> str:
        """The ``cls`` label value of metrics and flight records (``"bulk"``)."""
        return self.name.lower()


@dataclass(frozen=True)
class Flow:
    """Metadata attached to a transfer for scheduling and accounting."""

    flow_id: str
    flow_class: FlowClass = FlowClass.BULK


#: flow used when a call site does not tag its transfer.
DEFAULT_FLOW = Flow("untagged", FlowClass.BULK)


def path_transmission_time(config: NetworkConfig, src: "Node", dst: "Node", nbytes: float) -> float:
    """Serialization time of one block at the ``src -> dst`` bottleneck rate.

    Delegates to the cluster's fabric when one exists; on the flat fabric
    (and for nodes built without a cluster) this is exactly
    ``config.transmission_time``.
    """
    fabric = src.cluster.fabric if src.cluster is not None else None
    if fabric is None:
        return config.transmission_time(nbytes)
    return fabric.transmission_time(src.node_id, dst.node_id, nbytes)


def path_latency(config: NetworkConfig, src: "Node", dst: "Node") -> float:
    """One-way propagation latency, including any per-tier extras."""
    fabric = src.cluster.fabric if src.cluster is not None else None
    if fabric is None:
        return config.latency
    return fabric.latency(src.node_id, dst.node_id)


class LinkScheduler:
    """Admission and accounting for one link direction.

    The scheduler wraps the direction's capacity
    :class:`~repro.sim.Resource`.  A reservation whose claims fit when it is
    submitted is granted at once and never queued; only one that does not
    fit enqueues on it (ordered by :class:`FlowClass`, FIFO within a class),
    and the work-conserving grant scan admits the first queued reservation
    whose partner links are also free.
    One scheduler exists per NIC direction of every node and — on
    hierarchical fabrics — per shared tier link direction
    (:class:`~repro.net.topology.FabricLink`).
    """

    def __init__(self, sim: Simulator, link: Resource, direction: str):
        self.sim = sim
        self.link = link
        self.direction = direction
        #: cumulative bytes granted per priority class.
        self.bytes_by_class: dict[FlowClass, int] = {cls: 0 for cls in FlowClass}
        #: total simulated time this link spent occupied by reservations.
        self.busy_time: float = 0.0
        #: number of reservations granted on this link.
        self.reservations_granted: int = 0
        #: control-plane messages (RPCs) sent from this direction; control
        #: traffic rides the latency path and never occupies a bulk slot.
        self.control_messages: int = 0
        #: the ``control_messages`` metric child, installed by
        #: repro.obs.Observability (None = disabled: one branch per message).
        self._obs_control = None

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` this link spent transmitting."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    def account(self, flow: Flow, nbytes: int, hold_time: float) -> None:
        """Record one released reservation's bytes and occupancy."""
        self.bytes_by_class[flow.flow_class] += nbytes
        self.busy_time += hold_time
        self.reservations_granted += 1

    def record_control(self) -> None:
        """Count one control-plane message leaving through this direction."""
        self.control_messages += 1
        if self._obs_control is not None:
            self._obs_control.inc()


def _build_route(src: "Node", dst: "Node") -> tuple:
    """Build, validate and cache on ``src`` the route of ``src -> dst`` blocks.

    A route is ``(claims, path, rate, latency)``: the reservation claim set
    (the source uplink, the destination downlink, then every shared tier
    link of the path, one slot on each), those tier links, the path bottleneck
    rate (``Fabric.rate``) and the one-way latency (``Fabric.latency``).
    Paths never change after a cluster is built, so the claim checks and
    the fabric queries run once per node pair instead of once per block.
    A node without a cluster has no fabric: ``rate`` and ``latency``
    are ``None`` and its blocks are timed by the transfer's config, which is
    what the path functions return without a fabric.
    """
    fabric = src.cluster.fabric if src.cluster is not None else None
    if fabric is None:
        path, rate, latency = (), None, None
    else:
        src_id, dst_id = src.node_id, dst.node_id
        path = fabric.path_links(src_id, dst_id)
        rate = fabric.rate(src_id, dst_id)
        latency = fabric.latency(src_id, dst_id)
    claims = (src.uplink, dst.downlink, *(link.resource for link in path))
    route = src.routes[dst.node_id] = (validate_claims(claims), path, rate, latency)
    return route


class Reservation(MultiRequest):
    """A cancellable claim on every link a ``src -> dst`` block crosses.

    On the flat fabric that is the (source uplink, destination downlink)
    pair; on a hierarchical fabric the claim additionally covers one slot on
    **every shared tier link on the path** (source rack uplink, zone
    aggregation links, destination rack downlink), so admission is a
    matching on the fabric graph rather than the bipartite NIC graph.  The
    whole set is granted atomically when every slot is simultaneously free;
    until then the reservation holds nothing.  The reservation *is* the
    grant event (a :class:`~repro.sim.resources.MultiRequest`).
    ``release`` frees a granted claim (crediting every link scheduler's
    accounting) or withdraws a pending one; both are idempotent, so the
    transfer generators can release unconditionally in a ``finally``.
    """

    __slots__ = ("src", "dst", "nbytes", "flow", "created_at", "path")

    def __init__(self, src: "Node", dst: "Node", nbytes: int, flow: Flow):
        sim = src.sim
        Event.__init__(self, sim)
        self.src = src
        self.dst = dst
        self.nbytes = int(nbytes)
        self.flow = flow
        #: submission time (the block's flight ``submit`` record).
        self.created_at = sim._now
        route = src.routes.get(dst.node_id)
        if route is None:
            route = _build_route(src, dst)
        #: shared tier links on the path (empty for flat/intra-rack traffic).
        claims, self.path, _rate, _latency = route
        self._submit(claims, int(flow.flow_class))

    def release(self) -> None:
        """Free (or withdraw) the claim; granted holds are accounted."""
        if self._released:
            return
        if self.granted_at is not None:
            self._account()
        MultiRequest.release(self)

    def _account(self) -> None:
        flow, nbytes = self.flow, self.nbytes
        hold = self.sim._now - self.granted_at
        self.src.uplink_sched.account(flow, nbytes, hold)
        self.dst.downlink_sched.account(flow, nbytes, hold)
        for link in self.path:
            link.sched.account(flow, nbytes, hold)
        cluster = self.src.cluster
        if cluster is not None and cluster.flight is not None:
            # The semantic transfer timeline: the coalescing fast paths
            # retrofit the same records from their boundary arrays, so
            # on/off recordings compare equal.
            cluster.flight.transfer(
                self.src.node_id, self.dst.node_id, flow.flow_id, nbytes,
                flow.flow_class.label,
                submit=self.created_at, grant=self.granted_at, release=self.sim._now,
            )


def transfer_block(
    config: NetworkConfig,
    src: "Node",
    dst: "Node",
    nbytes: int,
    flow: Optional[Flow] = None,
) -> Generator:
    """Move one block from ``src`` to ``dst`` under flow scheduling.

    Returns (via StopIteration) the simulated time at which the block is
    fully available at the destination.  The block is timed from its route:
    the cluster fabric's rate and latency, or ``config``'s for a node built
    without a cluster.  A node's blocks are timed by its cluster's fabric,
    so a ``config`` other than the cluster's is rejected with
    :class:`~repro.sim.SimulationError` rather than silently ignored.
    """
    sim = src.sim
    cluster = src.cluster
    if cluster is not None and config is not cluster.config:
        raise SimulationError("transfer_block needs the cluster's own NetworkConfig")
    if not (src.alive and dst.alive):
        _check_alive(src, dst)
    reservation = Reservation(src, dst, nbytes, flow or DEFAULT_FLOW)
    _claims, _path, rate, latency = src.routes[dst.node_id]
    if rate is None:
        tx = config.transmission_time(nbytes)
        latency = config.latency
    else:
        tx = nbytes / rate
    try:
        if reservation._ok is None:
            # Race the queued admission against either peer dying.
            race = FailureRace(reservation, (src, dst))
            try:
                yield race
            finally:
                race.cancel()
            if reservation._ok is None:
                # A peer died while the reservation was still queued:
                # withdraw the claim so no ghost request survives, then
                # fail like a broken connection.
                dead = src if not src.alive else dst
                raise TransferError(
                    f"node {dead.node_id} failed before transfer admission",
                    node=dead,
                )
        if not (src.alive and dst.alive):
            _check_alive(src, dst)
        yield sim.timeout(tx)
        if not (src.alive and dst.alive):
            _check_alive(src, dst)
    finally:
        reservation.release()
    yield sim.timeout(latency)
    if not dst.alive:
        _check_alive(dst)
    if cluster is not None and cluster.flight is not None:
        flow = reservation.flow
        cluster.flight.transfer(
            src.node_id, dst.node_id, flow.flow_id, nbytes, flow.flow_class.label,
            arrive=sim._now,
        )
    return sim._now
