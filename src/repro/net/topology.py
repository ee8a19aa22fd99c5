"""Hierarchical fabric model: nodes grouped into racks, racks into zones.

The paper's testbed is a flat 10 Gbps cluster — every pair of NICs sees the
full line rate and the only contended resources are the endpoints.  Real
datacenter fabrics are hierarchical and *oversubscribed*: a rack's nodes
share a ToR uplink whose aggregate bandwidth is a fraction ``1/R`` of the
rack's summed NIC bandwidth (an ``R:1`` oversubscription ratio), and zones
are joined by still-scarcer inter-zone links.  Once traffic crosses tiers,
those shared aggregation links — not the NICs — become the binding
constraint, which is exactly where receiver-driven broadcast and dynamic
reduce trees degrade if they place transfers obliviously.

Two layers live here:

* :class:`Topology` — the immutable *spec*: rack sizes, the zone of each
  rack, per-tier oversubscription ratios and extra per-hop latencies, and
  optional heterogeneous per-node NIC speeds.  ``Topology.flat(n)`` is the
  degenerate single-rack fabric and reproduces the pre-topology simulator
  bit for bit (no shared links exist, every transfer sees the NIC rate).
* :class:`Fabric` — the spec *instantiated* on a simulator: every shared
  tier link (rack uplink/downlink, zone uplink/downlink) is a first-class
  admission resource with the same :class:`~repro.net.flowsched.LinkScheduler`
  accounting as a NIC direction, so a flow-scheduled
  :class:`~repro.net.flowsched.Reservation` for a cross-rack flow atomically
  claims source uplink + dest downlink **+ every shared tier link on the
  path** — the PR 3 matching extended from the bipartite NIC graph to the
  fabric graph.

Shared-link capacity model
--------------------------
A tier link with aggregate bandwidth ``A`` (rack NIC sum divided by the
oversubscription ratio) is modelled as ``max(1, floor(A / B))`` concurrent
block slots of ``min(A, A / slots)`` bytes/s each, where ``B`` is the base
NIC rate: at 2:1 a 4-node rack gets 2 full-rate slots, at 4:1 one slot, and
at 8:1 one *half-rate* slot — blocks still serialize at the bottleneck rate
``min(src NIC, dst NIC, slot rates on the path)``.  Admission quantizes to
whole blocks, the same approximation the NIC model already makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.net.flowsched import LinkScheduler
from repro.sim import Resource, Simulator

#: path distance classes used by locality-aware source selection.
DISTANCE_SAME_NODE = 0
DISTANCE_SAME_RACK = 1
DISTANCE_SAME_ZONE = 2
DISTANCE_CROSS_ZONE = 3


@dataclass(frozen=True)
class Topology:
    """Shape of a hierarchical fabric (immutable; lives in ``NetworkConfig``).

    Attributes:
        rack_sizes: nodes per rack; node ids are assigned contiguously, so
            rack ``r`` owns ids ``[sum(rack_sizes[:r]), sum(rack_sizes[:r+1]))``.
        rack_zones: zone index of each rack (``len == len(rack_sizes)``).
        oversubscription: ToR uplink oversubscription ratio ``R`` (R:1); the
            rack's shared up/down links carry ``rack NIC sum / R``.
        zone_oversubscription: additional ratio applied to each zone's
            aggregation links (inter-zone bandwidth class).
        rack_latency: extra one-way propagation per cross-rack transfer.
        zone_latency: extra one-way propagation per cross-zone transfer
            (added on top of ``rack_latency``).
        nic_bandwidths: optional per-node NIC speed overrides in bytes/s
            (``None`` entries fall back to ``NetworkConfig.bandwidth``).
    """

    rack_sizes: tuple[int, ...] = (4,)
    rack_zones: tuple[int, ...] = ()
    oversubscription: float = 1.0
    zone_oversubscription: float = 1.0
    rack_latency: float = 0.0
    zone_latency: float = 0.0
    nic_bandwidths: Optional[tuple[Optional[float], ...]] = None

    def __post_init__(self) -> None:
        if not self.rack_sizes:
            raise ValueError("a topology needs at least one rack")
        if any(size <= 0 for size in self.rack_sizes):
            raise ValueError("every rack must hold at least one node")
        zones = self.rack_zones or tuple(0 for _ in self.rack_sizes)
        object.__setattr__(self, "rack_zones", tuple(zones))
        if len(self.rack_zones) != len(self.rack_sizes):
            raise ValueError("rack_zones must name one zone per rack")
        if not (self.oversubscription >= 1.0 and self.zone_oversubscription >= 1.0):
            raise ValueError("oversubscription ratios must be >= 1 (R:1)")
        if not (self.rack_latency >= 0 and self.zone_latency >= 0):
            raise ValueError("tier latencies must be non-negative")
        if self.nic_bandwidths is not None:
            object.__setattr__(self, "nic_bandwidths", tuple(self.nic_bandwidths))
            if len(self.nic_bandwidths) != self.num_nodes:
                raise ValueError("nic_bandwidths must cover every node")
            if any(bw is not None and not bw > 0 for bw in self.nic_bandwidths):
                raise ValueError("NIC bandwidth overrides must be positive")
        # node id -> rack index, precomputed once (the spec is immutable).
        node_racks: list[int] = []
        for rack, size in enumerate(self.rack_sizes):
            node_racks.extend([rack] * size)
        object.__setattr__(self, "_node_racks", tuple(node_racks))

    # -- constructors --------------------------------------------------------
    @staticmethod
    def flat(num_nodes: int) -> "Topology":
        """The degenerate fabric: one rack, no shared links, uniform NICs.

        This is the default everywhere and reproduces the pre-topology
        simulator exactly — no tier resource exists to claim, wait for, or
        account.
        """
        if num_nodes <= 0:
            raise ValueError("a topology needs at least one node")
        return Topology(rack_sizes=(num_nodes,))

    @staticmethod
    def racks(
        num_racks: int,
        nodes_per_rack: int,
        oversubscription: float = 1.0,
        zones: Optional[Sequence[int]] = None,
        zone_oversubscription: float = 1.0,
        rack_latency: float = 0.0,
        zone_latency: float = 0.0,
        nic_bandwidths: Optional[Sequence[Optional[float]]] = None,
    ) -> "Topology":
        """A uniform ``num_racks x nodes_per_rack`` fabric."""
        if num_racks <= 0 or nodes_per_rack <= 0:
            raise ValueError("racks and nodes per rack must be positive")
        return Topology(
            rack_sizes=tuple(nodes_per_rack for _ in range(num_racks)),
            rack_zones=tuple(zones) if zones is not None else (),
            oversubscription=oversubscription,
            zone_oversubscription=zone_oversubscription,
            rack_latency=rack_latency,
            zone_latency=zone_latency,
            nic_bandwidths=tuple(nic_bandwidths) if nic_bandwidths is not None else None,
        )

    # -- shape ---------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return sum(self.rack_sizes)

    @property
    def num_racks(self) -> int:
        return len(self.rack_sizes)

    @property
    def num_zones(self) -> int:
        return len(set(self.rack_zones))

    @property
    def is_flat(self) -> bool:
        """True when no shared tier link or NIC asymmetry can exist."""
        return self.num_racks == 1 and self.nic_bandwidths is None

    def rack_of(self, node_id: int) -> int:
        return self._node_racks[node_id]  # type: ignore[attr-defined]

    def zone_of(self, node_id: int) -> int:
        return self.rack_zones[self.rack_of(node_id)]

    def rack_nodes(self, rack: int) -> range:
        start = sum(self.rack_sizes[:rack])
        return range(start, start + self.rack_sizes[rack])

    def same_rack(self, a: int, b: int) -> bool:
        return self.rack_of(a) == self.rack_of(b)

    def same_zone(self, a: int, b: int) -> bool:
        return self.zone_of(a) == self.zone_of(b)

    def distance(self, a: int, b: int) -> int:
        """Path distance class between two nodes (lower = closer)."""
        if a == b:
            return DISTANCE_SAME_NODE
        if self.same_rack(a, b):
            return DISTANCE_SAME_RACK
        if self.same_zone(a, b):
            return DISTANCE_SAME_ZONE
        return DISTANCE_CROSS_ZONE

    def nic_bandwidth(self, node_id: int, base: float) -> float:
        """The node's NIC rate: its override, or the cluster-wide ``base``."""
        if self.nic_bandwidths is None:
            return base
        override = self.nic_bandwidths[node_id]
        return base if override is None else override


class FabricLink:
    """One shared aggregation link: an admission resource plus accounting.

    ``tier`` is one of ``rack_up`` / ``rack_down`` / ``zone_up`` /
    ``zone_down``; reservations claim one slot per block, and granted holds
    are accounted on ``sched`` exactly like a NIC direction.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        tier: str,
        slots: int,
        slot_bandwidth: float,
    ):
        self.name = name
        self.tier = tier
        self.slot_bandwidth = slot_bandwidth
        self.resource = Resource(sim, capacity=slots)
        self.sched = LinkScheduler(sim, self.resource, name)

    @property
    def capacity(self) -> int:
        return self.resource.capacity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FabricLink {self.name} x{self.capacity} @{self.slot_bandwidth:.3g}B/s>"


def _slots_and_rate(aggregate: float, base: float) -> tuple[int, float]:
    """Quantize an aggregate link bandwidth into block slots.

    ``slots = max(1, floor(aggregate / base))`` full-rate slots; when the
    aggregate is below one NIC rate the single slot runs proportionally
    slower, so sub-NIC tier capacities (e.g. 8:1 over a 4-node rack) still
    bite through the serialization time rather than vanishing.
    """
    slots = max(1, int(aggregate // base))
    return slots, min(base, aggregate / slots)


class Fabric:
    """A :class:`Topology` instantiated on one cluster's simulator.

    For the flat topology no link objects exist and every query takes the
    fast path returning the exact pre-topology quantities.
    """

    def __init__(self, sim: Simulator, topology: Topology, config) -> None:
        self.topology = topology
        self.config = config
        #: (src, dst) memos — the fabric is immutable once built, every
        #: block of every flow between a pair crosses the same links at the
        #: same bottleneck rate, and the per-block recomputation (rack/zone
        #: lookups, min over the path) was measurable in kernel profiles.
        self._path_cache: dict[tuple[int, int], tuple["FabricLink", ...]] = {}
        self._rate_cache: dict[tuple[int, int], float] = {}
        self._latency_cache: dict[tuple[int, int], float] = {}
        base = config.bandwidth
        self.rack_up: list[Optional[FabricLink]] = []
        self.rack_down: list[Optional[FabricLink]] = []
        self.zone_up: dict[int, FabricLink] = {}
        self.zone_down: dict[int, FabricLink] = {}
        if topology.num_racks > 1:
            rack_aggregates = []
            for rack in range(topology.num_racks):
                nic_sum = sum(
                    topology.nic_bandwidth(node_id, base)
                    for node_id in topology.rack_nodes(rack)
                )
                aggregate = nic_sum / topology.oversubscription
                rack_aggregates.append(aggregate)
                slots, rate = _slots_and_rate(aggregate, base)
                self.rack_up.append(
                    FabricLink(sim, f"rack{rack}-up", "rack_up", slots, rate)
                )
                self.rack_down.append(
                    FabricLink(sim, f"rack{rack}-down", "rack_down", slots, rate)
                )
            if topology.num_zones > 1:
                for zone in sorted(set(topology.rack_zones)):
                    aggregate = sum(
                        rack_aggregates[rack]
                        for rack in range(topology.num_racks)
                        if topology.rack_zones[rack] == zone
                    ) / topology.zone_oversubscription
                    slots, rate = _slots_and_rate(aggregate, base)
                    self.zone_up[zone] = FabricLink(
                        sim, f"zone{zone}-up", "zone_up", slots, rate
                    )
                    self.zone_down[zone] = FabricLink(
                        sim, f"zone{zone}-down", "zone_down", slots, rate
                    )

    # -- paths ---------------------------------------------------------------
    def path_links(self, src_id: int, dst_id: int) -> tuple[FabricLink, ...]:
        """Every shared tier link a ``src -> dst`` block must claim a slot on.

        Intra-rack traffic touches no shared link; cross-rack traffic claims
        the source rack's uplink and the destination rack's downlink; cross-
        zone traffic additionally claims both zones' aggregation links.
        """
        cached = self._path_cache.get((src_id, dst_id))
        if cached is not None:
            return cached
        topology = self.topology
        if not self.rack_up:
            path: tuple[FabricLink, ...] = ()
        else:
            src_rack, dst_rack = topology.rack_of(src_id), topology.rack_of(dst_id)
            if src_rack == dst_rack:
                path = ()
            else:
                links = [self.rack_up[src_rack]]
                src_zone = topology.rack_zones[src_rack]
                dst_zone = topology.rack_zones[dst_rack]
                if src_zone != dst_zone:
                    links.append(self.zone_up[src_zone])
                    links.append(self.zone_down[dst_zone])
                links.append(self.rack_down[dst_rack])
                path = tuple(links)
        self._path_cache[(src_id, dst_id)] = path
        return path

    # -- timing --------------------------------------------------------------
    def rate(self, src_id: int, dst_id: int) -> float:
        """The ``src -> dst`` path bottleneck rate in bytes per second.

        Flat fabric: the base NIC rate ``NetworkConfig.bandwidth``.
        """
        topology = self.topology
        if topology.is_flat:
            return self.config.bandwidth
        rate = self._rate_cache.get((src_id, dst_id))
        if rate is None:
            base = self.config.bandwidth
            rate = min(
                topology.nic_bandwidth(src_id, base),
                topology.nic_bandwidth(dst_id, base),
            )
            for link in self.path_links(src_id, dst_id):
                rate = min(rate, link.slot_bandwidth)
            self._rate_cache[(src_id, dst_id)] = rate
        return rate

    def transmission_time(self, src_id: int, dst_id: int, nbytes: float) -> float:
        """Serialization time at the path bottleneck rate.

        Flat fabric: exactly ``NetworkConfig.transmission_time`` (same
        division by the same base rate).
        """
        return nbytes / self.rate(src_id, dst_id)

    def latency(self, src_id: int, dst_id: int) -> float:
        """One-way propagation: the base latency plus per-tier extras."""
        cached = self._latency_cache.get((src_id, dst_id))
        if cached is not None:
            return cached
        topology = self.topology
        base = self.config.latency
        if topology.is_flat or topology.same_rack(src_id, dst_id):
            result = base
        else:
            extra = topology.rack_latency
            if not topology.same_zone(src_id, dst_id):
                extra += topology.zone_latency
            result = base + extra
        self._latency_cache[(src_id, dst_id)] = result
        return result

    # -- introspection -------------------------------------------------------
    def iter_links(self):
        """All instantiated shared links (rack tiers first, then zones)."""
        for link in self.rack_up:
            if link is not None:
                yield link
        for link in self.rack_down:
            if link is not None:
                yield link
        yield from self.zone_up.values()
        yield from self.zone_down.values()
