"""Measurement drivers for the microbenchmark figures (6, 7, 8, 12, 14, 15).

A :class:`Scenario` names one measurement: the collective, the system that
runs it ("hoplite", "openmpi", "gloo", "ray", "dask", ...), the cluster,
participant arrivals and faults.  :func:`run` runs it on a fresh simulated
cluster and returns the latency in simulated seconds, using the same
measurement boundaries as the paper:

* point-to-point — round-trip time of one object;
* broadcast — from the moment every receiver calls ``Get`` (after the
  sender's ``Put`` has completed) to the moment the last receiver finishes;
* gather — the duration of the caller's ``Get`` over all objects;
* reduce — from the ``Reduce`` call to the caller holding the result;
* allreduce — from the ``Reduce`` call to the last participant holding the
  result;
* allgather — from the moment every participant's ``Put`` has completed to
  the last participant holding all ``n`` objects;
* alltoall — from the start of the exchange (sends included) to the last
  participant holding its ``n - 1`` personalized blocks;
* the asynchrony variants stagger participant arrivals by a fixed interval
  and measure from the arrival of the first participant (Figure 8).

Allgather and alltoall also take a node-failure schedule
(:class:`~repro.net.faults.FailureEvent` list).  The object planes ride
through failures with Hoplite's per-transfer recovery plus framework
reconstruction (a recovered producer re-``Put``s its objects, Section 6);
the static systems abort and restart the whole job once every node is back —
the MPI failure model.  A :class:`Kill` instead runs the collective through
the task system's orchestrator and kills its driver's node or its control
plane mid-run.

The ``measure_*`` functions are the figure-facing entry points; each is a
thin wrapper that builds one :class:`Scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Generator, Optional, Sequence, Union

from repro.apps.common import reconstruct_on_recovery, retry_across_failures
from repro.collectives.systems import PLANES, STATIC_OPS
from repro.core.options import HopliteOptions
from repro.net.cluster import Cluster
from repro.net.config import NetworkConfig
from repro.net.faults import (
    ControlPlaneFailureEvent,
    FailureEvent,
    schedule,
    schedule_control_plane,
)
from repro.net.flowsched import FlowClass
from repro.net.transport import TransferError
from repro.store.objects import ObjectID, ObjectValue, ReduceOp
from repro.tasksys import CollectiveOrchestrator, CollectiveSpec, TaskSystem

SUPPORTED_SYSTEMS = (
    "hoplite",
    "openmpi",
    "gloo",
    "gloo_ring",
    "gloo_ring_chunked",
    "gloo_halving_doubling",
    "ray",
    "dask",
    "optimal",
)


class UnsupportedScenarioError(ValueError):
    """The requested system does not implement the requested primitive."""


# ---------------------------------------------------------------------------
# Per-flow link utilization reporting (flow-scheduled transport)
# ---------------------------------------------------------------------------


@dataclass
class LinkUsage:
    """Utilization of one link direction over a scenario run."""

    node_id: int
    direction: str
    #: fraction of the run this link spent transmitting granted reservations.
    utilization: float
    #: bytes granted per flow class name (``control``/``reduce_partial``/``bulk``).
    bytes_by_class: dict[str, int]
    #: number of reservations granted on this link.
    reservations: int
    #: ``nic`` for NIC directions; the fabric tier (``rack_up``/``rack_down``/
    #: ``zone_up``/``zone_down``) for shared aggregation links (``node_id``
    #: is ``-1`` for those).
    tier: str = "nic"


@dataclass
class FlowUsage:
    """The frozen return schema of :func:`collect_flow_usage`.

    Callers consume a plain dict (``run(...)["usage"]``, digest
    fingerprints over selected keys), so :func:`collect_flow_usage`
    returns :meth:`as_dict`; this dataclass is the schema contract the
    tests pin.  Remove or rename a field here and
    ``tests/test_flow_usage_schema.py`` fails before any consumer does.
    """

    #: simulated seconds the scenario ran for (utilization denominator).
    elapsed: float
    #: kernel events processed by the cluster's simulator so far.
    events_processed: int
    #: one :class:`LinkUsage` per NIC direction and per shared fabric link.
    links: list[LinkUsage]
    #: uplink-side aggregate bytes per flow-class name (no double counting).
    bytes_by_class: dict[str, int]
    mean_uplink_utilization: float
    max_uplink_utilization: float
    #: control-plane messages sent (directory RPCs etc.).
    control_messages: int
    #: bytes that crossed each tier, egress side only: ``nic`` /
    #: ``rack_uplink`` / ``inter_zone``.
    tier_bytes: dict[str, int]
    #: busy seconds per tier, same keys as ``tier_bytes``.
    tier_busy_time: dict[str, float]
    #: fraction of NIC bytes that also crossed the rack uplink tier.
    cross_rack_fraction: float
    #: fraction of NIC bytes that also crossed the inter-zone tier.
    cross_zone_fraction: float
    #: the cluster's fast-path counters (repro.net.fastpath.COUNTER_KEYS).
    fastpath: dict[str, int]

    def as_dict(self) -> dict:
        return dict(vars(self))


def collect_flow_usage(cluster: Cluster) -> dict:
    """Per-link and aggregate flow statistics for a finished scenario.

    Returns :meth:`FlowUsage.as_dict` — a dict with ``links`` (a
    :class:`LinkUsage` per NIC direction and per shared fabric link),
    ``bytes_by_class`` (uplink-side aggregate, so bytes are not counted
    twice), ``mean_uplink_utilization`` / ``max_uplink_utilization``, the
    number of ``control_messages`` the control plane sent, the cluster's
    ``fastpath`` counters, and the per-tier rollup: ``tier_bytes`` /
    ``tier_busy_time`` keyed by ``nic`` (NIC uplinks), ``rack_uplink`` (ToR
    uplinks) and ``inter_zone`` (zone uplinks) — each tier counted on its
    egress side only, so a byte is counted once per tier it crossed — plus
    the derived ``cross_rack_fraction`` / ``cross_zone_fraction`` of NIC
    bytes that also crossed that tier.  On the flat topology the fabric
    tiers are identically zero.  Utilization is measured over the whole
    simulated run (``cluster.now``).  The schema is frozen as
    :class:`FlowUsage`.
    """
    elapsed = cluster.now

    def _link(node_id: int, direction: str, sched, tier: str = "nic") -> LinkUsage:
        return LinkUsage(
            node_id=node_id,
            direction=direction,
            utilization=sched.utilization(elapsed),
            bytes_by_class={cls.name.lower(): count for cls, count in sched.bytes_by_class.items()},
            reservations=sched.reservations_granted,
            tier=tier,
        )

    links: list[LinkUsage] = []
    bytes_by_class = {cls.name.lower(): 0 for cls in FlowClass}
    uplink_utils: list[float] = []
    control_messages = 0
    for node in cluster.nodes:
        for sched in (node.uplink_sched, node.downlink_sched):
            links.append(_link(node.node_id, sched.direction, sched))
        for cls, count in node.uplink_sched.bytes_by_class.items():
            bytes_by_class[cls.name.lower()] += count
        uplink_utils.append(node.uplink_sched.utilization(elapsed))
        control_messages += node.uplink_sched.control_messages

    nic_bytes = sum(bytes_by_class.values())
    tier_bytes = {"nic": nic_bytes, "rack_uplink": 0, "inter_zone": 0}
    tier_busy_time = {
        "nic": sum(node.uplink_sched.busy_time for node in cluster.nodes),
        "rack_uplink": 0.0,
        "inter_zone": 0.0,
    }
    egress_tiers = {"rack_up": "rack_uplink", "zone_up": "inter_zone"}
    for link in cluster.fabric.iter_links():
        links.append(_link(-1, link.name, link.sched, link.tier))
        tier = egress_tiers.get(link.tier)
        if tier is not None:
            tier_bytes[tier] += sum(link.sched.bytes_by_class.values())
            tier_busy_time[tier] += link.sched.busy_time

    return FlowUsage(
        elapsed=elapsed,
        events_processed=cluster.sim.events_processed,
        links=links,
        bytes_by_class=bytes_by_class,
        mean_uplink_utilization=(
            sum(uplink_utils) / len(uplink_utils) if uplink_utils else 0.0
        ),
        max_uplink_utilization=max(uplink_utils, default=0.0),
        control_messages=control_messages,
        tier_bytes=tier_bytes,
        tier_busy_time=tier_busy_time,
        cross_rack_fraction=(
            tier_bytes["rack_uplink"] / nic_bytes if nic_bytes else 0.0
        ),
        cross_zone_fraction=(
            tier_bytes["inter_zone"] / nic_bytes if nic_bytes else 0.0
        ),
        fastpath=cluster.fastpath_stats.as_dict(),
    ).as_dict()


def rack_interleaved_delays(
    num_racks: int, nodes_per_rack: int, eps: float = 2e-4
) -> list[float]:
    """Per-node arrival delays whose order round-robins across racks.

    Synchronized id-ordered arrival happens to build rack-contiguous
    broadcast chains and reduce trees even without topology awareness; this
    arrival pattern models placement *uncorrelated* with node ids — node 0,
    then the first node of every other rack, then everyone's second node,
    and so on, ``eps`` apart — which is where topology-oblivious trees
    scatter their edges across the shared tier links.  Used by the topology
    benchmarks, the regression tests, and the example.
    """
    order = [
        rack * nodes_per_rack + index
        for index in range(nodes_per_rack)
        for rack in range(num_racks)
    ]
    delays = [0.0] * (num_racks * nodes_per_rack)
    for position, node_id in enumerate(order):
        delays[node_id] = position * eps
    return delays


# ---------------------------------------------------------------------------
# The scenario model
# ---------------------------------------------------------------------------

#: each collective's pipelined analytical optimum: (nodes, nbytes, bandwidth).
_OPTIMA: dict[str, Callable[[int, int, float], float]] = {
    "p2p": lambda n, size, bandwidth: 2.0 * size / bandwidth,
    "broadcast": lambda n, size, bandwidth: size / bandwidth,
    "gather": lambda n, size, bandwidth: (n - 1) * size / bandwidth,
    "reduce": lambda n, size, bandwidth: size / bandwidth,
    "allreduce": lambda n, size, bandwidth: 2.0 * size / bandwidth * (n - 1) / n,
    "allgather": lambda n, size, bandwidth: (n - 1) * size / bandwidth,
    "alltoall": lambda n, size, bandwidth: (n - 1) * size / bandwidth,
}

#: the collectives the orchestrator runs (see :func:`_collective_spec`).
_ORCHESTRATED = ("broadcast", "reduce", "allreduce", "allgather", "reduce_scatter", "alltoall")


@dataclass(frozen=True)
class Kill:
    """One mid-run kill of a collective that runs through the orchestrator.

    ``target`` names the victim: ``"driver"`` is node 0 (the root of the
    rooted collectives, rank 0 of the others), which rejoins ``downtime``
    seconds later; ``"directory"`` is directory shard ``shard_id``, which
    loses its record table and replays its WAL (checkpoint + tail);
    ``"lineage"`` is the lineage/ownership services, which
    :meth:`~repro.tasksys.orchestrator.CollectiveOrchestrator.replay_after_restart`
    rebuilds; ``"both"`` is the last two at once.

    The kill lands at ``at``, or at ``fraction`` of the fault-free run,
    which :func:`run` measures first (the simulation is deterministic, so
    the calibration is exact).  With neither, nothing is killed: the
    orchestrated run is the baseline.
    """

    target: str = "driver"
    at: Optional[float] = None
    fraction: Optional[float] = None
    downtime: float = 0.5
    shard_id: int = 0
    #: simulated seconds the run may take: a wedged collective keeps
    #: scheduling retry timeouts, so an unbounded run would never return.
    budget: float = 600.0

    def __post_init__(self) -> None:
        if self.target not in ("driver", "directory", "lineage", "both"):
            raise ValueError("target must be 'driver', 'directory', 'lineage', or 'both'")
        if self.fraction is not None:
            if self.at is not None:
                raise ValueError("pass either at or fraction, not both")
            if not 0.0 < self.fraction < 1.0:
                raise ValueError("fraction must be in (0, 1)")


@dataclass(frozen=True)
class Scenario:
    """One measurement: a collective, the system running it, and its faults.

    ``collective`` is ``"p2p"``, ``"broadcast"``, ``"gather"``,
    ``"reduce"``, ``"allreduce"``, ``"allgather"`` or ``"alltoall"``; with
    a :attr:`kill`, also ``"reduce_scatter"`` (but not gather or p2p).  A
    control-plane kill needs the ``"hoplite"`` system.
    """

    collective: str
    system: str = "hoplite"
    nodes: int = 2
    nbytes: int = 0
    #: participant arrivals: a fixed interval (participant ``k`` arrives at
    #: ``k * interval``) or one delay per participant.  The static systems
    #: count every rank; the object-plane broadcast counts its receivers.
    arrivals: Union[float, Sequence[float]] = 0.0
    network: Optional[NetworkConfig] = None
    options: Optional[HopliteOptions] = None
    #: node failures, installed when the cluster is built.
    failures: Sequence[FailureEvent] = ()
    #: directory-shard kills, installed when the object plane is built.
    shard_kills: Sequence[ControlPlaneFailureEvent] = ()
    kill: Optional[Kill] = None
    #: whether transfers may coalesce (``Cluster(fast_paths=)``); off, every
    #: block takes the per-block path, with identical simulated results.
    fast_paths: bool = True


def supported(system: str, collective: str, kill: Optional[Kill] = None) -> bool:
    """Whether ``system`` implements ``collective`` (run under ``kill``)."""
    if kill is not None:
        if collective not in _ORCHESTRATED or (kill.target != "driver" and system != "hoplite"):
            return False
    elif collective not in _OPTIMA:
        return False
    elif system == "optimal":
        return True
    return system in PLANES or (system, collective) in STATIC_OPS


def run(scenario: Scenario, observe: Optional[Callable[[Cluster], None]] = None) -> dict:
    """Run ``scenario`` on a fresh cluster and report what it measured.

    ``observe`` is called with the cluster as soon as it is built, before
    any fault or plane is installed: flight recorders and test probes go
    there.  Once the queue has drained the run closes the plane's runtime
    and then the cluster (:meth:`~repro.net.cluster.Cluster.close`), so a
    kept cluster has its counters but no listeners; a run that a kill
    budget stops with events still queued stays open.  Returns a dict
    with ``latency`` (simulated seconds),
    ``optimum`` (the collective's analytic optimum, ``None`` if it has
    none), ``usage`` (:func:`collect_flow_usage`; ``None`` for the
    ``"optimal"`` system, which simulates nothing), ``events`` (kernel
    events processed) and ``recovery``.  ``recovery`` is ``None`` without a
    :attr:`Scenario.kill`; with one it holds ``fail_at``, ``baseline`` (the
    fault-free run, when calibrated), ``static_restart`` (what a control
    plane without WAL replay would post: the launcher reruns the whole
    collective after one failure-detection delay, ``fail_at + detection +
    baseline``) and, on the object planes, each directory shard's
    ``replay_applied`` and ``replay_self_check``.
    """
    s, kill = scenario, scenario.kill
    if s.system not in SUPPORTED_SYSTEMS:
        raise UnsupportedScenarioError(
            f"unknown system {s.system!r}; expected one of {SUPPORTED_SYSTEMS}"
        )
    if not supported(s.system, s.collective, kill):
        raise UnsupportedScenarioError(f"{s.system!r} does not implement {s.collective!r}")
    network = s.network or NetworkConfig()
    optimum = None
    if s.collective in _OPTIMA:
        optimum = _OPTIMA[s.collective](s.nodes, s.nbytes, network.bandwidth)
    if s.system == "optimal":
        return dict(latency=optimum, optimum=optimum, usage=None, events=0, recovery=None)
    if s.nodes < 2:
        raise ValueError(f"{s.collective} needs at least two nodes")
    baseline = None
    if kill is not None and kill.fraction is not None:
        baseline = run(replace(s, kill=replace(kill, fraction=None)))["latency"]
        kill = replace(kill, at=kill.fraction * baseline, fraction=None)

    cluster = Cluster(num_nodes=s.nodes, network=network, fast_paths=s.fast_paths)
    sim = cluster.sim
    if observe is not None:
        observe(cluster)
    schedule(cluster, s.failures)
    if kill is not None and kill.target == "driver" and kill.at is not None:
        cluster.schedule_failure(0, at=kill.at, recover_at=kill.at + kill.downtime)
    done: dict = {}
    plane = None
    if s.system in PLANES:
        plane = PLANES[s.system](cluster, s.options)
        schedule_control_plane(sim, s.shard_kills, directory=plane.runtime.directory)
        if kill is not None:
            _orchestrated(cluster, plane, s, kill, done)
        else:
            _PLANE_RUNS[s.collective](cluster, plane, s, done)
    else:
        make_op = lambda: STATIC_OPS[(s.system, s.collective)](cluster, s.nbytes)  # noqa: E731
        if kill is not None or s.collective in ("allgather", "alltoall"):
            _static_restarts(cluster, make_op, s.nodes, done)
        else:
            _STATIC_RUNS[s.collective](cluster, make_op(), s, done)
    sim.run(kill.budget if kill is not None else None)
    if "latency" not in done:
        bound = f"within {kill.budget} simulated seconds" if kill else "(unrecovered failure?)"
        raise RuntimeError(f"{s.system} {s.collective} did not complete {bound}")

    recovery = None
    if kill is not None:
        recovery = {"fail_at": kill.at, "baseline": baseline}
        if baseline is not None:
            recovery["static_restart"] = kill.at + network.failure_detection_delay + baseline
        if plane is not None:
            shards = plane.runtime.directory.shards
            recovery["replay_applied"] = [shard.last_replay_applied for shard in shards]
            recovery["replay_self_check"] = [shard.replay_self_check for shard in shards]
    usage = collect_flow_usage(cluster)
    if sim.peek() == float("inf"):
        # Drained (a kill budget may stop the run with events queued): cut
        # the run's back-references, as run_fleet does, so reference
        # counting frees it instead of the cyclic collector.
        if plane is not None:
            plane.runtime.close()
        cluster.close()
    return {
        "latency": done["latency"],
        "optimum": optimum,
        "usage": usage,
        "events": sim.events_processed,
        "recovery": recovery,
    }


def _delays(arrivals: Union[float, Sequence[float]], count: int) -> list[float]:
    """Per-participant arrival delays (a fixed interval, or given per participant)."""
    if isinstance(arrivals, (int, float)):
        return [index * arrivals for index in range(count)]
    if len(arrivals) != count:
        raise ValueError(f"expected {count} arrival delays, got {len(arrivals)}")
    return [float(delay) for delay in arrivals]


# ---------------------------------------------------------------------------
# Object-plane runners: each installs its processes and, when the
# measurement window closes, sets ``done["latency"]``.
# ---------------------------------------------------------------------------


def _plane_p2p(cluster: Cluster, plane, s: Scenario, done: dict) -> None:
    sim = cluster.sim
    ping_id = ObjectID.of("p2p-ping")
    pong_id = ObjectID.of("p2p-pong")

    def _sender() -> Generator:
        yield from plane.put(cluster.node(0), ping_id, ObjectValue.of_size(s.nbytes))
        yield from plane.get(cluster.node(0), pong_id)
        done["latency"] = sim.now

    def _responder() -> Generator:
        yield from plane.get(cluster.node(1), ping_id)
        yield from plane.put(cluster.node(1), pong_id, ObjectValue.of_size(s.nbytes))

    sim.process(_sender(), name="p2p-sender")
    sim.process(_responder(), name="p2p-responder")


def _plane_broadcast(cluster: Cluster, plane, s: Scenario, done: dict) -> None:
    sim = cluster.sim
    object_id = ObjectID.unique(cluster, "bcast")
    delays = _delays(s.arrivals, s.nodes - 1)

    def _scenario() -> Generator:
        # The sender's Put completes before the measurement window opens.
        yield from plane.put(cluster.node(0), object_id, ObjectValue.of_size(s.nbytes))
        epoch = sim.now
        finish_times: list[float] = []

        def _receiver(node_id: int, delay: float) -> Generator:
            if delay > 0:
                yield sim.timeout(delay)
            yield from plane.get(cluster.node(node_id), object_id)
            finish_times.append(sim.now - epoch)

        receivers = [
            sim.process(_receiver(node_id, delays[node_id - 1]), name=f"bcast-recv-{node_id}")
            for node_id in range(1, s.nodes)
        ]
        yield sim.all_of(receivers)
        done["latency"] = max(finish_times)

    sim.process(_scenario(), name="bcast-scenario")


def _plane_gather(cluster: Cluster, plane, s: Scenario, done: dict) -> None:
    sim = cluster.sim
    object_ids = [ObjectID.unique(cluster, f"gather-{i}") for i in range(1, s.nodes)]

    def _scenario() -> Generator:
        puts = [
            sim.process(
                plane.put(cluster.node(node_id), object_id, ObjectValue.of_size(s.nbytes)),
                name=f"gather-put-{node_id}",
            )
            for node_id, object_id in enumerate(object_ids, start=1)
        ]
        yield sim.all_of(puts)
        epoch = sim.now
        gets = [
            sim.process(plane.get(cluster.node(0), object_id), name=f"gather-get-{object_id}")
            for object_id in object_ids
        ]
        yield sim.all_of(gets)
        done["latency"] = sim.now - epoch

    sim.process(_scenario(), name="gather-scenario")


def _plane_reduce(cluster: Cluster, plane, s: Scenario, done: dict) -> None:
    """Reduce at node 0; the caller (reduce) or every node (allreduce) ``Get``s.

    In the synchronized case every ``Put`` completes before the ``Reduce``
    is issued (Figure 7); with staggered arrivals the ``Reduce`` is issued
    at once and objects trickle in (Figure 8b).  The result ``Get``s run
    concurrently with the Reduce, so the result streams out as it is
    produced (Sections 3.3 and 3.4.3).
    """
    sim, n, name = cluster.sim, s.nodes, s.collective
    delays = _delays(s.arrivals, n)
    source_ids = [ObjectID.unique(cluster, f"{name}-src-{i}") for i in range(n)]
    target_id = ObjectID.unique(cluster, f"{name}-target")

    def _producer(node_id: int, delay: float) -> Generator:
        if delay > 0:
            yield sim.timeout(delay)
        yield from plane.put(
            cluster.node(node_id), source_ids[node_id], ObjectValue.of_size(s.nbytes)
        )

    def _scenario() -> Generator:
        producers = [
            sim.process(_producer(node_id, delays[node_id]), name=f"{name}-put-{node_id}")
            for node_id in range(n)
        ]
        if max(delays) <= 0.0:
            yield sim.all_of(producers)
        epoch = sim.now
        reduce_proc = sim.process(
            plane.reduce(cluster.node(0), target_id, source_ids, ReduceOp.SUM),
            name=f"{name}-call",
        )
        if name == "reduce":
            yield from plane.get(cluster.node(0), target_id)
        else:
            fetchers = [
                sim.process(
                    plane.get(cluster.node(node_id), target_id), name=f"{name}-get-{node_id}"
                )
                for node_id in range(n)
            ]
            yield sim.all_of(fetchers)
        yield reduce_proc
        done["latency"] = sim.now - epoch

    sim.process(_scenario(), name=f"{name}-scenario")


def _plane_exchange(cluster: Cluster, plane, s: Scenario, done: dict) -> None:
    """Allgather or alltoall; every participant rides through node failures.

    Allgather: every node gathers all ``n`` objects once every ``Put`` has
    completed.  The pipelined bound is ``S_total / B + L * log n`` with
    ``S_total = n * nbytes``: each downlink absorbs almost the whole
    gathered payload, and the broadcast trees add a logarithmic latency
    term.  Alltoall: a personalized exchange, ``nbytes`` per pair, timed
    with its sends.  A participant retries after its own node's failure;
    with failures scheduled, each node also re-``Put``s its objects after
    every rejoin.
    """
    sim, n, name = cluster.sim, s.nodes, s.collective
    if name == "allgather":
        source_ids = [ObjectID.unique(cluster, f"allgather-{i}") for i in range(n)]
        values = [ObjectValue.of_size(s.nbytes) for _ in range(n)]
        sends = lambda node_id: [(source_ids[node_id], values[node_id])]  # noqa: E731
        share = lambda node_id: plane.allgather(cluster.node(node_id), source_ids)  # noqa: E731
    else:
        pair_ids = {
            (src, dst): ObjectID.unique(cluster, f"alltoall-{src}-{dst}")
            for src in range(n)
            for dst in range(n)
            if src != dst
        }
        sends = lambda node_id: [  # noqa: E731
            (pair_ids[(node_id, dst)], ObjectValue.of_size(s.nbytes))
            for dst in range(n)
            if dst != node_id
        ]
        share = lambda node_id: plane.alltoall(  # noqa: E731
            cluster.node(node_id),
            sends(node_id),
            [pair_ids[(src, node_id)] for src in range(n) if src != node_id],
        )
    finish_times: list[float] = []

    def _producer(node_id: int) -> Generator:
        yield from retry_across_failures(
            cluster,
            node_id,
            lambda: plane.put(cluster.node(node_id), source_ids[node_id], values[node_id]),
        )

    def _participant(node_id: int, epoch: float) -> Generator:
        yield from retry_across_failures(cluster, node_id, lambda: share(node_id))
        finish_times.append(sim.now - epoch)

    def _scenario() -> Generator:
        # Reconstructors go in before any Put so a producer that fails right
        # after its own Put (while others are still putting) is still re-Put.
        if s.failures:
            for node_id in range(n):
                sim.process(
                    reconstruct_on_recovery(cluster, plane, node_id, sends(node_id)),
                    name=f"{name}-reconstruct-{node_id}",
                )
        if name == "allgather":
            producers = [
                sim.process(_producer(node_id), name=f"allgather-put-{node_id}")
                for node_id in range(n)
            ]
            yield sim.all_of(producers)
        epoch = sim.now
        participants = [
            sim.process(_participant(node_id, epoch), name=f"{name}-node-{node_id}")
            for node_id in range(n)
        ]
        yield sim.all_of(participants)
        done["latency"] = max(finish_times)

    sim.process(_scenario(), name=f"{name}-scenario")


_PLANE_RUNS = {
    "p2p": _plane_p2p,
    "broadcast": _plane_broadcast,
    "gather": _plane_gather,
    "reduce": _plane_reduce,
    "allreduce": _plane_reduce,
    "allgather": _plane_exchange,
    "alltoall": _plane_exchange,
}


def _collective_spec(
    cluster: Cluster, collective: str, num_nodes: int, nbytes: int, tag: str
) -> CollectiveSpec:
    """Build the durable spec for one orchestrated measurement."""
    participants = list(range(num_nodes))
    value = lambda: ObjectValue.of_size(nbytes)  # noqa: E731
    if collective == "broadcast":
        return CollectiveSpec.broadcast(
            tag, 0, participants, ObjectID.unique(cluster, f"{tag}-obj"), value()
        )
    if collective in ("reduce", "allreduce"):
        sources = {i: ObjectID.unique(cluster, f"{tag}-src{i}") for i in participants}
        return CollectiveSpec.reduce(
            tag,
            0,
            participants,
            sources,
            ObjectID.unique(cluster, f"{tag}-target"),
            {sources[i]: value() for i in participants},
            ReduceOp.SUM,
            allreduce=collective == "allreduce",
        )
    if collective == "allgather":
        sources = {i: ObjectID.unique(cluster, f"{tag}-src{i}") for i in participants}
        return CollectiveSpec.allgather(
            tag, participants, sources, {sources[i]: value() for i in participants}
        )
    if collective == "reduce_scatter":
        matrix = {
            (i, j): ObjectID.unique(cluster, f"{tag}-{i}-{j}")
            for i in participants
            for j in participants
        }
        targets = {j: ObjectID.unique(cluster, f"{tag}-shard{j}") for j in participants}
        return CollectiveSpec.reduce_scatter(
            tag, participants, matrix, targets, {oid: value() for oid in matrix.values()}
        )
    matrix = {
        (src, dst): ObjectID.unique(cluster, f"{tag}-{src}-{dst}")
        for src in participants
        for dst in participants
        if src != dst
    }
    return CollectiveSpec.alltoall(
        tag, participants, matrix, {object_id: value() for object_id in matrix.values()}
    )


def _orchestrated(cluster: Cluster, plane, s: Scenario, kill: Kill, done: dict) -> None:
    """The collective as lineage-recorded driver tasks, with ``kill`` applied.

    Every share is a driver task: the root share migrates to an alive node,
    and re-executions adopt surviving partials through the directory, so a
    driver kill costs roughly one failure-detection delay plus the lost
    share's work.  A control-plane kill parks requests to the dead
    component until it has replayed its write-ahead log.
    """
    sim = cluster.sim
    orchestrator = CollectiveOrchestrator(TaskSystem(cluster, plane))
    prefix = "drvfail" if kill.target == "driver" else "ctlfail"
    spec = _collective_spec(cluster, s.collective, s.nodes, s.nbytes, f"{prefix}-{s.system}")

    def _killer() -> Generator:
        yield sim.timeout(kill.at)
        if kill.target in ("directory", "both"):
            directory = plane.runtime.directory
            directory.fail_shard(kill.shard_id % len(directory.shards))
        if kill.target in ("lineage", "both"):
            orchestrator.kill_control_plane()

    if kill.target != "driver" and kill.at is not None:
        sim.process(_killer(), name="control-plane-killer")

    def _driver() -> Generator:
        outcome = yield from orchestrator.invoke(spec)
        done["latency"] = outcome.completion_time

    sim.process(_driver(), name="orchestrated-scenario")


# ---------------------------------------------------------------------------
# Static-system runners
# ---------------------------------------------------------------------------


def _static_p2p(cluster: Cluster, mpi, s: Scenario, done: dict) -> None:
    sim = cluster.sim

    def _round_trip() -> Generator:
        yield from mpi.send(0, 1, s.nbytes)
        yield from mpi.send(1, 0, s.nbytes)
        done["latency"] = sim.now

    sim.process(_round_trip(), name="p2p-mpi")


def _static_ranks(cluster: Cluster, op, s: Scenario, done: dict) -> None:
    """One process per rank; the latency is the last rank's finish (reduce:
    the root's)."""
    sim, n = cluster.sim, s.nodes
    delays = _delays(s.arrivals, n)
    finishes: dict[int, float] = {}

    def _rank(rank: int, delay: float) -> Generator:
        if delay > 0:
            yield sim.timeout(delay)
        result = yield from op.participate(rank)
        finishes[rank] = result.finish_time
        if len(finishes) == n:
            done["latency"] = finishes[0] if s.collective == "reduce" else max(finishes.values())

    for rank in range(n):
        sim.process(_rank(rank, delays[rank]), name=f"{s.collective}-rank-{rank}")


def _static_restarts(cluster: Cluster, make_op, num_ranks: int, done: dict) -> None:
    """Run a static collective, restarting the whole job after node failures.

    Static (MPI/Gloo-style) collectives have no intra-operation fault
    tolerance: a failed rank aborts the job and the launcher re-runs it once
    the node rejoins.  Aborted attempts interrupt every rank process so no
    partial state leaks into the retry.
    """
    sim = cluster.sim

    def _rank(op, rank: int) -> Generator:
        rank_result = yield from op.participate(rank)
        return rank_result.finish_time

    def _job() -> Generator:
        while True:
            op = make_op()
            rank_procs = [
                sim.process(_rank(op, rank), name=f"static-rank-{rank}")
                for rank in range(num_ranks)
            ]
            all_done = sim.all_of(rank_procs)
            any_failure = sim.any_of([node.failure_event() for node in cluster.nodes])
            aborted = False
            try:
                yield sim.any_of([all_done, any_failure])
                aborted = not all_done.triggered
            except TransferError:
                aborted = True
            if not aborted:
                done["latency"] = max(all_done.value)
                return
            for proc in rank_procs:
                if proc.is_alive:
                    proc.interrupt("static collective restart")
            while not all(node.alive for node in cluster.nodes):
                dead = next(node for node in cluster.nodes if not node.alive)
                yield dead.recovery_event()
            # The launcher pays one failure-detection delay before it can
            # observe the rejoin and respawn the job — the same delay the
            # object planes' task resubmission pays.
            yield sim.timeout(cluster.config.failure_detection_delay)

    sim.process(_job(), name="static-job")


_STATIC_RUNS = {
    "p2p": _static_p2p,
    "broadcast": _static_ranks,
    "gather": _static_ranks,
    "reduce": _static_ranks,
    "allreduce": _static_ranks,
}


# ---------------------------------------------------------------------------
# Figure-facing entry points
# ---------------------------------------------------------------------------


def _latency(collective: str, system: str, num_nodes: int, nbytes: int, **fields) -> float:
    return run(Scenario(collective, system, num_nodes, nbytes, **fields))["latency"]


def measure_broadcast(
    system: str,
    num_nodes: int,
    nbytes: int,
    arrival_interval: float = 0.0,
    arrival_delays: Optional[Sequence[float]] = None,
    network: Optional[NetworkConfig] = None,
    options: Optional[HopliteOptions] = None,
) -> float:
    """Latency of broadcasting one object from node 0 to all other nodes.

    For the static systems the per-rank ``arrival_delays`` (or the uniform
    ``arrival_interval``) cover all ``num_nodes`` ranks including the root;
    for the object-plane systems they cover the ``num_nodes - 1`` receivers.
    """
    arrivals = arrival_interval if arrival_delays is None else arrival_delays
    return _latency(
        "broadcast", system, num_nodes, nbytes, arrivals=arrivals, network=network, options=options
    )


def measure_gather(
    system: str,
    num_nodes: int,
    nbytes: int,
    network: Optional[NetworkConfig] = None,
    options: Optional[HopliteOptions] = None,
) -> float:
    """Latency for node 0 to gather one object from every other node."""
    return _latency("gather", system, num_nodes, nbytes, network=network, options=options)


def measure_reduce(
    system: str,
    num_nodes: int,
    nbytes: int,
    arrival_interval: float = 0.0,
    arrival_delays: Optional[Sequence[float]] = None,
    network: Optional[NetworkConfig] = None,
    options: Optional[HopliteOptions] = None,
) -> float:
    """Latency of reducing one object per node into a single result at node 0."""
    arrivals = arrival_interval if arrival_delays is None else arrival_delays
    return _latency(
        "reduce", system, num_nodes, nbytes, arrivals=arrivals, network=network, options=options
    )


def measure_allreduce(
    system: str,
    num_nodes: int,
    nbytes: int,
    arrival_interval: float = 0.0,
    arrival_delays: Optional[Sequence[float]] = None,
    network: Optional[NetworkConfig] = None,
    options: Optional[HopliteOptions] = None,
) -> float:
    """Latency for every node to hold the reduction of one object per node."""
    arrivals = arrival_interval if arrival_delays is None else arrival_delays
    return _latency(
        "allreduce", system, num_nodes, nbytes, arrivals=arrivals, network=network, options=options
    )


def measure_allgather(
    system: str,
    num_nodes: int,
    nbytes: int,
    network: Optional[NetworkConfig] = None,
    options: Optional[HopliteOptions] = None,
    failures: Optional[Sequence[FailureEvent]] = None,
) -> float:
    """Latency for every node to hold one object (``nbytes``) from every node."""
    fields = dict(network=network, options=options, failures=failures or ())
    return _latency("allgather", system, num_nodes, nbytes, **fields)


def measure_alltoall(
    system: str,
    num_nodes: int,
    nbytes: int,
    network: Optional[NetworkConfig] = None,
    options: Optional[HopliteOptions] = None,
    failures: Optional[Sequence[FailureEvent]] = None,
) -> float:
    """Latency of a personalized all-to-all exchange (``nbytes`` per pair)."""
    fields = dict(network=network, options=options, failures=failures or ())
    return _latency("alltoall", system, num_nodes, nbytes, **fields)


def measure_driver_failure(
    system: str,
    num_nodes: int,
    nbytes: int,
    collective: str = "allreduce",
    fail_at: Optional[float] = None,
    fail_fraction: Optional[float] = None,
    downtime: float = 0.5,
    budget: float = 600.0,
    network: Optional[NetworkConfig] = None,
    options: Optional[HopliteOptions] = None,
) -> float:
    """Completion time of one collective whose **caller/root node dies**.

    Node 0 fails at ``fail_at`` (or at ``fail_fraction`` of the fault-free
    run) and rejoins ``downtime`` seconds later; with neither, the run is
    the failure-free baseline.  The object planes recover through the
    orchestrator's lineage (see :class:`Kill`); the static systems model
    the MPI failure semantics: the job aborts and the launcher restarts the
    whole collective once every node is back, so their recovery time is
    bounded below by the downtime plus a full re-run.
    """
    kill = Kill("driver", fail_at, fail_fraction, downtime, budget=budget)
    return _latency(
        collective, system, num_nodes, nbytes, network=network, options=options, kill=kill
    )


def measure_control_plane_failure(
    num_nodes: int,
    nbytes: int,
    collective: str = "allgather",
    target: str = "directory",
    shard_id: int = 0,
    fail_at: Optional[float] = None,
    fail_fraction: Optional[float] = None,
    budget: float = 600.0,
    network: Optional[NetworkConfig] = None,
    options: Optional[HopliteOptions] = None,
) -> float:
    """Completion time of one Hoplite collective whose **control plane dies**.

    ``target`` is ``"directory"``, ``"lineage"`` or ``"both"`` (see
    :class:`Kill`); ``fail_at=None`` with no ``fail_fraction`` runs
    failure-free (the baseline).  :func:`run` on the same scenario also
    reports the recovery accounting, ``static_restart`` among it.
    """
    if target not in ("directory", "lineage", "both"):
        raise ValueError("target must be 'directory', 'lineage', or 'both'")
    kill = Kill(target, fail_at, fail_fraction, shard_id=shard_id, budget=budget)
    return _latency(
        collective, "hoplite", num_nodes, nbytes, network=network, options=options, kill=kill
    )
