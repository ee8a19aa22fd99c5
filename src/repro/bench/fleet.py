"""Multi-tenant fleet scenario: dozens of concurrent jobs on one fabric.

This is the observability plane's proving ground.  One oversubscribed
rack/zone fabric hosts a fleet of independent jobs — synchronous training,
model serving, MoE alltoall routing, and RL policy loops, one
:class:`~repro.core.runtime.HopliteRuntime` each — arriving open-loop with
Poisson (exponential inter-arrival) timing from a seeded RNG, so the whole
run is deterministic per seed.  Jobs belong to tenants; a tenant maps to an
admission :class:`~repro.net.flowsched.FlowClass` for its driver-level
fetch traffic (``prod`` rides the reduce-partial class ahead of ``batch``
bulk), which is how a real deployment would price-tier a shared fabric.

Every collective the drivers issue is recorded into the cluster's
observability plane as one ``fleet_op_latency_seconds`` observation labeled
``(tenant, op, size)`` — the cells the SLO evaluator scores — plus a
``fleet_job_ops`` counter per job.  Recording is optional: with
``observe=False`` the same fleet runs with no plane installed, and the
differential test in ``tests/test_fleet.py`` pins that the simulated
behaviour (the :meth:`FleetResult.digest`) is byte-identical either way.

The scenario also demonstrates the windowed series: congestion on the
shared rack uplinks (per-window ``link_bytes``) correlates with the
latency the fleet experiences in the same windows —
:func:`congestion_latency_correlation` computes that Pearson coefficient
from the recorded series alone.

The observability plane (:mod:`repro.obs`) loads on first use: only an
observed run imports it, so the SLO tables here are plain
``(op, size, p50, p99)`` rows that become
:class:`~repro.obs.export.SLOTarget` objects when a run scores them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from random import Random
from typing import TYPE_CHECKING, Generator, Optional

from repro.core.options import HopliteOptions
from repro.core.runtime import HopliteRuntime
from repro.net.cluster import Cluster
from repro.net.config import NetworkConfig
from repro.net.flowsched import Flow, FlowClass
from repro.net.topology import Topology
from repro.store.objects import ObjectID, ObjectValue, ReduceOp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.export import SLOTarget

KB = 1024
MB = 1024 * 1024

#: the op kinds a fleet job can issue (the ``op`` label values).
FLEET_OPS = ("allreduce", "broadcast", "gather", "alltoall")

#: job kinds, cycled over the fleet in arrival order.
JOB_KINDS = ("training", "serving", "moe", "rl")

#: nodes each job spans, sampled across the whole fabric.
NODES_PER_JOB = 4
#: mean seconds between job arrivals (open-loop Poisson).
ARRIVAL_MEAN = 0.001

#: the histogram family of op latencies (``repro.obs.export.evaluate_slos``
#: reads it too).
OP_LATENCY = "fleet_op_latency_seconds"

#: the shared tier links whose bytes :func:`congestion_latency_correlation`
#: correlates with op latency.
SHARED_TIERS = ("rack_up", "rack_down", "zone_up", "zone_down")


def size_label(nbytes: int) -> str:
    """Human size bucket used as the ``size`` label (``256KB``, ``4MB``)."""
    if nbytes % MB == 0:
        return f"{nbytes // MB}MB"
    if nbytes % KB == 0:
        return f"{nbytes // KB}KB"
    return f"{nbytes}B"


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a name and the admission class its fetch traffic rides."""

    name: str
    flow_class: FlowClass


#: the default two-tier tenancy: ``prod`` traffic is admitted ahead of
#: ``batch`` on every contended link (FlowClass order is admission order).
TENANTS = (
    TenantSpec("prod", FlowClass.REDUCE_PARTIAL),
    TenantSpec("batch", FlowClass.BULK),
)


@dataclass(frozen=True)
class FleetJobSpec:
    """One job of the fleet, fully determined before the simulation starts."""

    job_id: int
    tenant: TenantSpec
    kind: str
    nodes: tuple[int, ...]
    payload_bytes: int
    rounds: int
    arrival: float

    @property
    def name(self) -> str:
        return f"j{self.job_id}-{self.tenant.name}-{self.kind}"


@dataclass
class FleetResult:
    """Everything one fleet run produced."""

    duration: float
    specs: list[FleetJobSpec]
    #: job name -> simulated completion time.
    completions: dict[str, float]
    #: SLO verdicts (empty when the run was unobserved or had no targets).
    slo_rows: list = field(default_factory=list)
    #: Pearson r between windowed rack-uplink bytes and windowed mean op
    #: latency; ``None`` without a plane or with degenerate series.
    congestion_latency_r: Optional[float] = None
    #: per-op critical-path attributions (empty without a plane).
    op_blames: list = field(default_factory=list)
    #: the (tenant, op) blame cells rendered next to the SLO table.
    blame_rows: list = field(default_factory=list)
    obs: Optional[object] = None
    cluster: Optional[Cluster] = None

    @property
    def peak_concurrency(self) -> int:
        """Most jobs simultaneously in flight (arrived, not yet complete)."""
        events = []
        for spec in self.specs:
            done = self.completions.get(spec.name)
            if done is None:
                continue
            events.append((spec.arrival, 1))
            events.append((done, -1))
        peak = live = 0
        for _, delta in sorted(events):
            live += delta
            peak = max(peak, live)
        return peak

    def digest(self) -> tuple:
        """The simulated behaviour, as comparable data: who finished when."""
        return (
            round(self.duration, 12),
            tuple(sorted((name, round(t, 12)) for name, t in self.completions.items())),
        )


#: latency targets for the default (non-quick) fleet, in simulated seconds,
#: as ``(op, size, p50, p99)``.  Calibrated against the seed-0 run on the
#: 4x8 fabric with ~1.5-2x headroom over the slower tenant, so the committed
#: seed passes and a scheduling or admission regression that doubles tail
#: latency turns rows to FAIL.
DEFAULT_SLOS = (
    ("allreduce", "4MB", 0.060, 0.130),
    ("broadcast", "8MB", 0.055, 0.110),
    ("gather", "256KB", 0.025, 0.080),
    ("alltoall", "2MB", 0.055, 0.080),
)

#: targets for the shrunken --quick fleet (CI smoke), as above.
QUICK_SLOS = (
    ("allreduce", "512KB", 0.008, 0.013),
    ("broadcast", "1MB", 0.007, 0.010),
    ("gather", "32KB", 0.002, 0.003),
    ("alltoall", "256KB", 0.004, 0.007),
)


def build_fleet(
    num_jobs: int,
    num_nodes: int,
    seed: int = 0,
    quick: bool = False,
) -> list[FleetJobSpec]:
    """Draw a deterministic fleet: placements, sizes, and Poisson arrivals.

    One seeded :class:`random.Random` drives everything, so the same
    ``(num_jobs, num_nodes, seed, quick)`` always yields the same fleet.
    Placements are sampled across the whole fabric (uncorrelated with rack
    boundaries), which is what pushes traffic onto the shared tier links.
    """
    rng = Random(seed)
    scale = 1 if quick else 8
    sizes = {
        "training": 512 * KB * scale,  # gradient per worker
        "serving": MB * scale,  # model artifact
        "moe": 256 * KB * scale,  # expert shard per pair
        "rl": MB * scale,  # policy broadcast
    }
    specs: list[FleetJobSpec] = []
    clock = 0.0
    for job_id in range(num_jobs):
        clock += rng.expovariate(1.0 / ARRIVAL_MEAN)
        # Kinds advance every two jobs and tenants alternate, so every
        # (tenant, kind) pair occurs — a shared cycle length would pin each
        # kind to one tenant and leave half the SLO cells empty.
        kind = JOB_KINDS[(job_id // 2) % len(JOB_KINDS)]
        specs.append(
            FleetJobSpec(
                job_id=job_id,
                tenant=TENANTS[job_id % len(TENANTS)],
                kind=kind,
                nodes=tuple(rng.sample(range(num_nodes), NODES_PER_JOB)),
                payload_bytes=sizes[kind],
                rounds=2 if quick else 3,
                arrival=clock,
            )
        )
    return specs


class _FleetRecorder:
    """The fleet's metric families on one observability plane (or a no-op)."""

    def __init__(self, obs):
        self.obs = obs
        self.tracer = obs.tracer if obs is not None else None
        if obs is None:
            self.latency = None
            self.ops = None
            return
        self.latency = obs.registry.histogram(
            OP_LATENCY,
            "driver-observed collective latency",
            ("tenant", "op", "size"),
        )
        self.ops = obs.registry.counter(
            "fleet_job_ops", "collectives issued per job", ("tenant", "job", "op")
        )

    def begin_op(self, spec: FleetJobSpec, op: str):
        """An ``op:*`` span opening one measured window (None when unobserved).

        The span carries the SLO cell identity (tenant, op) so the
        critical-path profiler can aggregate blames into the same cells the
        SLO evaluator scores.
        """
        if self.tracer is None:
            return None
        return self.tracer.start_span(
            f"op:{op}",
            trace_id=f"fleet-{spec.name}",
            tenant=spec.tenant.name,
            op=op,
            job=spec.name,
        )

    def bind(self, span, *object_ids) -> None:
        """Attribute these objects' transfers from now on to ``span``."""
        if span is None:
            return
        for object_id in object_ids:
            self.tracer.bind_object(object_id, span)

    def record(
        self, spec: FleetJobSpec, op: str, nbytes: int, elapsed: float, span=None
    ) -> None:
        if span is not None:
            span.finish("ok")
        if self.latency is None:
            return
        tenant = spec.tenant.name
        self.latency.labels(tenant=tenant, op=op, size=size_label(nbytes)).observe(
            elapsed
        )
        self.ops.labels(tenant=tenant, job=spec.name, op=op).inc()


def _tenant_get(runtime, spec: FleetJobSpec, node_id: int, object_id) -> Generator:
    """A driver-level Get riding the tenant's admission class.

    The flow id matches the transport's ``get:{object}->n{node}`` shape, so
    the tracer's flow-to-object linkage keeps working for tenant traffic.
    """
    flow = Flow(f"get:{object_id}->n{node_id}", spec.tenant.flow_class)
    yield from runtime.client(node_id).get(object_id, flow=flow)


def _put(runtime, node_id: int, object_id, nbytes: int) -> Generator:
    yield from runtime.client(node_id).put(object_id, ObjectValue.of_size(nbytes))


def _training_job(sim, runtime, spec, recorder) -> Generator:
    """Per round: every worker puts a gradient, reduce, everyone fetches."""
    nodes = spec.nodes
    for r in range(spec.rounds):
        start = sim.now
        span = recorder.begin_op(spec, "allreduce")
        grad_ids = [
            ObjectID.unique(runtime.cluster, f"fleet-{spec.name}-grad{r}-n{nid}") for nid in nodes
        ]
        recorder.bind(span, *grad_ids)
        yield sim.all_of(
            [
                sim.process(_put(runtime, nid, gid, spec.payload_bytes))
                for nid, gid in zip(nodes, grad_ids)
            ]
        )
        target = ObjectID.unique(runtime.cluster, f"fleet-{spec.name}-update{r}")
        recorder.bind(span, target)
        yield from runtime.client(nodes[0]).reduce(target, grad_ids, ReduceOp.SUM)
        yield sim.all_of(
            [
                sim.process(_tenant_get(runtime, spec, nid, target))
                for nid in nodes
            ]
        )
        recorder.record(spec, "allreduce", spec.payload_bytes, sim.now - start, span)


def _broadcast_gather_job(
    payload: str, reply: str, shrink: int, sim, runtime, spec, recorder
) -> Generator:
    """Per round: broadcast a ``payload`` version, gather ``reply`` objects back.

    A reply is ``payload_bytes // shrink`` bytes, at least 1 KB.
    """
    driver, workers = spec.nodes[0], spec.nodes[1:]
    reply_bytes = max(KB, spec.payload_bytes // shrink)
    for r in range(spec.rounds):
        start = sim.now
        span = recorder.begin_op(spec, "broadcast")
        version = ObjectID.unique(runtime.cluster, f"fleet-{spec.name}-{payload}{r}")
        recorder.bind(span, version)
        yield from _put(runtime, driver, version, spec.payload_bytes)
        yield sim.all_of(
            [sim.process(_tenant_get(runtime, spec, nid, version)) for nid in workers]
        )
        recorder.record(spec, "broadcast", spec.payload_bytes, sim.now - start, span)

        start = sim.now
        span = recorder.begin_op(spec, "gather")
        replies = [
            ObjectID.unique(runtime.cluster, f"fleet-{spec.name}-{reply}{r}-n{nid}")
            for nid in workers
        ]
        recorder.bind(span, *replies)
        yield sim.all_of(
            [
                sim.process(_put(runtime, nid, rid, reply_bytes))
                for nid, rid in zip(workers, replies)
            ]
        )
        yield sim.all_of(
            [sim.process(_tenant_get(runtime, spec, driver, rid)) for rid in replies]
        )
        recorder.record(spec, "gather", reply_bytes, sim.now - start, span)


def _moe_job(sim, runtime, spec, recorder) -> Generator:
    """Per round: a personalized alltoall among the job's experts."""
    nodes = spec.nodes
    for r in range(spec.rounds):
        start = sim.now
        span = recorder.begin_op(spec, "alltoall")
        pair = {
            (src, dst): ObjectID.unique(runtime.cluster, f"fleet-{spec.name}-a2a{r}-{src}-{dst}")
            for src in nodes
            for dst in nodes
            if src != dst
        }
        recorder.bind(span, *pair.values())

        def participant(node_id: int) -> Generator:
            sends = [
                (pair[(node_id, dst)], ObjectValue.of_size(spec.payload_bytes))
                for dst in nodes
                if dst != node_id
            ]
            recv_ids = [pair[(src, node_id)] for src in nodes if src != node_id]
            yield from runtime.client(node_id).alltoall(sends, recv_ids)

        yield sim.all_of([sim.process(participant(nid)) for nid in nodes])
        recorder.record(spec, "alltoall", spec.payload_bytes, sim.now - start, span)


_JOB_BODIES = {
    "training": _training_job,
    "serving": partial(_broadcast_gather_job, "model", "resp", 32),
    "moe": _moe_job,
    "rl": partial(_broadcast_gather_job, "policy", "roll", 4),
}


def congestion_latency_correlation(registry) -> Optional[float]:
    """Pearson r between windowed tier-link bytes and windowed op latency.

    Both series come straight out of the registry: per-window ``link_bytes``
    increments summed over the shared tier links, and the per-window mean of
    the fleet latency histogram.  Windows with no completed op contribute
    nothing (there is no latency sample to correlate).  Returns ``None``
    when fewer than two windows overlap or a series is constant.
    """
    link_bytes = registry.families.get("link_bytes")
    latency = registry.families.get(OP_LATENCY)
    if link_bytes is None or latency is None:
        return None
    window = registry.window
    tier_idx = link_bytes.label_names.index("tier")

    congestion: dict[int, float] = {}
    for child in link_bytes.children.values():
        if child.label_values[tier_idx] not in SHARED_TIERS:
            continue
        for t, total in child.series():
            bucket = round(t / window)
            congestion[bucket] = congestion.get(bucket, 0.0) + total

    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for child in latency.children.values():
        for t, value in child.series():
            bucket = int(t / window)
            sums[bucket] = sums.get(bucket, 0.0) + value
            counts[bucket] = counts.get(bucket, 0) + 1
    if not counts:
        return None

    xs = []
    ys = []
    for bucket in sorted(counts):
        xs.append(congestion.get(bucket, 0.0))
        ys.append(sums[bucket] / counts[bucket])
    n = len(xs)
    if n < 2:
        return None
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0.0 or var_y == 0.0:
        return None
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return cov / (var_x * var_y) ** 0.5


def run_fleet(
    num_jobs: int = 24,
    num_racks: int = 4,
    nodes_per_rack: int = 8,
    oversubscription: float = 4.0,
    seed: int = 0,
    quick: bool = False,
    observe: bool = True,
    window: Optional[float] = None,
    slos: Optional[list[SLOTarget]] = None,
) -> FleetResult:
    """Run the multi-tenant fleet and (optionally) observe it.

    The fabric is ``num_racks`` racks of ``nodes_per_rack`` NICs behind
    ``oversubscription``:1 ToR uplinks, racks split over two zones.  Every
    job gets its own Hoplite runtime (its own directory and stores — the
    tenants share nothing but the fabric).  With ``observe=False`` the run
    is identical except that no plane is installed; with it, the result
    carries SLO verdicts, the congestion/latency correlation and the per-op
    blame (``result.op_blames``): each op records an ``op:`` span and the
    cluster's flight recorder fills with the per-block timeline, the two
    inputs of the blame and of the Chrome-trace export.

    Once the SLO rows and blame are computed, every runtime and then the
    cluster are closed (:meth:`~repro.net.cluster.Cluster.close`), so
    reference counting frees the fleet when the caller drops the result.
    ``result.cluster`` is therefore read-only: its clock, event count,
    ``fastpath_stats``, ``flight``, ``obs`` and link counters stay
    readable, but running it or spawning on it raises.
    """
    if window is None:
        # ~10-25 buckets over the run either way (quick fleets are shorter).
        window = 0.005 if quick else 0.02
    num_nodes = num_racks * nodes_per_rack
    half = num_racks // 2
    topology = Topology.racks(
        num_racks,
        nodes_per_rack,
        oversubscription=oversubscription,
        zones=tuple(0 if r < half else 1 for r in range(num_racks)),
        rack_latency=5.0e-5,
        zone_latency=1.0e-4,
    )
    cluster = Cluster(num_nodes=num_nodes, network=NetworkConfig(topology=topology))
    obs = cluster.enable_observability(window=window) if observe else None
    recorder = _FleetRecorder(obs)
    specs = build_fleet(num_jobs, num_nodes, seed=seed, quick=quick)

    sim = cluster.sim
    completions: dict[str, float] = {}
    runtimes = [
        HopliteRuntime(
            cluster, options=HopliteOptions(source_selection_seed=spec.job_id)
        )
        for spec in specs
    ]

    def job(spec: FleetJobSpec, runtime: HopliteRuntime) -> Generator:
        yield sim.timeout(spec.arrival)
        yield from _JOB_BODIES[spec.kind](sim, runtime, spec, recorder)
        completions[spec.name] = sim.now

    for spec, runtime in zip(specs, runtimes):
        sim.process(job(spec, runtime), name=f"fleet-{spec.name}")
    cluster.run()
    sim.check_failures()

    result = FleetResult(
        duration=sim.now,
        specs=specs,
        completions=completions,
        obs=obs,
        cluster=cluster,
    )
    if obs is not None:
        from repro.obs.critpath import aggregate_blames, op_blames
        from repro.obs.export import SLOTarget, evaluate_slos

        if slos is not None:
            targets = slos
        else:
            targets = [SLOTarget(*row) for row in (QUICK_SLOS if quick else DEFAULT_SLOS)]
        result.slo_rows = evaluate_slos(obs.registry, targets)
        result.congestion_latency_r = congestion_latency_correlation(obs.registry)
        result.op_blames = op_blames(obs)
        result.blame_rows = aggregate_blames(result.op_blames)
    for runtime in runtimes:
        runtime.close()
    cluster.close()
    return result
