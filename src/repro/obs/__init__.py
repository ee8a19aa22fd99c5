"""The simulated-time observability plane.

One :class:`Observability` instance per :class:`~repro.net.cluster.Cluster`
(installed via ``cluster.enable_observability()``, the one attach point for
observers) bundles:

* a :class:`~repro.obs.metrics.MetricsRegistry` recording counters and
  exact histograms against the cluster's **simulated** clock;
* a :class:`~repro.obs.trace.Tracer` recording the logical structure of a
  run as span trees: fleet ``op:`` spans, ``collective:`` roots and
  ``task:`` attempts, linked through orchestrator lineage;
* the flight recorder (:mod:`repro.obs.flight`), installed as
  ``cluster.flight`` and the sole owner of the kernel's ``sim.on_pop``
  slot: the only record of data movement on the simulated clock
  (per-block submit, grant, release, arrival and reduce compute);
* the instrumentation glue: the per-link ``control_messages`` children,
  the fast-path counter mirror and the node membership listeners.

The link families are not recorded a second time: ``link_bytes`` (per
link direction, bucketed by release time) and ``link_grant_wait_seconds``
(``grant - submit``, stamped at release) are derived from
:func:`repro.obs.flight.timeline` whenever the registry is read, so they
are the same with the fast paths on and off, and raise ``ValueError`` on a
ring that dropped records.  Critical-path blame and the Chrome trace read
the same timeline.  The event count is ``sim.events_processed``.

Everything is opt-in and zero-overhead when off: with no plane installed,
every call site pays exactly one ``is not None`` branch (``cluster.obs``,
``cluster.flight``, ``sched._obs_control``), and the differential digests
prove that enabling the plane changes no simulated result.

Label taxonomy (documented in ROADMAP perf notes):

``tenant`` / ``job`` / ``op`` / ``size``
    fleet-scenario identity: who issued the collective, which app kind,
    which primitive, which size bucket (``evaluate_slos`` keys on these);
``link`` / ``tier``
    link identity (``n3/up``, ``rack0/up``) and its fabric tier (``nic``,
    ``rack_up``, ``rack_down``, ``zone_up``, ``zone_down``);
``cls``
    flow class (``control`` / ``reduce_partial`` / ``bulk``);
``kind``
    fast-path event kind (:data:`repro.net.fastpath.COUNTER_KEYS`).
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING

from repro.net.fastpath import COUNTER_KEYS
from repro.net.flowsched import FlowClass
from repro.obs.flight import FlightRecorder, timeline
from repro.obs.export import (
    SLORow,
    SLOTarget,
    evaluate_slos,
    format_slo_table,
    to_json,
    to_prometheus,
)
from repro.obs.chrometrace import dump_chrome_trace, to_chrome_trace
from repro.obs.metrics import MetricsRegistry, nearest_rank
from repro.obs.trace import Span, Tracer
from repro.sim import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.cluster import Cluster

__all__ = [
    "Observability",
    "MetricsRegistry",
    "Tracer",
    "Span",
    "SLOTarget",
    "SLORow",
    "evaluate_slos",
    "format_slo_table",
    "to_prometheus",
    "to_json",
    "nearest_rank",
    "to_chrome_trace",
    "dump_chrome_trace",
]


class Observability:
    """Metrics, tracing and the flight recorder for one cluster."""

    def __init__(self, cluster: "Cluster", window: float = 0.1):
        if cluster.obs is not None:
            raise ValueError("cluster already has an observability plane")
        sim = cluster.sim
        if sim.on_pop is not None:
            raise SimulationError(
                "sim.on_pop already has an owner; the flight recorder needs it"
            )
        self.cluster = cluster
        cluster.flight = FlightRecorder(sim, cluster.fabric.latency)
        sim.on_pop = cluster.flight.record_pop
        self.registry = MetricsRegistry(sim, window=window)
        self.tracer = Tracer(sim)
        #: ``(time, node_id, "down"|"up")`` membership transitions, in
        #: order — the critical-path profiler turns these into detection
        #: windows (``config.failure_detection_delay`` after each "down").
        self.node_events: list[tuple[float, int, str]] = []

        # -- families ------------------------------------------------------
        registry = self.registry
        self._grant_waits = registry.histogram(
            "link_grant_wait_seconds",
            "admission wait from reservation submission to grant",
            ("cls",),
        )
        self._fastpath = {
            key: registry.counter(
                "fastpath_events", "fast-path planner events", ("kind",)
            ).labels(kind=key)
            for key in COUNTER_KEYS
        }
        self._link_bytes = registry.counter(
            "link_bytes", "bytes granted on a link direction", ("link", "tier", "cls")
        )
        control_family = registry.counter(
            "control_messages", "control-plane RPCs sent", ("link", "tier")
        )
        control_plane_family = registry.counter(
            "control_plane_ops",
            "durability-layer operations: WAL appends, checkpoints, "
            "replays, cross-shard directory RPCs",
            ("op",),
        )
        #: pre-built children for the control-plane durability hot paths.
        self.control_plane = {
            op: control_plane_family.labels(op=op)
            for op in ("wal_appends", "checkpoints", "replays", "shard_rpcs")
        }

        # -- install ------------------------------------------------------
        links = [
            (sched, f"n{node.node_id}/{direction}", "nic")
            for node in cluster.nodes
            for direction, sched in (("up", node.uplink_sched), ("down", node.downlink_sched))
        ]
        links += [(link.sched, link.name, link.tier) for link in cluster.fabric.iter_links()]
        for sched, name, tier in links:
            sched._obs_control = control_family.labels(link=name, tier=tier)
        #: every link direction's ``(name, tier)``, in ``link_bytes`` order.
        self._links = [(name, tier) for _sched, name, tier in links]
        #: flight records (kept plus dropped) the link families were built from.
        self._collected = -1
        registry.collect = self._collect_links
        for node in cluster.nodes:
            node.on_failure(self._on_node_down)
            node.on_recovery(self._on_node_up)
        cluster.fastpath_stats.on_event = self._on_fastpath_event
        cluster.obs = self

    def _collect_links(self) -> None:
        """Rebuild ``link_bytes`` and ``link_grant_wait_seconds`` from the
        flight timeline, unless no record arrived since the last build.

        Every block credits its bytes to its source uplink, its destination
        downlink and each shared tier link on its path, and its admission
        wait to its flow class, all at its release time.  Raises
        ``ValueError`` (from :func:`~repro.obs.flight.timeline`) if the
        recorder's ring dropped records.
        """
        flight = self.cluster.flight
        recorded = len(flight.records) + flight.dropped
        if recorded == self._collected:
            return
        transfers, _ = timeline(flight)
        self._link_bytes.children.clear()
        self._grant_waits.children.clear()
        waits = {cls.label: self._grant_waits.labels(cls=cls.label) for cls in FlowClass}
        link_bytes = {
            name: {
                cls.label: self._link_bytes.labels(link=name, tier=tier, cls=cls.label)
                for cls in FlowClass
            }
            for name, tier in self._links
        }
        path_links = self.cluster.fabric.path_links
        for block in sorted(transfers, key=attrgetter("release")):
            src, dst, at = block.src, block.dst, block.release
            waits[block.cls].observe(block.grant - block.submit, at=at)
            for name in (f"n{src}/up", f"n{dst}/down", *(x.name for x in path_links(src, dst))):
                link_bytes[name][block.cls].inc(block.nbytes, at=at)
        self._collected = recorded

    # -- hook bodies (called from the instrumented subsystems) -------------
    def _on_fastpath_event(self, key: str, n: int) -> None:
        self._fastpath[key].inc(n)

    def _on_node_down(self, node) -> None:
        self.node_events.append((self.cluster.sim._now, node.node_id, "down"))

    def _on_node_up(self, node) -> None:
        self.node_events.append((self.cluster.sim._now, node.node_id, "up"))
