"""The simulated-time observability plane.

One :class:`Observability` instance per :class:`~repro.net.cluster.Cluster`
(installed via ``cluster.enable_observability()``, the one attach point for
observers) bundles:

* a :class:`~repro.obs.metrics.MetricsRegistry` recording counters, gauges,
  and exact histograms against the cluster's **simulated** clock;
* a :class:`~repro.obs.trace.Tracer` recording the logical structure of a
  run as span trees: fleet ``op:`` spans, ``collective:`` roots and
  ``task:`` attempts, linked through orchestrator lineage;
* the instrumentation glue: it installs the per-link-scheduler
  byte/queue/control children, the fast-path counter mirror, the node
  membership listeners, and the grant-wait recorder the transport calls.

The plane itself installs no kernel hook: the event count is
``sim.events_processed``, which ``collect_flow_usage()`` reports as
``events_processed``.  ``enable_observability(trace_transfers=True)`` also
installs the flight recorder (:mod:`repro.obs.flight`) as ``cluster.flight``,
the sole owner of the kernel's ``sim.on_pop`` slot.  That recorder is the
only record of data movement on the simulated clock (per-block submit,
grant, release, arrival and reduce compute); the critical-path profiler
and the Chrome-trace export read it through :func:`repro.obs.flight.timeline`
and find each block's operation through the tracer's object bindings.

Everything is opt-in and zero-overhead when off: with no plane installed,
every call site pays exactly one ``is not None`` branch (``cluster.obs``,
``sched._obs_bytes``), and the differential digests prove that enabling
the plane changes no simulated result.

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

from typing import TYPE_CHECKING

from repro.net.fastpath import COUNTER_KEYS
from repro.net.flowsched import FlowClass
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
    """Metrics + tracing for one cluster, wired into every subsystem."""

    def __init__(self, cluster: "Cluster", window: float = 0.1):
        if cluster.obs is not None:
            raise ValueError("cluster already has an observability plane")
        self.cluster = cluster
        sim = cluster.sim
        self.registry = MetricsRegistry(sim, window=window)
        self.tracer = Tracer(sim)
        #: ``(time, node_id, "down"|"up")`` membership transitions, in
        #: order — the critical-path profiler turns these into detection
        #: windows (``config.failure_detection_delay`` after each "down").
        self.node_events: list[tuple[float, int, str]] = []

        # -- pre-built children for the hot instrumentation sites ----------
        self._grant_wait = {
            cls: self.registry.histogram(
                "link_grant_wait_seconds",
                "admission wait from reservation submission to grant",
                ("cls",),
            ).labels(cls=cls.name.lower())
            for cls in FlowClass
        }
        self._fastpath = {
            key: self.registry.counter(
                "fastpath_events", "fast-path planner events", ("kind",)
            ).labels(kind=key)
            for key in COUNTER_KEYS
        }
        bytes_family = self.registry.counter(
            "link_bytes", "bytes granted on a link direction", ("link", "tier", "cls")
        )
        queue_family = self.registry.gauge(
            "link_queue_depth",
            "admission queue length, sampled at reservation release",
            ("link", "tier"),
        )
        control_family = self.registry.counter(
            "control_messages", "control-plane RPCs sent", ("link", "tier")
        )
        control_plane_family = self.registry.counter(
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
        for node in cluster.nodes:
            self._install_sched(
                node.uplink_sched,
                f"n{node.node_id}/up",
                "nic",
                bytes_family,
                queue_family,
                control_family,
            )
            self._install_sched(
                node.downlink_sched,
                f"n{node.node_id}/down",
                "nic",
                bytes_family,
                queue_family,
                control_family,
            )
        for link in cluster.fabric.iter_links():
            self._install_sched(
                link.sched,
                link.name,
                link.tier,
                bytes_family,
                queue_family,
                control_family,
            )
        for node in cluster.nodes:
            node.on_failure(self._on_node_down)
            node.on_recovery(self._on_node_up)
        cluster.fastpath_stats.on_event = self._on_fastpath_event
        cluster.obs = self

    @staticmethod
    def _install_sched(sched, name, tier, bytes_family, queue_family, control_family):
        sched._obs_bytes = {
            cls: bytes_family.labels(link=name, tier=tier, cls=cls.name.lower())
            for cls in FlowClass
        }
        sched._obs_queue = queue_family.labels(link=name, tier=tier)
        sched._obs_control = control_family.labels(link=name, tier=tier)

    # -- hook bodies (called from the instrumented subsystems) -------------
    def _on_fastpath_event(self, key: str, n: int) -> None:
        self._fastpath[key].inc(n)

    def _on_node_down(self, node) -> None:
        self.node_events.append((self.cluster.sim._now, node.node_id, "down"))

    def _on_node_up(self, node) -> None:
        self.node_events.append((self.cluster.sim._now, node.node_id, "up"))

    def record_reservation(self, reservation) -> None:
        """Called by ``Reservation.release`` for every granted claim."""
        self._grant_wait[reservation.flow.flow_class].observe(
            reservation.granted_at - reservation.created_at
        )
        for sched in (
            reservation.src.uplink_sched,
            reservation.dst.downlink_sched,
        ):
            gauge = sched._obs_queue
            if gauge is not None:
                gauge.set(sched.queue_length)
