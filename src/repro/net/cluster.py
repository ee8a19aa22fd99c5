"""The simulated cluster: a simulator plus a set of nodes and failure control."""

from __future__ import annotations

import itertools
from typing import Optional

from repro.net.config import NetworkConfig
from repro.net.fastpath import FastpathStats
from repro.net.node import Node
from repro.net.topology import Fabric, Topology
from repro.sim import SimulationError, Simulator


class Cluster:
    """A cluster of simulated nodes on a (possibly hierarchical) fabric.

    The cluster builds and owns its :class:`~repro.sim.Simulator`, so every
    subsystem built on top (object stores, the directory, Hoplite, the
    baselines, and the task system) shares a single virtual clock that
    starts at 0.  A cluster is only nodes and links: the task system owns
    the worker slots on each node (see
    :data:`repro.tasksys.system.WORKERS_PER_NODE`).  The
    fabric defaults to :meth:`Topology.flat` (the paper's uniform testbed);
    a hierarchical :class:`~repro.net.topology.Topology` — passed directly
    or through ``NetworkConfig(topology=...)`` — instantiates shared rack
    and zone aggregation links that cross-tier reservations must claim.

    Example::

        cluster = Cluster(num_nodes=16)
        cluster.run()           # drain all scheduled work
        print(cluster.now)      # simulated seconds elapsed
        cluster.close()         # let reference counting free the run

    The services built on a cluster register failure and recovery
    listeners on its nodes, and each node points back at the cluster, so a
    finished run is one big reference cycle that only the cyclic garbage
    collector can free.  :meth:`close` cuts those back-references once the
    queue has drained.  A closed cluster keeps ``sim.now``,
    ``sim.events_processed``, ``fastpath_stats``, ``flight``, ``obs`` and
    its nodes' and links' counters readable, but :meth:`run` and
    :meth:`process` raise :class:`~repro.sim.SimulationError`.
    """

    def __init__(
        self,
        num_nodes: int = 4,
        network: Optional[NetworkConfig] = None,
        topology: Optional[Topology] = None,
        fast_paths: bool = True,
    ):
        if num_nodes <= 0:
            raise ValueError("a cluster needs at least one node")
        self.config = network or NetworkConfig()
        self.topology = topology or self.config.topology or Topology.flat(num_nodes)
        if self.topology.num_nodes != num_nodes:
            raise ValueError(
                f"topology spans {self.topology.num_nodes} nodes "
                f"but the cluster has {num_nodes}"
            )
        self.sim = Simulator()
        self.fabric = Fabric(self.sim, self.topology, self.config)
        #: whether transfers may coalesce (``False`` runs every block on the
        #: per-block path: the reference the fast path must reproduce).
        self.fast_paths = fast_paths
        #: fast-path counters, scoped to this cluster (see repro.net.fastpath).
        self.fastpath_stats = FastpathStats()
        #: ordinals for ``ObjectID.unique``, so a run's IDs are its own.
        self.object_ids = itertools.count()
        #: observability plane, or None when disabled (the default: every
        #: instrumentation site guards on ``cluster.obs is not None``).
        self.obs = None
        #: flight recorder, installed with the observability plane (every
        #: instrumentation site guards on ``cluster.flight is not None``).
        self.flight = None
        self.nodes: list[Node] = [
            Node(self.sim, node_id, cluster=self) for node_id in range(num_nodes)
        ]
        #: set by :meth:`close`; a closed cluster can no longer run.
        self.closed = False

    def enable_observability(self, window: float = 0.1, trace_transfers: bool = True):
        """Install (and return) the observability plane: the one attach point.

        The plane includes the flight recorder, installed as :attr:`flight`
        with its pop hook in ``sim.on_pop``: the per-block transfer and
        reduce-compute timeline that the link metrics, critical-path blame
        and the Chrome-trace export read.  That slot has one owner: if it is
        already set, this raises :class:`~repro.sim.SimulationError` and
        installs nothing.  A second call returns the installed plane, and
        raises ``ValueError`` if its ``window`` differs from the first
        call's.  ``trace_transfers`` is accepted only as ``True``, the
        spelling ``perf/`` uses; the recorder is always installed.

        Purely observational: metrics and records are stamped with simulated
        time but never schedule events, so enabling the plane changes no
        simulated result (locked down by the differential test in
        ``tests/test_fleet.py`` and the ``--flight`` fuzz band).
        """
        if trace_transfers is not True:
            raise ValueError("the flight recorder is always installed; trace_transfers is True")
        obs = self.obs
        if obs is not None:
            if window != obs.registry.window:
                raise ValueError(
                    f"cluster already observed with window={obs.registry.window!r}"
                )
            return obs
        from repro.obs import Observability

        return Observability(self, window=window)

    # -- convenience --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    @property
    def now(self) -> float:
        return self.sim.now

    def alive_nodes(self) -> list[Node]:
        return [node for node in self.nodes if node.alive]

    def run(self, until=None):
        """Advance the simulation (see :meth:`repro.sim.Simulator.run`)."""
        self._check_open()
        return self.sim.run(until)

    def process(self, generator, name: str = ""):
        """Spawn a process on the cluster's simulator."""
        self._check_open()
        return self.sim.process(generator, name=name)

    def close(self) -> None:
        """Drop the nodes' listeners and back-pointers of a finished run.

        The cluster closes last: the driver that ran it first closes what
        it built on it, once the queue has drained — parked processes
        (:meth:`~repro.sim.Process.close`), the orchestrator and the task
        system, then the plane's runtime.  :func:`repro.bench.scenarios.run`,
        ``run_fleet`` and the apps' one harness,
        :func:`repro.apps.common.run_app`, do so
        (:func:`repro.apps.common.close_run`).  Closing also uninstalls the
        flight recorder's pop hook.

        Raises :class:`~repro.sim.SimulationError` while events are still
        queued: a listener cut mid-run would change what a failure does.
        Closing twice is a no-op.
        """
        if self.closed:
            return
        if self.sim.peek() != float("inf"):
            raise SimulationError("cannot close a cluster with events still queued")
        for node in self.nodes:
            node.failure_listeners.clear()
            node.recovery_listeners.clear()
            node.cluster = None
        # The pop hook is the flight recorder's, which holds this simulator:
        # a cycle.  The closed cluster never runs again.
        self.sim.on_pop = None
        self.closed = True

    def _check_open(self) -> None:
        if self.closed:
            raise SimulationError("the cluster is closed")

    # -- failure injection ----------------------------------------------------
    def fail_node(self, node_id: int) -> None:
        """Fail a node immediately (at the current simulated time)."""
        self.nodes[node_id].fail()

    def recover_node(self, node_id: int) -> None:
        """Recover a previously failed node immediately."""
        self.nodes[node_id].recover()

    def schedule_failure(self, node_id: int, at: float, recover_at: Optional[float] = None) -> None:
        """Schedule a failure (and optional recovery) at absolute simulated times.

        Every bound is written so that NaN fails it, and an unknown node
        is refused here rather than when the injector fires.
        """
        if not 0 <= node_id < len(self.nodes):
            raise ValueError(f"node {node_id} is not in this {len(self.nodes)}-node cluster")
        if not at >= self.sim.now:
            raise ValueError("cannot schedule a failure in the past")
        if recover_at is not None and not recover_at >= at:
            raise ValueError("recovery must not precede the failure")

        def _failure_process(sim):
            yield sim.timeout(at - sim.now)
            self.fail_node(node_id)
            if recover_at is not None:
                yield sim.timeout(recover_at - sim.now)
                self.recover_node(node_id)

        self.sim.process(_failure_process(self.sim), name=f"failure-injector-{node_id}")
