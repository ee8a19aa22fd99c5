"""The Hoplite runtime: per-node stores, the directory, and per-node clients."""

from __future__ import annotations

from typing import Optional

from repro.core.options import HopliteOptions
from repro.directory.service import ObjectDirectory
from repro.net.cluster import Cluster
from repro.net.node import Node
from repro.sim import Process
from repro.store.object_store import LocalObjectStore
from repro.store.objects import ObjectID


class NodeObjectManager:
    """Per-node bookkeeping that is not part of the store itself.

    Most importantly it tracks *in-flight Get requests* so that, when several
    workers on the same node ask for the same object, only one fetch crosses
    the network (Section 3.4.1: "it first checks if the object is locally
    available, or there is an on-going request for the object locally").
    """

    def __init__(self, node: Node):
        self.node = node
        #: object_id -> the Process currently fetching it into the local store.
        self.inflight_fetches: dict[ObjectID, Process] = {}
        node.on_failure(self._on_failure)

    def _on_failure(self, node: Node) -> None:
        self.inflight_fetches.clear()


class LocalOrchestration:
    """Default (framework-less) orchestration hook.

    Collective executions route their internal driver processes and
    intermediate-object records through ``runtime.orchestration`` so that a
    task framework can observe them.  Without a framework attached, spawning
    falls through to anonymous simulation processes and the ownership
    records are dropped — exactly the pre-orchestration behaviour.
    """

    def __init__(self, sim):
        self.sim = sim

    def spawn(self, generator, name: str = "", owner: Optional[ObjectID] = None) -> Process:
        """Spawn a collective-internal driver process.

        ``owner`` names the object (usually the collective target) the
        process works toward; a recording orchestration uses it to attribute
        the process — and the partials it creates — to a collective spec.
        """
        return self.sim.process(generator, name=name)

    def record_partial(
        self, parent_id: ObjectID, partial_id: ObjectID, node_id: Optional[int] = None
    ) -> None:
        """An execution materialized an internal object derived from ``parent_id``."""

    def record_copy(self, object_id: ObjectID, node_id: int) -> None:
        """A receiver-driven fetch grew a relay copy of ``object_id``."""


class HopliteRuntime:
    """One Hoplite deployment on a simulated cluster.

    The runtime wires up, for every node: a :class:`LocalObjectStore`, a
    :class:`NodeObjectManager`, and a :class:`HopliteClient` (created lazily
    through :meth:`client`).  A single :class:`ObjectDirectory` spans the
    cluster.
    """

    def __init__(
        self,
        cluster: Cluster,
        options: Optional[HopliteOptions] = None,
        store_capacity_bytes: Optional[int] = None,
    ):
        self.cluster = cluster
        self.sim = cluster.sim
        self.config = cluster.config
        self.options = options or HopliteOptions()
        self.directory = ObjectDirectory(
            cluster,
            selection_seed=self.options.source_selection_seed,
            topology_aware=self.options.topology_aware,
        )
        self.stores: dict[int, LocalObjectStore] = {
            node.node_id: LocalObjectStore(node, self.config, store_capacity_bytes)
            for node in cluster.nodes
        }
        self.managers: dict[int, NodeObjectManager] = {
            node.node_id: NodeObjectManager(node) for node in cluster.nodes
        }
        self._clients: dict[int, "HopliteClient"] = {}
        #: the orchestration hook; a task framework (the collective
        #: orchestrator) replaces this with a recording implementation.
        self.orchestration = LocalOrchestration(self.sim)
        #: target ObjectID -> the in-flight ReduceExecution driving it.
        #: Entries deregister when the execution finishes or aborts, so a
        #: lookup hit always means "this target is still being produced" and
        #: a re-invoking caller can adopt it instead of racing a duplicate.
        self.active_reductions: dict[ObjectID, object] = {}
        #: number of Reduce calls answered by adopting an in-flight execution.
        self.reduce_adoptions = 0
        #: streaming reduce recovery: repairs that kept the root's reduced
        #: prefix, and restarted roots seeded from a surviving receiver copy.
        self.root_progress_preserved = 0
        self.root_prefix_seeds = 0
        #: monotone nonce for hierarchical-reduce intermediate object ids;
        #: per-runtime (not global) so repeated runs inside one process stay
        #: byte-for-byte reproducible.
        self.hierarchical_reduce_seq = 0

    # -- accessors -------------------------------------------------------------
    def store(self, node: Node | int) -> LocalObjectStore:
        node_id = node.node_id if isinstance(node, Node) else node
        return self.stores[node_id]

    def manager(self, node: Node | int) -> NodeObjectManager:
        node_id = node.node_id if isinstance(node, Node) else node
        return self.managers[node_id]

    def node(self, node_id: int) -> Node:
        return self.cluster.nodes[node_id]

    def client(self, node: Node | int) -> "HopliteClient":
        """The Hoplite client bound to ``node`` (created on first use)."""
        node_id = node.node_id if isinstance(node, Node) else node
        client = self._clients.get(node_id)
        if client is None:
            from repro.core.api import HopliteClient

            client = HopliteClient(self, self.cluster.nodes[node_id])
            self._clients[node_id] = client
        return client

    def close(self) -> None:
        """Drop the back-references a finished run leaves to this runtime.

        Cuts the client cache (each client points back at the runtime) and
        the directory's WAL hooks; the cluster's node listeners go with
        :meth:`Cluster.close`.  Stores, managers and the directory stay
        readable.
        """
        self._clients.clear()
        self.directory.close()

    # -- helpers used by the protocols ------------------------------------------
    def small_object(self, size: int) -> bool:
        return (
            self.options.enable_small_object_cache
            and size < self.config.small_object_threshold
        )
