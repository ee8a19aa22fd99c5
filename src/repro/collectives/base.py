"""Shared machinery for the static (MPI/Gloo-style) collective baselines.

Static collectives are *rank based*: the communication schedule is a pure
function of the participant count and the message size, fixed before the
operation starts.  The classes here model the part that matters for the
paper's comparison:

* every rank must *arrive* (its process must be running and have called the
  collective) before it can take part in any step that involves it;
* for operations that are inherently synchronous in MPI/Gloo (reduce,
  allreduce, gather), **no data moves until every rank has arrived** — this
  is what Figure 8 measures;
* for broadcast, a rank can receive as soon as its own ancestors in the
  static tree have the data, which lets MPI make partial progress when ranks
  happen to arrive in tree order (Section 7, "Asynchronous MPI").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional, Sequence

from repro.net.cluster import Cluster
from repro.net.coalesce import nic_path_links, register_stream, unregister_stream
from repro.net.config import NetworkConfig
from repro.net.flowsched import Flow, FlowClass
from repro.net.node import Node
from repro.net.transport import transfer_block, transfer_bytes
from repro.sim import Event, Simulator


class StaticCollectiveError(RuntimeError):
    """Misuse of a static collective (e.g. an unknown rank participating)."""


@dataclass
class RankResult:
    """Per-rank outcome of a collective operation."""

    rank: int
    node_id: int
    arrive_time: float
    finish_time: float


class CollectiveGroup:
    """Every node of a cluster as a group of ranks, rank ``i`` on node ``i``.

    This is the moral equivalent of MPI's world communicator: the mapping
    from rank to node is fixed when the group is created and every
    collective operation on the group uses it.
    """

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.config: NetworkConfig = cluster.config
        self.sim: Simulator = cluster.sim
        self.nodes: list[Node] = list(cluster.nodes)

    @property
    def size(self) -> int:
        return len(self.nodes)

    def node_of_rank(self, rank: int) -> Node:
        if rank < 0 or rank >= self.size:
            raise StaticCollectiveError(f"rank {rank} out of range (size {self.size})")
        return self.nodes[rank]


class _Barrier:
    """All ranks must check in before the barrier opens."""

    def __init__(self, sim: Simulator, size: int):
        self.sim = sim
        self.size = size
        self.arrived = 0
        self.open_event = Event(sim)

    def check_in(self) -> Event:
        self.arrived += 1
        if self.arrived >= self.size and not self.open_event.triggered:
            self.open_event.succeed(self.sim.now)
        return self.open_event


class StaticOperation:
    """Base class for one instance of a static collective operation.

    Subclasses implement :meth:`_participate`, the per-rank protocol.  The
    public :meth:`participate` wraps it with arrival bookkeeping so that the
    asynchrony experiments (Figure 8) can stagger rank arrivals.
    """

    #: whether the operation can start before every rank has arrived.
    requires_full_group = True
    #: the rank virtual ranks count from (rooted operations set their own).
    root = 0

    def __init__(self, group: CollectiveGroup, nbytes: int):
        if nbytes < 0:
            raise StaticCollectiveError("message size must be non-negative")
        self.group = group
        self.sim = group.sim
        self.config = group.config
        self.nbytes = int(nbytes)
        self._barrier = _Barrier(group.sim, group.size)
        self._arrive_times: dict[int, float] = {}
        #: set by each rank when it holds the (final) data for this op.
        self._data_ready: dict[int, Event] = {
            rank: Event(group.sim) for rank in range(group.size)
        }
        self._arrival_events: dict[int, Event] = {
            rank: Event(group.sim) for rank in range(group.size)
        }

    # -- per-rank entry point -------------------------------------------------
    def participate(self, rank: int) -> Generator:
        """Run rank ``rank``'s share of the collective.  Returns a RankResult."""
        node = self.group.node_of_rank(rank)
        arrive_time = self.sim.now
        self._arrive_times[rank] = arrive_time
        if not self._arrival_events[rank].triggered:
            self._arrival_events[rank].succeed(arrive_time)
        barrier_event = self._barrier.check_in()
        if self.requires_full_group:
            yield barrier_event
        yield from self._participate(rank, node)
        return RankResult(
            rank=rank,
            node_id=node.node_id,
            arrive_time=arrive_time,
            finish_time=self.sim.now,
        )

    def _participate(self, rank: int, node: Node) -> Generator:  # pragma: no cover
        raise NotImplementedError

    # -- helpers for subclasses --------------------------------------------------
    def _vrank(self, rank: int) -> int:
        """``rank``'s position counted from :attr:`root`."""
        return (rank - self.root) % self.group.size

    def _rank_of_vrank(self, vrank: int) -> int:
        return (vrank + self.root) % self.group.size

    def mark_data_ready(self, rank: int) -> None:
        event = self._data_ready[rank]
        if not event.triggered:
            event.succeed(self.sim.now)

    def flow(self, src_rank: int, dst_rank: int) -> Flow:
        """The bulk flow tag for this operation's ``src -> dst`` stream."""
        return Flow(
            f"{type(self).__name__}:{src_rank}->{dst_rank}", FlowClass.BULK
        )

    def send_whole(self, src_rank: int, dst_rank: int) -> Generator:
        yield from transfer_bytes(
            self.config,
            self.group.node_of_rank(src_rank),
            self.group.node_of_rank(dst_rank),
            self.nbytes,
            self.flow(src_rank, dst_rank),
        )

    def send_segmented(
        self,
        src_rank: int,
        dst_rank: int,
        ready_blocks: Optional[Callable[[int], Event]] = None,
        arrived: Optional[Sequence[Event]] = None,
        flow: Optional[Flow] = None,
        nbytes: Optional[int] = None,
    ) -> Generator:
        """Send ``nbytes`` (the op's payload by default) block by block.

        ``ready_blocks`` is an optional callable ``block_index -> Event``
        that gates each block, to pipeline through intermediate ranks;
        ``arrived`` holds one event per block, succeeded as the block lands.
        ``flow`` defaults to :meth:`flow`.  The static schedules stay
        per-block: through ``stream_blocks`` they would coalesce, and their
        pinned kernel event counts would move.
        """
        config = self.config
        src = self.group.node_of_rank(src_rank)
        dst = self.group.node_of_rank(dst_rank)
        if flow is None:
            flow = self.flow(src_rank, dst_rank)
        if nbytes is None:
            nbytes = self.nbytes
        links = nic_path_links(src, dst)
        register_stream(links)
        try:
            for index in range(config.num_blocks(nbytes)):
                if ready_blocks is not None:
                    yield ready_blocks(index)
                yield from transfer_block(
                    config, src, dst, config.block_bytes(nbytes, index), flow
                )
                if arrived is not None and not arrived[index].triggered:
                    arrived[index].succeed(self.sim.now)
        finally:
            unregister_stream(links)
        return self.sim.now
