"""OpenMPI-style static collectives on the simulated cluster.

These reproduce the *structure* of the algorithms OpenMPI uses on the
paper's testbed:

* broadcast — binomial tree rooted at the sender, with segment (block)
  pipelining down the tree.  A rank can only receive once it has arrived, so
  arrival order interacts with the static tree exactly as discussed in the
  paper's Section 7 and measured in Figure 8a.
* reduce — static binary tree toward the root with segment pipelining; like
  MPI, nothing moves until every rank has entered the collective.
* gather — every rank sends its full buffer to the root.
* allreduce — recursive halving–doubling (reduce-scatter + allgather).
* allgather — ring algorithm with segment pipelining (OpenMPI's and Gloo's
  large-message choice): each rank forwards the piece it received in the
  previous step to its successor.
* alltoall — pairwise linear exchange: in round ``r`` rank ``i`` sends its
  personalized block to rank ``(i + r) mod n``; sends are non-blocking and
  serialize on the NIC resources.
* send/recv — plain point-to-point used by the Figure 6 RTT benchmark.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.collectives.base import (
    CollectiveGroup,
    StaticOperation,
)
from repro.net.flowsched import Flow, FlowClass
from repro.net.node import Node
from repro.net.transport import transfer_bytes
from repro.sim import Event


def binomial_parent(vrank: int) -> Optional[int]:
    """Parent of ``vrank`` in the binomial tree (``None`` for the root)."""
    if vrank == 0:
        return None
    return vrank & (vrank - 1)


class _PipelinedBroadcast(StaticOperation):
    """Segment-pipelined broadcast down a static tree rooted at ``root``.

    Each rank receives every block from its upstream rank as soon as that
    rank holds it; subclasses choose the tree through :meth:`_upstream`.
    """

    requires_full_group = False

    def __init__(self, group: CollectiveGroup, nbytes: int, root: int = 0):
        super().__init__(group, nbytes)
        self.root = root
        total_blocks = self.config.num_blocks(self.nbytes)
        self._block_ready: list[list[Event]] = [
            [Event(self.sim) for _ in range(total_blocks)] for _ in range(group.size)
        ]

    def _upstream(self, vrank: int) -> int:  # pragma: no cover
        raise NotImplementedError

    def _participate(self, rank: int, node: Node) -> Generator:
        vrank = self._vrank(rank)
        if vrank == 0:
            for block in self._block_ready[rank]:
                if not block.triggered:
                    block.succeed(self.sim.now)
            self.mark_data_ready(rank)
            return
        upstream = self._rank_of_vrank(self._upstream(vrank))
        yield from self.send_segmented(
            upstream,
            rank,
            ready_blocks=self._block_ready[upstream].__getitem__,
            arrived=self._block_ready[rank],
        )
        self.mark_data_ready(rank)


class BinomialBroadcast(_PipelinedBroadcast):
    """Segment-pipelined binomial-tree broadcast."""

    def _upstream(self, vrank: int) -> int:
        return binomial_parent(vrank)


class PipelineChainBroadcast(_PipelinedBroadcast):
    """Segment-pipelined chain broadcast (OpenMPI's large-message algorithm).

    Ranks form a chain in rank order starting at the root; each rank forwards
    blocks to its successor as soon as it has received them.  For very large
    payloads this approaches ``S/B`` regardless of the group size, which is
    why OpenMPI's tuned decision rules pick it over the binomial tree.
    """

    def _upstream(self, vrank: int) -> int:
        return vrank - 1


class BinaryTreeReduce(StaticOperation):
    """Segment-pipelined static binary-tree reduce toward the root."""

    requires_full_group = True

    def __init__(self, group: CollectiveGroup, nbytes: int, root: int = 0):
        super().__init__(group, nbytes)
        self.root = root
        total_blocks = self.config.num_blocks(self.nbytes)
        #: per rank, per block: the rank's *partial result* block is ready.
        self._partial_ready: list[list[Event]] = [
            [Event(self.sim) for _ in range(total_blocks)] for _ in range(group.size)
        ]
        #: per (parent, child), per block: the child's block arrived at parent.
        self._arrived: dict[tuple[int, int], list[Event]] = {}

    def _children(self, vrank: int) -> list[int]:
        children = []
        for child in (2 * vrank + 1, 2 * vrank + 2):
            if child < self.group.size:
                children.append(child)
        return children

    def _pull_child(self, rank: int, child_rank: int) -> Generator:
        # Partial results moving up the static tree are reduce-partial class,
        # like Hoplite's dynamic-tree streams.
        yield from self.send_segmented(
            child_rank,
            rank,
            ready_blocks=self._partial_ready[child_rank].__getitem__,
            arrived=self._arrived[(rank, child_rank)],
            flow=Flow(
                f"{type(self).__name__}:{child_rank}->{rank}", FlowClass.REDUCE_PARTIAL
            ),
        )

    def _participate(self, rank: int, node: Node) -> Generator:
        vrank = self._vrank(rank)
        child_vranks = self._children(vrank)
        child_ranks = [self._rank_of_vrank(v) for v in child_vranks]
        total_blocks = self.config.num_blocks(self.nbytes)
        pullers = []
        for child_rank in child_ranks:
            self._arrived[(rank, child_rank)] = [Event(self.sim) for _ in range(total_blocks)]
            pullers.append(
                self.sim.process(
                    self._pull_child(rank, child_rank),
                    name=f"mpi-reduce-pull-{rank}-{child_rank}",
                )
            )
        try:
            for index in range(total_blocks):
                for child_rank in child_ranks:
                    yield self._arrived[(rank, child_rank)][index]
                nbytes = self.config.block_bytes(self.nbytes, index)
                compute = self.config.reduce_compute_time(nbytes) * max(1, len(child_ranks))
                if compute > 0 and child_ranks:
                    yield self.sim.timeout(compute)
                event = self._partial_ready[rank][index]
                if not event.triggered:
                    event.succeed(self.sim.now)
        except BaseException:
            # A job restart aborted this rank: it leaves its pullers to the old
            # attempt, and the restart has consumed a failed puller's error.
            for puller in pullers:
                puller.defused = True
            raise
        # Non-root ranks return once their partial is fully computed; the
        # parent's puller moves the data.  The root's completion is the
        # operation's completion.
        if pullers:
            yield self.sim.all_of(pullers)
        self.mark_data_ready(rank)


class FlatGather(StaticOperation):
    """Every rank sends its full buffer to the root."""

    requires_full_group = True

    def __init__(self, group: CollectiveGroup, nbytes: int, root: int = 0):
        super().__init__(group, nbytes)
        self.root = root
        self._received = 0
        self._all_received = Event(group.sim)

    def _participate(self, rank: int, node: Node) -> Generator:
        if rank == self.root:
            if self.group.size == 1 and not self._all_received.triggered:
                self._all_received.succeed(self.sim.now)
            yield self._all_received
            self.mark_data_ready(rank)
            return
        yield from transfer_bytes(
            self.config,
            node,
            self.group.node_of_rank(self.root),
            self.nbytes,
            self.flow(rank, self.root),
        )
        self._received += 1
        if self._received >= self.group.size - 1 and not self._all_received.triggered:
            self._all_received.succeed(self.sim.now)
        self.mark_data_ready(rank)


class HalvingDoublingAllreduce(StaticOperation):
    """Recursive halving–doubling allreduce (the classic large-message algorithm).

    Non-power-of-two groups are handled the standard way: the first
    ``2 * r`` ranks pair up so that ``r`` of them drop out of the main
    exchange and receive the final result from their partner at the end.
    """

    requires_full_group = True

    def __init__(self, group: CollectiveGroup, nbytes: int):
        super().__init__(group, nbytes)
        size = group.size
        self.pof2 = 1
        while self.pof2 * 2 <= size:
            self.pof2 *= 2
        self.rem = size - self.pof2
        self._step_received: dict[tuple[int, int], Event] = {}
        self._fold_received: dict[int, Event] = {}
        self._final_received: dict[int, Event] = {}
        num_steps = self._num_steps()
        for rank in range(size):
            for step in range(2 * num_steps):
                self._step_received[(rank, step)] = Event(self.sim)
            self._fold_received[rank] = Event(self.sim)
            self._final_received[rank] = Event(self.sim)

    def _num_steps(self) -> int:
        steps = 0
        value = self.pof2
        while value > 1:
            value //= 2
            steps += 1
        return steps

    def _participate(self, rank: int, node: Node) -> Generator:
        size = self.group.size
        if size == 1:
            self.mark_data_ready(rank)
            return
        # Fold the excess ranks into the power-of-two core.
        in_core = True
        core_rank = rank
        if rank < 2 * self.rem:
            if rank % 2 == 1:
                # Odd ranks among the first 2*rem send their data to rank-1
                # and sit out the core exchange.
                yield from transfer_bytes(
                    self.config,
                    node,
                    self.group.node_of_rank(rank - 1),
                    self.nbytes,
                    self.flow(rank, rank - 1),
                )
                event = self._fold_received[rank - 1]
                if not event.triggered:
                    event.succeed(self.sim.now)
                in_core = False
            else:
                yield self._fold_received[rank]
                yield self.sim.timeout(self.config.reduce_compute_time(self.nbytes))
                core_rank = rank // 2
        elif rank >= 2 * self.rem:
            core_rank = rank - self.rem

        if in_core:
            yield from self._core_exchange(rank, core_rank, node)

        # Unfold: the core partner sends the final result back.
        if rank < 2 * self.rem:
            if rank % 2 == 1:
                yield self._final_received[rank]
            else:
                yield from transfer_bytes(
                    self.config,
                    node,
                    self.group.node_of_rank(rank + 1),
                    self.nbytes,
                    self.flow(rank, rank + 1),
                )
                event = self._final_received[rank + 1]
                if not event.triggered:
                    event.succeed(self.sim.now)
        self.mark_data_ready(rank)

    def _core_exchange(self, rank: int, core_rank: int, node: Node) -> Generator:
        """Reduce-scatter (halving) followed by allgather (doubling)."""
        num_steps = self._num_steps()
        # Reduce-scatter: exchanged segment halves every step.
        segment = self.nbytes / 2.0
        distance = self.pof2 // 2
        for step in range(num_steps):
            partner_core = core_rank ^ distance
            partner_rank = self._core_to_rank(partner_core)
            yield from transfer_bytes(
                self.config,
                node,
                self.group.node_of_rank(partner_rank),
                int(max(1, segment)),
                self.flow(rank, partner_rank),
            )
            recv_event = self._step_received[(partner_rank, step)]
            if not recv_event.triggered:
                recv_event.succeed(self.sim.now)
            yield self._step_received[(rank, step)]
            yield self.sim.timeout(self.config.reduce_compute_time(segment))
            segment /= 2.0
            distance //= 2
        # Allgather: segment doubles every step.
        segment = self.nbytes / self.pof2
        distance = 1
        for step in range(num_steps):
            partner_core = core_rank ^ distance
            partner_rank = self._core_to_rank(partner_core)
            yield from transfer_bytes(
                self.config,
                node,
                self.group.node_of_rank(partner_rank),
                int(max(1, segment)),
                self.flow(rank, partner_rank),
            )
            recv_event = self._step_received[(partner_rank, num_steps + step)]
            if not recv_event.triggered:
                recv_event.succeed(self.sim.now)
            yield self._step_received[(rank, num_steps + step)]
            segment *= 2.0
            distance *= 2

    def _core_to_rank(self, core_rank: int) -> int:
        if core_rank < self.rem:
            return core_rank * 2
        return core_rank + self.rem


class RingAllgather(StaticOperation):
    """Segment-pipelined ring allgather (``nbytes`` is the per-rank piece).

    ``n - 1`` steps; in step ``s`` every rank forwards to its successor the
    piece it received in step ``s - 1`` (its own contribution in step 0).
    Like every static collective here the exchange is synchronous: no data
    moves until the whole group has arrived.
    """

    requires_full_group = True

    def __init__(self, group: CollectiveGroup, nbytes: int):
        super().__init__(group, nbytes)
        size = group.size
        #: (rank, step) -> the piece sent around the ring in ``step`` arrived.
        self._piece_arrived: dict[tuple[int, int], Event] = {
            (rank, step): Event(self.sim)
            for rank in range(size)
            for step in range(max(1, size - 1))
        }

    def _participate(self, rank: int, node: Node) -> Generator:
        size = self.group.size
        if size == 1:
            self.mark_data_ready(rank)
            return
        next_rank = (rank + 1) % size
        for step in range(size - 1):
            if step > 0:
                yield self._piece_arrived[(rank, step - 1)]
            yield from self.send_segmented(rank, next_rank)
            arrived = self._piece_arrived[(next_rank, step)]
            if not arrived.triggered:
                arrived.succeed(self.sim.now)
        yield self._piece_arrived[(rank, size - 2)]
        self.mark_data_ready(rank)


class PairwiseAlltoall(StaticOperation):
    """Pairwise linear-exchange alltoall (``nbytes`` per destination block).

    ``n - 1`` rounds; in round ``r`` rank ``i`` sends its block for rank
    ``(i + r) mod n`` and receives the block from rank ``(i - r) mod n``.
    Sends are issued back to back (non-blocking), so the exchange is paced by
    the uplink/downlink resources rather than round barriers — the standard
    ``MPI_Alltoall`` behaviour for mid-sized blocks.
    """

    requires_full_group = True

    def __init__(self, group: CollectiveGroup, nbytes: int):
        super().__init__(group, nbytes)
        size = group.size
        #: (rank, round) -> the block addressed to ``rank`` in ``round`` arrived.
        self._block_arrived: dict[tuple[int, int], Event] = {
            (rank, rnd): Event(self.sim)
            for rank in range(size)
            for rnd in range(1, size)
        }

    def _send_round(self, rank: int, rnd: int) -> Generator:
        dst_rank = (rank + rnd) % self.group.size
        yield from self.send_whole(rank, dst_rank)
        arrived = self._block_arrived[(dst_rank, rnd)]
        if not arrived.triggered:
            arrived.succeed(self.sim.now)

    def _participate(self, rank: int, node: Node) -> Generator:
        size = self.group.size
        if size == 1:
            self.mark_data_ready(rank)
            return
        # Non-blocking sends: all rounds are posted at once and pace
        # themselves on the uplink/downlink resources (round order is
        # preserved by the FIFO resource queues), so one busy destination
        # never head-of-line-blocks the blocks bound for idle destinations.
        senders = [
            self.sim.process(
                self._send_round(rank, rnd), name=f"alltoall-send-{rank}-{rnd}"
            )
            for rnd in range(1, size)
        ]
        gate = self.sim.all_of(senders)
        try:
            yield gate
            for rnd in range(1, size):
                yield self._block_arrived[(rank, rnd)]
        except BaseException:
            # An aborted rank (job restart after a node failure) must take
            # its posted sends down with it, or ghost transfers from the old
            # attempt keep consuming NIC resources under the retry.
            gate.defused = True
            for proc in senders:
                if proc.is_alive:
                    proc.interrupt("alltoall aborted")
            raise
        self.mark_data_ready(rank)


class MPICollectives:
    """Factory for OpenMPI-style collective operations on a cluster.

    Like OpenMPI's tuned module, the broadcast algorithm is picked by message
    size: binomial tree for small messages (latency bound), segment-pipelined
    chain for large messages (bandwidth bound).
    """

    #: messages at or above this size broadcast over the pipelined chain.
    CHAIN_BROADCAST_THRESHOLD = 512 * 1024

    def __init__(self, cluster):
        self.group = CollectiveGroup(cluster)
        self.cluster = cluster
        self.config = cluster.config
        self.sim = cluster.sim

    def broadcast(self, nbytes: int, root: int = 0) -> StaticOperation:
        if nbytes >= self.CHAIN_BROADCAST_THRESHOLD and self.group.size > 2:
            return PipelineChainBroadcast(self.group, nbytes, root=root)
        return BinomialBroadcast(self.group, nbytes, root=root)

    def reduce(self, nbytes: int, root: int = 0) -> BinaryTreeReduce:
        return BinaryTreeReduce(self.group, nbytes, root=root)

    def gather(self, nbytes: int, root: int = 0) -> FlatGather:
        return FlatGather(self.group, nbytes, root=root)

    def allreduce(self, nbytes: int) -> HalvingDoublingAllreduce:
        return HalvingDoublingAllreduce(self.group, nbytes)

    def allgather(self, nbytes: int) -> RingAllgather:
        """Ring allgather; ``nbytes`` is each rank's contribution."""
        return RingAllgather(self.group, nbytes)

    def alltoall(self, nbytes: int) -> PairwiseAlltoall:
        """Pairwise-exchange alltoall; ``nbytes`` is the per-destination block."""
        return PairwiseAlltoall(self.group, nbytes)

    def send(self, src_rank: int, dst_rank: int, nbytes: int) -> Generator:
        """Point-to-point send (used by the RTT microbenchmark)."""
        yield from transfer_bytes(
            self.config,
            self.group.node_of_rank(src_rank),
            self.group.node_of_rank(dst_rank),
            nbytes,
            Flow(f"mpi-send:{src_rank}->{dst_rank}", FlowClass.BULK),
        )
        return self.sim.now
