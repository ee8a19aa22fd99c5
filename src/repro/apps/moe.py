"""Mixture-of-Experts expert routing: an alltoall-dominated workload.

One expert lives on every node.  Each training iteration is the classic MoE
communication pattern:

1. **dispatch** — every worker partitions its token batch by destination
   expert and exchanges the shards with an all-to-all (one object per
   (worker, expert) pair);
2. **expert compute** — each expert processes the tokens it received;
3. **combine** — the processed tokens return to their source workers with a
   second all-to-all;
4. **gate sync** — the small per-expert gate/load statistics are allgathered
   so every worker can rebalance its routing (this rides Hoplite's
   small-object inline fast path, Section 3.2).

The alltoalls dominate: with the naive plane each exchange serializes puts
and gets with per-operation overhead and no pipelining, while Hoplite
overlaps every send and receive block-by-block (Section 3.3).

Every worker routes the same number of bytes to every other expert
(:data:`SHARD_BYTES`), so each alltoall exchanges equal blocks.

A :class:`~repro.apps.common.FailureSchedule` may be attached; a worker that
loses its node retries its share of the current iteration after the node
rejoins (its re-``Put``s double as the framework's object reconstruction),
and the other workers' transfers ride through via the directory's failure
recovery (Section 3.5.1).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.apps.common import AppResult, FailureSchedule, Run, retry_across_failures, run_app
from repro.sim import Event
from repro.store.objects import ObjectID, ObjectValue

KB = 1024
MB = 1024 * 1024

#: bytes of tokens each worker routes to each expert per iteration.
SHARD_BYTES = 4 * MB
#: bytes of per-expert gate statistics (small-object fast path).
GATE_BYTES = 32 * KB
#: expert forward-pass throughput over the received token bytes.
EXPERT_BANDWIDTH = 5.0e9


def run_moe_routing(
    num_nodes: int,
    system: str = "hoplite",
    num_iterations: int = 3,
    failure: Optional[FailureSchedule] = None,
) -> AppResult:
    """Run ``num_iterations`` of MoE routing and report iterations/second."""
    if num_nodes < 2:
        raise ValueError("MoE routing needs at least two nodes")

    def _pair_id(kind: str, iteration: int, src: int, dst: int) -> ObjectID:
        return ObjectID.of(f"moe-{kind}-i{iteration}-{src}-{dst}")

    def _gate_id(iteration: int, worker: int) -> ObjectID:
        return ObjectID.of(f"moe-gate-i{iteration}-{worker}")

    def start(run: Run) -> None:
        cluster, plane = run.cluster, run.plane
        sim = cluster.sim
        # ``fastpath`` is the cluster's live counter dict, final once the run drains.
        run.metrics.update(
            shard_bytes=SHARD_BYTES,
            gate_bytes=GATE_BYTES,
            retries=0,
            fastpath=cluster.fastpath_stats.counts,
        )
        #: per-iteration completion barrier: all workers check in, last one
        #: records the iteration latency.
        barriers: list[dict] = [
            {"arrived": 0, "event": Event(sim), "start": None} for _ in range(num_iterations)
        ]

        def _exchange(node_id: int, kind: str, iteration: int) -> Generator:
            others = [peer for peer in range(num_nodes) if peer != node_id]
            sends = [
                (_pair_id(kind, iteration, node_id, dst), ObjectValue.of_size(SHARD_BYTES))
                for dst in others
            ]
            recv_ids = [_pair_id(kind, iteration, src, node_id) for src in others]
            return (yield from plane.alltoall(cluster.node(node_id), sends, recv_ids))

        def _iteration(node_id: int, iteration: int) -> Generator:
            node = cluster.node(node_id)
            # 1. dispatch tokens to the experts.
            yield from _exchange(node_id, "disp", iteration)
            # 2. expert forward pass over the tokens this expert received.
            yield sim.timeout(SHARD_BYTES * (num_nodes - 1) / EXPERT_BANDWIDTH)
            # 3. combine: processed tokens return to their sources.
            yield from _exchange(node_id, "comb", iteration)
            # 4. gate statistics allgather (small objects).
            yield from plane.put(
                node, _gate_id(iteration, node_id), ObjectValue.of_size(GATE_BYTES)
            )
            yield from plane.allgather(node, [_gate_id(iteration, w) for w in range(num_nodes)])

        def _count_retry() -> None:
            run.metrics["retries"] += 1

        def _worker(node_id: int) -> Generator:
            for iteration in range(num_iterations):
                barrier = barriers[iteration]
                if barrier["start"] is None:
                    barrier["start"] = sim.now
                yield from retry_across_failures(
                    cluster,
                    node_id,
                    lambda iteration=iteration: _iteration(node_id, iteration),
                    on_retry=_count_retry,
                )
                barrier["arrived"] += 1
                if barrier["arrived"] >= num_nodes:
                    run.latencies.append(sim.now - barrier["start"])
                    if not barrier["event"].triggered:
                        barrier["event"].succeed(sim.now)
                yield barrier["event"]

        for node_id in range(num_nodes):
            sim.process(_worker(node_id), name=f"moe-worker-{node_id}")

    return run_app(
        "moe_routing", system, num_nodes, num_iterations, num_iterations, failure, start,
        plane=True, tasks=False,
    )
