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

Expert loads can be made **heterogeneous**: ``expert_skew`` routes each
worker's token batch across experts with a Zipf-like weighting (rotated
every iteration so the hot expert moves around), which makes the alltoall
block sizes non-uniform — the regime where Hoplite's per-pair streaming
beats schedules that assume equal blocks.  ``capacity_factor`` models the
standard MoE capacity trick: an expert accepts at most
``capacity_factor x`` the mean per-expert load and the overflow tokens are
dropped at the sender (smaller shards, ``dropped_bytes`` accounted in the
metrics).

A :class:`~repro.apps.common.FailureSchedule` may be attached; a worker that
loses its node retries its share of the current iteration after the node
rejoins (its re-``Put``s double as the framework's object reconstruction),
and the other workers' transfers ride through via the directory's failure
recovery (Section 3.5.1).
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Tuple

from repro.apps.common import AppResult, FailureSchedule, retry_across_failures
from repro.collectives.systems import make_plane
from repro.net.cluster import Cluster
from repro.net.config import NetworkConfig
from repro.net.failure import schedule
from repro.sim import Event
from repro.store.objects import ObjectID, ObjectValue

KB = 1024
MB = 1024 * 1024

#: bytes of tokens each worker routes to each expert per iteration.
DEFAULT_SHARD_BYTES = 4 * MB
#: bytes of per-expert gate statistics (small-object fast path).
DEFAULT_GATE_BYTES = 32 * KB
#: expert forward-pass throughput over the received token bytes.
DEFAULT_EXPERT_BANDWIDTH = 5.0e9


def routing_matrix(
    num_nodes: int,
    shard_bytes: int,
    expert_skew: float,
    iteration: int,
) -> Dict[Tuple[int, int], int]:
    """Bytes worker ``w`` routes to expert ``e`` in one iteration.

    Each worker splits its batch (``shard_bytes * (num_nodes - 1)``, the
    uniform total) across the other experts with Zipf-like weights
    ``1 / (1 + rank)**expert_skew``; the expert ranking rotates by
    ``iteration`` so the hot expert moves around the cluster.  ``skew == 0``
    reproduces the uniform exchange exactly.
    """
    if num_nodes < 2:
        raise ValueError("routing needs at least two nodes")
    batch_bytes = shard_bytes * (num_nodes - 1)
    route: Dict[Tuple[int, int], int] = {}
    for worker in range(num_nodes):
        experts = [e for e in range(num_nodes) if e != worker]
        weights = [
            1.0 / (1.0 + ((e + iteration) % num_nodes)) ** expert_skew for e in experts
        ]
        total = sum(weights)
        for expert, weight in zip(experts, weights):
            route[(worker, expert)] = int(batch_bytes * weight / total)
    return route


def apply_capacity_factor(
    route: Dict[Tuple[int, int], int],
    num_nodes: int,
    capacity_factor: Optional[float],
) -> Tuple[Dict[Tuple[int, int], int], int]:
    """Drop overflow tokens at the sender; returns (clamped route, dropped bytes).

    An expert accepts at most ``capacity_factor x`` the mean per-expert
    load; every sender's shard toward an overloaded expert is scaled down
    proportionally, which is how capacity-factor dropping behaves in real
    MoE systems (token choice is random, so drops are proportional).
    """
    if capacity_factor is None:
        return route, 0
    if capacity_factor <= 0:
        raise ValueError("capacity_factor must be positive")
    loads = {e: 0 for e in range(num_nodes)}
    for (_worker, expert), nbytes in route.items():
        loads[expert] += nbytes
    mean_load = sum(loads.values()) / num_nodes
    capacity = capacity_factor * mean_load
    clamped: Dict[Tuple[int, int], int] = {}
    dropped = 0
    for (worker, expert), nbytes in route.items():
        if loads[expert] > capacity:
            kept = int(nbytes * capacity / loads[expert])
            dropped += nbytes - kept
            nbytes = kept
        clamped[(worker, expert)] = nbytes
    return clamped, dropped


def run_moe_routing(
    num_nodes: int,
    system: str = "hoplite",
    num_iterations: int = 3,
    shard_bytes: int = DEFAULT_SHARD_BYTES,
    gate_bytes: int = DEFAULT_GATE_BYTES,
    expert_bandwidth: float = DEFAULT_EXPERT_BANDWIDTH,
    expert_skew: float = 0.0,
    capacity_factor: Optional[float] = None,
    network: Optional[NetworkConfig] = None,
    failure: Optional[FailureSchedule] = None,
) -> AppResult:
    """Run ``num_iterations`` of MoE routing and report iterations/second.

    ``expert_skew > 0`` skews the routing matrices (heterogeneous expert
    loads, non-uniform alltoall block sizes); ``capacity_factor`` drops
    overflow tokens at the senders.  The defaults reproduce the original
    uniform exchange bit for bit.
    """
    if num_nodes < 2:
        raise ValueError("MoE routing needs at least two nodes")
    if expert_skew < 0:
        raise ValueError("expert_skew must be non-negative")
    cluster = Cluster(num_nodes, network)
    plane = make_plane(system, cluster)
    schedule(cluster, [failure] if failure else ())
    sim = cluster.sim

    # Per-iteration routing plans: worker -> expert byte matrix, with the
    # capacity clamp applied.  Deterministic, so a worker re-running an
    # iteration after a failure re-creates identical shard sizes.
    plans: list[Dict[Tuple[int, int], int]] = []
    dropped_bytes = 0
    peak_load = 0
    for iteration in range(num_iterations):
        route = routing_matrix(num_nodes, shard_bytes, expert_skew, iteration)
        loads = {e: 0 for e in range(num_nodes)}
        for (_w, expert), nbytes in route.items():
            loads[expert] += nbytes
        peak_load = max(peak_load, max(loads.values()))
        route, dropped = apply_capacity_factor(route, num_nodes, capacity_factor)
        dropped_bytes += dropped
        plans.append(route)
    mean_load = shard_bytes * (num_nodes - 1)
    load_imbalance = peak_load / mean_load if mean_load else 1.0

    iteration_latencies: list[float] = []
    total_retries = {"count": 0}
    #: per-iteration completion barrier: all workers check in, last one
    #: records the iteration latency.
    barriers: list[dict] = [
        {"arrived": 0, "event": Event(sim), "start": None} for _ in range(num_iterations)
    ]

    def _pair_id(kind: str, iteration: int, src: int, dst: int) -> ObjectID:
        return ObjectID.of(f"moe-{kind}-i{iteration}-{src}-{dst}")

    def _gate_id(iteration: int, worker: int) -> ObjectID:
        return ObjectID.of(f"moe-gate-i{iteration}-{worker}")

    def _shard_bytes(kind: str, iteration: int, src: int, dst: int) -> int:
        # Dispatch moves route[(worker, expert)] bytes from worker to expert;
        # combine returns the processed tokens, so its matrix is the
        # transpose of dispatch's.
        route = plans[iteration]
        return route[(src, dst)] if kind == "disp" else route[(dst, src)]

    def _exchange(node_id: int, kind: str, iteration: int) -> Generator:
        sends = [
            (
                _pair_id(kind, iteration, node_id, dst),
                ObjectValue.of_size(_shard_bytes(kind, iteration, node_id, dst)),
            )
            for dst in range(num_nodes)
            if dst != node_id
        ]
        recv_ids = [
            _pair_id(kind, iteration, src, node_id)
            for src in range(num_nodes)
            if src != node_id
        ]
        result = yield from plane.alltoall(cluster.node(node_id), sends, recv_ids)
        return result

    def _iteration(node_id: int, iteration: int) -> Generator:
        node = cluster.node(node_id)
        # 1. dispatch tokens to the experts.
        yield from _exchange(node_id, "disp", iteration)
        # 2. expert forward pass over the tokens this expert received.
        received = sum(
            plans[iteration][(src, node_id)]
            for src in range(num_nodes)
            if src != node_id
        )
        yield sim.timeout(received / expert_bandwidth)
        # 3. combine: processed tokens return to their sources.
        yield from _exchange(node_id, "comb", iteration)
        # 4. gate statistics allgather (small objects).
        yield from plane.put(
            node, _gate_id(iteration, node_id), ObjectValue.of_size(gate_bytes)
        )
        yield from plane.allgather(
            node, [_gate_id(iteration, w) for w in range(num_nodes)]
        )

    def _count_retry() -> None:
        total_retries["count"] += 1

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
                iteration_latencies.append(sim.now - barrier["start"])
                if not barrier["event"].triggered:
                    barrier["event"].succeed(sim.now)
            yield barrier["event"]

    workers = [
        sim.process(_worker(node_id), name=f"moe-worker-{node_id}")
        for node_id in range(num_nodes)
    ]
    cluster.run()

    incomplete = [proc for proc in workers if proc.is_alive]
    if incomplete:
        raise RuntimeError(
            f"{len(incomplete)} MoE workers never finished (unrecovered failure?)"
        )
    duration = sim.now
    throughput = num_iterations / duration if duration > 0 else 0.0
    return AppResult(
        app="moe_routing",
        system=system,
        num_nodes=num_nodes,
        duration=duration,
        throughput=throughput,
        iteration_latencies=iteration_latencies,
        metrics={
            "shard_bytes": shard_bytes,
            "gate_bytes": gate_bytes,
            "events_processed": sim.events_processed,
            "retries": total_retries["count"],
            "expert_skew": expert_skew,
            "capacity_factor": capacity_factor,
            "dropped_bytes": dropped_bytes,
            #: peak per-expert load over the pre-drop mean (1.0 == uniform).
            "load_imbalance": load_imbalance,
            "fastpath": cluster.fastpath_stats.as_dict(),
        },
    )
