"""Synchronous data-parallel training (Section 5.6, Figure 13).

Every round, all workers compute on their shard and then allreduce the
gradients.  This is not Hoplite's target workload — it exists to quantify
what a user gives up by running a static, synchronous job on a task-based
system: Hoplite should roughly match OpenMPI, trail Gloo's ring-chunked
allreduce by tens of percent, and beat the naive Ray plane by a wide margin.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.apps.common import AppResult
from repro.collectives.systems import PLANES, STATIC_OPS, make_plane
from repro.net.cluster import Cluster
from repro.net.config import NetworkConfig
from repro.store.objects import ObjectID, ObjectValue, ReduceOp
from repro.workloads.models import ModelProfile, model_profile


def run_sync_training(
    num_nodes: int,
    model: "ModelProfile | str",
    system: str = "hoplite",
    num_rounds: int = 5,
    network: Optional[NetworkConfig] = None,
) -> AppResult:
    """Run synchronous data-parallel training and report samples/second."""
    if isinstance(model, str):
        model = model_profile(model)
    if num_nodes < 2:
        raise ValueError("synchronous training needs at least two nodes")
    if system in PLANES:
        duration, round_latencies = _run_plane(num_nodes, model, system, num_rounds, network)
    elif (system, "allreduce") in STATIC_OPS:
        duration, round_latencies = _run_static(num_nodes, model, system, num_rounds, network)
    else:
        raise ValueError(f"unknown system {system!r}")

    samples = num_rounds * num_nodes * model.samples_per_round
    throughput = samples / duration if duration > 0 else 0.0
    return AppResult(
        app="sync_training",
        system=system,
        num_nodes=num_nodes,
        duration=duration,
        throughput=throughput,
        iteration_latencies=round_latencies,
        metrics={"model": model.name, "samples": samples},
    )


def _run_static(
    num_nodes: int,
    model: ModelProfile,
    system: str,
    num_rounds: int,
    network: Optional[NetworkConfig],
) -> tuple[float, list[float]]:
    """OpenMPI / Gloo: compute, then a static allreduce, once per round."""
    cluster = Cluster(num_nodes, network)
    sim = cluster.sim
    make_op = STATIC_OPS[(system, "allreduce")]
    ops = [make_op(cluster, model.param_bytes) for _ in range(num_rounds)]

    round_ends: list[list[float]] = [[] for _ in range(num_rounds)]

    def _worker(rank: int) -> Generator:
        for round_index in range(num_rounds):
            yield sim.timeout(model.round_compute_time)
            yield from ops[round_index].participate(rank)
            round_ends[round_index].append(sim.now)

    for rank in range(num_nodes):
        sim.process(_worker(rank), name=f"sync-train-rank-{rank}")
    cluster.run()

    round_latencies = []
    previous_end = 0.0
    for ends in round_ends:
        end = max(ends)
        round_latencies.append(end - previous_end)
        previous_end = end
    return previous_end, round_latencies


def _run_plane(
    num_nodes: int,
    model: ModelProfile,
    system: str,
    num_rounds: int,
    network: Optional[NetworkConfig],
) -> tuple[float, list[float]]:
    """Hoplite / Ray plane: put gradients, reduce at node 0, everyone gets."""
    cluster = Cluster(num_nodes, network)
    plane = make_plane(system, cluster)
    sim = cluster.sim
    round_latencies: list[float] = []
    summary: dict = {}

    def _compute_and_put(node_id: int, object_id: ObjectID) -> Generator:
        yield sim.timeout(model.round_compute_time)
        yield from plane.put(
            cluster.node(node_id), object_id, ObjectValue.of_size(model.param_bytes)
        )

    def _fetch(node_id: int, object_id: ObjectID) -> Generator:
        yield from plane.get(cluster.node(node_id), object_id)

    def driver() -> Generator:
        start = sim.now
        for round_index in range(num_rounds):
            round_start = sim.now
            gradient_ids = [
                ObjectID.unique(f"sync-grad-r{round_index}-n{node_id}")
                for node_id in range(num_nodes)
            ]
            producers = [
                sim.process(
                    _compute_and_put(node_id, gradient_ids[node_id]),
                    name=f"sync-put-{round_index}-{node_id}",
                )
                for node_id in range(num_nodes)
            ]
            target_id = ObjectID.unique(f"sync-update-{round_index}")
            reduce_proc = sim.process(
                plane.reduce(cluster.node(0), target_id, gradient_ids, ReduceOp.SUM),
                name=f"sync-reduce-{round_index}",
            )
            fetchers = [
                sim.process(
                    _fetch(node_id, target_id), name=f"sync-get-{round_index}-{node_id}"
                )
                for node_id in range(num_nodes)
            ]
            yield sim.all_of(producers)
            yield reduce_proc
            yield sim.all_of(fetchers)
            round_latencies.append(sim.now - round_start)
        summary["duration"] = sim.now - start

    sim.process(driver(), name="sync-train-driver")
    cluster.run()
    return summary.get("duration", sim.now), round_latencies
