"""Synchronous data-parallel training (Section 5.6, Figure 13).

Every round, all workers compute on their shard and then allreduce the
gradients.  This is not Hoplite's target workload — it exists to quantify
what a user gives up by running a static, synchronous job on a task-based
system: Hoplite should roughly match OpenMPI, trail Gloo's ring-chunked
allreduce by tens of percent, and beat the naive Ray plane by a wide margin.
"""

from __future__ import annotations

from typing import Generator

from repro.apps.common import AppResult, Run, run_app
from repro.collectives.systems import STATIC_OPS
from repro.store.objects import ObjectID, ObjectValue, ReduceOp
from repro.workloads.models import ModelProfile, model_profile


def run_sync_training(
    num_nodes: int,
    model: "ModelProfile | str",
    system: str = "hoplite",
    num_rounds: int = 5,
) -> AppResult:
    """Run synchronous data-parallel training and report samples/second."""
    if isinstance(model, str):
        model = model_profile(model)
    if num_nodes < 2:
        raise ValueError("synchronous training needs at least two nodes")
    static = (system, "allreduce") in STATIC_OPS
    samples = num_rounds * num_nodes * model.samples_per_round

    def start(run: Run) -> None:
        run.metrics.update(model=model.name, samples=samples)
        if static:
            _start_static(run, model, system, num_rounds)
        else:
            _start_plane(run, model, num_rounds)

    return run_app(
        "sync_training", system, num_nodes, num_rounds, samples, None, start,
        plane=not static, tasks=False,
    )


def _start_static(run: Run, model: ModelProfile, system: str, num_rounds: int) -> None:
    """OpenMPI / Gloo: compute, then a static allreduce, once per round."""
    cluster = run.cluster
    sim = cluster.sim
    num_nodes = len(cluster.nodes)
    make_op = STATIC_OPS[(system, "allreduce")]
    ops = [make_op(cluster, model.param_bytes) for _ in range(num_rounds)]
    arrived = [0] * num_rounds

    def _worker(rank: int) -> Generator:
        for round_index in range(num_rounds):
            yield sim.timeout(model.round_compute_time)
            yield from ops[round_index].participate(rank)
            arrived[round_index] += 1
            if arrived[round_index] == num_nodes:
                # The last rank to finish closes the round; the first
                # round is timed from 0.
                run.latencies.append(sim.now - (run.duration or 0.0))
                run.duration = sim.now

    for rank in range(num_nodes):
        sim.process(_worker(rank), name=f"sync-train-rank-{rank}")


def _start_plane(run: Run, model: ModelProfile, num_rounds: int) -> None:
    """Hoplite / Ray plane: put gradients, reduce at node 0, everyone gets."""
    cluster, plane = run.cluster, run.plane
    sim = cluster.sim
    num_nodes = len(cluster.nodes)

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
                ObjectID.unique(cluster, f"sync-grad-r{round_index}-n{node_id}")
                for node_id in range(num_nodes)
            ]
            producers = [
                sim.process(
                    _compute_and_put(node_id, gradient_ids[node_id]),
                    name=f"sync-put-{round_index}-{node_id}",
                )
                for node_id in range(num_nodes)
            ]
            target_id = ObjectID.unique(cluster, f"sync-update-{round_index}")
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
            run.latencies.append(sim.now - round_start)
        run.duration = sim.now - start

    sim.process(driver(), name="sync-train-driver")
