"""Serving an ensemble of ML models (Section 5.4, Figures 11 and 12a).

Eight image-classification models are served, one model per node on an
8-node cluster or one model on each of two replica nodes on a 16-node
cluster.  Every query carries a batch of 64 images; the query object is
broadcast to every serving node, each node runs its model, and the small
per-model predictions are gathered back for a majority vote.

The broadcast of the query batch is the communication that matters: with the
naive plane the frontend's uplink serializes one copy per model node, while
Hoplite relays the query through the earlier receivers.

For the fault-tolerance experiment a failure schedule can be attached: the
failed replica is skipped while it is down (queries keep completing, as in
Figure 12a) and, after it rejoins, its first query re-fetches the model
weights it lost, producing the brief latency bump the paper shows.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.apps.common import AppResult, FailureSchedule, Run, run_app
from repro.store.objects import ObjectID, ObjectValue
from repro.tasksys.refs import ObjectRef
from repro.tasksys.system import TaskError
from repro.workloads.models import SERVING_ENSEMBLE, SERVING_QUERY_BYTES, model_profile

#: size of one model's classification output for a 64-image batch.
PREDICTION_BYTES = 64 * 1024


def _inference_task(ctx, query_value: ObjectValue, weights_value: ObjectValue, inference_time: float) -> Generator:
    """Run one model on the query batch and emit its predictions."""
    yield ctx.compute(inference_time)
    return ObjectValue.of_size(PREDICTION_BYTES)


def run_model_serving(
    num_nodes: int,
    system: str = "hoplite",
    num_queries: int = 20,
    failure: Optional[FailureSchedule] = None,
) -> AppResult:
    """Serve ``num_queries`` ensemble queries and report queries/second."""
    if num_nodes < len(SERVING_ENSEMBLE):
        raise ValueError(
            f"need at least {len(SERVING_ENSEMBLE)} nodes to serve "
            f"{len(SERVING_ENSEMBLE)} models"
        )
    profiles = [model_profile(name) for name in SERVING_ENSEMBLE]
    # Replica placement: round-robin models over nodes, so the 8-node cluster
    # serves one replica per model and the 16-node cluster serves two.
    replicas = [(node_id % len(profiles), node_id) for node_id in range(num_nodes)]

    def driver(run: Run) -> Generator:
        cluster, plane, task_system = run.cluster, run.plane, run.task_system
        sim = cluster.sim
        frontend = task_system.driver_node
        # Each replica loads (Puts) its model weights once at start-up.
        weight_ids: dict[int, ObjectID] = {}
        weight_incarnations: dict[int, int] = {}

        def _load_weights(node_id: int, model_index: int) -> Generator:
            profile = profiles[model_index]
            weights_id = ObjectID.unique(cluster, f"weights-{profile.name}-n{node_id}")
            yield from plane.put(
                cluster.node(node_id), weights_id, ObjectValue.of_size(profile.param_bytes)
            )
            weight_ids[node_id] = weights_id
            weight_incarnations[node_id] = cluster.node(node_id).incarnation

        for model_index, node_id in replicas:
            yield from _load_weights(node_id, model_index)

        start = sim.now
        for query_index in range(num_queries):
            query_start = sim.now
            query_id = ObjectID.unique(cluster, f"query-{query_index}")
            yield from plane.put(frontend, query_id, ObjectValue.of_size(SERVING_QUERY_BYTES))

            prediction_refs = []
            for model_index, node_id in replicas:
                node = cluster.node(node_id)
                if not node.alive:
                    continue  # skip failed replicas; the vote proceeds without them
                if weight_incarnations.get(node_id) != node.incarnation:
                    # The replica rejoined after a failure: reload its weights.
                    yield from _load_weights(node_id, model_index)
                profile = profiles[model_index]
                ref = task_system.submit(
                    _inference_task,
                    args=(
                        ObjectRef(query_id),
                        ObjectRef(weight_ids[node_id]),
                        profile.inference_time,
                    ),
                    node=node_id,
                    name=f"infer-{profile.name}-q{query_index}",
                    max_restarts=0,
                )
                prediction_refs.append(ref)

            # Gather whatever predictions complete; replicas that die
            # mid-query are simply excluded from this query's vote.
            for ref in prediction_refs:
                try:
                    yield from task_system.wait([ref], num_returns=1)
                    yield from task_system.get(ref)
                except TaskError:
                    continue
            yield sim.timeout(0.001)  # majority vote
            run.latencies.append(sim.now - query_start)
        run.duration = sim.now - start

    def start(run: Run) -> None:
        run.metrics.update(
            ensemble_size=len(profiles), replicas=len(replicas), query_bytes=SERVING_QUERY_BYTES
        )
        run.cluster.sim.process(driver(run), name="serving-driver")

    return run_app(
        "model_serving", system, num_nodes, num_queries, num_queries, failure, start,
        plane=True, tasks=True,
    )

