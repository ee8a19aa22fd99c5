"""Asynchronous SGD with a parameter server (Section 5.2, Figures 9 and 12b).

The driver (node 0) holds the parameters.  Every worker repeatedly fetches
the current weights, computes a gradient on its shard of data, and publishes
the gradient object.  Each server iteration reduces the first
``ceil(workers / 2)`` gradients to become available, applies the update, and
broadcasts the new weights to exactly the workers whose gradients were
consumed — the dynamic pattern of Figure 1b.

With Hoplite the reduce is a streaming tree reduce and the broadcast is
receiver driven; with the Ray/Dask plane the parameter server fetches every
gradient itself and every worker fetches the weights from the server, which
saturates the server's NIC — the bottleneck the paper identifies.

Both reinforcement-learning algorithms (:mod:`repro.apps.rl`) run the same
server loop, :func:`serve`, with their own constants.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.apps.common import AppResult, FailureSchedule, Run, run_app
from repro.store.objects import ObjectID, ObjectValue, ReduceOp
from repro.workloads.models import ModelProfile, model_profile

#: simulated time the server spends applying one batch of gradients.
SERVER_UPDATE_TIME = 0.01


def _gradient_task(ctx, weights_value: ObjectValue, model: ModelProfile) -> Generator:
    """One worker round: consume the weights, compute, emit a gradient."""
    yield ctx.compute(model.round_compute_time)
    return ObjectValue.of_size(model.param_bytes)


def half_batch(num_nodes: int) -> int:
    """The results one server iteration takes: half of the ``num_nodes - 1``
    workers', rounded up."""
    return num_nodes // 2


def serve(
    run: Run,
    model: ModelProfile,
    num_iterations: int,
    task: Callable[..., Generator],
    task_name: Callable[[int, int], str],
    params: str,
    update: Optional[str],
    update_time: float,
) -> Generator:
    """The server of Figure 1's dynamic pattern, on the task system's driver.

    It puts the parameters (``params``, ``model.param_bytes``) and submits
    ``task(ctx, params_value, model)`` once per worker, named
    ``task_name(worker, iteration)``.  Each iteration takes the first
    :func:`half_batch` results: with an ``update`` name it reduces them at
    the driver's node into ``{update}-{iteration}`` and gets the sum;
    without one it waits for them and gets each.  It then sleeps
    ``update_time``, puts ``{params}-{iteration + 1}`` and resubmits
    exactly the workers it consumed.  The run's duration is the window of
    the ``num_iterations`` iterations.
    """
    cluster, plane, tasks = run.cluster, run.plane, run.task_system
    sim = cluster.sim
    server = tasks.driver_node
    batch = half_batch(len(cluster.nodes))
    # output id -> (worker, ref) of each task in flight, in submission order.
    outstanding: dict[ObjectID, tuple] = {}

    def launch(workers: list[int], params_ref, iteration: int) -> None:
        for worker in workers:
            name = task_name(worker, iteration)
            ref = tasks.submit(task, args=(params_ref, model), node=worker, name=name)
            outstanding[ref.object_id] = (worker, ref)

    params_ref = yield from tasks.put(
        ObjectValue.of_size(model.param_bytes), ObjectID.unique(cluster, params)
    )
    launch([node.node_id for node in cluster.nodes if node is not server], params_ref, 0)
    start = sim.now
    for iteration in range(num_iterations):
        iteration_start = sim.now
        if update is not None:
            target_id = ObjectID.unique(cluster, f"{update}-{iteration}")
            result = yield from plane.reduce(
                server, target_id, list(outstanding), ReduceOp.SUM, num_objects=batch
            )
            yield from plane.get(server, target_id)
            consumed = result.reduced_ids
        else:
            refs = [ref for _worker, ref in outstanding.values()]
            ready, _ = yield from tasks.wait(refs, num_returns=batch)
            for ref in ready:
                yield from plane.get(server, ref.object_id)
            consumed = [ref.object_id for ref in ready]
        yield sim.timeout(update_time)
        params_ref = yield from tasks.put(
            ObjectValue.of_size(model.param_bytes),
            ObjectID.unique(cluster, f"{params}-{iteration + 1}"),
        )
        launch([outstanding.pop(object_id)[0] for object_id in consumed], params_ref, iteration + 1)
        run.latencies.append(sim.now - iteration_start)
    run.duration = sim.now - start


def _grad_name(worker: int, iteration: int) -> str:
    return f"grad-w{worker}-i{iteration}" if iteration else f"grad-w{worker}"


def run_async_sgd(
    num_nodes: int,
    model: "ModelProfile | str",
    system: str = "hoplite",
    num_iterations: int = 10,
    failure: Optional[FailureSchedule] = None,
) -> AppResult:
    """Run the asynchronous parameter-server workload and report samples/second."""
    if isinstance(model, str):
        model = model_profile(model)
    if num_nodes < 2:
        raise ValueError("async SGD needs a server node and at least one worker")
    batch = half_batch(num_nodes)
    samples = num_iterations * batch * model.samples_per_round

    def start(run: Run) -> None:
        run.metrics.update(model=model.name, batch=batch, samples=samples)
        driver = serve(
            run, model, num_iterations, _gradient_task, _grad_name,
            params="weights", update="update", update_time=SERVER_UPDATE_TIME,
        )
        run.cluster.sim.process(driver, name="async-sgd-driver")

    return run_app(
        "async_sgd", system, num_nodes, num_iterations, samples, failure, start,
        plane=True, tasks=True,
    )
