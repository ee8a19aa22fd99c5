"""Distributed reinforcement learning (Section 5.3, Figure 10).

Two algorithm families are reproduced, matching RLlib's structure:

* **samples optimization** (IMPALA-style): workers run simulation rollouts
  and ship the sample batches to the trainer; the trainer updates the policy
  and broadcasts it to the workers that just finished.
* **gradients optimization** (A3C-style): workers compute gradients of the
  64 MB policy locally; the trainer reduces a batch of gradients, applies
  the update, and broadcasts the new policy.

Both follow the dynamic wait-for-the-first-half pattern of Figure 1, so the
trainer's NIC is the bottleneck under the naive Ray plane while Hoplite's
reduce/broadcast trees remove it.  Both run the async-SGD server loop
(:func:`repro.apps.param_server.serve`): A3C reduces like async SGD, and
IMPALA waits for its sample batches instead.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.apps.common import AppResult, FailureSchedule, Run, run_app
from repro.apps.param_server import _gradient_task, half_batch, serve
from repro.store.objects import ObjectValue
from repro.workloads.models import ModelProfile, model_profile

#: size of one rollout sample batch shipped by an IMPALA-style worker.
ROLLOUT_BYTES = 8 * 1024 * 1024
#: environment steps contributed by one rollout / one gradient.
SAMPLES_PER_ROLLOUT = 50
#: simulated time the trainer spends applying one batch of updates.
TRAINER_UPDATE_TIME = 0.05


def _rollout_task(ctx, policy_value: ObjectValue, model: ModelProfile) -> Generator:
    """IMPALA-style worker: simulate one round and return a sample batch."""
    yield ctx.compute(model.round_compute_time)
    return ObjectValue.of_size(ROLLOUT_BYTES)


def run_rl_training(
    num_nodes: int,
    algorithm: str = "impala",
    system: str = "hoplite",
    num_iterations: int = 10,
    failure: Optional[FailureSchedule] = None,
) -> AppResult:
    """Run IMPALA-style or A3C-style training and report samples/second.

    An A3C worker is an async-SGD gradient task on the 64 MB policy.
    """
    algorithm = algorithm.lower()
    if algorithm == "impala":
        task, task_name, update = _rollout_task, "rollout-w{}-i{}".format, None
    elif algorithm == "a3c":
        task, task_name, update = _gradient_task, "grad-w{}-i{}".format, "rl-update"
    else:
        raise ValueError(f"unknown RL algorithm {algorithm!r}; expected 'impala' or 'a3c'")
    model = model_profile("rl_policy")
    if num_nodes < 2:
        raise ValueError("RL training needs a trainer node and at least one worker")
    batch = half_batch(num_nodes)
    samples = num_iterations * batch * SAMPLES_PER_ROLLOUT

    def start(run: Run) -> None:
        run.metrics.update(
            algorithm=algorithm, policy_bytes=model.param_bytes, batch=batch, samples=samples
        )
        driver = serve(
            run, model, num_iterations, task, task_name,
            params="policy", update=update, update_time=TRAINER_UPDATE_TIME,
        )
        run.cluster.sim.process(driver, name=f"rl-{algorithm}-driver")

    return run_app(
        f"rl_{algorithm}", system, num_nodes, num_iterations, samples, failure, start,
        plane=True, tasks=True,
    )
