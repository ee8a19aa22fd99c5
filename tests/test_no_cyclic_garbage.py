"""Every kind of run is freed by reference counting, faulted runs included.

Each case runs with the cyclic collector off and ``gc.DEBUG_SAVEALL`` set,
between two collections: whatever the second one finds is a reference
cycle the run left behind, which only a gen-2 collection would free.  The
cases cover the recovery paths (node churn, control-plane and driver
kills, the applications with a failure), the fault-free Hoplite
collectives, the static restarts and the fleet, observed or not.
"""

import gc
from collections import Counter

import pytest

from repro.apps import (
    run_async_sgd,
    run_model_serving,
    run_moe_routing,
    run_rl_training,
    run_sync_training,
)
from repro.apps.common import FailureSchedule
from repro.bench.fleet import run_fleet
from repro.bench.scenarios import Kill, Scenario, run
from repro.net.config import NetworkConfig
from repro.net.failure import poisson_failures
from repro.net.topology import Topology

MB = 1024 * 1024

CHURN_NETWORK = NetworkConfig(
    bandwidth=1.25e8, topology=Topology.racks(2, 4, oversubscription=2.0)
)


def _thinned_churn(seed: int = 0) -> list:
    """Poisson churn on nodes 1-7 (4 failures/s over 0.8 s, 0.2 s down),
    thinned to one node down at a time, no node failing twice, and one
    failure-detection delay between a rejoin and the next failure."""
    kept: list = []
    for event in poisson_failures(
        node_ids=range(1, 8), rate_per_second=4.0, horizon=0.8, downtime=0.2, seed=seed
    ):
        if not kept or (
            event.fail_at >= kept[-1].recover_at + CHURN_NETWORK.failure_detection_delay
            and all(event.node_id != k.node_id for k in kept)
        ):
            kept.append(event)
    return kept


def _churn(collective: str):
    failures = _thinned_churn()
    assert len(failures) == 2
    scenario = Scenario(
        collective, "hoplite", 8, 16 * MB, network=CHURN_NETWORK, faults=failures
    )
    return lambda: run(scenario)


def _kill(collective: str, target: str):
    return lambda: run(
        Scenario(collective, "hoplite", 8, 16 * MB, kill=Kill(target, fraction=0.5))
    )


def _faulted_app(run_app, count_key: str):
    def case():
        result = run_app()
        assert result.metrics[count_key] > 0, "the failure must hit the run"

    return case


CASES = {
    "churn-allgather": _churn("allgather"),
    "churn-alltoall": _churn("alltoall"),
    "kill-directory": _kill("allgather", "directory"),
    "kill-lineage": _kill("allgather", "lineage"),
    "kill-both": _kill("allgather", "both"),
    "kill-driver-allreduce": _kill("allreduce", "driver"),
    "serving-failure": _faulted_app(
        lambda: run_model_serving(8, "hoplite", 12, failure=FailureSchedule(5, 0.4, 0.9)),
        "failures",
    ),
    "async-sgd-failure": _faulted_app(
        lambda: run_async_sgd(4, "alexnet", "hoplite", 6, failure=FailureSchedule(2, 0.5, 1.0)),
        "reconstructions",
    ),
    "rl-failure": _faulted_app(
        lambda: run_rl_training(4, "impala", "hoplite", 3, failure=FailureSchedule(2, 0.1, 0.5)),
        "failures",
    ),
    "rl-a3c-failure": _faulted_app(
        lambda: run_rl_training(4, "a3c", "hoplite", 3, failure=FailureSchedule(2, 0.1, 0.5)),
        "failures",
    ),
    "moe-failure": _faulted_app(
        lambda: run_moe_routing(4, "hoplite", 2, failure=FailureSchedule(2, 0.005, 0.05)),
        "retries",
    ),
    "sync-training": lambda: run_sync_training(4, "alexnet", "hoplite", 2),
    "sync-training-gloo": lambda: run_sync_training(4, "alexnet", "gloo", 2),
    **{
        f"hoplite-{collective}": (
            lambda collective=collective: run(Scenario(collective, "hoplite", 8, 16 * MB))
        )
        for collective in ("broadcast", "reduce", "allreduce", "gather")
    },
    "openmpi-allgather": lambda: run(Scenario("allgather", "openmpi", 8, 16 * MB)),
    "fleet": lambda: run_fleet(quick=True, observe=False),
    "fleet-observed": lambda: run_fleet(quick=True, observe=True),
}


def cyclic_garbage(case) -> Counter:
    """Types of the objects only the cyclic collector frees after ``case()``."""
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    try:
        gc.set_debug(0)
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        case()
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)
        gc.collect()
        if enabled:
            gc.enable()


@pytest.mark.parametrize("name", CASES)
def test_run_leaves_no_cyclic_garbage(name):
    garbage = cyclic_garbage(CASES[name])
    assert not garbage, f"{sum(garbage.values())} cyclic objects: {garbage.most_common(6)}"


def test_census_restores_the_collector_state():
    enabled, flags = gc.isenabled(), gc.get_debug()

    def cycle():
        loop = []
        loop.append(loop)

    assert cyclic_garbage(cycle) == Counter(list=1)
    assert (gc.isenabled(), gc.get_debug()) == (enabled, flags)
    assert gc.garbage == []
