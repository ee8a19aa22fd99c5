"""Integration tests for the application workloads (Sections 5.2-5.6)."""

import pytest

from repro.apps import (
    AppResult,
    FailureSchedule,
    run_async_sgd,
    run_model_serving,
    run_moe_routing,
    run_rl_training,
    run_sync_training,
)
from repro.apps.common import run_app
from repro.net.cluster import Cluster
from repro.workloads import MODEL_CATALOG, SERVING_ENSEMBLE, model_profile


def test_model_catalog_contents():
    assert set(SERVING_ENSEMBLE) <= set(MODEL_CATALOG)
    alexnet = model_profile("alexnet")
    assert alexnet.param_bytes == 233 * 1024 * 1024
    with pytest.raises(KeyError):
        model_profile("not-a-model")


def test_failure_schedule_validation():
    with pytest.raises(ValueError):
        FailureSchedule(node_id=0, fail_at=-1)
    with pytest.raises(ValueError):
        FailureSchedule(node_id=0, fail_at=5, recover_at=1)


def test_async_sgd_hoplite_beats_ray():
    hoplite = run_async_sgd(8, "alexnet", "hoplite", num_iterations=3)
    ray = run_async_sgd(8, "alexnet", "ray", num_iterations=3)
    assert isinstance(hoplite, AppResult)
    assert hoplite.throughput > ray.throughput
    assert len(hoplite.iteration_latencies) == 3
    assert hoplite.metrics["model"] == "alexnet"
    assert hoplite.duration > 0


def test_async_sgd_validation():
    with pytest.raises(ValueError):
        run_async_sgd(1, "alexnet")
    with pytest.raises(ValueError):
        run_async_sgd(4, "alexnet", "not-a-plane")


COUNTED_APPS = {
    "async_sgd": lambda count: run_async_sgd(4, "alexnet", "hoplite", count),
    "rl_impala": lambda count: run_rl_training(4, "impala", "hoplite", count),
    "model_serving": lambda count: run_model_serving(8, "hoplite", count),
    "sync_training": lambda count: run_sync_training(4, "resnet50", "gloo", count),
    "moe_routing": lambda count: run_moe_routing(4, "hoplite", count),
}


@pytest.mark.parametrize("app", COUNTED_APPS)
def test_count_validation(app):
    """A count below 1 is refused, not run into an empty result."""
    for count in (0, -2):
        with pytest.raises(ValueError, match=f"{app} needs a count of at least 1"):
            COUNTED_APPS[app](count)


def test_run_app_refuses_a_run_that_records_too_few_latencies():
    with pytest.raises(RuntimeError, match="probe recorded 0 of 1 latencies"):
        run_app("probe", "hoplite", 2, 1, 1.0, None, lambda run: None, plane=True, tasks=False)


DRIVER_FAILURE = FailureSchedule(node_id=0, fail_at=0.5, recover_at=1.0)


@pytest.mark.parametrize(
    "app, run",
    [
        ("async_sgd", lambda: run_async_sgd(4, "alexnet", "hoplite", 3, failure=DRIVER_FAILURE)),
        ("rl_impala", lambda: run_rl_training(4, "impala", "hoplite", 3, failure=DRIVER_FAILURE)),
        ("rl_a3c", lambda: run_rl_training(4, "a3c", "hoplite", 3, failure=DRIVER_FAILURE)),
        ("model_serving", lambda: run_model_serving(8, "hoplite", 4, failure=DRIVER_FAILURE)),
    ],
)
def test_driver_node_failure_is_refused_before_the_run(app, run, monkeypatch):
    """The driver lives on node 0; a schedule that kills it is refused
    up front instead of crashing the driver mid-run."""
    built = []
    monkeypatch.setattr(Cluster, "__init__", lambda *args, **kwargs: built.append(args))
    with pytest.raises(ValueError, match=f"{app} cannot survive a failure of its driver node 0"):
        run()
    assert built == []


def test_moe_survives_a_node_zero_failure():
    """MoE has no central driver: node 0 is a worker that retries."""
    result = run_moe_routing(4, "hoplite", 2, failure=FailureSchedule(0, 0.005, 0.05))
    assert len(result.iteration_latencies) == 2
    assert result.metrics["retries"] == 1


def test_async_sgd_survives_worker_failure():
    result = run_async_sgd(
        6,
        "resnet50",
        "hoplite",
        num_iterations=8,
        failure=FailureSchedule(node_id=2, fail_at=1.0, recover_at=2.0),
    )
    assert len(result.iteration_latencies) == 8
    assert all(latency > 0 for latency in result.iteration_latencies)


def test_rl_training_both_algorithms():
    for algorithm in ("impala", "a3c"):
        hoplite = run_rl_training(6, algorithm, "hoplite", num_iterations=3)
        ray = run_rl_training(6, algorithm, "ray", num_iterations=3)
        assert hoplite.throughput > ray.throughput
        assert hoplite.app == f"rl_{algorithm}"
    with pytest.raises(ValueError):
        run_rl_training(6, "ppo")
    with pytest.raises(ValueError):
        run_rl_training(1, "impala")


def test_model_serving_throughput_and_latencies():
    hoplite = run_model_serving(8, "hoplite", num_queries=4)
    ray = run_model_serving(8, "ray", num_queries=4)
    assert hoplite.throughput > ray.throughput
    assert len(hoplite.iteration_latencies) == 4
    assert hoplite.metrics["ensemble_size"] == 8
    with pytest.raises(ValueError):
        run_model_serving(4, "hoplite")


def test_model_serving_with_failure_keeps_serving():
    result = run_model_serving(
        8,
        "hoplite",
        num_queries=12,
        failure=FailureSchedule(node_id=5, fail_at=0.4, recover_at=0.9),
    )
    assert len(result.iteration_latencies) == 12
    # The failure must not stall the query loop for long.
    assert max(result.iteration_latencies) < 10 * min(result.iteration_latencies)


@pytest.mark.parametrize("system", ["hoplite", "ray"])
def test_fig12_serving_run_leaves_no_undefused_failure(system, monkeypatch):
    """The Fig. 12 serving run: an inference task that fails while the
    driver still waits on an earlier replica is consumed by the driver's
    later ``wait``, so it is not reported as unhandled."""
    clusters = []
    init = Cluster.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        clusters.append(self)

    monkeypatch.setattr(Cluster, "__init__", recorded)
    failure = FailureSchedule(node_id=3, fail_at=2.0, recover_at=4.5)
    run_model_serving(8, system, 40, failure=failure)
    assert clusters[0].sim.unhandled_failures == []


def test_sync_training_system_ordering():
    results = {
        system: run_sync_training(8, "resnet50", system, num_rounds=2)
        for system in ("hoplite", "openmpi", "gloo", "ray")
    }
    assert results["hoplite"].throughput > results["ray"].throughput
    assert results["gloo"].throughput >= results["hoplite"].throughput * 0.9
    with pytest.raises(ValueError):
        run_sync_training(1, "resnet50")
    with pytest.raises(ValueError):
        run_sync_training(4, "resnet50", "nccl")
