"""Integration tests for the application workloads (Sections 5.2-5.6)."""

import pytest

from repro.apps import (
    AppResult,
    FailureSchedule,
    run_async_sgd,
    run_model_serving,
    run_rl_training,
    run_sync_training,
)
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
    from repro.apps import serving

    clusters = []

    class _Recorded(serving.Cluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            clusters.append(self)

    monkeypatch.setattr(serving, "Cluster", _Recorded)
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


def test_app_result_summary():
    result = run_sync_training(4, "resnet50", "hoplite", num_rounds=1)
    summary = result.summary()
    assert summary["app"] == "sync_training"
    assert summary["system"] == "hoplite"
    assert summary["iterations"] == 1
