"""Tests for the benchmark scenario drivers and the reporting helpers."""

import math

import pytest

from repro.bench import (
    SUPPORTED_SYSTEMS,
    format_series,
    format_table,
    measure_allreduce,
    measure_broadcast,
    measure_gather,
    measure_reduce,
)
from repro.bench.reporting import format_value
from repro.bench.scenarios import Kill, Scenario, UnsupportedScenarioError, run
from repro.net import NetworkConfig

MB = 1024 * 1024
KB = 1024


def test_supported_systems_listed():
    assert "hoplite" in SUPPORTED_SYSTEMS and "openmpi" in SUPPORTED_SYSTEMS
    with pytest.raises(UnsupportedScenarioError):
        run(Scenario("p2p", "nccl", 2, KB))


def test_point_to_point_ordering_small_objects():
    latencies = {
        system: run(Scenario("p2p", system, 2, KB))["latency"]
        for system in ("optimal", "openmpi", "hoplite", "ray", "dask")
    }
    assert latencies["openmpi"] <= latencies["hoplite"] <= latencies["ray"] <= latencies["dask"]
    assert latencies["optimal"] <= latencies["openmpi"]


def test_point_to_point_large_objects_near_optimal():
    rtt = run(Scenario("p2p", "hoplite", 2, 256 * MB))["latency"]
    optimal = run(Scenario("p2p", "optimal", 2, 256 * MB))["latency"]
    assert rtt <= optimal * 1.15


def test_broadcast_measure_and_validation():
    latency = measure_broadcast("hoplite", 4, 8 * MB)
    assert latency > 0
    with pytest.raises(ValueError):
        measure_broadcast("hoplite", 1, MB)
    with pytest.raises(UnsupportedScenarioError):
        measure_broadcast("gloo_ring", 4, MB)
    assert measure_broadcast("optimal", 4, 8 * MB) == pytest.approx(
        8 * MB / NetworkConfig().bandwidth
    )


def test_broadcast_arrival_delays_validation():
    with pytest.raises(ValueError):
        measure_broadcast("hoplite", 4, MB, arrival_delays=[0.0, 0.1])  # wrong length


def test_gather_measure_and_unsupported():
    latency = measure_gather("hoplite", 4, 8 * MB)
    mpi = measure_gather("openmpi", 4, 8 * MB)
    assert latency > 0 and mpi > 0
    with pytest.raises(UnsupportedScenarioError):
        measure_gather("gloo", 4, MB)
    with pytest.raises(ValueError):
        measure_gather("hoplite", 1, MB)


def test_reduce_measure_sync_and_async():
    sync = measure_reduce("hoplite", 4, 8 * MB)
    staggered = measure_reduce("hoplite", 4, 8 * MB, arrival_interval=0.05)
    assert sync > 0
    # With staggered arrivals the measurement includes waiting for arrivals.
    assert staggered >= 0.05 * 3
    with pytest.raises(UnsupportedScenarioError):
        measure_reduce("gloo", 4, MB)


def test_allreduce_measure_all_variants():
    for system in ("hoplite", "openmpi", "gloo_ring", "gloo_ring_chunked", "gloo_halving_doubling", "ray"):
        assert measure_allreduce(system, 4, 4 * MB) > 0


def test_hoplite_broadcast_beats_ray_at_scale():
    hoplite = measure_broadcast("hoplite", 8, 64 * MB)
    ray = measure_broadcast("ray", 8, 64 * MB)
    assert hoplite < ray


def test_driver_failure_object_plane_recovery_beats_job_restart():
    """Acceptance: lineage re-execution beats the static restart model.

    Recovery overhead = completion with a mid-collective root failure minus
    the same system's failure-free baseline.  A rooted broadcast recovers
    for ~free (the root share migrates and re-creates the object from
    lineage); a late allreduce failure is nearly free because the finished
    reduce is adopted; a static system always waits out the downtime and
    reruns the whole job.
    """
    from repro.bench.scenarios import measure_driver_failure

    network = NetworkConfig(bandwidth=1.25e8)
    for collective, fraction in (("broadcast", 0.5), ("allreduce", 0.85)):
        overheads = {}
        for system in ("hoplite", "openmpi"):
            baseline = measure_driver_failure(
                system, 4, 8 * MB, collective=collective, network=network
            )
            failed = measure_driver_failure(
                system,
                4,
                8 * MB,
                collective=collective,
                fail_fraction=fraction,
                downtime=0.2,
                network=network,
            )
            overheads[system] = failed - baseline
        assert overheads["hoplite"] < overheads["openmpi"], (collective, overheads)

    with pytest.raises(ValueError):
        measure_driver_failure("hoplite", 4, MB, fail_at=0.1, fail_fraction=0.5)
    with pytest.raises(UnsupportedScenarioError):
        measure_driver_failure("optimal", 4, MB)


def test_kill_validation_names_its_fields():
    with pytest.raises(ValueError, match="^pass either at or fraction, not both$"):
        Kill(at=0.1, fraction=0.5)
    with pytest.raises(ValueError, match=r"^fraction must be in \(0, 1\)$"):
        Kill(fraction=1.0)


def test_faulted_driver_allreduce_leaves_no_undefused_failure():
    """Node 0's fetch fails in ``release_transfer_source`` after node 0 died
    and its driver task's ``get`` left: a failure nobody is left to take,
    which the fetch's own-death defuse now acknowledges."""
    clusters = []
    scenario = Scenario("allreduce", "hoplite", 8, 16 * MB, kill=Kill("driver", fraction=0.5))
    run(scenario, observe=clusters.append)
    assert clusters[0].sim.unhandled_failures == []


def test_format_value_and_table_and_series():
    assert format_value(0) == "0"
    assert format_value(1234.0) == "1,234"
    assert format_value(1.5) == "1.500"
    assert format_value(0.0015).endswith("m")
    assert format_value(1.5e-6).endswith("u")
    table = format_table("Title", [{"a": 1.0, "b": "x"}], ["a", "b"])
    assert "Title" in table and "1.000" in table and "x" in table
    series = format_series("S", "x", [1, 2], {"sys": [0.1, 0.2]})
    assert "sys" in series and "x" in series
    nan_series = format_series("S", "x", [1], {"sys": []})
    assert "nan" in nan_series


#: pairs each driver refuses at 4 nodes / 1 MB; every other pair must finish.
_UNSUPPORTED = {
    "p2p": (),
    "broadcast": ("gloo_ring", "gloo_ring_chunked", "gloo_halving_doubling"),
    "gather": ("gloo", "gloo_ring", "gloo_ring_chunked", "gloo_halving_doubling"),
    "reduce": ("gloo", "gloo_ring", "gloo_ring_chunked", "gloo_halving_doubling"),
    "allreduce": (),
    "allgather": ("gloo_ring", "gloo_ring_chunked", "gloo_halving_doubling"),
    "alltoall": ("gloo_ring", "gloo_ring_chunked", "gloo_halving_doubling"),
    # The static allreduce variants restart the whole job, like "gloo".
    "driver_failure": ("optimal",),
}


@pytest.mark.parametrize("collective", sorted(_UNSUPPORTED))
def test_support_matrix(collective):
    """Every (system, collective) pair finishes or refuses; none crashes,
    and :func:`supported` says which beforehand."""
    from repro.bench import scenarios as sc

    if collective == "driver_failure":
        asked = lambda system: sc.supported(system, "allreduce", sc.Kill())  # noqa: E731
    else:
        asked = lambda system: sc.supported(system, collective)  # noqa: E731

    run = {
        "p2p": lambda system: sc.run(sc.Scenario("p2p", system, 2, MB))["latency"],
        "broadcast": lambda system: sc.measure_broadcast(system, 4, MB),
        "gather": lambda system: sc.measure_gather(system, 4, MB),
        "reduce": lambda system: sc.measure_reduce(system, 4, MB),
        "allreduce": lambda system: sc.measure_allreduce(system, 4, MB),
        "allgather": lambda system: sc.measure_allgather(system, 4, MB),
        "alltoall": lambda system: sc.measure_alltoall(system, 4, MB),
        "driver_failure": lambda system: sc.measure_driver_failure(system, 4, MB),
    }[collective]
    for system in SUPPORTED_SYSTEMS:
        assert asked(system) == (system not in _UNSUPPORTED[collective]), system
        try:
            latency = run(system)
        except UnsupportedScenarioError:
            assert system in _UNSUPPORTED[collective], system
            continue
        assert system not in _UNSUPPORTED[collective], system
        assert math.isfinite(latency) and latency > 0, (system, latency)
