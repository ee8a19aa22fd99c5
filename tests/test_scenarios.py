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
from repro.bench.scenarios import Kill, Scenario, UnsupportedScenarioError, run, supported
from repro.net import NetworkConfig
from repro.net.faults import ControlPlaneFailureEvent, FailureEvent

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


#: node 3 dies at 0.2 s and rejoins at 0.4 s, mid-transfer on a 1 Gbps fabric.
_NODE_DOWN = dict(network=NetworkConfig(bandwidth=1.25e8), faults=(FailureEvent(3, 0.2, 0.4),))


@pytest.mark.parametrize("system", ["hoplite", "openmpi"])
@pytest.mark.parametrize("collective", ["broadcast", "reduce", "allreduce", "gather", "p2p"])
def test_node_failure_without_kill_refused_before_simulating(collective, system):
    """The direct drivers of the rooted collectives (and of p2p) cannot
    recover a node failure, so the run is refused before a cluster is
    built, not failed after it simulated."""
    built = []
    with pytest.raises(UnsupportedScenarioError, match="cannot recover node failures"):
        run(Scenario(collective, system, 8, 64 * MB, **_NODE_DOWN), observe=built.append)
    assert built == []


def test_node_failure_still_runs_where_it_is_recovered():
    """Allgather and alltoall ride the failure directly; every orchestrated
    collective rides it under a kill."""
    for collective in ("allgather", "alltoall"):
        for system in ("hoplite", "openmpi"):
            assert run(Scenario(collective, system, 8, 64 * MB, **_NODE_DOWN))["latency"] > 0.4
    for collective in ("broadcast", "reduce", "allreduce", "reduce_scatter"):
        for kill in (Kill("driver"), Kill("lineage", at=0.3)):
            scenario = Scenario(collective, "hoplite", 8, 64 * MB, kill=kill, **_NODE_DOWN)
            assert run(scenario)["latency"] > 0.4, (collective, kill)
    scenario = Scenario("broadcast", "openmpi", 8, 64 * MB, kill=Kill("driver"), **_NODE_DOWN)
    assert run(scenario)["latency"] > 0.4


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


def test_control_plane_failure_event_checks_its_fields():
    with pytest.raises(ValueError, match="^target must be 'directory_shard' or 'lineage'$"):
        ControlPlaneFailureEvent("directory", 0.1)
    for fail_at, shard_id in ((-0.1, 0), (0.1, -1)):
        with pytest.raises(ValueError, match="^fail_at and shard_id must be non-negative$"):
            ControlPlaneFailureEvent("directory_shard", fail_at, shard_id)


#: one fault of each kind, 0.5 ms into runs that take 1.5-10 ms at 4 nodes / 1 MB.
_FAULTS = {
    "node": FailureEvent(3, 5e-4, 5e-3),
    "directory_shard": ControlPlaneFailureEvent("directory_shard", 5e-4),
    "lineage": ControlPlaneFailureEvent("lineage", 5e-4),
}
_SYSTEMS = ("hoplite", "ray", "openmpi", "gloo", "optimal")
_NOT_HOPLITE = ("ray", "openmpi", "gloo", "optimal")
_DIRECT = ("p2p", "broadcast", "gather", "reduce", "allreduce", "allgather", "alltoall")
_ORCHESTRATED = ("broadcast", "reduce", "allreduce", "allgather", "alltoall", "reduce_scatter")
_COLLECTIVES = _DIRECT + ("reduce_scatter",)

#: (fault, under Kill("driver")) -> collective -> the systems run() refuses;
#: every other cell must complete.  Only allgather and alltoall ride a node
#: failure on their direct drivers, only Hoplite has a control plane to
#: kill, only the orchestrator has a lineage plane, and "optimal"
#: simulates nothing, so it takes no fault.
_REFUSED = {
    ("node", False): {
        **dict.fromkeys(_COLLECTIVES, _SYSTEMS),
        "allgather": ("optimal",),
        "alltoall": ("optimal",),
    },
    ("node", True): {
        "p2p": _SYSTEMS,
        "broadcast": ("optimal",),
        "gather": _SYSTEMS,
        "reduce": ("gloo", "optimal"),
        "allreduce": ("optimal",),
        "allgather": ("optimal",),
        "alltoall": ("optimal",),
        "reduce_scatter": ("openmpi", "gloo", "optimal"),
    },
    ("directory_shard", False): {
        **dict.fromkeys(_DIRECT, _NOT_HOPLITE),
        "reduce_scatter": _SYSTEMS,
    },
    ("directory_shard", True): {
        **dict.fromkeys(_ORCHESTRATED, _NOT_HOPLITE),
        "p2p": _SYSTEMS,
        "gather": _SYSTEMS,
    },
    ("lineage", False): dict.fromkeys(_COLLECTIVES, _SYSTEMS),
    ("lineage", True): {
        **dict.fromkeys(_ORCHESTRATED, _NOT_HOPLITE),
        "p2p": _SYSTEMS,
        "gather": _SYSTEMS,
    },
}


@pytest.mark.parametrize("collective", _COLLECTIVES)
@pytest.mark.parametrize("killed", [False, True], ids=["direct", "kill"])
@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_fault_refusal_matrix(fault, killed, collective):
    """Every fault reaches its collective or is refused before a cluster
    is built: :func:`supported` and :func:`run` agree with the table."""
    kill = Kill("driver") if killed else None
    refused = _REFUSED[(fault, killed)][collective]
    faults = (_FAULTS[fault],)
    for system in _SYSTEMS:
        assert supported(system, collective, kill, faults) == (system not in refused), system
        built = []
        scenario = Scenario(collective, system, 4, MB, faults=faults, kill=kill)
        if system in refused:
            with pytest.raises(UnsupportedScenarioError):
                run(scenario, observe=built.append)
            assert built == [], system
        else:
            latency = run(scenario, observe=built.append)["latency"]
            assert len(built) == 1 and math.isfinite(latency) and latency > 0, system
