"""Every bound refuses NaN, and a fault names a node of its cluster.

A bound written as ``if x < 0: raise`` lets NaN through, because every
comparison with NaN is false; the bounds are written as ``if not x >= 0``,
the way ``Simulator.schedule_at`` refuses a NaN time.  A NaN that gets
through runs on silently (a NaN ``failure_detection_delay``) or fails far
from its source (a NaN ``bandwidth``).
"""

import math

import pytest

from repro.bench.scenarios import Kill, Scenario, run
from repro.collectives.naive import TaskSystemProfile
from repro.net import Cluster, NetworkConfig
from repro.net.faults import ControlPlaneFailureEvent, FailureEvent
from repro.net.topology import Topology

MB = 1024 * 1024
NAN = math.nan


@pytest.mark.parametrize(
    "build",
    [
        *(
            pytest.param(
                lambda field=field: NetworkConfig(**{field: NAN}), id=f"NetworkConfig.{field}"
            )
            for field in (
                "bandwidth",
                "latency",
                "rpc_latency",
                "memcpy_bandwidth",
                "block_size",
                "small_object_threshold",
                "reduce_block_compute_bandwidth",
                "failure_detection_delay",
                "num_directory_shards",
            )
        ),
        *(
            pytest.param(
                lambda field=field: Topology.racks(2, 2, **{field: NAN}), id=f"Topology.{field}"
            )
            for field in (
                "oversubscription",
                "zone_oversubscription",
                "rack_latency",
                "zone_latency",
            )
        ),
        pytest.param(
            lambda: Topology.racks(2, 2, nic_bandwidths=(None, NAN, None, None)),
            id="Topology.nic_bandwidths",
        ),
        pytest.param(lambda: FailureEvent(1, NAN), id="FailureEvent.fail_at"),
        pytest.param(lambda: FailureEvent(1, 0.1, NAN), id="FailureEvent.recover_at"),
        pytest.param(
            lambda: ControlPlaneFailureEvent("lineage", NAN), id="ControlPlaneFailureEvent.fail_at"
        ),
        pytest.param(lambda: Kill("driver", at=NAN), id="Kill.at"),
        pytest.param(lambda: Kill("driver", downtime=NAN), id="Kill.downtime"),
        pytest.param(
            lambda: TaskSystemProfile("x", NAN, 1.0), id="TaskSystemProfile.per_op_overhead"
        ),
        pytest.param(
            lambda: TaskSystemProfile("x", 0.0, NAN), id="TaskSystemProfile.bandwidth_efficiency"
        ),
        pytest.param(lambda: Cluster(4).schedule_failure(1, NAN), id="schedule_failure.at"),
        pytest.param(
            lambda: Cluster(4).schedule_failure(1, 0.1, NAN), id="schedule_failure.recover_at"
        ),
        pytest.param(
            lambda: run(Scenario("broadcast", "hoplite", 4, MB, arrivals=NAN)),
            id="Scenario.arrivals-interval",
        ),
        pytest.param(
            lambda: run(Scenario("reduce", "hoplite", 4, MB, arrivals=[0.0, NAN, 0.0, 0.0])),
            id="Scenario.arrivals-per-rank",
        ),
        pytest.param(
            lambda: run(Scenario("reduce", "hoplite", 4, MB, arrivals=[0.0, -0.1, 0.0, 0.0])),
            id="Scenario.arrivals-negative",
        ),
    ],
)
def test_nan_fails_every_bound(build):
    with pytest.raises(ValueError):
        build()


def test_a_node_failure_names_a_node_of_the_cluster():
    """A negative id would index from the end and fail the last node; an id
    past the cluster would surface only when its injector fires."""
    with pytest.raises(ValueError, match="node_id must be non-negative"):
        FailureEvent(-1, 0.001, 0.01)
    cluster = Cluster(4)
    for node_id in (-1, 4, 7):
        with pytest.raises(ValueError, match=f"node {node_id} is not in this 4-node cluster"):
            cluster.schedule_failure(node_id, 0.001, 0.01)
    # Nothing was spawned for the refused failures.
    assert cluster.sim.peek() == math.inf
    with pytest.raises(ValueError, match="node 7 is not in this 4-node cluster"):
        run(Scenario("allgather", "hoplite", 4, MB, faults=(FailureEvent(7, 0.001, 0.01),)))
    # The last node is still a valid victim.
    failed = run(Scenario("allgather", "hoplite", 4, MB, faults=(FailureEvent(3, 0.001, 0.01),)))
    assert failed["latency"] == pytest.approx(0.0125390824, abs=1e-10)
