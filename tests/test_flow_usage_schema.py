"""The frozen ``collect_flow_usage`` schema, pinned on hand-computed traffic.

Satellite of the observability PR: ``collect_flow_usage`` feeds digests,
perf rows, examples, and the plane's consumers, so its return shape is a
contract (:class:`repro.bench.scenarios.FlowUsage`).  The numbers below are
small enough to check by hand: one 4 MB object crossing one known path.
"""

import dataclasses

import pytest

from repro.bench.scenarios import FlowUsage, collect_flow_usage
from repro.core.runtime import HopliteRuntime
from repro.net.cluster import Cluster
from repro.net.config import NetworkConfig
from repro.net.fastpath import COUNTER_KEYS
from repro.net.topology import Topology
from repro.store.objects import ObjectID, ObjectValue

MB = 1024 * 1024

#: the frozen key set.  Removing or renaming a key breaks digests and every
#: downstream consumer; additions are allowed but must be deliberate (update
#: this tuple and the FlowUsage dataclass in the same commit).
SCHEMA_KEYS = (
    "elapsed",
    "events_processed",
    "links",
    "bytes_by_class",
    "mean_uplink_utilization",
    "max_uplink_utilization",
    "control_messages",
    "tier_bytes",
    "tier_busy_time",
    "cross_rack_fraction",
    "cross_zone_fraction",
    "fastpath",
)


def _one_transfer(src: int, dst: int, nbytes: int = 4 * MB):
    """2 racks x 2 nodes over 2 zones; move one object ``src`` -> ``dst``."""
    topology = Topology.racks(2, 2, oversubscription=2.0, zones=(0, 1))
    cluster = Cluster(num_nodes=4, network=NetworkConfig(topology=topology))
    runtime = HopliteRuntime(cluster)
    oid = ObjectID.unique(cluster, "hand")

    def sender():
        yield from runtime.client(src).put(oid, ObjectValue.of_size(nbytes))

    def receiver():
        yield from runtime.client(dst).get(oid)

    cluster.sim.process(sender())
    cluster.sim.process(receiver())
    cluster.run()
    return cluster, collect_flow_usage(cluster)


def test_schema_is_frozen():
    _, usage = _one_transfer(0, 1)
    assert tuple(usage.keys()) == SCHEMA_KEYS
    assert tuple(f.name for f in dataclasses.fields(FlowUsage)) == SCHEMA_KEYS
    assert set(usage["bytes_by_class"]) == {"control", "reduce_partial", "bulk"}
    assert set(usage["tier_bytes"]) == {"nic", "rack_uplink", "inter_zone"}
    assert set(usage["tier_busy_time"]) == {"nic", "rack_uplink", "inter_zone"}
    assert set(usage["fastpath"]) == set(COUNTER_KEYS) == {"coalesced_runs", "resplits"}


def test_cross_zone_transfer_hand_computed():
    """Node 0 -> node 3 crosses rack0-up, the zone pair, and rack1-down."""
    cluster, usage = _one_transfer(0, 3)
    nbytes = 4 * MB
    # Uplink-side accounting: the 4 MB counts once per tier it crossed.
    assert usage["bytes_by_class"] == {
        "control": 0,
        "reduce_partial": 0,
        "bulk": nbytes,
    }
    assert usage["tier_bytes"] == {
        "nic": nbytes,
        "rack_uplink": nbytes,
        "inter_zone": nbytes,
    }
    assert usage["cross_rack_fraction"] == 1.0
    assert usage["cross_zone_fraction"] == 1.0
    # One transfer at a time: every tier was busy for exactly the NIC-rate
    # serialization time (2:1 oversubscription still leaves one NIC's worth).
    serialization = nbytes / cluster.config.bandwidth
    for tier, busy in usage["tier_busy_time"].items():
        assert busy == pytest.approx(serialization), tier
    # Only node 0's uplink carried bytes; the mean averages all 4 uplinks.
    assert usage["max_uplink_utilization"] == pytest.approx(
        4 * usage["mean_uplink_utilization"]
    )
    assert 0.0 < usage["max_uplink_utilization"] <= 1.0
    assert usage["control_messages"] > 0
    assert usage["elapsed"] >= serialization
    assert usage["events_processed"] == cluster.sim.events_processed
    busy_links = [
        (link.node_id, link.direction, link.tier)
        for link in usage["links"]
        if sum(link.bytes_by_class.values())
    ]
    assert busy_links == [
        (0, "up", "nic"),
        (3, "down", "nic"),
        (-1, "rack0-up", "rack_up"),
        (-1, "rack1-down", "rack_down"),
        (-1, "zone0-up", "zone_up"),
        (-1, "zone1-down", "zone_down"),
    ]


def test_same_rack_transfer_stays_off_the_fabric_tiers():
    _, usage = _one_transfer(0, 1)
    nbytes = 4 * MB
    assert usage["bytes_by_class"]["bulk"] == nbytes
    assert usage["tier_bytes"] == {"nic": nbytes, "rack_uplink": 0, "inter_zone": 0}
    assert usage["tier_busy_time"]["rack_uplink"] == 0.0
    assert usage["cross_rack_fraction"] == 0.0
    assert usage["cross_zone_fraction"] == 0.0
