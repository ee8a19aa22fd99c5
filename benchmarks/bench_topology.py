"""Topology sweep: oversubscribed fabrics, topology-aware vs oblivious.

Sweeps the ToR oversubscription ratio over {1:1, 2:1, 4:1, 8:1} on a
multi-rack fabric and runs each collective twice — with
``HopliteOptions(topology_aware=True)`` (locality-aware source selection,
rack-aware broadcast relaying, hierarchical reduce) and with the
``topology_aware=False`` ablation.  Receiver/producer arrival is interleaved
round-robin across racks: synchronized id-ordered arrival happens to build
rack-contiguous chains even obliviously, while placement-uncorrelated
arrival is where oblivious trees scatter edges across the shared tier links.

Expectations:

* at 1:1 the fabric does not bind and the two modes are comparable;
* from 4:1 up, topology-aware broadcast / allreduce / allgather beat the
  oblivious ablation (the shared rack uplinks serialize the oblivious
  trees);
* the aware runs cross racks roughly once per rack (``rack_frac`` near
  ``(R - 1)/n`` for R racks of n/R nodes) while the oblivious runs approach
  1.0 for broadcast.
"""

from repro.bench.reporting import format_table
from repro.bench.scenarios import (
    Scenario,
    measure_allgather,
    measure_allreduce,
    measure_broadcast,
    rack_interleaved_delays,
    run,
)
from repro.core.options import HopliteOptions
from repro.net.config import NetworkConfig
from repro.net.topology import Topology

MB = 1024 * 1024

COLUMNS = [
    "ratio",
    "racks",
    "bcast_aware",
    "bcast_obliv",
    "bcast_x",
    "allred_aware",
    "allred_obliv",
    "allred_x",
    "allgat_aware",
    "allgat_obliv",
    "allgat_x",
    "rack_frac",
    "rack_busy",
]


def topology_rows(
    ratios,
    num_racks: int,
    nodes_per_rack: int,
    nbytes: int,
) -> list[dict]:
    """One row per oversubscription ratio: aware vs oblivious latencies."""
    num_nodes = num_racks * nodes_per_rack
    aware = HopliteOptions(topology_aware=True)
    oblivious = HopliteOptions(topology_aware=False)
    delays = rack_interleaved_delays(num_racks, nodes_per_rack)
    receiver_delays = delays[1:]
    rows = []
    for ratio in ratios:
        network = NetworkConfig(
            topology=Topology.racks(num_racks, nodes_per_rack, oversubscription=ratio)
        )
        row: dict = {"ratio": f"{ratio:g}:1", "racks": f"{num_racks}x{nodes_per_rack}"}
        aware_run = run(
            Scenario(
                "broadcast", "hoplite", num_nodes, nbytes,
                arrivals=receiver_delays, network=network, options=aware,
            )
        )
        row["bcast_aware"], stats = aware_run["latency"], aware_run["usage"]
        row["bcast_obliv"] = measure_broadcast(
            "hoplite",
            num_nodes,
            nbytes,
            arrival_delays=receiver_delays,
            network=network,
            options=oblivious,
        )
        row["bcast_x"] = row["bcast_obliv"] / row["bcast_aware"]
        row["rack_frac"] = stats["cross_rack_fraction"]
        row["rack_busy"] = stats["tier_busy_time"]["rack_uplink"]
        row["allred_aware"] = measure_allreduce(
            "hoplite",
            num_nodes,
            nbytes,
            arrival_delays=delays,
            network=network,
            options=aware,
        )
        row["allred_obliv"] = measure_allreduce(
            "hoplite",
            num_nodes,
            nbytes,
            arrival_delays=delays,
            network=network,
            options=oblivious,
        )
        row["allred_x"] = row["allred_obliv"] / row["allred_aware"]
        row["allgat_aware"] = measure_allgather(
            "hoplite", num_nodes, nbytes, network=network, options=aware
        )
        row["allgat_obliv"] = measure_allgather(
            "hoplite", num_nodes, nbytes, network=network, options=oblivious
        )
        row["allgat_x"] = row["allgat_obliv"] / row["allgat_aware"]
        rows.append(row)
    return rows


def test_topology_oversubscription_sweep(run_once, quick):
    if quick:
        ratios, num_racks, nodes_per_rack, nbytes = (1.0, 4.0), 4, 2, 8 * MB
    else:
        ratios, num_racks, nodes_per_rack, nbytes = (1.0, 2.0, 4.0, 8.0), 4, 4, 32 * MB
    rows = run_once(
        topology_rows,
        ratios=ratios,
        num_racks=num_racks,
        nodes_per_rack=nodes_per_rack,
        nbytes=nbytes,
    )
    print()
    print(
        format_table(
            "Topology sweep: oversubscribed fabric, aware vs oblivious (seconds)",
            rows,
            COLUMNS,
        )
    )
    for row in rows:
        ratio = float(row["ratio"].split(":")[0])
        # Cross-rack traffic really flows through the shared tier links.
        assert row["rack_frac"] > 0.0, row
        assert row["rack_busy"] > 0.0, row
        if ratio >= 4.0:
            # Oversubscription binds: topology awareness must win.
            assert row["bcast_aware"] < row["bcast_obliv"], row
            assert row["allred_aware"] < row["allred_obliv"], row
            assert row["allgat_aware"] < row["allgat_obliv"], row


def test_topology_scaleout_64_nodes(run_once, quick):
    """64-node fabric row (8 racks x 8 nodes at 4:1): awareness still wins."""
    nbytes = 8 * MB if quick else 32 * MB
    rows = run_once(
        topology_rows, ratios=(4.0,), num_racks=8, nodes_per_rack=8, nbytes=nbytes
    )
    print()
    print(format_table("Topology scale-out: 8x8 racks at 4:1 (seconds)", rows, COLUMNS))
    row = rows[0]
    assert row["rack_frac"] > 0.0, row
    assert row["bcast_aware"] < row["bcast_obliv"], row
    assert row["allred_aware"] < row["allred_obliv"], row
    assert row["allgat_aware"] < row["allgat_obliv"], row


def test_topology_fleet_smoke_256_nodes(run_once, quick):
    """256-node broadcast smoke (16 racks x 16 nodes at 4:1, full mode only).

    The rack-aware tree pays ~one cross-rack transfer per rack, so it beats
    the oblivious ablation well past the sweep scale.  Skipped in quick mode:
    the oblivious ablation is coalescing-resistant (every spine slot is
    contended) and the aware run's parked-requester rescans are genuine
    directory work, so the cell costs several wall seconds.
    """
    if quick:
        import pytest

        pytest.skip("256-node smoke runs in the full benchmark mode only")
    from repro.core.options import HopliteOptions

    network = NetworkConfig(topology=Topology.racks(16, 16, oversubscription=4.0))
    delays = rack_interleaved_delays(16, 16)

    def _run():
        aware = measure_broadcast(
            "hoplite",
            256,
            32 * MB,
            arrival_delays=delays[1:],
            network=network,
            options=HopliteOptions(topology_aware=True),
        )
        oblivious = measure_broadcast(
            "hoplite",
            256,
            32 * MB,
            arrival_delays=delays[1:],
            network=network,
            options=HopliteOptions(topology_aware=False),
        )
        return aware, oblivious

    aware, oblivious = run_once(_run)
    print()
    print(f"  256-node broadcast: aware {aware:.4f}s vs oblivious {oblivious:.4f}s")
    assert aware < oblivious, (aware, oblivious)
    assert oblivious / aware >= 1.5, (aware, oblivious)
