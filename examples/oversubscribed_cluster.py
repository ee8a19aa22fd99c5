"""Topology-aware collectives on an oversubscribed 4-rack cluster.

Run with::

    python examples/oversubscribed_cluster.py

The example builds a 16-node fabric — 4 racks of 4 nodes, each rack's ToR
uplink oversubscribed 4:1, racks split over 2 zones — then broadcasts 32 MB
and allreduces 32 MB with topology awareness on and off.  Receivers arrive
interleaved across racks (placement uncorrelated with node ids), which is
where oblivious broadcast chains scatter their edges across the shared tier
links.  The per-tier flow report shows where the bytes went.
"""

from __future__ import annotations

from dataclasses import replace

from repro import HopliteOptions, NetworkConfig, Topology
from repro.bench.scenarios import Scenario, rack_interleaved_delays, run

MB = 1024 * 1024
NUM_RACKS = 4
NODES_PER_RACK = 4
NUM_NODES = NUM_RACKS * NODES_PER_RACK


def main() -> None:
    topology = Topology.racks(
        NUM_RACKS,
        NODES_PER_RACK,
        oversubscription=4.0,          # each ToR uplink carries 1/4 of the rack NICs
        zones=(0, 0, 1, 1),            # two zones joined by an aggregation tier
        rack_latency=5.0e-5,           # extra hop per cross-rack transfer
        zone_latency=1.0e-4,           # and one more across zones
    )
    network = NetworkConfig(topology=topology)
    delays = rack_interleaved_delays(NUM_RACKS, NODES_PER_RACK)
    print(
        f"fabric: {NUM_RACKS} racks x {NODES_PER_RACK} nodes, "
        f"4:1 ToR oversubscription, {topology.num_zones} zones"
    )

    for primitive, arrivals in (("broadcast", delays[1:]), ("allreduce", delays)):
        scenario = Scenario(
            primitive, "hoplite", NUM_NODES, 32 * MB, arrivals=arrivals, network=network
        )
        aware_run = run(replace(scenario, options=HopliteOptions(topology_aware=True)))
        oblivious_run = run(replace(scenario, options=HopliteOptions(topology_aware=False)))
        aware, oblivious = aware_run["latency"], oblivious_run["latency"]
        stats = aware_run["usage"]
        tiers = stats["tier_bytes"]
        print(f"\n{primitive}, 32 MB, interleaved arrivals:")
        print(f"  topology-aware : {aware * 1e3:8.2f} ms")
        print(f"  oblivious      : {oblivious * 1e3:8.2f} ms  ({oblivious / aware:.2f}x slower)")
        print(
            "  aware fabric footprint: "
            f"{tiers['nic'] / MB:.0f} MB at the NICs, "
            f"{tiers['rack_uplink'] / MB:.0f} MB over ToR uplinks "
            f"({stats['cross_rack_fraction']:.0%} cross-rack), "
            f"{tiers['inter_zone'] / MB:.0f} MB across zones"
        )


if __name__ == "__main__":
    main()
