"""Golden determinism digests for the simulation kernel.

The simulator is deterministic: a seeded scenario must produce bit-identical
results run after run — and, critically, *refactor after refactor*.  The
perf work on the kernel (coalesced block transfers, incremental admission
matching, memoized fabric paths) is only admissible because these digests
pin the simulated results: a fast path that changes a completion time, a
per-tier byte count, or the global ObjectID allocation order is a behaviour
change, not an optimization.

A digest hashes, for one scenario run:

* every completion time the scenario reports (full ``repr`` precision);
* the per-link and per-tier byte counters from
  :func:`~repro.bench.scenarios.collect_flow_usage` (integers — exact);
* the control-message count;
* the state of the process-global ObjectID counter after the run (the
  allocation *order* is schedule-sensitive, so this catches reordered
  control flow that happens to produce the same latencies).

``tests/test_golden_determinism.py`` asserts these digests against the
values in :data:`RECORDED_DIGESTS`, most of them recorded before the
fast-path refactor.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from functools import partial
from typing import Callable

from repro.net.config import NetworkConfig
from repro.net.failure import poisson_failures
from repro.net.topology import Topology

MB = 1024 * 1024


def _reset_object_ids() -> None:
    from repro.store.objects import reset_id_counter

    reset_id_counter()


def _object_id_state() -> str:
    """The next ObjectID ordinal, without consuming it."""
    from repro.store import objects as objects_module

    return repr(objects_module._id_counter)


def _flow_fingerprint(stats: dict) -> list:
    """The schedule-exact integer counters of one run's flow usage."""
    parts: list = []
    for link in stats["links"]:
        parts.append(
            (
                link.node_id,
                link.direction,
                link.tier,
                tuple(sorted(link.bytes_by_class.items())),
            )
        )
    parts.append(tuple(sorted(stats["bytes_by_class"].items())))
    parts.append(tuple(sorted(stats["tier_bytes"].items())))
    parts.append(stats["control_messages"])
    return parts


def _digest(parts: list) -> str:
    payload = "\n".join(repr(part) for part in parts)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _hash_runs(cells: list) -> str:
    """Digest each ``(label, scenario)`` run, then the ObjectID state."""
    from repro.bench.scenarios import run

    _reset_object_ids()
    parts: list = []
    for label, scenario in cells:
        result = run(scenario)
        parts.append((label, repr(result["latency"])))
        parts.extend(_flow_fingerprint(result["usage"]))
    parts.append(_object_id_state())
    return _digest(parts)


def golden_fig7_cell() -> str:
    """One flat fig7-style cell: four collectives, object plane + static.

    8 nodes, 32 MB objects on the default flat fabric — every transfer rides
    the flow-scheduled transport, the broadcast trees pipeline through
    partial sources, and the static baselines stream whole objects.
    """
    from repro.bench.scenarios import Scenario

    return _hash_runs(
        [
            (label, Scenario(collective, system, 8, 32 * MB))
            for label, collective, system in (
                ("bcast-hoplite", "broadcast", "hoplite"),
                ("allred-hoplite", "allreduce", "hoplite"),
                ("allgat-hoplite", "allgather", "hoplite"),
                ("a2a-hoplite", "alltoall", "hoplite"),
                ("allgat-openmpi", "allgather", "openmpi"),
                ("allred-gloo", "allreduce", "gloo"),
            )
        ]
    )


def golden_fault_matrix_cell(seed: int = 0) -> str:
    """One seeded 2-rack fault-matrix cell: allgather + alltoall under churn.

    The same shape as the fault-injection test matrix: 8 nodes in two
    oversubscribed racks on a slow (1 Gbps) network, a seeded Poisson
    failure schedule over the non-caller nodes, object-plane recovery and
    reconstruction riding through it.  This pins the failure paths —
    reservation cancellation, partial-copy recovery, incarnation-lapsing
    exclusions — which the fast path must reproduce exactly.
    """
    from repro.bench.scenarios import Scenario

    network = NetworkConfig(bandwidth=1.25e8, topology=Topology.racks(2, 4, oversubscription=2.0))
    failures = poisson_failures(
        node_ids=list(range(1, 8)), rate_per_second=4.0, horizon=0.8, downtime=0.2, seed=seed
    )
    scenario = Scenario("allgather", "hoplite", 8, 16 * MB, network=network, failures=failures)
    return _hash_runs(
        [
            ("allgather-faults", scenario),
            ("alltoall-faults", replace(scenario, collective="alltoall")),
        ]
    )


def golden_matching_cell(num_nodes: int) -> str:
    """The contention-bound (matching-limited) collectives at one scale.

    alltoall, allgather and the reduce+broadcast-overlapped allreduce, all on
    the flat fabric with 32 MB objects: every link serves many concurrent
    lockstep flows, so these cells pin exactly the admission behaviour any
    contended-path optimization must reproduce — per-block grant order under
    saturation, relay cascades through partial sources, and the
    REDUCE_PARTIAL/BULK priority interleaving of the overlapped allreduce.

    Recorded at both 16 and 64 nodes: the 16-node cell keeps a quick signal
    in fast dev loops, and the 64-node cell is the scale at which the
    matching-limited admission path does the most work.
    """
    from repro.bench.scenarios import Scenario

    return _hash_runs(
        [
            (label, Scenario(collective, "hoplite", num_nodes, 32 * MB))
            for label, collective in (
                ("a2a-hoplite", "alltoall"),
                ("allgat-hoplite", "allgather"),
                ("allred-hoplite", "allreduce"),
            )
        ]
    )


def _measured(collective: str, system: str, num_nodes: int, nbytes: int, **fields):
    from repro.bench.scenarios import Scenario, run

    result = run(Scenario(collective, system, num_nodes, nbytes, **fields))
    return result["latency"], result["events"]


def _rack_cell(collective: str, nodes_per_rack: int, nbytes: int):
    """Topology-aware Hoplite on 4 racks at 4:1, rack-interleaved arrivals
    (the broadcast's receivers only)."""
    from repro.bench.scenarios import rack_interleaved_delays
    from repro.core.options import HopliteOptions

    network = NetworkConfig(topology=Topology.racks(4, nodes_per_rack, oversubscription=4.0))
    delays = rack_interleaved_delays(4, nodes_per_rack)
    return _measured(
        collective,
        "hoplite",
        4 * nodes_per_rack,
        nbytes,
        network=network,
        options=HopliteOptions(topology_aware=True),
        arrivals=delays[1:] if collective == "broadcast" else delays,
    )


def _moe_cell(num_nodes: int, num_iterations: int) -> tuple[float, int]:
    from repro.apps.moe import run_moe_routing

    result = run_moe_routing(num_nodes, "hoplite", num_iterations=num_iterations)
    return result.duration, result.metrics["events_processed"]


def _fleet_cell(num_racks: int, nodes_per_rack: int, quick: bool) -> tuple[float, int]:
    from repro.bench.fleet import run_fleet

    result = run_fleet(
        num_jobs=24,
        num_racks=num_racks,
        nodes_per_rack=nodes_per_rack,
        quick=quick,
        observe=False,
    )
    return result.duration, result.cluster.sim.events_processed


def golden_perf_basket_cell() -> str:
    """The cells of the old simulator-throughput basket no other cell pins.

    Pipeline-bound 1 GB chains (broadcast and reduce at 64 nodes, their
    16-node variants), the 64-node gather and static baselines, the
    oversubscribed 4-rack sweep points, the MoE routing mix and the
    24-job fleet.  Each cell starts from a fresh ObjectID counter and
    contributes its latency (full ``repr`` precision) and its kernel event
    count.  The 64-node 1 GB allreduce is left out for its cost; its 32 MB
    sibling is in ``matching_64``.
    """
    gb = 1024 * MB
    parts: list = []
    for label, run in (
        ("bcast-64-1GB", lambda: _measured("broadcast", "hoplite", 64, gb)),
        ("reduce-64-1GB", lambda: _measured("reduce", "hoplite", 64, gb)),
        ("gather-64-32MB", lambda: _measured("gather", "hoplite", 64, 32 * MB)),
        ("allred-gloo-64-256MB", lambda: _measured("allreduce", "gloo", 64, 256 * MB)),
        ("allgat-openmpi-64-32MB", lambda: _measured("allgather", "openmpi", 64, 32 * MB)),
        ("bcast-16-1GB", lambda: _measured("broadcast", "hoplite", 16, gb)),
        ("reduce-16-256MB", lambda: _measured("reduce", "hoplite", 16, 256 * MB)),
        ("rack-bcast-32MB", lambda: _rack_cell("broadcast", 4, 32 * MB)),
        ("rack-bcast-8MB", lambda: _rack_cell("broadcast", 2, 8 * MB)),
        ("rack-allred-32MB", lambda: _rack_cell("allreduce", 4, 32 * MB)),
        ("moe-16n-2it", lambda: _moe_cell(16, 2)),
        ("moe-8n-1it", lambda: _moe_cell(8, 1)),
        ("fleet-4rack", lambda: _fleet_cell(4, 8, quick=False)),
        ("fleet-2rack-quick", lambda: _fleet_cell(2, 4, quick=True)),
    ):
        _reset_object_ids()
        latency, events = run()
        parts.append((label, repr(latency), events))
    return _digest(parts)


def golden_fuzz_band_cell() -> str:
    """The differential fuzzer's digests themselves, not just their equality.

    The fast-paths-on digest of every scenario in seeds 0-79 and the
    killed (fast-paths-on) digest of the control-plane band's seeds 0-9.
    The fuzz tests only compare fast paths on against off, so a change
    that moves both sides alike passes them; this cell does not.
    """
    from repro.bench.fuzz import control_plane_differential, generate_spec, run_spec

    parts: list = [run_spec(generate_spec(seed), fast_paths=True) for seed in range(80)]
    parts.extend(control_plane_differential(seed)[2] for seed in range(10))
    return _digest(parts)


GOLDEN_CELLS: dict[str, Callable[[], str]] = {
    "fig7_flat": golden_fig7_cell,
    "fault_matrix_2rack": golden_fault_matrix_cell,
    "matching_16": partial(golden_matching_cell, 16),
    "matching_64": partial(golden_matching_cell, 64),
    "perf_basket": golden_perf_basket_cell,
    "fuzz_band": golden_fuzz_band_cell,
}

#: digests asserted by tests/test_golden_determinism.py.  The first two
#: were recorded on the pre-fast-path kernel.
RECORDED_DIGESTS = {
    "fig7_flat": "385562b63a6a29f796821f4a2f741c1ed2288dd8c59393027d9cdf45235c6293",
    "fault_matrix_2rack": "bed96547f59609fc279e39b660430fc0dcec919fc40ac97b163bfcd55f02c982",
    # Matching-limited collectives (pre-convoy kernel, PR 6 seed state).
    "matching_16": "48432aa4b102815037eb310e2a719cf01d7363f7c6e62a9425052fbf4bc94b89",
    "matching_64": "848116e1113ddf7de78e6f9c1bc095fdfd07c7b7f5eff407bd8898ac500ab655",
    # The old throughput basket's latency pins: recorded on the kernel it
    # last ran on, every latency equal to its pinned value to 1 ns.
    "perf_basket": "ce0b6486dd953fa0c1cddfaaf61c67c54cc130ea900fd096259336758871a542",
    # The fuzz band's own digests, recorded before the scenario drivers
    # moved onto one Scenario/run() model.
    "fuzz_band": "4a0d15e8e652e0c7dcb4e99b7c27944ed9f818d5aa552bcd4ba47ed205453200",
}
