"""Golden determinism digests for the simulation kernel.

The simulator is deterministic: a seeded scenario must produce bit-identical
results run after run — and, critically, *refactor after refactor*.  The
perf work on the kernel (coalesced block transfers, incremental admission
matching, memoized fabric paths) is only admissible because these digests
pin the simulated results: a fast path that changes a completion time, a
per-tier byte count, or the run's ObjectID allocation order is a behaviour
change, not an optimization.

A digest hashes, for one scenario run:

* every completion time the scenario reports (full ``repr`` precision);
* the per-link and per-tier byte counters from
  :func:`~repro.bench.scenarios.collect_flow_usage` (integers — exact);
* the control-message count;
* the state of the run's own ObjectID counter (``cluster.object_ids``)
  after the run (the allocation *order* is schedule-sensitive, so this
  catches reordered control flow that happens to produce the same
  latencies).

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


def _object_id_state(cluster) -> str:
    """The cluster's next ObjectID ordinal, without consuming it."""
    return repr(cluster.object_ids)


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
    """Digest each ``(label, scenario)`` run and its ObjectID state."""
    from repro.bench.scenarios import run

    parts: list = []
    for label, scenario in cells:
        clusters: list = []
        result = run(scenario, observe=clusters.append)
        parts.append((label, repr(result["latency"])))
        parts.extend(_flow_fingerprint(result["usage"]))
        parts.append(_object_id_state(clusters[0]))
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


def _perf_basket_runs() -> list[tuple[str, float, int]]:
    """The cells of the old simulator-throughput basket no other cell pins.

    Pipeline-bound 1 GB chains (broadcast and reduce at 64 nodes, their
    16-node variants), the 64-node gather and static baselines, the
    oversubscribed 4-rack sweep points, the MoE routing mix and the
    24-job fleet, each as ``(label, latency, kernel events)``.  The
    64-node 1 GB allreduce is left out for its cost; its 32 MB sibling
    is in ``matching_64``.
    """
    gb = 1024 * MB
    runs: list = []
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
        latency, events = run()
        runs.append((label, latency, events))
    return runs


def golden_perf_basket_cell() -> str:
    """The basket's latencies (full ``repr`` precision), and nothing else."""
    return _digest([(label, repr(latency)) for label, latency, _ in _perf_basket_runs()])


def golden_perf_basket_events_cell() -> str:
    """The basket's kernel event counts: what a fast path is allowed to move.

    Kept apart from :func:`golden_perf_basket_cell` so a change that only
    saves events re-records this cell and never the latency pin.
    """
    return _digest([(label, events) for label, _, events in _perf_basket_runs()])


def golden_fuzz_band_cell() -> str:
    """The differential fuzzer's digests themselves, not just their equality.

    The fast-paths-on digest of every scenario in seeds 0-79 and the
    killed (fast-paths-on) digest of the control-plane band's seeds 0-9.
    The fuzz tests only compare fast paths on against off, so a change
    that moves both sides alike passes them; this cell does not.
    """
    from repro.bench.fuzz import control_plane_case, generate_spec, run_spec

    parts: list = [run_spec(generate_spec(seed), fast_paths=True) for seed in range(80)]
    parts.extend(run_spec(control_plane_case(seed)[0], fast_paths=True) for seed in range(10))
    return _digest(parts)


def golden_grant_order_cell() -> str:
    """Every kernel pop of a contended 16-node alltoall and allgather.

    Hoplite, flat fabric, 8 MB objects.  Each pop contributes its
    ``(when, seq, event type)``, collected through ``run(observe=...)``
    with ``sim.on_pop``.  The result digests pin latencies and byte
    counters; this cell pins the order in which the kernel dispatched
    every grant, timeout and wake-up, so an admission change that keeps
    the latencies but reorders a same-instant tie fails here.
    """
    from repro.bench.scenarios import Scenario, run

    digest = hashlib.sha256()

    def observe(cluster) -> None:
        def on_pop(when, seq, event, update=digest.update) -> None:
            update(repr((when, seq, type(event).__name__)).encode("utf-8"))

        cluster.sim.on_pop = on_pop

    for collective in ("alltoall", "allgather"):
        digest.update(collective.encode("utf-8"))
        run(Scenario(collective, "hoplite", 16, 8 * MB), observe=observe)
    return digest.hexdigest()


def _ablation_runs() -> list[tuple[str, str, float, int]]:
    """The Hoplite ablation paths: no pipelining, no relay, and both.

    ``HopliteOptions(enable_pipelining=False)`` (a pull waits for a sealed
    source), ``(enable_dynamic_broadcast=False)`` (every receiver pulls
    whole objects from a complete copy) and both together, each on p2p
    1 GB, broadcast 8 x 64 MB, broadcast 16 x 256 MB at 0.01 s arrivals,
    reduce 8 x 64 MB at 0.01 s and allreduce 8 x 64 MB, each as
    ``(ablation, label, latency, kernel events)``.
    """
    from repro.core.options import HopliteOptions

    runs: list = []
    for name, options in (
        ("no-pipelining", HopliteOptions(enable_pipelining=False)),
        ("no-relay", HopliteOptions(enable_dynamic_broadcast=False)),
        (
            "neither",
            HopliteOptions(enable_pipelining=False, enable_dynamic_broadcast=False),
        ),
    ):
        for label, collective, nodes, nbytes, arrivals in (
            ("p2p-1GB", "p2p", 2, 1024 * MB, 0.0),
            ("bcast-8-64MB", "broadcast", 8, 64 * MB, 0.0),
            ("bcast-16-256MB-0.01s", "broadcast", 16, 256 * MB, 0.01),
            ("reduce-8-64MB-0.01s", "reduce", 8, 64 * MB, 0.01),
            ("allred-8-64MB", "allreduce", 8, 64 * MB, 0.0),
        ):
            latency, events = _measured(
                collective, "hoplite", nodes, nbytes, arrivals=arrivals, options=options
            )
            runs.append((name, label, latency, events))
    return runs


def golden_ablations_cell() -> str:
    """The ablation paths' latencies (full ``repr`` precision), and nothing else."""
    return _digest([(name, label, repr(latency)) for name, label, latency, _ in _ablation_runs()])


def golden_ablations_events_cell() -> str:
    """The ablation paths' kernel event counts, pinned apart from the latencies.

    A change that keeps the latencies but moves where a pull waits for its
    source's seal shows here; one that only saves events re-records this
    cell and never :func:`golden_ablations_cell`.
    """
    return _digest([(name, label, events) for name, label, _, events in _ablation_runs()])


def _link_ledger(cluster) -> list:
    """Every link scheduler's accumulators, busy time at full precision."""
    scheds = [
        (node.node_id, sched)
        for node in cluster.nodes
        for sched in (node.uplink_sched, node.downlink_sched)
    ]
    scheds.extend((-1, link.sched) for link in cluster.fabric.iter_links())
    return [
        (
            node_id,
            sched.direction,
            repr(sched.busy_time),
            sched.reservations_granted,
            tuple(sorted((cls.name, count) for cls, count in sched.bytes_by_class.items())),
        )
        for node_id, sched in scheds
    ]


def _coalesced_accounting_runs() -> list[tuple[str, float, int, list]]:
    """The coalesced 1 GB pipelines and a 2-rack broadcast, with link ledgers.

    The five cells of the ``pipeline`` benchmark workload (broadcast and
    reduce at 64 nodes, broadcast, reduce and allreduce at 16 nodes with
    arrivals 0.1 s apart) and a 256 MB broadcast on two racks of four at
    2:1, whose claim sets include tier links, each as ``(label, latency,
    kernel events, link ledger)``.
    """
    from repro.bench.scenarios import Scenario, run

    gb = 1024 * MB
    runs: list = []
    for label, scenario in (
        ("bcast-64-1GB", Scenario("broadcast", "hoplite", 64, gb)),
        ("reduce-64-1GB", Scenario("reduce", "hoplite", 64, gb)),
        ("bcast-16-1GB-0.1s", Scenario("broadcast", "hoplite", 16, gb, arrivals=0.1)),
        ("reduce-16-1GB-0.1s", Scenario("reduce", "hoplite", 16, gb, arrivals=0.1)),
        ("allred-16-1GB-0.1s", Scenario("allreduce", "hoplite", 16, gb, arrivals=0.1)),
        (
            "bcast-2rack-256MB",
            Scenario(
                "broadcast",
                "hoplite",
                8,
                256 * MB,
                network=NetworkConfig(topology=Topology.racks(2, 4, oversubscription=2.0)),
            ),
        ),
    ):
        clusters: list = []
        result = run(scenario, observe=clusters.append)
        runs.append((label, result["latency"], result["events"], _link_ledger(clusters[0])))
    return runs


def golden_coalesced_accounting_cell() -> str:
    """Per-link busy time, grants and bytes of the coalesced 1 GB pipelines.

    Each run contributes its latency and every link's ledger.  The other
    result cells hash integer counters only; this one pins the float
    busy-time sums that a coalesced run credits over hundreds of blocks.
    """
    parts: list = []
    for label, latency, _, ledger in _coalesced_accounting_runs():
        parts.append((label, repr(latency)))
        parts.extend(ledger)
    return _digest(parts)


def golden_coalesced_accounting_events_cell() -> str:
    """The same runs' kernel event counts, pinned apart from the ledgers."""
    return _digest([(label, events) for label, _, events, _ in _coalesced_accounting_runs()])


def _control_plane_kill_runs() -> list[tuple[str, int, list]]:
    """Directory, lineage and both-target kills of an 8-node 16 MB allreduce.

    Three kills at half the fault-free run, and two lineage kills at 0.30 s
    while node 3 is down (it fails at 0.01 s and rejoins at 0.4 s), the only
    setup here whose re-executed tasks reach ``lookup_spec`` while the
    lineage plane is down and park there.  Each run is ``(label, kernel
    events, parts)``: its latency and recovery dict, flow fingerprint and
    ObjectID state.
    """
    from repro.bench.scenarios import Kill, Scenario, run
    from repro.net.faults import FailureEvent

    node_down = (FailureEvent(3, 0.01, 0.4),)
    cells = [
        (f"allred-{target}-0.5", "allreduce", (), Kill(target, fraction=0.5))
        for target in ("directory", "lineage", "both")
    ] + [
        (f"{collective}-lineage-parked", collective, node_down, Kill("lineage", at=0.30))
        for collective in ("allreduce", "broadcast")
    ]
    runs: list = []
    for label, collective, failures, kill in cells:
        clusters: list = []
        scenario = Scenario(collective, "hoplite", 8, 16 * MB, failures=failures, kill=kill)
        result = run(scenario, observe=clusters.append)
        parts = [(label, repr(result["latency"]), repr(result["recovery"]))]
        parts.extend(_flow_fingerprint(result["usage"]))
        parts.append(_object_id_state(clusters[0]))
        runs.append((label, result["events"], parts))
    return runs


def golden_control_plane_kills_cell() -> str:
    """Latency, recovery dict, flow counters and ObjectID state of each kill."""
    return _digest([part for _, _, parts in _control_plane_kill_runs() for part in parts])


def golden_control_plane_kills_events_cell() -> str:
    """The same runs' kernel event counts, pinned apart from the results."""
    return _digest([(label, events) for label, events, _ in _control_plane_kill_runs()])


GOLDEN_CELLS: dict[str, Callable[[], str]] = {
    "fig7_flat": golden_fig7_cell,
    "fault_matrix_2rack": golden_fault_matrix_cell,
    "matching_16": partial(golden_matching_cell, 16),
    "matching_64": partial(golden_matching_cell, 64),
    "perf_basket": golden_perf_basket_cell,
    "perf_basket_events": golden_perf_basket_events_cell,
    "fuzz_band": golden_fuzz_band_cell,
    "grant_order": golden_grant_order_cell,
    "ablations": golden_ablations_cell,
    "ablations_events": golden_ablations_events_cell,
    "coalesced_accounting": golden_coalesced_accounting_cell,
    "coalesced_accounting_events": golden_coalesced_accounting_events_cell,
    "control_plane_kills": golden_control_plane_kills_cell,
    "control_plane_kills_events": golden_control_plane_kills_events_cell,
}

#: digests asserted by tests/test_golden_determinism.py.
RECORDED_DIGESTS = {
    # The first four were re-recorded when ObjectIDs moved onto the cluster:
    # each run now sees the IDs it mints alone, not the ones earlier runs in
    # its cell advanced, and each run's ObjectID state is hashed.
    "fig7_flat": "7bc60e10988961711e52c28c43f540d7ccf72f4fe2510d2189e15c16ea5517be",
    "fault_matrix_2rack": "91957bdb323ca5244aac4ea51f1692a949fbeced9e77cdd094e7f57734bc8770",
    "matching_16": "28b3b9f5840b87111f29484b0c1b15687536f16136d8fae6e431ff71492d6a8c",
    "matching_64": "5bbd7752dcaab28b09c8e2dfae11f97164e9b3342f0e2c8bc9a7153066e9e287",
    # The old throughput basket's latency pins: recorded on the kernel it
    # last ran on, every latency equal to its pinned value to 1 ns.  Since
    # the event counts moved to their own cell it hashes latencies only;
    # that digest was taken on the last tree that hashed both.
    "perf_basket": "303edc2e8a67f4cc3d2e70feb9be999f46de51abb16dc3317c7ddea602558446",
    # The basket's kernel event counts, re-recorded when a held stream gate
    # and a memcpy slot granted at submission stopped taking their queue
    # hops while the kernel is settled (gather-64-32MB 3596 -> 2529,
    # fleet-4rack 12200 -> 11512, fleet-2rack-quick 7643 -> 7076, and eight
    # more cells by 1 to 438; three are unchanged).
    "perf_basket_events": "62b4fdfa19931528e1aa7f173a01c596579190e429bdfb5c21495d8ac6b80207",
    # The fuzz band's own digests, recorded before the scenario drivers
    # moved onto one Scenario/run() model.
    "fuzz_band": "4a0d15e8e652e0c7dcb4e99b7c27944ed9f818d5aa552bcd4ba47ed205453200",
    # Kernel pop order, re-recorded when a held stream gate and a memcpy
    # slot granted at submission stopped taking their queue hops while the
    # kernel is settled: the same pops in the same order, minus those hops
    # (alltoall 6839 -> 6465 pops, allgather 3971 -> 3095; the sequence
    # numbers shift accordingly).
    "grant_order": "55508d36362e1ac6dca756fcdebc185e81dda1da6cce2e277f5e9c373e71948d",
    # The ablation paths' latencies, recorded when the cell was split, on
    # the tree whose single cell (recorded before the five block loops
    # became one) hashed latencies and event counts.
    "ablations": "caea893d908720144e4d7dff57d2376cd0e4d7f127c74bffc4c487793f083d10",
    # Their event counts, re-recorded when held stream gates stopped taking
    # their queue hops while the kernel is settled (no-relay allred-8-64MB
    # 4068 -> 4060, bcast-8-64MB 412 -> 411, bcast-16-256MB-0.01s
    # 3036 -> 3035).
    "ablations_events": "784161eff8a2fa1d37edccbaf3e20181a0dd18cbe5f900fa786d88e6bcb6f795",
    # Per-link busy-time sums, grants and bytes of the coalesced pipelines
    # with their latencies, recorded when the cell was split, on the tree
    # whose single cell (recorded before a run's link accounting was
    # credited in bulk) hashed them with the event counts.
    "coalesced_accounting": "dbf54fb0550ea47520f6ece7b72a44be482bd1062cec36a909d4c71849b573bc",
    # Their event counts, re-recorded when held stream gates stopped taking
    # their queue hops while the kernel is settled (bcast-16-1GB-0.1s
    # 462 -> 377, allred-16-1GB-0.1s 21731 -> 21651, reduce-64-1GB
    # 1987 -> 1923, the two other broadcasts by 1).
    "coalesced_accounting_events": "358911eba17734f8bdbb70b5602b1feb7714c9e89f939aa02eba0caa16b6308a",
    # Directory, lineage and both-target kills and the parked lineage
    # lookups, recorded before the shards and the lineage plane shared one
    # kill, park and replay lifecycle.
    "control_plane_kills": "05a26b35d99057b8a552932af448b354fe1d58022b814ae1a3d0cb58a845261c",
    # Their event counts, re-recorded when held stream gates stopped taking
    # their queue hops while the kernel is settled (allreduce-lineage-parked
    # 808 -> 796; the other four runs are unchanged).
    "control_plane_kills_events": "5fa97beb397c2ba346c8b06d998f55c6395b497314764c80bb1bc00fb687b9d6",
}
