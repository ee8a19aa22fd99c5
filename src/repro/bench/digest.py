"""Golden determinism record for the simulation kernel.

The simulator is deterministic: a seeded scenario must produce bit-identical
results run after run — and, critically, *refactor after refactor*.  The
perf work on the kernel (coalesced block transfers, incremental admission
matching, memoized fabric paths) is only admissible because this record
pins the simulated results: a fast path that changes a completion time, a
per-tier byte count, or the run's ObjectID allocation order is a behaviour
change, not an optimization.

The record, ``tests/golden_record.json``, holds one row per run, as
cell -> row label -> column:

* ``latency``: the completion time the scenario reports (its ``repr``);
* ``events``: the run's kernel event count;
* ``flow``: a short sha256 of :func:`_flow_fingerprint`, the per-link and
  per-tier byte counters and the control-message count (integers, exact);
* ``ids``: the run's own ObjectID counter after the run
  (``repr(cluster.object_ids)``, e.g. ``count(8)``); the allocation order is
  schedule-sensitive, so this catches reordered control flow that happens
  to produce the same latencies;
* ``ledger`` (``coalesced_accounting``): a short sha256 of
  :func:`_link_ledger`, every link's busy time, grants and bytes;
* ``recovery`` (``control_plane_kills``): the run's recovery dict ``repr``;
* ``latencies`` (``apps``): a short sha256 of an application run's
  iteration latencies' ``repr``.

The MoE and fleet rows of ``perf_basket`` have only ``latency`` and
``events``; an ``apps`` row has ``latency`` (the run's duration),
``events`` and ``latencies``.  A ``fuzz_band`` row holds the fuzzer's own ``digest`` of one
seed, and a ``grant_order`` row also the sha256 of its run's kernel pops.

``claims_quick`` and ``claims_full`` pin every column of every claims row
(:mod:`repro.bench.claims`) on its grid by ``repr``, one row per claims
row keyed ``"{table}: {label}"`` (:func:`claims_cell`).

``tests/test_golden_determinism.py`` compares every cell but
``claims_full`` (``benchmarks/bench_claims.py`` compares that one) with
the record and prints the entries that moved as a table;
``python -m repro.bench.digest`` prints the same table for every cell, and
with ``--write`` also rewrites the record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from functools import partial
from pathlib import Path
from typing import Callable, Optional

from repro.bench.scenarios import Kill, Scenario, rack_interleaved_delays, run
from repro.core.options import HopliteOptions
from repro.net.config import NetworkConfig
from repro.net.failure import poisson_failures
from repro.net.faults import FailureEvent
from repro.net.topology import Topology

MB = 1024 * 1024
GB = 1024 * MB

#: the committed record (cell -> row -> column -> value).
RECORD = Path(__file__).resolve().parents[3] / "tests" / "golden_record.json"


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


def _row(scenario: Scenario, observe: Optional[Callable] = None, ledger: bool = False) -> dict:
    """Run ``scenario`` and return its row; ``observe`` also sees the cluster."""
    clusters: list = []

    def watch(cluster) -> None:
        clusters.append(cluster)
        if observe is not None:
            observe(cluster)

    result = run(scenario, observe=watch)
    row = {
        "latency": repr(result["latency"]),
        "events": result["events"],
        "flow": _digest(_flow_fingerprint(result["usage"]))[:16],
        "ids": _object_id_state(clusters[0]),
    }
    if ledger:
        row["ledger"] = _digest(_link_ledger(clusters[0]))[:16]
    if result["recovery"] is not None:
        row["recovery"] = repr(result["recovery"])
    return row


def churn_scenario(collective: str, seed: int) -> Scenario:
    """Unthinned Poisson churn: 8 nodes, 16 MB, 2 racks at 2:1, 1 Gbps.

    Nodes 1-7 fail at 4/s over 0.8 s and stay down 0.2 s (failure seed
    ``seed``); the object plane's recovery and reconstruction ride through.
    """
    network = NetworkConfig(bandwidth=1.25e8, topology=Topology.racks(2, 4, oversubscription=2.0))
    failures = poisson_failures(
        node_ids=list(range(1, 8)), rate_per_second=4.0, horizon=0.8, downtime=0.2, seed=seed
    )
    return Scenario(collective, "hoplite", 8, 16 * MB, network=network, faults=failures)


def fig7_cell() -> dict:
    """One flat fig7-style cell: four collectives, object plane + static.

    8 nodes, 32 MB objects on the default flat fabric — every transfer rides
    the flow-scheduled transport, the broadcast trees pipeline through
    partial sources, and the static baselines stream whole objects.  The
    claims cells hold the same latencies, but no events, flow or ids.
    """
    return {
        label: _row(Scenario(collective, system, 8, 32 * MB))
        for label, collective, system in (
            ("bcast-hoplite", "broadcast", "hoplite"),
            ("allred-hoplite", "allreduce", "hoplite"),
            ("allgat-hoplite", "allgather", "hoplite"),
            ("a2a-hoplite", "alltoall", "hoplite"),
            ("allgat-openmpi", "allgather", "openmpi"),
            ("allred-gloo", "allreduce", "gloo"),
        )
    }


def fault_matrix_cell() -> dict:
    """Allgather and alltoall under :func:`churn_scenario` seed 0.

    This pins the failure paths — reservation cancellation, partial-copy
    recovery, incarnation-lapsing exclusions — which the fast path must
    reproduce exactly.
    """
    return {f"{c}-faults": _row(churn_scenario(c, 0)) for c in ("allgather", "alltoall")}


def matching_cell(num_nodes: int) -> dict:
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
    return {
        label: _row(Scenario(collective, "hoplite", num_nodes, 32 * MB))
        for label, collective in (
            ("a2a-hoplite", "alltoall"),
            ("allgat-hoplite", "allgather"),
            ("allred-hoplite", "allreduce"),
        )
    }


def _rack_scenario(collective: str, nodes_per_rack: int, nbytes: int) -> Scenario:
    """Topology-aware Hoplite on 4 racks at 4:1, rack-interleaved arrivals
    (the broadcast's receivers only)."""
    network = NetworkConfig(topology=Topology.racks(4, nodes_per_rack, oversubscription=4.0))
    delays = rack_interleaved_delays(4, nodes_per_rack)
    return Scenario(
        collective,
        "hoplite",
        4 * nodes_per_rack,
        nbytes,
        network=network,
        options=HopliteOptions(topology_aware=True),
        arrivals=delays[1:] if collective == "broadcast" else delays,
    )


def _moe_row(num_nodes: int, num_iterations: int) -> dict:
    from repro.apps.moe import run_moe_routing

    result = run_moe_routing(num_nodes, "hoplite", num_iterations=num_iterations)
    return {"latency": repr(result.duration), "events": result.metrics["events_processed"]}


def _fleet_row(num_racks: int, nodes_per_rack: int, quick: bool) -> dict:
    from repro.bench.fleet import run_fleet

    result = run_fleet(
        num_jobs=24,
        num_racks=num_racks,
        nodes_per_rack=nodes_per_rack,
        quick=quick,
        observe=False,
    )
    return {"latency": repr(result.duration), "events": result.cluster.sim.events_processed}


def perf_basket_cell() -> dict:
    """The cells of the old simulator-throughput basket no other cell pins.

    Pipeline-bound 16-node chains (1 GB broadcast, 256 MB reduce), the
    64-node gather and static baselines, the oversubscribed 4-rack sweep
    points, the MoE routing mix and the 24-job fleet.  The 64-node 1 GB
    allreduce is left out for its cost; its 32 MB sibling is in
    ``matching_64``.
    """
    rows = {
        label: _row(scenario)
        for label, scenario in (
            ("gather-64-32MB", Scenario("gather", "hoplite", 64, 32 * MB)),
            ("allred-gloo-64-256MB", Scenario("allreduce", "gloo", 64, 256 * MB)),
            ("allgat-openmpi-64-32MB", Scenario("allgather", "openmpi", 64, 32 * MB)),
            ("bcast-16-1GB", Scenario("broadcast", "hoplite", 16, GB)),
            ("reduce-16-256MB", Scenario("reduce", "hoplite", 16, 256 * MB)),
            ("rack-bcast-32MB", _rack_scenario("broadcast", 4, 32 * MB)),
            ("rack-bcast-8MB", _rack_scenario("broadcast", 2, 8 * MB)),
            ("rack-allred-32MB", _rack_scenario("allreduce", 4, 32 * MB)),
        )
    }
    rows["moe-16n-2it"] = _moe_row(16, 2)
    rows["moe-8n-1it"] = _moe_row(8, 1)
    rows["fleet-4rack"] = _fleet_row(4, 8, quick=False)
    rows["fleet-2rack-quick"] = _fleet_row(2, 4, quick=True)
    return rows


def fuzz_band_cell() -> dict:
    """The differential fuzzer's digests themselves, not just their equality.

    The fast-paths-on digest of every scenario in seeds 0-79 and the
    killed (fast-paths-on) digest of the control-plane band's seeds 0-9.
    The fuzz tests only compare fast paths on against off, so a change
    that moves both sides alike passes them; this cell does not.
    """
    from repro.bench.fuzz import control_plane_case, generate_spec, run_spec

    rows = {f"seed-{s}": {"digest": run_spec(generate_spec(s), fast_paths=True)} for s in range(80)}
    for seed in range(10):
        rows[f"control-plane-{seed}"] = {
            "digest": run_spec(control_plane_case(seed)[0], fast_paths=True)
        }
    return rows


def grant_order_cell() -> dict:
    """Every kernel pop of a contended 16-node alltoall and allgather.

    Hoplite, flat fabric, 8 MB objects.  Each pop contributes its
    ``(when, seq, event type)`` to the row's ``digest``, collected with
    ``sim.on_pop``: the order in which the kernel dispatched every grant,
    timeout and wake-up, so an admission change that keeps the latencies
    but reorders a same-instant tie fails here.
    """
    rows: dict = {}
    for collective in ("alltoall", "allgather"):
        digest = hashlib.sha256()

        def observe(cluster, update=digest.update) -> None:
            def on_pop(when, seq, event) -> None:
                update(repr((when, seq, type(event).__name__)).encode("utf-8"))

            cluster.sim.on_pop = on_pop

        row = _row(Scenario(collective, "hoplite", 16, 8 * MB), observe=observe)
        rows[collective] = {**row, "digest": digest.hexdigest()}
    return rows


def ablations_cell() -> dict:
    """The Hoplite ablation paths: no pipelining, no relay, and both.

    ``HopliteOptions(enable_pipelining=False)`` (a pull waits for a sealed
    source), ``(enable_dynamic_broadcast=False)`` (every receiver pulls
    whole objects from a complete copy) and both together, each on p2p
    1 GB, broadcast 8 x 64 MB, broadcast 16 x 256 MB at 0.01 s arrivals,
    reduce 8 x 64 MB at 0.01 s and allreduce 8 x 64 MB.
    """
    rows: dict = {}
    for name, options in (
        ("no-pipelining", HopliteOptions(enable_pipelining=False)),
        ("no-relay", HopliteOptions(enable_dynamic_broadcast=False)),
        (
            "neither",
            HopliteOptions(enable_pipelining=False, enable_dynamic_broadcast=False),
        ),
    ):
        for label, collective, nodes, nbytes, arrivals in (
            ("p2p-1GB", "p2p", 2, GB, 0.0),
            ("bcast-8-64MB", "broadcast", 8, 64 * MB, 0.0),
            ("bcast-16-256MB-0.01s", "broadcast", 16, 256 * MB, 0.01),
            ("reduce-8-64MB-0.01s", "reduce", 8, 64 * MB, 0.01),
            ("allred-8-64MB", "allreduce", 8, 64 * MB, 0.0),
        ):
            scenario = Scenario(
                collective, "hoplite", nodes, nbytes, arrivals=arrivals, options=options
            )
            rows[f"{name}/{label}"] = _row(scenario)
    return rows


def coalesced_accounting_cell() -> dict:
    """The coalesced 1 GB pipelines and a 2-rack broadcast, with link ledgers.

    The five cells of the ``pipeline`` benchmark workload (broadcast and
    reduce at 64 nodes, broadcast, reduce and allreduce at 16 nodes with
    arrivals 0.1 s apart) and a 256 MB broadcast on two racks of four at
    2:1, whose claim sets include tier links.  The ``ledger`` column pins
    the float busy-time sums that a coalesced run credits over hundreds of
    blocks.
    """
    two_racks = NetworkConfig(topology=Topology.racks(2, 4, oversubscription=2.0))
    return {
        label: _row(scenario, ledger=True)
        for label, scenario in (
            ("bcast-64-1GB", Scenario("broadcast", "hoplite", 64, GB)),
            ("reduce-64-1GB", Scenario("reduce", "hoplite", 64, GB)),
            ("bcast-16-1GB-0.1s", Scenario("broadcast", "hoplite", 16, GB, arrivals=0.1)),
            ("reduce-16-1GB-0.1s", Scenario("reduce", "hoplite", 16, GB, arrivals=0.1)),
            ("allred-16-1GB-0.1s", Scenario("allreduce", "hoplite", 16, GB, arrivals=0.1)),
            ("bcast-2rack-256MB", Scenario("broadcast", "hoplite", 8, 256 * MB, network=two_racks)),
        )
    }


def control_plane_kills_cell() -> dict:
    """Directory, lineage and both-target kills of an 8-node 16 MB allreduce.

    Three kills at half the fault-free run, and two lineage kills at 0.30 s
    while node 3 is down (it fails at 0.01 s and rejoins at 0.4 s), the only
    setup here whose re-executed tasks reach ``lookup_spec`` while the
    lineage plane is down and park there.
    """
    node_down = (FailureEvent(3, 0.01, 0.4),)
    cells = [
        (f"allred-{target}-0.5", "allreduce", (), Kill(target, fraction=0.5))
        for target in ("directory", "lineage", "both")
    ] + [
        (f"{collective}-lineage-parked", collective, node_down, Kill("lineage", at=0.30))
        for collective in ("allreduce", "broadcast")
    ]
    return {
        label: _row(Scenario(collective, "hoplite", 8, 16 * MB, faults=failures, kill=kill))
        for label, collective, failures, kill in cells
    }


def wedges_cell() -> dict:
    """Runs that once never completed, each pinned as it now completes.

    Seven :func:`churn_scenario` cells in which a fetch whose node died
    while it was parked created a writerless entry, and two control-plane
    fuzz cases whose shard recovery died at its first deferred wake.
    """
    from repro.bench.fuzz import control_plane_case

    rows = {
        f"{collective}-seed{seed}": _row(churn_scenario(collective, seed))
        for collective, seed in (
            ("allgather", 9),
            ("allgather", 19),
            ("allgather", 58),
            ("allgather", 80),
            ("alltoall", 9),
            ("alltoall", 23),
            ("alltoall", 62),
        )
    }
    for seed in (65, 77):
        rows[f"control-plane-seed{seed}"] = _row(control_plane_case(seed)[0].scenario)
    return rows


def apps_cell() -> dict:
    """One run per branch of the five applications, at the test sizes.

    Async SGD, IMPALA and A3C on the Hoplite and Ray planes, each with and
    without a failure; serving at 8 and 16 nodes and with the Fig. 12
    failure; synchronous training on Hoplite, Ray, OpenMPI and Gloo; MoE
    on Hoplite and Dask and with a failure.  ``latencies`` is a short
    sha256 of the iteration latencies' ``repr``.
    """
    from repro.apps import (
        run_async_sgd,
        run_model_serving,
        run_moe_routing,
        run_rl_training,
        run_sync_training,
    )

    runs: dict[str, Callable] = {}
    for system in ("hoplite", "ray"):
        runs[f"sgd-{system}"] = partial(run_async_sgd, 8, "alexnet", system, 3)
        runs[f"sgd-{system}-failure"] = partial(
            run_async_sgd, 6, "resnet50", system, 8, failure=FailureEvent(2, 1.0, 2.0)
        )
        for algorithm in ("impala", "a3c"):
            runs[f"{algorithm}-{system}"] = partial(run_rl_training, 6, algorithm, system, 3)
            runs[f"{algorithm}-{system}-failure"] = partial(
                run_rl_training, 6, algorithm, system, 3, failure=FailureEvent(2, 0.1, 0.5)
            )
    runs["serving-8"] = partial(run_model_serving, 8, "hoplite", 4)
    runs["serving-16"] = partial(run_model_serving, 16, "hoplite", 4)
    runs["serving-fig12"] = partial(
        run_model_serving, 8, "hoplite", 40, failure=FailureEvent(3, 2.0, 4.5)
    )
    for system in ("hoplite", "ray", "openmpi", "gloo"):
        runs[f"sync-{system}"] = partial(run_sync_training, 8, "resnet50", system, 2)
    for system in ("hoplite", "dask"):
        runs[f"moe-{system}"] = partial(run_moe_routing, 4, system, 2)
    runs["moe-hoplite-failure"] = partial(
        run_moe_routing, 4, "hoplite", 2, failure=FailureEvent(2, 0.005, 0.05)
    )
    rows = {}
    for label, app in runs.items():
        result = app()
        rows[label] = {
            "latency": repr(result.duration),
            "events": result.metrics["events_processed"],
            "latencies": _digest([result.iteration_latencies])[:16],
        }
    return rows


GOLDEN_CELLS: dict[str, Callable[[], dict]] = {
    "fig7_flat": fig7_cell,
    "fault_matrix_2rack": fault_matrix_cell,
    "matching_16": lambda: matching_cell(16),
    "matching_64": lambda: matching_cell(64),
    "perf_basket": perf_basket_cell,
    "fuzz_band": fuzz_band_cell,
    "grant_order": grant_order_cell,
    "ablations": ablations_cell,
    "coalesced_accounting": coalesced_accounting_cell,
    "control_plane_kills": control_plane_kills_cell,
    "wedges": wedges_cell,
    "apps": apps_cell,
}


#: the claims cell of each grid, by ``quick``.
CLAIMS_CELLS = {True: "claims_quick", False: "claims_full"}


def claims_cell(quick: bool, tables: Optional[dict] = None) -> dict:
    """The claims tables of one grid (built, unless given as name -> rows)
    as a record cell: ``"{table}: {label}"`` -> column -> ``repr``."""
    from repro.bench import claims

    if tables is None:
        tables = {name: claims.build(name, quick) for name in claims.FIGURES}
    return {
        f"{name}: {claims._label(row)}": {column: repr(value) for column, value in row.items()}
        for name, rows in tables.items()
        for row in rows
    }


def claims_diff(quick: bool, tables: dict) -> list[tuple]:
    """:func:`diff` of ``tables`` against their rows in the record."""
    cell = CLAIMS_CELLS[quick]
    recorded = {
        key: row for key, row in load_record()[cell].items() if key.partition(": ")[0] in tables
    }
    return diff({cell: recorded}, {cell: claims_cell(quick, tables)})


def load_record() -> dict:
    return json.loads(RECORD.read_text())


def _show(value) -> str:
    return "missing" if value is None else "present" if isinstance(value, dict) else str(value)


def diff(recorded, now, path: tuple = ()) -> list[tuple]:
    """Every entry that differs between two records, as ``(cell, row,
    column, recorded, now)``; a cell or row on one side only is one entry
    whose missing levels read ``*``."""
    if not (isinstance(recorded, dict) and isinstance(now, dict)):
        if recorded == now:
            return []
        return [(*path, *("*",) * (3 - len(path)), _show(recorded), _show(now))]
    keys = list(recorded) + [key for key in now if key not in recorded]
    return [
        entry for key in keys for entry in diff(recorded.get(key), now.get(key), (*path, key))
    ]


def table(moved: list[tuple]) -> str:
    """``moved`` as a Markdown table, one line per entry."""
    lines = ["| cell | row | column | recorded | now |", "|---|---|---|---|---|"]
    lines.extend("| " + " | ".join(map(str, entry)) + " |" for entry in moved)
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Check every golden cell against the record.")
    parser.add_argument("--write", action="store_true", help="rewrite the record")
    args = parser.parse_args(argv)
    recorded = load_record() if RECORD.exists() else {}
    now = {cell: build() for cell, build in GOLDEN_CELLS.items()}
    now.update((cell, claims_cell(quick)) for quick, cell in CLAIMS_CELLS.items())
    moved = diff(recorded, now)
    print(table(moved) if moved else f"{len(now)} cells match the record")
    if args.write:
        RECORD.write_text(json.dumps(now, indent=1) + "\n")
    return 1 if moved and not args.write else 0


if __name__ == "__main__":
    raise SystemExit(main())
