"""Simulator-throughput basket: wall-clock and events/sec on fixed scenarios.

The simulated results of every scenario here are pinned elsewhere (bound
assertions in the benchmarks, golden digests in :mod:`repro.bench.digest`);
this module measures how fast the *simulator itself* chews through them.
Metrics per scenario:

* ``wall_s`` — host seconds for the run (build + simulate), best of
  ``repeats`` (the numbers are wall-clock and this container's CPU is
  noisy);
* ``events`` / ``events_per_s`` — simulator events processed, and the
  throughput number the CI regression gate watches.

Basket groups, chosen to separate the two kernel regimes:

* ``fig7_64_pipeline`` — 64-node figure-7 cells dominated by uncontended
  block pipelines (broadcast chains, degree-1 reduce chains at 1 GB).
  These are the cells the coalesced-transfer fast path collapses to O(1)
  events per hop: the PR's >= 5x wall-clock acceptance target is measured
  on this group.
* ``fig7_64_matching`` — 64-node cells dominated by *contended* admission
  (gather fan-in, allreduce phase overlap, allgather/alltoall many-to-many,
  static baselines).  Under the bit-for-bit constraint every per-block
  grant decision here is real information — two flows interleaving on one
  link resolve order through the event queue — so these cells improve only
  by the incremental-matching constant factors (~1.2-1.5x), not by
  coalescing.  Tracked so the trajectory is honest about both regimes.
* ``fig7_16`` — 16-node variants cheap enough for the CI ``--quick`` gate.
* ``topology_4rack`` — the oversubscribed-fabric sweep point (memoized
  fabric paths + rack-aware chains).
* ``moe`` — the alltoall-dominated application mix.
* ``fleet`` — the multi-tenant fleet (many jobs sharing one hierarchical
  fabric), timed bare (``observe=False``): the workload ROADMAP item 3
  wants to scale, and the one the ``--profile`` pass dissects.

``benchmarks/bench_perf.py`` wraps this module as a pytest benchmark, and
``python benchmarks/bench_perf.py --write`` regenerates the committed
``BENCH_perf.json`` trajectory file; ``--profile`` adds an untimed
host-profiler pass per scenario (see :func:`_profiled`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.net.config import NetworkConfig
from repro.net.topology import Topology

MB = 1024 * 1024
GB = 1024 * MB


@dataclass(frozen=True)
class PerfScenario:
    """One basket entry: a runner returning ``(sim_seconds, events)``."""

    key: str
    group: str
    run: Callable[[], tuple[float, int]]
    #: scenarios cheap enough for the CI --quick gate.
    quick: bool = False


def _reset_object_ids() -> None:
    from repro.store.objects import reset_id_counter

    reset_id_counter()


def _measured(measure, *args, **kwargs) -> tuple[float, int, dict]:
    stats: dict = {}
    sim_s = measure(*args, flow_stats=stats, **kwargs)
    return sim_s, stats["events_processed"], stats["fastpath"]


def _topology(measure, nodes_per_rack: int, nbytes: int, **kwargs) -> tuple[float, int, dict]:
    from repro.bench.scenarios import rack_interleaved_delays
    from repro.core.options import HopliteOptions

    num_racks = 4
    network = NetworkConfig(
        topology=Topology.racks(num_racks, nodes_per_rack, oversubscription=4.0)
    )
    delays = rack_interleaved_delays(num_racks, nodes_per_rack)
    return _measured(
        measure,
        "hoplite",
        num_racks * nodes_per_rack,
        nbytes,
        network=network,
        options=HopliteOptions(topology_aware=True),
        arrival_delays=delays[1:] if kwargs.pop("receivers_only", False) else delays,
        **kwargs,
    )


def _moe(num_nodes: int, num_iterations: int) -> tuple[float, int, dict]:
    from repro.apps.moe import run_moe_routing

    result = run_moe_routing(num_nodes, "hoplite", num_iterations=num_iterations)
    return result.duration, result.metrics["events_processed"], result.metrics["fastpath"]


def _fleet(
    num_jobs: int, num_racks: int, nodes_per_rack: int, quick: bool
) -> tuple[float, int, dict]:
    from repro.bench.fleet import run_fleet

    # observe=False: the throughput gate times the bare simulator; the
    # observability/profiling variants of this scenario run separately
    # (bench_fleet.py and the --profile pass here).
    result = run_fleet(
        num_jobs=num_jobs,
        num_racks=num_racks,
        nodes_per_rack=nodes_per_rack,
        quick=quick,
        observe=False,
    )
    cluster = result.cluster
    return (
        result.duration,
        cluster.sim.events_processed,
        cluster.fastpath_stats.as_dict(),
    )


def _basket() -> list[PerfScenario]:
    from repro.bench.scenarios import (
        measure_allgather,
        measure_allreduce,
        measure_alltoall,
        measure_broadcast,
        measure_gather,
        measure_reduce,
    )

    return [
        # -- pipeline-bound 64-node fig7 cells (the >= 5x acceptance group) --
        PerfScenario(
            "fig7_64_pipeline/broadcast_1GB_hoplite",
            "fig7_64_pipeline",
            lambda: _measured(measure_broadcast, "hoplite", 64, GB),
        ),
        PerfScenario(
            "fig7_64_pipeline/reduce_1GB_hoplite",
            "fig7_64_pipeline",
            lambda: _measured(measure_reduce, "hoplite", 64, GB),
        ),
        # -- contention-bound 64-node cells (incremental matching only) --
        PerfScenario(
            "fig7_64_matching/gather_32MB_hoplite",
            "fig7_64_matching",
            lambda: _measured(measure_gather, "hoplite", 64, 32 * MB),
        ),
        PerfScenario(
            "fig7_64_matching/allreduce_1GB_hoplite",
            "fig7_64_matching",
            lambda: _measured(measure_allreduce, "hoplite", 64, GB),
        ),
        PerfScenario(
            "fig7_64_matching/allreduce_256MB_gloo",
            "fig7_64_matching",
            lambda: _measured(measure_allreduce, "gloo", 64, 256 * MB),
        ),
        PerfScenario(
            "fig7_64_matching/allgather_32MB_hoplite",
            "fig7_64_matching",
            lambda: _measured(measure_allgather, "hoplite", 64, 32 * MB),
        ),
        PerfScenario(
            "fig7_64_matching/allgather_32MB_openmpi",
            "fig7_64_matching",
            lambda: _measured(measure_allgather, "openmpi", 64, 32 * MB),
        ),
        PerfScenario(
            "fig7_64_matching/alltoall_32MB_hoplite",
            "fig7_64_matching",
            lambda: _measured(measure_alltoall, "hoplite", 64, 32 * MB),
        ),
        # -- 16-node fig7 cells (cheap enough for the CI quick gate) --
        PerfScenario(
            "fig7_16/broadcast_1GB_hoplite",
            "fig7_16",
            lambda: _measured(measure_broadcast, "hoplite", 16, GB),
            quick=True,
        ),
        PerfScenario(
            "fig7_16/reduce_256MB_hoplite",
            "fig7_16",
            lambda: _measured(measure_reduce, "hoplite", 16, 256 * MB),
            quick=True,
        ),
        PerfScenario(
            "fig7_16/alltoall_32MB_hoplite",
            "fig7_16",
            lambda: _measured(measure_alltoall, "hoplite", 16, 32 * MB),
            quick=True,
        ),
        # -- topology sweep point: 4 racks at 4:1, rack-interleaved arrivals --
        PerfScenario(
            "topology_4rack/broadcast_32MB_aware",
            "topology_4rack",
            lambda: _topology(measure_broadcast, 4, 32 * MB, receivers_only=True),
        ),
        PerfScenario(
            "topology_4rack/broadcast_8MB_aware_quick",
            "topology_4rack",
            lambda: _topology(measure_broadcast, 2, 8 * MB, receivers_only=True),
            quick=True,
        ),
        PerfScenario(
            "topology_4rack/allreduce_32MB_aware",
            "topology_4rack",
            lambda: _topology(measure_allreduce, 4, 32 * MB),
        ),
        # -- MoE expert routing (alltoall-dominated application mix) --
        PerfScenario(
            "moe/alltoall_16n_2it",
            "moe",
            lambda: _moe(16, 2),
        ),
        PerfScenario(
            "moe/alltoall_8n_1it",
            "moe",
            lambda: _moe(8, 1),
            quick=True,
        ),
        # -- multi-tenant fleet (the scaling target ROADMAP item 3 names) --
        PerfScenario(
            "fleet/24job_4rack",
            "fleet",
            lambda: _fleet(24, 4, 8, quick=False),
        ),
        PerfScenario(
            "fleet/24job_2rack_quick",
            "fleet",
            lambda: _fleet(24, 2, 4, quick=True),
            quick=True,
        ),
    ]


def _observed_critpath(scenario: PerfScenario) -> dict:
    """One extra (untimed) run with tracing on; the blame-category summary.

    Runs *after* the timed repeats so the observability overhead never
    touches ``wall_s`` / ``events_per_s`` — the throughput gate keeps
    measuring the bare simulator.  Clusters are reached through the
    :data:`repro.net.cluster.ON_CREATE` hook because scenario code builds
    them internally; a scenario that builds several (the MoE mix) sums
    their windows.
    """
    import repro.net.cluster as cluster_mod
    from repro.obs.critpath import CATEGORIES, cluster_blame

    planes: list = []
    previous = cluster_mod.ON_CREATE

    def _hook(cluster) -> None:
        if previous is not None:
            previous(cluster)
        planes.append(cluster.enable_observability(trace_transfers=True))

    cluster_mod.ON_CREATE = _hook
    try:
        _reset_object_ids()
        scenario.run()
    finally:
        cluster_mod.ON_CREATE = previous
    total = 0.0
    categories = {c: 0.0 for c in CATEGORIES}
    for obs in planes:
        blame = cluster_blame(obs, scenario.key)
        total += blame.length
        for category, value in blame.categories.items():
            categories[category] += value
    fractions = {
        c: (round(categories[c] / total, 4) if total > 0 else 0.0) for c in CATEGORIES
    }
    return {"length": round(total, 6), "fractions": fractions}


def _profiled(scenario: PerfScenario) -> dict:
    """One extra (untimed) run with the host profiler on; its report.

    Mirrors :func:`_observed_critpath`: runs *after* the timed repeats, via
    the ``ON_CREATE`` hook, so the profiling overhead never touches
    ``wall_s`` / ``events_per_s``.  Host-profiler totals merge across every
    cluster the scenario builds.
    """
    import repro.net.cluster as cluster_mod

    clusters: list = []
    previous = cluster_mod.ON_CREATE

    def _hook(cluster) -> None:
        if previous is not None:
            previous(cluster)
        cluster.enable_host_profiler()
        clusters.append(cluster)

    cluster_mod.ON_CREATE = _hook
    try:
        _reset_object_ids()
        scenario.run()
    finally:
        cluster_mod.ON_CREATE = previous
    merged = None
    for cluster in clusters:
        if merged is None:
            merged = cluster.hostprof
        else:
            merged.merge(cluster.hostprof)
    return {"hostprof": merged.report() if merged is not None else None}


def run_basket(
    quick: bool = False, repeats: int = 2, profile: bool = False
) -> list[dict]:
    """Run the (quick subset of the) basket; one result row per scenario.

    ``profile=True`` adds one untimed pass per scenario with the host-clock
    self-profiler attached, and folds its report into the row (the
    ``hostprof`` key).  The timed repeats always run bare either way.
    """
    rows = []
    for scenario in _basket():
        if quick and not scenario.quick:
            continue
        best_wall = None
        for _ in range(max(1, repeats)):
            _reset_object_ids()
            start = time.perf_counter()
            sim_s, events, fastpath = scenario.run()
            wall = time.perf_counter() - start
            if best_wall is None or wall < best_wall:
                best_wall = wall
        row = {
            "scenario": scenario.key,
            "group": scenario.group,
            "quick": scenario.quick,
            "sim_s": round(sim_s, 9),
            "wall_s": round(best_wall, 4),
            "events": events,
            "events_per_s": round(events / best_wall) if best_wall > 0 else 0,
            # Per-cluster fast-path counters (repro.net.fastpath), read
            # off the scenario's own cluster: deterministic per run, so
            # the last repeat's counters stand for all of them.
            "fastpath": fastpath,
            # Critical-path category fractions over the traced window,
            # from a separate observed run (deterministic; see
            # _observed_critpath).
            "critpath": _observed_critpath(scenario),
        }
        if profile:
            row.update(_profiled(scenario))
        rows.append(row)
    return rows


def measure_baselines(quick: bool = False, repeats: int = 2) -> dict[str, float]:
    """Per-scenario wall seconds with the fast path off, on *this* host.

    ``fastpath(False)`` restores the pre-fast-path per-block kernel with
    byte-identical simulated results (tests/test_golden_determinism.py), so
    this is the like-for-like ``baseline_pre_pr_wall_s`` measurement —
    re-run by ``--write`` on the recording host instead of trusting wall
    clocks measured on whatever machine recorded the seed.
    """
    from repro.net.fastpath import fastpath

    walls: dict[str, float] = {}
    for scenario in _basket():
        if quick and not scenario.quick:
            continue
        best = None
        for _ in range(max(1, repeats)):
            _reset_object_ids()
            with fastpath(False):
                start = time.perf_counter()
                scenario.run()
                wall = time.perf_counter() - start
            if best is None or wall < best:
                best = wall
        walls[scenario.key] = round(best, 4)
    return walls


def fastpath_totals(rows: list[dict]) -> dict[str, int]:
    """Basket-wide sums of the fast-path observability counters."""
    totals: dict[str, int] = {}
    for row in rows:
        for key, value in row.get("fastpath", {}).items():
            totals[key] = totals.get(key, 0) + value
    return totals


def group_walls(rows: list[dict]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for row in rows:
        totals[row["group"]] = totals.get(row["group"], 0.0) + row["wall_s"]
    return totals
