"""Per-figure experiment definitions.

Every public function regenerates the rows/series of one table or figure
from the paper's evaluation, using the scenario drivers and the application
workloads.  The benchmark files under ``benchmarks/`` call these functions
and print the results next to the shapes the paper reports.

The default parameter grids are trimmed relative to the paper (fewer sweep
points, fewer application iterations) so that the whole benchmark suite runs
in minutes on a laptop; every function accepts the full grid if a caller
wants it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.apps.common import FailureSchedule
from repro.apps.moe import run_moe_routing
from repro.apps.param_server import run_async_sgd
from repro.apps.rl import run_rl_training
from repro.apps.serving import run_model_serving
from repro.apps.sync_training import run_sync_training
from repro.bench.scenarios import (
    Scenario,
    measure_point_to_point_rtt,
    measure_reduce,
    run,
    supported,
)
from repro.core.options import HopliteOptions
from repro.net.cluster import Cluster
from repro.net.config import NetworkConfig
from repro.core.runtime import HopliteRuntime
from repro.store.objects import ObjectID, ObjectValue

KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024


# ---------------------------------------------------------------------------
# Figure 6: point-to-point RTT
# ---------------------------------------------------------------------------


def fig6_point_to_point(
    sizes: Sequence[int] = (KB, MB, GB),
    systems: Sequence[str] = ("optimal", "hoplite", "openmpi", "ray", "dask"),
) -> list[dict]:
    """Round-trip latency per object size per system (Figure 6)."""
    rows = []
    for size in sizes:
        row: dict = {"size": _size_label(size)}
        for system in systems:
            row[system] = measure_point_to_point_rtt(system, size)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figures 7 and 14: collective microbenchmarks
# ---------------------------------------------------------------------------

_FIG7_SYSTEMS = {
    "broadcast": ("hoplite", "openmpi", "ray", "dask", "gloo"),
    "gather": ("hoplite", "openmpi", "ray", "dask"),
    "reduce": ("hoplite", "openmpi", "ray", "dask"),
    "allreduce": (
        "hoplite",
        "openmpi",
        "ray",
        "dask",
        "gloo_ring_chunked",
        "gloo_halving_doubling",
    ),
    "allgather": ("hoplite", "openmpi", "gloo", "ray", "dask"),
    "alltoall": ("hoplite", "openmpi", "gloo", "ray", "dask"),
}


def collective_rows(
    sizes: Sequence[int],
    node_counts: Sequence[int],
    primitives: Sequence[str] = ("broadcast", "gather", "reduce", "allreduce"),
    systems_by_primitive: Optional[dict] = None,
    network: Optional[NetworkConfig] = None,
) -> list[dict]:
    """Latency of each collective for each (size, node count, system).

    Every row also carries the collective's pipelined analytical optimum
    (the scenario drivers' ``"optimal"`` system), Hoplite's ratio to it
    (``x_optimal``), and the per-tier traffic ratios of the Hoplite run
    (``rack_frac`` / ``zone_frac``: the fraction of NIC bytes that also
    crossed a rack uplink / inter-zone link — identically zero on the
    default flat fabric), so the tables read directly as
    closeness-to-bound plus fabric footprint.
    """
    systems_by_primitive = systems_by_primitive or _FIG7_SYSTEMS
    rows = []
    for primitive in primitives:
        for size in sizes:
            for num_nodes in node_counts:
                row: dict = {
                    "primitive": primitive,
                    "size": _size_label(size),
                    "nodes": num_nodes,
                }
                for system in systems_by_primitive.get(primitive, ("hoplite",)):
                    if not supported(system, primitive):
                        row[system] = float("nan")
                        continue
                    result = run(Scenario(primitive, system, num_nodes, size, network=network))
                    row[system] = result["latency"]
                    if system == "hoplite":
                        row["rack_frac"] = result["usage"]["cross_rack_fraction"]
                        row["zone_frac"] = result["usage"]["cross_zone_fraction"]
                optimal = run(Scenario(primitive, "optimal", num_nodes, size, network=network))
                row["optimal"] = optimal["latency"]
                row["x_optimal"] = row.get("hoplite", float("nan")) / row["optimal"]
                rows.append(row)
    return rows


def fig7_collectives(
    sizes: Sequence[int] = (MB, 32 * MB, GB),
    node_counts: Sequence[int] = (4, 8, 16),
) -> list[dict]:
    """Figure 7: medium-to-large object collectives."""
    return collective_rows(sizes, node_counts)


def fig14_small_objects(
    sizes: Sequence[int] = (KB, 32 * KB),
    node_counts: Sequence[int] = (4, 8, 16),
) -> list[dict]:
    """Figure 14 (Appendix A): small-object collectives (directory fast path)."""
    return collective_rows(sizes, node_counts)


def allgather_alltoall_rows(
    sizes: Sequence[int] = (MB, 32 * MB),
    node_counts: Sequence[int] = (4, 8, 16),
) -> list[dict]:
    """Collective-family extension: allgather / alltoall latency per system.

    These are the shapes the MPI AI-cluster benchmarks identify as dominating
    MoE expert routing (alltoall) and batch-norm-style statistics exchange
    (allgather); they are not in the paper's figures but reuse its exact
    measurement boundaries.
    """
    return collective_rows(sizes, node_counts, primitives=("allgather", "alltoall"))


# ---------------------------------------------------------------------------
# Figure 8: asynchronous participant arrival
# ---------------------------------------------------------------------------


def fig8_asynchrony(
    intervals: Sequence[float] = (0.0, 0.1, 0.2, 0.3),
    num_nodes: int = 16,
    nbytes: int = GB,
) -> list[dict]:
    """Figure 8: 1 GB collectives with sequentially arriving participants."""
    rows = []
    for interval in intervals:
        row: dict = {"interval": interval, "last_arrival": interval * (num_nodes - 1)}
        for collective, system in (
            ("broadcast", "hoplite"),
            ("broadcast", "openmpi"),
            ("reduce", "hoplite"),
            ("reduce", "openmpi"),
            ("allreduce", "hoplite"),
            ("allreduce", "openmpi"),
            ("allreduce", "gloo_ring_chunked"),
        ):
            scenario = Scenario(collective, system, num_nodes, nbytes, arrivals=interval)
            # Columns name the system family: gloo_ring_chunked reads "gloo".
            row[f"{collective}_{system.partition('_')[0]}"] = run(scenario)["latency"]
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure 9: asynchronous SGD
# ---------------------------------------------------------------------------


def fig9_async_sgd(
    models: Sequence[str] = ("alexnet", "vgg16", "resnet50"),
    node_counts: Sequence[int] = (8, 16),
    num_iterations: int = 5,
) -> list[dict]:
    """Figure 9: async parameter-server training throughput, Hoplite vs Ray."""
    return [
        _versus_ray(
            {"nodes": num_nodes, "model": model},
            lambda system: run_async_sgd(num_nodes, model, system, num_iterations),
        )
        for num_nodes in node_counts
        for model in models
    ]


# ---------------------------------------------------------------------------
# Figure 10: reinforcement learning
# ---------------------------------------------------------------------------


def fig10_rl(
    algorithms: Sequence[str] = ("impala", "a3c"),
    node_counts: Sequence[int] = (8, 16),
    num_iterations: int = 5,
) -> list[dict]:
    """Figure 10: RLlib-style training throughput, Hoplite vs Ray."""
    return [
        _versus_ray(
            {"algorithm": algorithm, "nodes": num_nodes},
            lambda system: run_rl_training(num_nodes, algorithm, system, num_iterations),
        )
        for algorithm in algorithms
        for num_nodes in node_counts
    ]


# ---------------------------------------------------------------------------
# Figure 11: model serving
# ---------------------------------------------------------------------------


def fig11_serving(
    node_counts: Sequence[int] = (8, 16),
    num_queries: int = 10,
) -> list[dict]:
    """Figure 11: ensemble-serving throughput, Hoplite vs Ray."""
    return [
        _versus_ray(
            {"nodes": num_nodes},
            lambda system: run_model_serving(num_nodes, system, num_queries),
        )
        for num_nodes in node_counts
    ]


# ---------------------------------------------------------------------------
# Figure 12: fault tolerance
# ---------------------------------------------------------------------------


def fig12_fault_tolerance(
    num_queries: int = 40,
    num_sgd_iterations: int = 20,
) -> dict[str, dict[str, list[float]]]:
    """Figure 12: per-query / per-iteration latency around a failure + rejoin.

    Returns ``{"serving": {"hoplite": [...], "ray": [...]},
    "async_sgd": {...}}`` where each list is the latency timeline.
    """
    serving_failure = FailureSchedule(node_id=3, fail_at=2.0, recover_at=4.5)
    sgd_failure = FailureSchedule(node_id=3, fail_at=3.0, recover_at=6.0)
    serving = {
        system: run_model_serving(
            8, system, num_queries, failure=serving_failure
        ).iteration_latencies
        for system in ("hoplite", "ray")
    }
    async_sgd = {
        system: run_async_sgd(
            7, "alexnet", system, num_sgd_iterations, failure=sgd_failure
        ).iteration_latencies
        for system in ("hoplite", "ray")
    }
    return {"serving": serving, "async_sgd": async_sgd}


# ---------------------------------------------------------------------------
# Figure 13: synchronous data-parallel training
# ---------------------------------------------------------------------------


def fig13_sync_training(
    models: Sequence[str] = ("alexnet", "vgg16", "resnet50"),
    node_counts: Sequence[int] = (8, 16),
    num_rounds: int = 3,
) -> list[dict]:
    """Figure 13: synchronous training throughput across systems."""
    rows = []
    for num_nodes in node_counts:
        for model in models:
            row: dict = {"nodes": num_nodes, "model": model}
            for system in ("hoplite", "openmpi", "gloo", "ray"):
                row[system] = run_sync_training(num_nodes, model, system, num_rounds).throughput
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure 15: reduce-tree degree ablation
# ---------------------------------------------------------------------------


def fig15_reduce_degree(
    sizes: Sequence[int] = (4 * KB, 32 * KB, 256 * KB, MB, 4 * MB, 8 * MB, 16 * MB, 32 * MB),
    node_counts: Sequence[int] = (8, 16, 32, 64),
    degrees: Sequence[int] = (1, 2, 0),
) -> list[dict]:
    """Figure 15 (Appendix B): reduce latency for forced tree degrees."""
    rows = []
    for size in sizes:
        for num_nodes in node_counts:
            row: dict = {"size": _size_label(size), "nodes": num_nodes}
            for degree in degrees:
                label = "d=n" if degree == 0 else f"d={degree}"
                options = HopliteOptions(
                    reduce_degree=degree,
                    enable_small_object_cache=False,
                )
                row[label] = measure_reduce("hoplite", num_nodes, size, options=options)
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# MoE expert routing (alltoall-dominated application workload)
# ---------------------------------------------------------------------------


def moe_routing(
    node_counts: Sequence[int] = (4, 8),
    num_iterations: int = 3,
) -> list[dict]:
    """MoE expert-routing throughput, Hoplite vs the Ray-style plane."""
    return [
        _versus_ray(
            {"nodes": num_nodes},
            lambda system: run_moe_routing(num_nodes, system, num_iterations),
        )
        for num_nodes in node_counts
    ]


# ---------------------------------------------------------------------------
# Section 5.1.1: object directory microbenchmark
# ---------------------------------------------------------------------------


def directory_latency_microbenchmark(num_nodes: int = 16, repeats: int = 32) -> dict:
    """Average latency of writing and reading object locations (Section 5.1.1)."""
    cluster = Cluster(num_nodes=num_nodes, network=NetworkConfig())
    runtime = HopliteRuntime(cluster)
    sim = cluster.sim
    samples = {"publish": [], "lookup": []}

    def _bench() -> object:
        for index in range(repeats):
            object_id = ObjectID.unique(f"dir-bench-{index}")
            node = cluster.nodes[index % num_nodes]
            store = runtime.store(node)
            store.put_complete(object_id, ObjectValue.of_size(1024 * 1024))
            start = sim.now
            yield from runtime.directory.publish_complete(node, object_id, 1024 * 1024)
            samples["publish"].append(sim.now - start)
            reader = cluster.nodes[(index + 1) % num_nodes]
            start = sim.now
            yield from runtime.directory.wait_for_object(reader, object_id)
            samples["lookup"].append(sim.now - start)

    sim.process(_bench(), name="directory-bench")
    cluster.run()
    return {
        "publish_mean": float(np.mean(samples["publish"])),
        "publish_std": float(np.std(samples["publish"])),
        "lookup_mean": float(np.mean(samples["lookup"])),
        "lookup_std": float(np.std(samples["lookup"])),
    }


def _versus_ray(row: dict, run_app) -> dict:
    """``row`` plus Hoplite's and Ray's throughput and Hoplite's speedup."""
    hoplite = run_app("hoplite").throughput
    ray = run_app("ray").throughput
    speedup = hoplite / ray if ray else float("nan")
    return {**row, "hoplite": hoplite, "ray": ray, "speedup": speedup}


def _size_label(nbytes: int) -> str:
    if nbytes >= GB:
        return f"{nbytes // GB}GB"
    if nbytes >= MB:
        return f"{nbytes // MB}MB"
    if nbytes >= KB:
        return f"{nbytes // KB}KB"
    return f"{nbytes}B"
