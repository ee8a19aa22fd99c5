"""The paper's evaluation as one gated table of claims.

Each figure of the evaluation (§5, Figs. 6-15), the §5.1.1 directory
microbenchmark, the allgather/alltoall and MoE extension, the
§3.3/§3.4.1 mechanism ablation and four more tables is one table in
:data:`FIGURES`, built on a fixed grid: one full grid and one quick grid,
and nothing else to pick.  The four are the §6 fault-tolerance story, a
driver kill (``driver_kill``: recovery overhead against a static job
restart) and a control-plane kill (``control_plane_kill``: WAL replay
against a static restart), then the alltoall against its pipelined bound
under flow scheduling (``alltoall_bound``) and topology-aware against
oblivious collectives on oversubscribed rack uplinks (``topology``).
Each entry of :data:`CLAIMS` is one claim about one table, checked as
``measured <= bound`` (``<`` where the claim is strict), where
``measured`` is a ratio of two cells or a cell against a constant.  A
claim reports its worst cell.  It fails if any of its cells reads NaN
(an unsupported system, say) or if the grid that ran holds none of its
cells, so it never passes vacuously.

Sanity invariants that are not paper claims raise from :func:`build`
instead: a collective latency (Hoplite, OpenMPI and Ray) is positive, the
Fig. 12 async SGD runs complete all 20 iterations, Fig. 7's flat fabric
carries no rack or zone traffic, the topology runs do, a directory kill
replays WAL records, and the alltoall moves bulk bytes and control
messages.

``benchmarks/bench_claims.py`` prints every table and its claims, and a
tier-1 test checks the quick grid.  This module imports the application
workloads, so ``repro.bench`` does not import it.
"""

from __future__ import annotations

import itertools
import math
import statistics
from dataclasses import dataclass
from typing import Callable

from repro.apps.common import FailureSchedule
from repro.apps.moe import run_moe_routing
from repro.apps.param_server import run_async_sgd
from repro.apps.rl import run_rl_training
from repro.apps.serving import run_model_serving
from repro.apps.sync_training import run_sync_training
from repro.bench.reporting import format_series, format_table
from repro.bench.scenarios import Kill, Scenario, rack_interleaved_delays, run, supported
from repro.core.options import HopliteOptions
from repro.core.runtime import HopliteRuntime
from repro.net.cluster import Cluster
from repro.net.config import NetworkConfig
from repro.net.topology import Topology
from repro.store.objects import ObjectID, ObjectValue

KB = 1024
MB = 1024 * KB
GB = 1024 * MB
NAN = float("nan")

#: a claim's cells: ``(label, measured)`` pairs read from one table's rows.
Cells = Callable[[list], list]


def _nbytes(size: str) -> int:
    """``"32MB"`` -> 33554432."""
    return int(size[:-2]) * {"KB": KB, "MB": MB, "GB": GB}[size[-2:]]


def _grid(**axes) -> tuple:
    """One key per combination of ``axes``, the first axis outermost."""
    return tuple(dict(zip(axes, values)) for values in itertools.product(*axes.values()))


def _latency(collective: str, system: str, nodes: int, nbytes: int, **fields) -> float:
    return run(Scenario(collective, system, nodes, nbytes, **fields))["latency"]


def _versus_ray(run_app: Callable) -> dict:
    """Hoplite's and Ray's throughput, and Hoplite's speedup."""
    hoplite = run_app("hoplite").throughput
    ray = run_app("ray").throughput
    return {"hoplite": hoplite, "ray": ray, "speedup": hoplite / ray if ray else NAN}


# ---------------------------------------------------------------------------
# Tables: one measurement per grid key
# ---------------------------------------------------------------------------


def _fig6(size: str) -> dict:
    systems = ("optimal", "hoplite", "openmpi", "ray", "dask")
    return {system: _latency("p2p", system, 2, _nbytes(size)) for system in systems}


_COLLECTIVE_SYSTEMS = {
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


def _collective(primitive: str, size: str, nodes: int) -> dict:
    """Every system's latency, the pipelined optimum, Hoplite's ratio to it
    (``x_optimal``) and the fraction of Hoplite's NIC bytes that also
    crossed a rack uplink / inter-zone link (``rack_frac`` / ``zone_frac``)."""
    nbytes = _nbytes(size)
    row: dict = {}
    for system in _COLLECTIVE_SYSTEMS[primitive]:
        if not supported(system, primitive):
            row[system] = NAN
            continue
        result = run(Scenario(primitive, system, nodes, nbytes))
        row[system] = result["latency"]
        if system == "hoplite":
            row["rack_frac"] = result["usage"]["cross_rack_fraction"]
            row["zone_frac"] = result["usage"]["cross_zone_fraction"]
    row["optimal"] = _latency(primitive, "optimal", nodes, nbytes)
    row["x_optimal"] = row["hoplite"] / row["optimal"]
    return row


def _chain(primitive: str, size: str, nodes: int) -> dict:
    """A chain-shaped Hoplite collective against its pipelined chain bound,
    ``S/B + (n-1) * (block/B + L)`` (reduce adds its per-hop combine)."""
    config = NetworkConfig()
    nbytes, hops = _nbytes(size), nodes - 1
    lag = config.block_size / config.bandwidth + config.latency
    if primitive == "reduce":
        lag += config.block_size / config.reduce_block_compute_bandwidth
    latency = _latency(primitive, "hoplite", nodes, nbytes)
    bound = nbytes / config.bandwidth + hops * lag
    return {"latency": latency, "chain_bound": bound, "x_chain": latency / bound}


_FIG8_RUNS = (
    ("broadcast", "hoplite"),
    ("broadcast", "openmpi"),
    ("reduce", "hoplite"),
    ("reduce", "openmpi"),
    ("allreduce", "hoplite"),
    ("allreduce", "openmpi"),
    ("allreduce", "gloo_ring_chunked"),
)


def _fig8(interval: float) -> dict:
    """1 GB collectives on 16 nodes whose participants arrive ``interval`` apart."""
    row: dict = {"last_arrival": interval * 15}
    for collective, system in _FIG8_RUNS:
        scenario = Scenario(collective, system, 16, GB, arrivals=interval)
        # Columns name the system family: gloo_ring_chunked reads "gloo".
        row[f"{collective}_{system.partition('_')[0]}"] = run(scenario)["latency"]
    row["reduce_openmpi_tail"] = row["reduce_openmpi"] - row["last_arrival"]
    return row


def _fig12(app: str, system: str) -> dict:
    """One latency timeline around a failure and rejoin of node 3."""
    if app == "serving":
        failure = FailureSchedule(node_id=3, fail_at=2.0, recover_at=4.5)
        result = run_model_serving(8, system, 40, failure=failure)
    else:
        failure = FailureSchedule(node_id=3, fail_at=3.0, recover_at=6.0)
        result = run_async_sgd(7, "alexnet", system, 20, failure=failure)
    latencies = result.iteration_latencies
    return {
        "runs": len(latencies),
        "first": latencies[0],
        "min": min(latencies),
        "median": statistics.median(latencies),
        "max": max(latencies),
        "latencies": latencies,
    }


def _fig13(nodes: int, model: str) -> dict:
    return {
        system: run_sync_training(nodes, model, system, 3).throughput
        for system in ("hoplite", "openmpi", "gloo", "ray")
    }


def _fig15(size: str, nodes: int) -> dict:
    """Reduce latency with the tree degree forced to 1, 2 and n."""
    row = {}
    for degree, label in ((1, "d=1"), (2, "d=2"), (0, "d=n")):
        options = HopliteOptions(reduce_degree=degree, enable_small_object_cache=False)
        row[label] = _latency("reduce", "hoplite", nodes, _nbytes(size), options=options)
    return row


def _directory(operation: str) -> dict:
    """Mean and std of 64 location publishes or lookups on 16 nodes."""
    nodes, repeats = 16, 64
    cluster = Cluster(num_nodes=nodes, network=NetworkConfig())
    runtime = HopliteRuntime(cluster)
    sim = cluster.sim
    samples = {"publish": [], "lookup": []}

    def _bench():
        for index in range(repeats):
            object_id = ObjectID.unique(cluster, f"dir-bench-{index}")
            node = cluster.nodes[index % nodes]
            runtime.store(node).put_complete(object_id, ObjectValue.of_size(MB))
            start = sim.now
            yield from runtime.directory.publish_complete(node, object_id, MB)
            samples["publish"].append(sim.now - start)
            reader = cluster.nodes[(index + 1) % nodes]
            start = sim.now
            yield from runtime.directory.wait_for_object(reader, object_id)
            samples["lookup"].append(sim.now - start)

    sim.process(_bench(), name="directory-bench")
    cluster.run()
    sim.check_failures()
    return {
        "mean": statistics.fmean(samples[operation]),
        "std": statistics.pstdev(samples[operation]),
    }


_VARIANTS = {
    "full hoplite": HopliteOptions(),
    "no pipelining": HopliteOptions(enable_pipelining=False),
    "no relaying": HopliteOptions(enable_dynamic_broadcast=False),
    "neither": HopliteOptions(enable_pipelining=False, enable_dynamic_broadcast=False),
}


def _ablation(variant: str) -> dict:
    """Pipelining off: every copy waits for a complete upstream copy.
    Relaying (dynamic broadcast) off: receivers pull only complete copies."""
    options = _VARIANTS[variant]
    return {
        "p2p_rtt_1GB": _latency("p2p", "hoplite", 2, GB, options=options),
        "broadcast_64MB_8n": _latency("broadcast", "hoplite", 8, 64 * MB, options=options),
        "broadcast_256MB_16n": _latency("broadcast", "hoplite", 16, 256 * MB, options=options),
    }


#: a 1 Gbps NIC, so a collective lasts about as long as a kill's downtime and
#: detection delay, and the kill lands mid-operation.
_KILL_BANDWIDTH = 1.25e8


def _kill(target: str, fail_at: str, **fields) -> Kill:
    """``target`` killed at ``fail_at`` (``"50%"``) of the fault-free run."""
    return Kill(target, fraction=int(fail_at[:-1]) / 100, **fields)


def _driver_kill(primitive: str, fail_at: str, size: str, nodes: int) -> dict:
    """Each system's recovery overhead (seconds over its own fault-free run)
    when node 0, the root or rank 0, dies at ``fail_at`` of that run and
    rejoins 0.2 s later.  The object planes re-execute the lost share from
    lineage; the static systems restart the whole job once the node is back."""
    kill = _kill("driver", fail_at, downtime=0.2)
    network = NetworkConfig(bandwidth=_KILL_BANDWIDTH)
    row: dict = {}
    for system in ("hoplite", "ray", "openmpi"):
        if not supported(system, primitive, kill):
            row[system] = NAN
            continue
        result = run(Scenario(primitive, system, nodes, _nbytes(size), network=network, kill=kill))
        row[system] = result["latency"] - result["recovery"]["baseline"]
    return row


def _control_plane_kill(target: str, primitive: str, fail_at: str, size: str,
                        nodes: int) -> dict:
    """Hoplite's completion time when ``target`` of the control plane dies
    at ``fail_at`` of the fault-free run and replays its WAL, against a
    static restart (``fail_at + detection + baseline``), and the WAL records
    the directory shards applied."""
    result = run(Scenario(primitive, "hoplite", nodes, _nbytes(size),
                          network=NetworkConfig(bandwidth=_KILL_BANDWIDTH),
                          kill=_kill(target, fail_at)))
    recovery = result["recovery"]
    return {
        "baseline": recovery["baseline"],
        "replay": result["latency"],
        "static_restart": recovery["static_restart"],
        "wal_applied": sum(recovery["replay_applied"]),
    }


def _alltoall_bound(size: str, nodes: int) -> dict:
    """Hoplite alltoall against the pipelined bound ``(n-1) * S / B``, with
    its mean uplink utilization and its bulk and control traffic."""
    result = run(Scenario("alltoall", "hoplite", nodes, _nbytes(size)))
    usage = result["usage"]
    return {
        "latency": result["latency"],
        "bound": result["optimum"],
        "x_bound": result["latency"] / result["optimum"],
        "uplink_util": usage["mean_uplink_utilization"],
        "bulk_bytes": float(usage["bytes_by_class"]["bulk"]),
        "control_msgs": usage["control_messages"],
    }


def _topology(primitive: str, ratio: str, racks: str, size: str) -> dict:
    """Hoplite ``primitive`` on ``racks`` (racks x nodes per rack) whose rack
    uplinks are oversubscribed ``ratio`` (``"4:1"``), topology-aware and oblivious,
    with the aware run's share of NIC bytes that crossed a rack uplink and
    the uplinks' busy time.  Arrivals round-robin across racks, where
    oblivious trees scatter their edges over the shared uplinks."""
    num_racks, per_rack = map(int, racks.split("x"))
    network = NetworkConfig(
        topology=Topology.racks(num_racks, per_rack, oversubscription=float(ratio[:-2]))
    )
    delays = rack_interleaved_delays(num_racks, per_rack)
    # The object-plane broadcast's arrivals count only its receivers.
    arrivals = {"broadcast": delays[1:], "allreduce": delays, "allgather": 0.0}[primitive]
    row: dict = {}
    for mode, aware in (("aware", True), ("oblivious", False)):
        result = run(Scenario(primitive, "hoplite", num_racks * per_rack, _nbytes(size),
                              arrivals=arrivals, network=network,
                              options=HopliteOptions(topology_aware=aware)))
        row[mode] = result["latency"]
        if aware:
            row["rack_frac"] = result["usage"]["cross_rack_fraction"]
            row["rack_busy"] = result["usage"]["tier_busy_time"]["rack_uplink"]
    row["x_aware"] = row["oblivious"] / row["aware"]
    return row


@dataclass(frozen=True)
class Figure:
    """One table: its printed title and columns, its two grids of row keys,
    and the measurement that fills a row from its key."""

    title: str
    columns: tuple
    full: tuple
    quick: tuple
    measure: Callable[..., dict]

    def grid(self, quick: bool) -> tuple:
        return self.quick if quick else self.full


_SYSTEM_COLUMNS = ("hoplite", "openmpi", "gloo", "gloo_ring_chunked", "gloo_halving_doubling",
                   "ray", "dask")
_PRIMITIVES = ("broadcast", "gather", "reduce", "allreduce")
_TOPOLOGY_PRIMITIVES = ("broadcast", "allreduce", "allgather")
_MODELS = ("alexnet", "vgg16", "resnet50")

FIGURES = {
    "fig6": Figure(
        "Figure 6: point-to-point RTT (seconds)",
        ("size", "optimal", "hoplite", "openmpi", "ray", "dask"),
        full=_grid(size=("1KB", "1MB", "1GB")),
        quick=_grid(size=("1KB", "1MB", "1GB")),
        measure=_fig6,
    ),
    "fig7": Figure(
        "Figure 7: collective latency (seconds)",
        ("primitive", "size", "nodes", *_SYSTEM_COLUMNS, "optimal", "x_optimal", "rack_frac",
         "zone_frac"),
        # The paper's 4/8/16-node grid plus a 64-node bandwidth-bound row.
        full=_grid(primitive=_PRIMITIVES, size=("1MB", "32MB", "1GB"), nodes=(4, 8, 16))
        + _grid(primitive=_PRIMITIVES, size=("32MB", "1GB"), nodes=(64,)),
        quick=_grid(primitive=_PRIMITIVES, size=("1MB", "32MB", "1GB"), nodes=(8,))
        + _grid(primitive=_PRIMITIVES, size=("32MB",), nodes=(64,)),
        measure=_collective,
    ),
    "fig7_256": Figure(
        "Figure 7 at fleet scale: 256-node chains (seconds)",
        ("primitive", "size", "nodes", "latency", "chain_bound", "x_chain"),
        full=_grid(primitive=("broadcast", "reduce"), size=("256MB",), nodes=(256,)),
        quick=_grid(primitive=("broadcast", "reduce"), size=("256MB",), nodes=(256,)),
        measure=_chain,
    ),
    "fig8": Figure(
        "Figure 8: 1GB collectives with staggered arrivals on 16 nodes (seconds)",
        ("interval", "last_arrival", *(f"{c}_{s.partition('_')[0]}" for c, s in _FIG8_RUNS),
         "reduce_openmpi_tail"),
        full=_grid(interval=(0.0, 0.1, 0.2, 0.3)),
        quick=_grid(interval=(0.0, 0.1, 0.2, 0.3)),
        measure=_fig8,
    ),
    "fig9": Figure(
        "Figure 9: async SGD throughput, 4 iterations (samples/s)",
        ("nodes", "model", "hoplite", "ray", "speedup"),
        full=_grid(nodes=(8, 16), model=_MODELS),
        quick=_grid(nodes=(8, 16), model=_MODELS),
        measure=lambda nodes, model: _versus_ray(
            lambda system: run_async_sgd(nodes, model, system, 4)
        ),
    ),
    "fig10": Figure(
        "Figure 10: RL training throughput, 4 iterations (samples/s)",
        ("algorithm", "nodes", "hoplite", "ray", "speedup"),
        full=_grid(algorithm=("impala", "a3c"), nodes=(8, 16)),
        quick=_grid(algorithm=("impala", "a3c"), nodes=(8, 16)),
        measure=lambda algorithm, nodes: _versus_ray(
            lambda system: run_rl_training(nodes, algorithm, system, 4)
        ),
    ),
    "fig11": Figure(
        "Figure 11: ensemble serving throughput, 10 queries (queries/s)",
        ("nodes", "hoplite", "ray", "speedup"),
        full=_grid(nodes=(8, 16)),
        quick=_grid(nodes=(8, 16)),
        measure=lambda nodes: _versus_ray(lambda system: run_model_serving(nodes, system, 10)),
    ),
    "fig12": Figure(
        "Figure 12: latency around a failure and rejoin (seconds)",
        ("app", "system", "runs", "first", "min", "median", "max"),
        full=_grid(app=("serving", "async_sgd"), system=("hoplite", "ray")),
        quick=_grid(app=("serving", "async_sgd"), system=("hoplite", "ray")),
        measure=_fig12,
    ),
    "fig13": Figure(
        "Figure 13: synchronous training throughput, 3 rounds (samples/s)",
        ("nodes", "model", "hoplite", "openmpi", "gloo", "ray"),
        full=_grid(nodes=(8, 16), model=_MODELS),
        quick=_grid(nodes=(8, 16), model=_MODELS),
        measure=_fig13,
    ),
    "fig14": Figure(
        "Figure 14: small-object collective latency (seconds)",
        ("primitive", "size", "nodes", *_SYSTEM_COLUMNS),
        full=_grid(primitive=_PRIMITIVES, size=("1KB", "32KB"), nodes=(4, 8, 16)),
        quick=_grid(primitive=_PRIMITIVES, size=("1KB", "32KB"), nodes=(4, 8, 16)),
        measure=_collective,
    ),
    "fig15": Figure(
        "Figure 15: reduce latency by tree degree (seconds)",
        ("size", "nodes", "d=1", "d=2", "d=n"),
        full=_grid(size=("4KB", "32KB", "1MB", "4MB", "32MB"), nodes=(8, 16, 32)),
        quick=_grid(size=("4KB", "32KB", "1MB", "4MB", "32MB"), nodes=(8, 16, 32)),
        measure=_fig15,
    ),
    "directory": Figure(
        "Section 5.1.1: object directory latency (seconds)",
        ("operation", "mean", "std"),
        full=_grid(operation=("publish", "lookup")),
        quick=_grid(operation=("publish", "lookup")),
        measure=_directory,
    ),
    "collectives": Figure(
        "Allgather / alltoall latency (seconds)",
        ("primitive", "size", "nodes", "hoplite", "openmpi", "gloo", "ray", "dask", "optimal",
         "x_optimal"),
        full=_grid(primitive=("allgather", "alltoall"), size=("1MB", "8MB", "32MB"),
                   nodes=(4, 8, 16)),
        quick=_grid(primitive=("allgather", "alltoall"), size=("8MB",), nodes=(4, 8)),
        measure=_collective,
    ),
    "moe": Figure(
        "MoE expert routing (iterations/second)",
        ("nodes", "iterations", "hoplite", "ray", "speedup"),
        full=_grid(nodes=(4, 8), iterations=(3,)),
        quick=_grid(nodes=(4,), iterations=(2,)),
        measure=lambda nodes, iterations: _versus_ray(
            lambda system: run_moe_routing(nodes, system, iterations)
        ),
    ),
    "ablation": Figure(
        "Ablation: pipelining and receiver-driven relaying (seconds)",
        ("variant", "p2p_rtt_1GB", "broadcast_64MB_8n", "broadcast_256MB_16n"),
        full=_grid(variant=tuple(_VARIANTS)),
        quick=_grid(variant=tuple(_VARIANTS)),
        measure=_ablation,
    ),
    "driver_kill": Figure(
        "Driver kill: recovery overhead over the own fault-free run (seconds)",
        ("primitive", "fail_at", "size", "nodes", "hoplite", "ray", "openmpi"),
        full=_grid(primitive=("broadcast", "reduce", "allreduce", "allgather", "alltoall"),
                   fail_at=("50%",), size=("16MB",), nodes=(8,))
        + _grid(primitive=("allreduce",), fail_at=("85%",), size=("16MB",), nodes=(8,)),
        quick=_grid(primitive=("broadcast",), fail_at=("50%",), size=("4MB",), nodes=(4,))
        + _grid(primitive=("allreduce",), fail_at=("85%",), size=("4MB",), nodes=(4,)),
        measure=_driver_kill,
    ),
    "control_plane_kill": Figure(
        "Control-plane kill: WAL replay vs a static job restart (seconds to completion)",
        ("target", "primitive", "fail_at", "size", "nodes", "baseline", "replay",
         "static_restart", "wal_applied"),
        full=_grid(target=("directory",), primitive=("allgather",), fail_at=("25%", "50%"),
                   size=("16MB",), nodes=(8,))
        + _grid(target=("directory", "lineage"), primitive=("allreduce",), fail_at=("50%",),
                size=("16MB",), nodes=(8,))
        + _grid(target=("lineage",), primitive=("broadcast",), fail_at=("50%",),
                size=("16MB",), nodes=(8,))
        + _grid(target=("both",), primitive=("allgather",), fail_at=("50%",), size=("16MB",),
                nodes=(8,)),
        quick=_grid(target=("directory",), primitive=("allgather",), fail_at=("50%",),
                    size=("4MB",), nodes=(4,))
        + _grid(target=("lineage",), primitive=("allreduce",), fail_at=("50%",), size=("4MB",),
                nodes=(4,)),
        measure=_control_plane_kill,
    ),
    "alltoall_bound": Figure(
        "Alltoall: flow-scheduled transport vs the pipelined bound (seconds)",
        ("size", "nodes", "latency", "bound", "x_bound", "uplink_util", "bulk_bytes",
         "control_msgs"),
        full=_grid(size=("16MB",), nodes=(4, 8, 16)),
        quick=_grid(size=("16MB",), nodes=(8,)),
        measure=_alltoall_bound,
    ),
    "topology": Figure(
        "Topology: oversubscribed rack uplinks, aware vs oblivious (seconds)",
        ("primitive", "ratio", "racks", "size", "aware", "oblivious", "x_aware", "rack_frac",
         "rack_busy"),
        # 4x4 racks over four oversubscription ratios, then a 64- and a
        # 256-node fabric at 4:1 (the latter broadcast only).
        full=_grid(primitive=_TOPOLOGY_PRIMITIVES, ratio=("1:1", "2:1", "4:1", "8:1"),
                   racks=("4x4",), size=("32MB",))
        + _grid(primitive=_TOPOLOGY_PRIMITIVES, ratio=("4:1",), racks=("8x8",), size=("32MB",))
        + _grid(primitive=("broadcast",), ratio=("4:1",), racks=("16x16",), size=("32MB",)),
        quick=_grid(primitive=_TOPOLOGY_PRIMITIVES, ratio=("1:1", "4:1"), racks=("4x2",),
                    size=("8MB",)),
        measure=_topology,
    ),
}


def build(name: str, quick: bool = False) -> list:
    """Measure table ``name`` on its quick or full grid.

    A cell that crashes raises; an unsupported system reads NaN.  Raises
    ``ValueError`` if a sanity invariant breaks.
    """
    figure = FIGURES[name]
    rows = [{**key, **figure.measure(**key)} for key in figure.grid(quick)]
    _check_invariants(name, rows)
    return rows


#: the columns a sanity invariant requires to be positive, per table.
_POSITIVE = {
    "fig7": ("hoplite", "openmpi", "ray", "optimal", "x_optimal"),
    "fig14": ("hoplite", "openmpi", "ray", "optimal", "x_optimal"),
    "collectives": ("hoplite", "openmpi", "ray", "optimal", "x_optimal"),
    # Cross-rack traffic really flows through the shared rack uplinks.
    "topology": ("rack_frac", "rack_busy"),
    # The per-class accounting sees the bulk bytes and the control plane.
    "alltoall_bound": ("bulk_bytes", "control_msgs"),
}


def _check_invariants(name: str, rows: list) -> None:
    broken = []
    for row in rows:
        broken += [
            f"{_label(row)}: {column} = {_read(row, column)} is not positive"
            for column in _POSITIVE.get(name, ())
            if not _read(row, column) > 0
        ]
        if name == "control_plane_kill" and row["target"] != "lineage" and row["wal_applied"] == 0:
            broken.append(f"{_label(row)}: the directory kill replayed no WAL record")
        if name == "fig7" and (row["rack_frac"], row["zone_frac"]) != (0.0, 0.0):
            broken.append(f"{_label(row)}: tier traffic on the flat fabric")
        if name == "fig12" and row["app"] == "async_sgd" and row["runs"] != 20:
            broken.append(f"{_label(row)}: {row['runs']} of 20 iterations completed")
    if broken:
        raise ValueError(f"{name}: " + "; ".join(broken))


def render(name: str, rows: list) -> str:
    """Table ``name`` as printed text (Fig. 12 adds its two timelines)."""
    figure = FIGURES[name]
    text = format_table(figure.title, rows, figure.columns)
    if name == "fig12":
        for app, x_label in (("serving", "query"), ("async_sgd", "iteration")):
            series = {row["system"]: row["latencies"] for row in rows if row["app"] == app}
            length = max(map(len, series.values()))
            text += "\n\n" + format_series(
                f"Figure 12 {app}: latency per {x_label} (seconds)",
                x_label,
                list(range(length)),
                series,
            )
    return text


# ---------------------------------------------------------------------------
# Claims
# ---------------------------------------------------------------------------

_FULL = {"variant": "full hoplite"}

#: key columns, in the order a cell label names them.
_KEYS = ("app", "system", "variant", "operation", "target", "primitive", "algorithm", "model",
         "fail_at", "ratio", "racks", "size", "nodes", "iterations", "interval")


def _label(row: dict) -> str:
    return " ".join(
        row[key] if isinstance(row[key], str) else f"{key}={row[key]}"
        for key in _KEYS
        if key in row
    )


def _div(num: float, den: float) -> float:
    """``num / den``; NaN (which fails a claim) unless ``den`` is positive,
    so a negative tail cannot turn an upper bound into a pass."""
    return num / den if den > 0 else NAN


def _read(row: dict, operand) -> float:
    """A column of ``row``, or a constant; a missing column reads NaN."""
    return row.get(operand, NAN) if isinstance(operand, str) else operand


def _selects(row: dict, where: dict) -> bool:
    """``where`` maps a key column to a value, a tuple of values or a predicate."""
    for column, wanted in where.items():
        value = row[column]
        if callable(wanted):
            if not wanted(value):
                return False
        elif value not in (wanted if isinstance(wanted, tuple) else (wanted,)):
            return False
    return True


def _ratio(num, den=1.0, **where) -> Cells:
    """``num / den`` in every row ``where`` selects (each a column or a constant)."""
    return lambda rows: [
        (_label(row), _div(_read(row, num), _read(row, den)))
        for row in rows
        if _selects(row, where)
    ]


def _versus(column: str, *pairs) -> Cells:
    """``column`` in one row over ``column`` in another, per ``(num, den)``
    pair of row keys; a pair whose rows the grid lacks reads no cell."""

    def cells(rows):
        found = []
        for num, den in pairs:
            top = next((row for row in rows if _selects(row, num)), None)
            bottom = next((row for row in rows if _selects(row, den)), None)
            if top is not None and bottom is not None:
                value = _div(_read(top, column), _read(bottom, column))
                found.append((f"{_label(top)} / {_label(bottom)}", value))
        return found

    return cells


def _a3c_scaling(rows) -> list:
    """Ray's 8 -> 16 node A3C scaling over Hoplite's."""
    pair = ({"algorithm": "a3c", "nodes": 16}, {"algorithm": "a3c", "nodes": 8})
    return [
        (label, _div(ray, hoplite))
        for (label, ray), (_, hoplite) in zip(_versus("ray", pair)(rows),
                                              _versus("hoplite", pair)(rows))
    ]


def _allgather_log_bound(rows) -> list:
    """Hoplite allgather over ``n * S / B + L * log2(n)``."""
    config = NetworkConfig()
    return [
        (_label(row), _div(
            _read(row, "hoplite"),
            row["nodes"] * _nbytes(row["size"]) / config.bandwidth
            + config.latency * math.log2(row["nodes"]),
        ))
        for row in rows
        if row["primitive"] == "allgather"
    ]


def _full_is_fastest(rows) -> list:
    """Full Hoplite over every variant, in every column."""
    pairs = [(_FULL, {"variant": variant}) for variant in _VARIANTS]
    return [
        cell
        for column in FIGURES["ablation"].columns[1:]
        for cell in _versus(column, *pairs)(rows)
    ]


@dataclass(frozen=True)
class Claim:
    """One paper claim: ``measured <= bound`` (``<`` if ``strict``) in every cell."""

    figure: str
    statement: str
    cells: Cells
    bound: float
    strict: bool = False


_SMALL = ("1KB", "1MB")
_BRA = ("broadcast", "reduce", "allreduce")

CLAIMS = (
    # Figure 6: point-to-point RTT.
    Claim("fig6", "OpenMPI RTT <= Hoplite RTT at 1 KB and 1 MB",
          _ratio("openmpi", "hoplite", size=_SMALL), 1.0),
    Claim("fig6", "Hoplite RTT < Ray RTT at 1 KB and 1 MB",
          _ratio("hoplite", "ray", size=_SMALL), 1.0, strict=True),
    Claim("fig6", "Ray RTT < Dask RTT at 1 KB and 1 MB",
          _ratio("ray", "dask", size=_SMALL), 1.0, strict=True),
    Claim("fig6", "Hoplite RTT <= 1.10x OpenMPI at 1 GB",
          _ratio("hoplite", "openmpi", size="1GB"), 1.10),
    Claim("fig6", "Hoplite RTT <= 1.10x the optimum at 1 GB",
          _ratio("hoplite", "optimal", size="1GB"), 1.10),
    Claim("fig6", "Ray RTT > 1.2x Hoplite at 1 GB (Hoplite/Ray < 1/1.2)",
          _ratio("hoplite", "ray", size="1GB"), 1 / 1.2, strict=True),
    Claim("fig6", "Ray RTT < Dask RTT at 1 GB",
          _ratio("ray", "dask", size="1GB"), 1.0, strict=True),
    # Figure 7: collectives, 1 MB - 1 GB.
    Claim("fig7", "Hoplite broadcast and reduce <= 1.5x the optimum at 1 GB",
          _ratio("x_optimal", primitive=("broadcast", "reduce"), size="1GB"), 1.5),
    Claim("fig7", "Hoplite broadcast/reduce/allreduce <= 1.10x Ray at 1 MB",
          _ratio("hoplite", "ray", primitive=_BRA, size="1MB"), 1.10),
    Claim("fig7", "Hoplite broadcast/reduce/allreduce < Ray above 1 MB",
          _ratio("hoplite", "ray", primitive=_BRA, size=lambda size: size != "1MB"), 1.0,
          strict=True),
    Claim("fig7", "Hoplite broadcast/reduce/allreduce < Dask",
          _ratio("hoplite", "dask", primitive=_BRA), 1.0, strict=True),
    Claim("fig7", "Hoplite broadcast <= 2x OpenMPI",
          _ratio("hoplite", "openmpi", primitive="broadcast"), 2.0),
    Claim("fig7", "Gloo ring-chunked allreduce <= 1.5x Hoplite at 1 GB",
          _ratio("gloo_ring_chunked", "hoplite", primitive="allreduce", size="1GB"), 1.5),
    Claim("fig7", "Hoplite allreduce <= 2.5x Gloo ring-chunked at 1 GB",
          _ratio("hoplite", "gloo_ring_chunked", primitive="allreduce", size="1GB"), 2.5),
    Claim("fig7_256", "256-node Hoplite broadcast and reduce <= 1.15x the chain bound",
          _ratio("latency", "chain_bound"), 1.15),
    # Figure 8: asynchronous arrivals.
    Claim("fig8", "Hoplite reduce < OpenMPI reduce at every interval",
          _ratio("reduce_hoplite", "reduce_openmpi"), 1.0, strict=True),
    Claim("fig8", "Hoplite allreduce <= 1.15x Gloo at every interval",
          _ratio("allreduce_hoplite", "allreduce_gloo"), 1.15),
    Claim("fig8", "Hoplite reduce finishes no earlier than the last arrival",
          _ratio("last_arrival", "reduce_hoplite", interval=lambda interval: interval > 0), 1.0),
    Claim("fig8", "OpenMPI reduce after the last arrival >= 0.8x its synchronous reduce",
          _versus("reduce_openmpi_tail", ({"interval": 0.0}, {"interval": 0.3})), 1 / 0.8),
    # Figure 9: async SGD.
    Claim("fig9", "Hoplite async SGD speedup over Ray > 1.3x (Ray/Hoplite < 1/1.3)",
          _ratio("ray", "hoplite"), 1 / 1.3, strict=True),
    Claim("fig9", "Async SGD speedup grows from 8 to 16 nodes for every model",
          _versus("speedup", *[({"nodes": 8, "model": m}, {"nodes": 16, "model": m})
                               for m in _MODELS]), 1.0, strict=True),
    Claim("fig9", "AlexNet speedup > ResNet-50 speedup at 16 nodes",
          _versus("speedup", ({"nodes": 16, "model": "resnet50"},
                              {"nodes": 16, "model": "alexnet"})), 1.0, strict=True),
    # Figure 10: reinforcement learning.
    Claim("fig10", "Hoplite RL speedup over Ray > 1.2x (Ray/Hoplite < 1/1.2)",
          _ratio("ray", "hoplite"), 1 / 1.2, strict=True),
    Claim("fig10", "A3C speedup >= 0.9x IMPALA speedup at 16 nodes",
          _versus("speedup", ({"algorithm": "impala", "nodes": 16},
                              {"algorithm": "a3c", "nodes": 16})), 1 / 0.9),
    Claim("fig10", "Hoplite A3C scales better than Ray A3C from 8 to 16 nodes",
          _a3c_scaling, 1.0, strict=True),
    # Figure 11: model serving.
    Claim("fig11", "Hoplite serving speedup over Ray > 1.5x (Ray/Hoplite < 1/1.5)",
          _ratio("ray", "hoplite"), 1 / 1.5, strict=True),
    Claim("fig11", "Serving speedup grows from 8 to 16 nodes",
          _versus("speedup", ({"nodes": 8}, {"nodes": 16})), 1.0, strict=True),
    # Figure 12: fault tolerance.
    Claim("fig12", "Hoplite median serving latency < Ray's across a failure",
          _versus("median", ({"app": "serving", "system": "hoplite"},
                             {"app": "serving", "system": "ray"})), 1.0, strict=True),
    Claim("fig12", "Hoplite serving latency max <= 1.6x its min across a failure",
          _ratio("max", "min", app="serving", system="hoplite"), 1.6),
    Claim("fig12", "Ray serving latency min < 0.95x its first query (drops while down)",
          _ratio("min", "first", app="serving", system="ray"), 0.95, strict=True),
    Claim("fig12", "Async SGD worst iteration < 10x the median, both systems",
          _ratio("max", "median", app="async_sgd"), 10.0, strict=True),
    # Figure 13: synchronous training (throughput).
    Claim("fig13", "Hoplite training throughput > 2x Ray (Ray/Hoplite < 0.5)",
          _ratio("ray", "hoplite"), 0.5, strict=True),
    Claim("fig13", "Gloo throughput >= 0.95x Hoplite",
          _ratio("hoplite", "gloo"), 1 / 0.95),
    Claim("fig13", "Hoplite throughput >= 0.6x Gloo",
          _ratio("gloo", "hoplite"), 1 / 0.6),
    Claim("fig13", "Hoplite throughput <= 1.4x OpenMPI",
          _ratio("hoplite", "openmpi"), 1.4),
    Claim("fig13", "Hoplite throughput >= 0.6x OpenMPI",
          _ratio("openmpi", "hoplite"), 1 / 0.6),
    # Figure 14: small objects.
    Claim("fig14", "Hoplite small-object collectives < Ray",
          _ratio("hoplite", "ray"), 1.0, strict=True),
    Claim("fig14", "Hoplite small-object collectives < Dask",
          _ratio("hoplite", "dask"), 1.0, strict=True),
    Claim("fig14", "Hoplite small-object collectives < 0.05 s",
          _ratio("hoplite"), 0.05, strict=True),
    # Figure 15: reduce-tree degree.
    Claim("fig15", "4 KB, 16 nodes: flat tree d=n <= chain d=1",
          _ratio("d=n", "d=1", size="4KB", nodes=16), 1.0),
    Claim("fig15", "32 MB, 16 nodes: chain d=1 <= flat tree d=n",
          _ratio("d=1", "d=n", size="32MB", nodes=16), 1.0),
    Claim("fig15", "32 MB, 32 nodes: d=2 <= flat tree d=n",
          _ratio("d=2", "d=n", size="32MB", nodes=32), 1.0),
    Claim("fig15", "32 MB, 8 nodes: chain d=1 <= d=2",
          _ratio("d=1", "d=2", size="32MB", nodes=8), 1.0),
    Claim("fig15", "32 MB, 8 nodes: chain d=1 <= flat tree d=n",
          _ratio("d=1", "d=n", size="32MB", nodes=8), 1.0),
    # Section 5.1.1: the object directory.
    Claim("directory", "Publishing a location takes < 1 ms",
          _ratio("mean", operation="publish"), 1e-3, strict=True),
    Claim("directory", "Publishing a location takes > 10 us (10 us/mean < 1)",
          _ratio(1e-5, "mean", operation="publish"), 1.0, strict=True),
    Claim("directory", "Looking up a location takes < 1 ms",
          _ratio("mean", operation="lookup"), 1e-3, strict=True),
    Claim("directory", "Looking up a location takes > 10 us (10 us/mean < 1)",
          _ratio(1e-5, "mean", operation="lookup"), 1.0, strict=True),
    # Allgather / alltoall and MoE routing.
    Claim("collectives", "Hoplite allgather and alltoall <= Ray above 1 MB",
          _ratio("hoplite", "ray", size=lambda size: size != "1MB"), 1.0),
    Claim("collectives", "Hoplite alltoall <= 1.25x the optimum above 1 MB on >= 8 nodes",
          _ratio("x_optimal", primitive="alltoall", size=lambda size: size != "1MB",
                 nodes=lambda nodes: nodes >= 8), 1.25),
    Claim("collectives", "Hoplite allgather <= 1.5x (n*S/B + L*log2 n)",
          _allgather_log_bound, 1.5),
    Claim("collectives", "Hoplite allgather <= 1.6x the optimum (n-1)*S/B at >= 8 MB "
          "(the allgather schedule fix on the roadmap tightens this to 1.10)",
          _ratio("x_optimal", primitive="allgather", size=lambda size: _nbytes(size) >= 8 * MB),
          1.6),
    Claim("moe", "MoE routing throughput over Hoplite > Ray (Ray/Hoplite < 1)",
          _ratio("ray", "hoplite"), 1.0, strict=True),
    # Sections 3.3 and 3.4.1: the two mechanisms.
    Claim("ablation", "Pipelining shortens the 1 GB RTT",
          _versus("p2p_rtt_1GB", (_FULL, {"variant": "no pipelining"})), 1.0, strict=True),
    Claim("ablation", "Relaying more than halves the 256 MB, 16-node broadcast",
          _versus("broadcast_256MB_16n", (_FULL, {"variant": "no relaying"})), 0.5,
          strict=True),
    Claim("ablation", "Full Hoplite <= 1.001x every variant in every column",
          _full_is_fastest, 1.001),
    # Section 6: a killed driver or control plane, against a static restart.
    Claim("driver_kill", "Hoplite's driver-kill overhead > -10 ms, tree-shape noise "
          "(-overhead < 0.01)",
          lambda rows: [(_label(row), -_read(row, "hoplite")) for row in rows], 0.01,
          strict=True),
    Claim("driver_kill", "Hoplite broadcast overhead < OpenMPI's: lineage re-creates the root",
          _ratio("hoplite", "openmpi", primitive="broadcast"), 1.0, strict=True),
    Claim("driver_kill", "Hoplite overhead < OpenMPI's at an 85% kill: partials are adopted",
          _ratio("hoplite", "openmpi", fail_at="85%"), 1.0, strict=True),
    Claim("control_plane_kill", "WAL replay completes before a static job restart would",
          _ratio("replay", "static_restart"), 1.0, strict=True),
    # Flow scheduling and topology awareness.
    Claim("alltoall_bound", "Hoplite alltoall <= 1.2x the pipelined bound on >= 8 nodes",
          _ratio("x_bound", nodes=lambda nodes: nodes >= 8), 1.2),
    Claim("topology", "Topology-aware broadcast/allreduce/allgather < oblivious at >= 4:1",
          _ratio("aware", "oblivious", ratio=("4:1", "8:1")), 1.0, strict=True),
    Claim("topology", "Oblivious broadcast >= 1.5x aware at >= 4:1 (aware/oblivious <= 1/1.5)",
          _ratio("aware", "oblivious", primitive="broadcast", ratio=("4:1", "8:1")),
          1 / 1.5),
)


@dataclass(frozen=True)
class Verdict:
    """One claim checked on one run of its table."""

    claim: Claim
    #: how many cells the claim read; 0 fails the claim.
    cell_count: int
    worst: str
    measured: float
    passed: bool

    @property
    def margin(self) -> float:
        """How far below the bound the worst cell sits, as a fraction of it."""
        return 1.0 - self.measured / self.claim.bound


def evaluate(tables: dict) -> list:
    """Check every claim whose table is in ``tables`` (name -> rows)."""
    verdicts = []
    for claim in CLAIMS:
        if claim.figure not in tables:
            continue
        cells = claim.cells(tables[claim.figure])
        if not cells:
            verdicts.append(Verdict(claim, 0, "no cell in this grid", NAN, False))
            continue
        broken = [cell for cell in cells if math.isnan(cell[1])]
        worst, measured = broken[0] if broken else max(cells, key=lambda cell: cell[1])
        passed = not broken and (
            measured < claim.bound if claim.strict else measured <= claim.bound
        )
        verdicts.append(Verdict(claim, len(cells), worst, measured, passed))
    return verdicts


def format_verdicts(verdicts: list) -> str:
    """The claims as a Markdown table: claim, worst cell, measured, target, margin."""
    lines = [
        "| Table | Claim | Worst cell | Measured | Target | Margin | |",
        "|---|---|---|---|---|---|---|",
    ]
    for verdict in verdicts:
        claim = verdict.claim
        target = f"{'<' if claim.strict else '<='} {claim.bound:.4g}"
        lines.append(
            f"| {claim.figure} | {claim.statement} | {verdict.worst} | {verdict.measured:.4g}"
            f" | {target} | {verdict.margin:+.1%} | {'ok' if verdict.passed else 'FAIL'} |"
        )
    return "\n".join(lines)
