"""Tests for the host-clock self-profiler."""

import pathlib
import re

import pytest

from repro.net import Cluster, NetworkConfig
from repro.obs.hostprof import CATEGORIES, HostProfiler, format_table

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: every file with profiler instrumentation sites.
INSTRUMENTED = (
    "sim/core.py",
    "sim/resources.py",
    "directory/service.py",
    "net/flowsched.py",
    "net/coalesce.py",
)

_BINDING = re.compile(r"^\s*(\w+)(?::[^=]+)? = .*\.host_prof\s*$")
_DEFINITION = re.compile(r"^\s*self\.host_prof\s*:")


def test_disabled_sites_are_single_is_not_none_branch():
    """Every profiler site loads the hook into a local and guards
    it with one ``is (not) None`` branch — the cost when disabled is one
    attribute read and one branch, nothing else (the discipline every
    other observability hook in the kernel follows)."""
    for rel in INSTRUMENTED:
        lines = (SRC / rel).read_text().splitlines()
        for index, line in enumerate(lines):
            if ".host_prof" not in line:
                continue
            stripped = line.strip()
            if stripped.startswith("#") or stripped.startswith('"'):
                continue
            if _DEFINITION.match(line) or '"host_prof"' in line:
                continue  # the Simulator attribute definitions
            match = _BINDING.match(line)
            assert match, f"{rel}:{index + 1}: unexpected site shape: {line!r}"
            name = match.group(1)
            window = "\n".join(lines[index + 1 : index + 6])
            assert (
                f"if {name} is not None" in window or f"if {name} is None" in window
            ), f"{rel}:{index + 1}: binding {name!r} is not None-guarded nearby"


def test_boundary_accounting_sums_and_nests():
    prof = HostProfiler()
    prof.begin_run()
    prof.enter("dispatch")
    prof.enter("admission")
    prof.exit()
    prof.enter("directory")
    prof.exit()
    prof.exit()
    prof.end_run()
    report = prof.report()
    assert report["clock"] == "host"
    assert report["counts"]["dispatch"] == 1
    assert report["counts"]["admission"] == 1
    assert report["counts"]["directory"] == 1
    # Self-times sum to the instrumented total, which covers ~all run wall
    # (each category rounds to the microsecond independently, hence abs=).
    assert report["instrumented_wall_s"] == pytest.approx(
        sum(report["categories"].values()), abs=len(CATEGORIES) * 1e-6
    )
    assert report["kernel_wall_s"] >= report["instrumented_wall_s"] > 0.0
    # This synthetic run is microseconds long, so the one uncovered gap
    # (last exit -> end_run) can be a visible fraction; the >= 0.95
    # acceptance bar is asserted on a real scenario below.
    assert 0.0 < report["coverage"] <= 1.0
    table = format_table(report)
    assert "dispatch" in table and "coverage" in table


def test_merge_accumulates_across_profilers():
    a, b = HostProfiler(), HostProfiler()
    for prof in (a, b):
        prof.begin_run()
        prof.enter("dispatch")
        prof.exit()
        prof.end_run()
    counts_a = a.counts["dispatch"]
    a.merge(b)
    assert a.counts["dispatch"] == counts_a + 1
    assert a.run_ns >= b.run_ns


def _profiled_fleet():
    import repro.net.cluster as cluster_mod
    from repro.bench.fleet import run_fleet
    from repro.store.objects import reset_id_counter

    captured = []
    previous = cluster_mod.ON_CREATE

    def _hook(cluster):
        if previous is not None:
            previous(cluster)
        cluster.enable_host_profiler()
        captured.append(cluster)

    cluster_mod.ON_CREATE = _hook
    try:
        reset_id_counter()
        result = run_fleet(
            num_jobs=8, num_racks=2, nodes_per_rack=4, quick=True, observe=False
        )
    finally:
        cluster_mod.ON_CREATE = previous
    (cluster,) = captured
    return result, cluster


def test_blame_covers_kernel_wall_on_a_real_scenario():
    """Acceptance bar: categories sum to >= 95% of measured kernel wall."""
    _result, cluster = _profiled_fleet()
    report = cluster.hostprof.report()
    assert report["coverage"] >= 0.95
    assert report["instrumented_wall_s"] == pytest.approx(
        sum(report["categories"].values()), abs=len(CATEGORIES) * 1e-6
    )
    # The fleet exercises every instrumented subsystem except coalescing
    # (its collectives take the per-block path at these sizes).
    for cat in ("dispatch", "admission", "flowsched", "directory"):
        assert report["counts"][cat] > 0, cat


def test_profiling_changes_no_simulated_result():
    """Digest equality, the same property the --hostprof fuzz band sweeps."""
    from repro.bench.fuzz import _profilers, generate_spec, run_spec

    spec = generate_spec(3)
    bare = run_spec(spec, fast_paths=True)
    with _profilers():
        profiled = run_spec(spec, fast_paths=True)
    assert profiled == bare


def test_export_stamps_host_clock_label():
    cluster = Cluster(num_nodes=2, network=NetworkConfig())
    prof = cluster.enable_host_profiler()
    cluster.process(iter(cluster.sim.timeout(0.01) for _ in range(1)))
    cluster.run()
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry(cluster.sim)
    prof.export_to(registry)
    families = {family.name for family in registry.sorted_families()}
    assert {"host_wall_seconds", "host_regions", "host_kernel_wall_seconds"} <= families
    for family in registry.sorted_families():
        assert family.name.startswith("host_")
        clock_index = family.label_names.index("clock")
        for child in family.sorted_children():
            assert child.label_values[clock_index] == "host"
    wall = registry.families["host_wall_seconds"]
    subsystems = {
        child.label_values[wall.label_names.index("subsystem")]
        for child in wall.sorted_children()
    }
    assert subsystems == set(CATEGORIES)


def test_enable_is_idempotent_and_chains_after_flight():
    cluster = Cluster(num_nodes=2, network=NetworkConfig())
    first = cluster.enable_host_profiler()
    assert cluster.enable_host_profiler() is first
    assert cluster.sim.host_prof is first
    # The profiler and a flight recorder observe the same run side by side.
    flight = cluster.enable_flight_recorder()
    cluster.process(iter(cluster.sim.timeout(0.001) for _ in range(1)))
    cluster.run()
    assert first.counts["dispatch"] > 0
    assert len(flight.records) > 0
