"""The multi-tenant fleet scenario under the observability plane.

Runs the fleet of :mod:`repro.bench.fleet` — 24 concurrent
training/serving/MoE/RL jobs from two tenants on a 4-rack oversubscribed
fabric — with metrics and tracing on, prints the SLO verdict table and the
congestion/latency correlation, and writes the full metrics registry (with
its simulated-time series) as a JSON artifact for CI to upload.

Also pins the export contract: the quick fleet's Prometheus text exposition
is deterministic under a fixed seed (two in-process runs render
byte-identically) and its family/label-name sets stay frozen.

Standalone::

    PYTHONPATH=src python benchmarks/bench_fleet.py [--quick] [--out FILE]
"""

import json
import os
import pathlib

#: where the metrics JSON artifact lands unless FLEET_METRICS_OUT overrides.
DEFAULT_ARTIFACT = pathlib.Path(__file__).resolve().parent.parent / "fleet_metrics.json"

#: where the critical-path blame artifact lands unless FLEET_CRITPATH_OUT
#: overrides (uploaded next to the metrics artifact in CI).
DEFAULT_CRITPATH_ARTIFACT = (
    pathlib.Path(__file__).resolve().parent.parent / "fleet_critpath.json"
)

#: the export contract: family name -> label names, as rendered by the quick
#: fleet.  A new metric or label is a deliberate schema change — update this
#: set (and the ROADMAP taxonomy notes) in the same commit.
EXPECTED_FAMILIES = {
    "control_messages": ["link", "tier"],
    "control_plane_ops": ["op"],
    "fastpath_events": ["kind"],
    "fleet_job_ops": ["tenant", "job", "op"],
    "fleet_op_latency_seconds": ["tenant", "op", "size"],
    "link_bytes": ["link", "tier", "cls"],
    "link_grant_wait_seconds": ["cls"],
    "link_queue_depth": ["link", "tier"],
}

#: the ``kind`` label values of ``fastpath_events`` (repro.net.fastpath).
EXPECTED_FASTPATH_KINDS = ("coalesced_runs", "resplits")


def _artifact_path() -> pathlib.Path:
    return pathlib.Path(os.environ.get("FLEET_METRICS_OUT", DEFAULT_ARTIFACT))


def _critpath_artifact_path() -> pathlib.Path:
    return pathlib.Path(
        os.environ.get("FLEET_CRITPATH_OUT", DEFAULT_CRITPATH_ARTIFACT)
    )


def _run_and_report(quick: bool) -> dict:
    from repro.bench.fleet import run_fleet
    from repro.obs.critpath import format_blame_table
    from repro.obs.export import format_slo_table, to_json

    result = run_fleet(quick=quick, trace_transfers=True)
    print()
    print(
        f"fleet: {len(result.specs)} jobs, {len(result.completions)} completed, "
        f"peak concurrency {result.peak_concurrency}, "
        f"makespan {result.duration * 1e3:.2f} ms (simulated)"
    )
    print(format_slo_table(result.slo_rows))
    print(
        "congestion vs latency (windowed tier bytes ~ windowed mean op latency): "
        f"r = {result.congestion_latency_r:.3f}"
    )
    print()
    print("critical-path blame (why each cell spent its time):")
    print(format_blame_table(result.blame_rows))
    artifact = {
        "quick": quick,
        "jobs": len(result.specs),
        "peak_concurrency": result.peak_concurrency,
        "makespan_sim_s": result.duration,
        "congestion_latency_r": result.congestion_latency_r,
        "slo": [
            {
                "tenant": row.tenant,
                "op": row.op,
                "size": row.size,
                "count": row.count,
                "p50": row.p50,
                "p99": row.p99,
                "p50_target": row.p50_target,
                "p99_target": row.p99_target,
                "verdict": row.verdict,
            }
            for row in result.slo_rows
        ],
        "blame": [row.as_dict() for row in result.blame_rows],
        "metrics": to_json(
            result.obs.registry, fastpath_stats=result.cluster.fastpath_stats
        ),
    }
    path = _artifact_path()
    path.write_text(json.dumps(artifact) + "\n")
    print(f"metrics artifact: {path}")
    critpath_artifact = {
        "quick": quick,
        "table": format_blame_table(result.blame_rows),
        "cells": [row.as_dict() for row in result.blame_rows],
        "ops": [blame.as_dict() for blame in result.op_blames],
    }
    critpath_path = _critpath_artifact_path()
    critpath_path.write_text(json.dumps(critpath_artifact) + "\n")
    print(f"critical-path artifact: {critpath_path}")
    return artifact


def test_fleet_scenario(run_once, quick):
    """The fleet completes, every SLO cell reports, congestion correlates."""
    artifact = run_once(_run_and_report, quick)

    assert artifact["jobs"] >= 24
    assert artifact["peak_concurrency"] >= (8 if quick else 24)
    rows = artifact["slo"]
    # Every (tenant, op) cell of the two-tenant four-op fleet reported.
    assert {(row["tenant"], row["op"]) for row in rows} == {
        (tenant, op)
        for tenant in ("prod", "batch")
        for op in ("allreduce", "broadcast", "gather", "alltoall")
    }
    for row in rows:
        assert row["count"] > 0 and row["p50"] > 0.0 and row["p99"] >= row["p50"]
    # Contention is visible in the recorded series: windows with more bytes
    # on the shared tiers are windows with slower collectives.
    assert artifact["congestion_latency_r"] is not None
    assert artifact["congestion_latency_r"] > 0.3
    # The blame table covers the same 8 (tenant, op) cells the SLO table
    # scores, and each cell's categories partition its critical-path time.
    blame = artifact["blame"]
    assert {(cell["tenant"], cell["op"]) for cell in blame} == {
        (row["tenant"], row["op"]) for row in rows
    }
    for cell in blame:
        assert cell["count"] > 0 and cell["total"] > 0.0
        total_categories = sum(cell["categories"].values())
        assert abs(total_categories - cell["total"]) <= 1e-9 * max(1.0, cell["total"])


def test_fleet_blame_table_is_deterministic(run_once):
    """Same seed -> byte-identical blame table, exact per-op partitions."""
    from repro.bench.fleet import run_fleet
    from repro.obs.critpath import format_blame_table

    def _table():
        result = run_fleet(
            num_jobs=24, num_racks=2, nodes_per_rack=4, quick=True,
            trace_transfers=True,
        )
        return format_blame_table(result.blame_rows), result

    def _both():
        first, _ = _table()
        second, result = _table()
        return first, second, result

    first, second, result = run_once(_both)
    assert first == second, "blame table is not deterministic"
    assert len(result.blame_rows) == 8
    for blame in result.op_blames:
        total = sum(blame.categories.values())
        assert abs(total - blame.length) <= 1e-9 * max(1.0, blame.length)


def test_fleet_prometheus_export_is_golden(run_once):
    """Same seed, same fabric -> byte-identical export, frozen label sets."""
    from repro.bench.fleet import run_fleet
    from repro.obs.export import to_prometheus

    def _export() -> str:
        result = run_fleet(
            num_jobs=24, num_racks=2, nodes_per_rack=4, quick=True
        )
        return to_prometheus(result.obs.registry), result.obs.registry

    def _both():
        first, _ = _export()
        second, registry = _export()
        return first, second, registry

    first, second, registry = run_once(_both)
    assert first == second, "Prometheus export is not deterministic"
    families = {
        family.name: list(family.label_names)
        for family in registry.sorted_families()
    }
    assert families == EXPECTED_FAMILIES
    # One fast path, two event kinds (the convoy kinds were retired with it).
    kinds = {
        child.label_values[0]
        for child in registry.families["fastpath_events"].sorted_children()
    }
    assert kinds == set(EXPECTED_FASTPATH_KINDS)
    # Exposition-format sanity on the rendered text itself.
    assert "# TYPE link_bytes_total counter" in first
    assert "# TYPE fleet_op_latency_seconds summary" in first
    assert 'quantile="0.99"' in first


if __name__ == "__main__":
    import sys

    if "--out" in sys.argv:
        os.environ["FLEET_METRICS_OUT"] = sys.argv[sys.argv.index("--out") + 1]
    _run_and_report(quick="--quick" in sys.argv)
