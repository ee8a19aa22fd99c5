"""Simulator throughput: events/sec + wall-clock on the fixed scenario basket.

This is the *performance-of-the-simulator* benchmark (simulated results are
pinned by the golden digests and the bound assertions elsewhere).  The
basket and its groups are defined in :mod:`repro.bench.perf`; the committed
``BENCH_perf.json`` carries the trajectory — current numbers, the
pre-fast-path baseline (re-measured with ``fastpath(False)`` on the
recording host, stamped with its fingerprint), and the ``--write``-time
host-profiler blocks.

CI runs ``--quick`` and fails when a golden digest or a pinned ``sim_s``
changes, or — when the measuring host's fingerprint matches the one the
committed file was recorded on — when a quick scenario's events/sec drops
more than 30% below the committed value.  Across fingerprints the
events/sec gate is skipped (wall clocks of two machines do not compare);
both fingerprints and the measured events/sec are printed instead.

Modes::

    PYTHONPATH=src python benchmarks/bench_perf.py --write
        regenerate BENCH_perf.json (re-measures the fastpath-off baseline
        and the hostprof blocks on this host)
    PYTHONPATH=src python benchmarks/bench_perf.py --profile [--quick]
        untimed host-profiler pass per scenario: prints the wall-clock
        blame table, writes the profile JSON (PERF_PROFILE_OUT, default
        perf_profile.json) and a Chrome-trace export of the quick fleet
        (PERF_CHROMETRACE_OUT, default fleet_trace.json) for CI to upload
"""

import json
import os
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_perf.json"

#: where ``--profile`` writes the host-profile artifact.
DEFAULT_PROFILE_ARTIFACT = REPO_ROOT / "perf_profile.json"

#: where ``--profile`` writes the Chrome-trace export of the quick fleet.
DEFAULT_CHROMETRACE_ARTIFACT = REPO_ROOT / "fleet_trace.json"

#: CI fails when a quick scenario's events/sec falls below this fraction of
#: the committed number (same host fingerprint only).  Coarse on purpose:
#: wall clocks on a shared host swing about 15% run to run.
REGRESSION_FLOOR = 0.7


def _committed() -> dict:
    return json.loads(BENCH_FILE.read_text())


def _fingerprint() -> dict:
    """Identify the measuring host: wall clocks only compare like with like.

    The 0.83x-vs-1.07x confusion this resolves: the seed's
    ``baseline_pre_pr_wall_s`` was recorded on a different (faster) host
    than later ``--write`` runs, so the matching group's "speedup" silently
    mixed two machines.  Every written file now carries the fingerprint of
    the host that measured it, and the baseline is re-measured in the same
    ``--write`` invocation.
    """
    import platform

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def test_perf_basket_throughput(run_once, quick):
    from repro.bench.perf import fastpath_totals, group_walls, run_basket

    # best-of-2 even in quick mode: single-shot wall clocks on shared CI
    # runners are noisy enough to trip the 30% floor spuriously.
    rows = run_once(run_basket, quick=quick, repeats=2)
    recorded_file = _committed()
    committed = {row["scenario"]: row for row in recorded_file["scenarios"]}
    host = _fingerprint()
    same_host = recorded_file.get("host") == host

    print()
    print(f"{'scenario':46s} {'wall_s':>8s} {'events':>9s} {'ev/s':>10s} {'committed':>10s}")
    for row in rows:
        recorded = committed.get(row["scenario"], {})
        print(
            f"{row['scenario']:46s} {row['wall_s']:8.3f} {row['events']:9d} "
            f"{row['events_per_s']:10,d} {recorded.get('events_per_s', 0):10,d}"
        )
        counters = row.get("fastpath", {})
        if counters.get("coalesced_runs"):
            print(
                f"{'':46s}   fast path: {counters['coalesced_runs']} coalesced runs, "
                f"{counters.get('resplits', 0)} resplits"
            )
    for group, wall in sorted(group_walls(rows).items()):
        print(f"  group {group:20s} wall {wall:8.3f}s")
    totals = fastpath_totals(rows)
    if totals:
        print(f"  fast-path totals: {totals}")
    if not same_host:
        print(
            "  events/sec gate skipped: host fingerprints differ\n"
            f"    committed: {recorded_file.get('host')}\n"
            f"    this host: {host}"
        )

    for row in rows:
        recorded = committed.get(row["scenario"])
        assert recorded is not None, f"{row['scenario']} missing from BENCH_perf.json"
        # The simulated result is part of the contract: a perf benchmark
        # that changed the simulation is measuring something else.
        assert row["sim_s"] == recorded["sim_s"], (
            row["scenario"],
            row["sim_s"],
            recorded["sim_s"],
        )
        if not same_host:
            continue
        floor = recorded["events_per_s"] * REGRESSION_FLOOR
        assert row["events_per_s"] >= floor, (
            f"{row['scenario']}: events/sec regressed >30% "
            f"({row['events_per_s']:,} < {floor:,.0f}; committed "
            f"{recorded['events_per_s']:,})"
        )


def test_golden_digests_still_match(run_once):
    """The throughput numbers are only comparable at fixed simulated results."""
    from repro.bench.digest import (
        RECORDED_DIGESTS as RECORDED,
        golden_fault_matrix_cell,
        golden_fig7_cell,
    )

    def _both():
        return golden_fig7_cell(), golden_fault_matrix_cell()

    fig7, fault = run_once(_both)
    assert fig7 == RECORDED["fig7_flat"]
    assert fault == RECORDED["fault_matrix_2rack"]


def _write() -> None:
    from repro.bench.perf import measure_baselines, run_basket

    current = _committed()
    # Re-measure the pre-fast-path baseline on THIS host in the same
    # invocation (fastpath(False) restores the pre-PR kernel bit-for-bit),
    # so speedups never compare wall clocks from two machines again.
    baselines = measure_baselines()
    rows = run_basket(profile=True)
    groups: dict = {}
    for row in rows:
        base = baselines.get(row["scenario"])
        row["baseline_pre_pr_wall_s"] = base
        row["speedup_vs_pre_pr"] = (
            round(base / row["wall_s"], 2) if base and row["wall_s"] else None
        )
        group = groups.setdefault(
            row["group"], {"wall_s": 0.0, "baseline_pre_pr_wall_s": 0.0}
        )
        group["wall_s"] = round(group["wall_s"] + row["wall_s"], 4)
        if base:
            group["baseline_pre_pr_wall_s"] = round(
                group["baseline_pre_pr_wall_s"] + base, 4
            )
    for group in groups.values():
        if group["baseline_pre_pr_wall_s"] and group["wall_s"]:
            group["speedup_vs_pre_pr"] = round(
                group["baseline_pre_pr_wall_s"] / group["wall_s"], 2
            )
    current["comment"] = (
        "Simulator-throughput trajectory (benchmarks/bench_perf.py). "
        "baseline_pre_pr_wall_s is re-measured by every --write on the "
        "recording host (identified by `host`) with the fast path off "
        "(fastpath(False) restores the pre-fast-path kernel; simulated "
        "results are byte-identical, tests/test_golden_determinism.py), so "
        "speedup_vs_pre_pr always compares like with like. The >=5x "
        "acceptance target of the fast-path PR is measured on the "
        "fig7_64_pipeline group; the fig7_64_matching group is "
        "contention-bound and only gains the incremental-admission constant "
        "factors by design. hostprof (clock=host, non-deterministic) blocks "
        "come from an untimed profiled pass; timed numbers always run bare. "
        "CI gates on events_per_s of the quick scenarios regressing >30%, "
        "on a host whose fingerprint matches `host` only."
    )
    current["host"] = _fingerprint()
    current["groups"] = groups
    current["scenarios"] = rows
    BENCH_FILE.write_text(json.dumps(current, indent=1) + "\n")
    print(f"wrote {BENCH_FILE}")


def _profile_artifact_path() -> pathlib.Path:
    return pathlib.Path(os.environ.get("PERF_PROFILE_OUT", DEFAULT_PROFILE_ARTIFACT))


def _chrometrace_artifact_path() -> pathlib.Path:
    return pathlib.Path(
        os.environ.get("PERF_CHROMETRACE_OUT", DEFAULT_CHROMETRACE_ARTIFACT)
    )


def _profile(quick: bool) -> dict:
    """The ``--profile`` mode: blame tables and artifacts."""
    import repro.net.cluster as cluster_mod
    from repro.bench.fleet import run_fleet
    from repro.bench.perf import run_basket
    from repro.obs import dump_chrome_trace, format_hostprof_table
    from repro.store.objects import reset_id_counter

    rows = run_basket(quick=quick, repeats=1, profile=True)
    for row in rows:
        print()
        print(f"=== {row['scenario']} "
              f"(wall {row['wall_s']:.3f}s, {row['events']} events) ===")
        print(format_hostprof_table(row["hostprof"]))
    artifact = {
        "quick": quick,
        "host": _fingerprint(),
        "scenarios": [
            {"scenario": row["scenario"], "hostprof": row["hostprof"]}
            for row in rows
        ],
    }
    profile_path = _profile_artifact_path()
    profile_path.write_text(json.dumps(artifact, indent=1) + "\n")
    print(f"\nprofile artifact: {profile_path}")

    # One Chrome-trace export of the quick fleet (spans + flight timeline +
    # queue-depth counters), loadable in Perfetto / chrome://tracing.
    previous = cluster_mod.ON_CREATE

    def _hook(cluster) -> None:
        if previous is not None:
            previous(cluster)
        cluster.enable_flight_recorder()

    cluster_mod.ON_CREATE = _hook
    try:
        reset_id_counter()
        result = run_fleet(
            num_jobs=24, num_racks=2, nodes_per_rack=4, quick=True,
            trace_transfers=True,
        )
    finally:
        cluster_mod.ON_CREATE = previous
    trace_path = _chrometrace_artifact_path()
    doc = dump_chrome_trace(
        str(trace_path), obs=result.obs, flight=result.cluster.flight
    )
    print(f"chrome trace: {trace_path} ({len(doc['traceEvents'])} events)")
    return artifact


if __name__ == "__main__":
    import sys

    if "--write" in sys.argv:
        _write()
    elif "--profile" in sys.argv:
        _profile(quick="--quick" in sys.argv)
    else:
        print(__doc__)
