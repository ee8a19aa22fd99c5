"""Control-plane failure recovery: WAL replay vs static job restart.

The scenario kills part of the *control plane* — a directory shard, the
lineage/ownership services, or both — mid-collective and measures how the
run completes.  The data plane never aborts: requests to the dead component
park on its recovery event, the component replays its write-ahead log
(the kill's snapshot plus the records appended while it was down), and the
parked work resumes.  The comparison point is the static failure model,
where losing the directory or the lineage log is job-fatal: the launcher
detects the death and reruns the whole collective from scratch (``fail_at +
detection + baseline``).

Two effects make WAL replay win:

* the data plane keeps streaming during the downtime — transfers already
  granted finish, and only operations that *need* the dead component stall;
* replay restores the pre-kill state brought up to date, so no completed
  work is redone (``tests/test_wal_replay_oracle.py`` checks every replay
  of the full grid against its log's whole history).

A deep sweep, not shrunk by ``--quick``, runs control-plane fuzz seeds
0-199 with fast paths on and off.  The seeds whose killed runs differ are
asserted exactly: a change that makes another seed diverge fails here, and
one that fixes a seed updates :data:`DIVERGENT`.
"""

from repro.bench.fuzz import control_plane_case, run_spec
from repro.bench.reporting import format_table
from repro.bench.scenarios import Kill, Scenario, run
from repro.net.config import NetworkConfig

MB = 1024 * 1024

#: 1 Gbps network so the collective duration dominates the detection delay
#: and the kill reliably lands mid-operation.
NETWORK = dict(bandwidth=1.25e8)


#: (target, collective, kill fraction) of the 8-node 16 MB grid.
FULL_CELLS = [
    ("directory", "allgather", 0.25),
    ("directory", "allgather", 0.5),
    ("directory", "allreduce", 0.5),
    ("lineage", "allreduce", 0.5),
    ("lineage", "broadcast", 0.5),
    ("both", "allgather", 0.5),
]
#: the 4-node 4 MB grid of ``--quick``.
QUICK_CELLS = [("directory", "allgather", 0.5), ("lineage", "allreduce", 0.5)]

#: control-plane fuzz seeds whose killed run differs between fast paths on
#: and off.
DIVERGENT = {63, 82}


def _row(target, num_nodes, nbytes, collective, fail_fraction, network):
    result = run(
        Scenario(
            collective, "hoplite", num_nodes, nbytes, network=network,
            kill=Kill(target, fraction=fail_fraction),
        )
    )
    stats = result["recovery"]
    return {
        "target": target,
        "collective": collective,
        "fail_at": f"{int(fail_fraction * 100)}%",
        "baseline": stats["baseline"],
        "replay": result["latency"],
        "static_restart": stats["static_restart"],
        "wal_applied": sum(stats["replay_applied"]),
    }


def _grid(num_nodes, nbytes, cells):
    network = NetworkConfig(**NETWORK)
    return [
        _row(target, num_nodes, nbytes, collective, fraction, network)
        for target, collective, fraction in cells
    ]


def test_control_plane_replay_beats_job_restart(run_once, quick):
    num_nodes = 4 if quick else 8
    nbytes = 4 * MB if quick else 16 * MB
    cells = QUICK_CELLS if quick else FULL_CELLS
    rows = run_once(_grid, num_nodes, nbytes, cells)
    print()
    print(
        format_table(
            "Control-plane kill mid-collective (seconds to completion)",
            rows,
            [
                "target",
                "collective",
                "fail_at",
                "baseline",
                "replay",
                "static_restart",
                "wal_applied",
            ],
        )
    )
    for row in rows:
        # The headline: replay-based recovery completes the in-flight
        # collective without a job restart, so it beats the static model
        # (which pays detection + a full rerun) on every cell.
        assert row["replay"] < row["static_restart"], row
        # A directory kill must have exercised WAL replay.
        if row["target"] in ("directory", "both"):
            assert row["wal_applied"] > 0, row


def _divergent() -> set:
    divergent = set()
    for seed in range(200):
        case, _ = control_plane_case(seed)
        if run_spec(case, fast_paths=True) != run_spec(case, fast_paths=False):
            divergent.add(seed)
    return divergent


def test_control_plane_fuzz_diverges_only_on_known_seeds(run_once):
    divergent = run_once(_divergent)
    identical = 200 - len(divergent)
    print(f"\n{identical}/200 control-plane seeds identical; divergent: {sorted(divergent)}")
    assert divergent == DIVERGENT
