"""Control-plane failure recovery: WAL replay vs static job restart.

The scenario kills part of the *control plane* — a directory shard, the
lineage/ownership services, or both — mid-collective and measures how the
run completes.  The data plane never aborts: requests to the dead component
park on its recovery event, the component replays its write-ahead log
(checkpoint + tail), and the parked work resumes.  The comparison point is
the static failure model, where losing the directory or the lineage log is
job-fatal: the launcher detects the death and reruns the whole collective
from scratch (``fail_at + detection + baseline``).

Two effects make WAL replay win:

* the data plane keeps streaming during the downtime — transfers already
  granted finish, and only operations that *need* the dead component stall;
* replay restores the exact pre-kill state (the shard's post-replay
  self-check asserts digest equality), so no completed work is redone.
"""

from repro.bench.reporting import format_table
from repro.bench.scenarios import Kill, Scenario, run
from repro.net.config import NetworkConfig

MB = 1024 * 1024

#: 1 Gbps network so the collective duration dominates the detection delay
#: and the kill reliably lands mid-operation.
NETWORK = dict(bandwidth=1.25e8)


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
        "self_check": stats["replay_self_check"][0],
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
    cells = (
        [("directory", "allgather", 0.5), ("lineage", "allreduce", 0.5)]
        if quick
        else [
            ("directory", "allgather", 0.25),
            ("directory", "allgather", 0.5),
            ("directory", "allreduce", 0.5),
            ("lineage", "allreduce", 0.5),
            ("lineage", "broadcast", 0.5),
            ("both", "allgather", 0.5),
        ]
    )
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
        # A directory kill must have exercised WAL replay, and the shard's
        # post-replay self-check must have found state digest-identical.
        if row["target"] in ("directory", "both"):
            assert row["wal_applied"] > 0, row
            assert row["self_check"] is True, row
