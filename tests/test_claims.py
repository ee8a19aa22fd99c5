"""The claims table: the quick grid passes, and no claim passes vacuously."""

import math

import pytest

from repro.bench import claims


def test_quick_table_passes(quick_claims):
    verdicts = claims.evaluate(quick_claims)
    assert [verdict.claim for verdict in verdicts] == list(claims.CLAIMS)
    failed = [verdict for verdict in verdicts if not verdict.passed]
    assert not failed, "\n" + claims.format_verdicts(failed)


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
def test_each_grid_reads_every_claim(quick):
    """The quick and the full grid check the same claim set: every claim
    reads a cell on either.  Rows holding only their grid keys read NaN in
    every cell, so each claim also fails on them."""
    keys_only = {
        name: [dict(key) for key in figure.grid(quick)] for name, figure in claims.FIGURES.items()
    }
    verdicts = claims.evaluate(keys_only)
    assert [verdict.claim for verdict in verdicts] == list(claims.CLAIMS)
    assert [verdict.claim.statement for verdict in verdicts if not verdict.cell_count] == []
    assert not any(verdict.passed for verdict in verdicts)


def test_unsupported_cell_reads_nan_and_fails_its_claims(monkeypatch):
    real = claims.supported
    monkeypatch.setattr(
        claims, "supported", lambda system, primitive: system != "ray" and real(system, primitive)
    )
    key = {"primitive": "broadcast", "size": "1MB", "nodes": 4}
    row = {**key, **claims.FIGURES["fig7"].measure(**key)}
    assert math.isnan(row["ray"]) and row["hoplite"] > 0

    verdicts = claims.evaluate({"fig7": [row]})
    read_nan = [v for v in verdicts if v.cell_count and math.isnan(v.measured)]
    no_cell = [v for v in verdicts if not v.cell_count]
    assert read_nan and no_cell
    assert not any(verdict.passed for verdict in read_nan + no_cell)
    # The claims that read this cell but not Ray still pass.
    assert any(verdict.passed for verdict in verdicts)


def test_a_crashing_cell_raises(monkeypatch):
    """A supported cell that crashes fails the table instead of printing NaN."""

    def _crash(scenario, observe=None):
        raise RuntimeError("broadcast did not complete")

    monkeypatch.setattr(claims, "run", _crash)
    with pytest.raises(RuntimeError, match="did not complete"):
        claims.build("fig7", quick=True)


_TOPOLOGY = {"primitive": "broadcast", "ratio": "4:1", "racks": "4x2", "size": "8MB",
             "aware": 1.0, "oblivious": 2.0, "x_aware": 2.0, "rack_frac": 0.25, "rack_busy": 0.1}
_ALLTOALL = {"size": "16MB", "nodes": 8, "latency": 1.0, "bound": 1.0, "x_bound": 1.0,
             "uplink_util": 0.9, "bulk_bytes": 1.0, "control_msgs": 1}
_KILL = {"target": "both", "primitive": "allgather", "fail_at": "50%", "size": "16MB",
         "nodes": 8, "baseline": 1.0, "replay": 1.0, "static_restart": 2.0, "wal_applied": 0}


@pytest.mark.parametrize(
    "name, row, match",
    [
        ("fig7", {"primitive": "broadcast", "size": "1MB", "nodes": 4, "hoplite": 1.0,
                  "openmpi": 1.0, "optimal": 1.0, "x_optimal": 1.0, "rack_frac": 0.25,
                  "zone_frac": 0.0}, "tier traffic on the flat fabric"),
        ("collectives", {"primitive": "allgather", "size": "8MB", "nodes": 4, "hoplite": 1.0,
                         "openmpi": 1.0, "ray": 0.0, "optimal": 1.0, "x_optimal": 1.0},
         "ray = 0.0 is not positive"),
        ("topology", {**_TOPOLOGY, "rack_frac": 0.0}, "rack_frac = 0.0 is not positive"),
        ("topology", {**_TOPOLOGY, "rack_busy": 0.0}, "rack_busy = 0.0 is not positive"),
        ("control_plane_kill", _KILL, "replayed no WAL record"),
        ("alltoall_bound", {**_ALLTOALL, "bulk_bytes": 0.0}, "bulk_bytes = 0.0 is not positive"),
        ("alltoall_bound", {**_ALLTOALL, "control_msgs": 0}, "control_msgs = 0 is not positive"),
    ],
    ids=["flat-fabric", "ray", "rack-frac", "rack-busy", "wal", "bulk-bytes", "control-msgs"],
)
def test_broken_invariant_raises(name, row, match):
    with pytest.raises(ValueError, match=match):
        claims._check_invariants(name, [row])


def test_directory_microbenchmark_orders_of_magnitude():
    for row in claims.build("directory"):
        assert 1e-5 < row["mean"] < 1e-3, row
        assert row["std"] >= 0, row
