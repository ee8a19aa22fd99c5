"""Golden determinism: every pinned run reproduces its committed row.

``tests/golden_record.json`` holds one row per run, as cell -> row ->
column (see :mod:`repro.bench.digest` for how each value is taken):

* ``latency`` pins the completion time at full ``repr`` precision;
* ``events`` pins the run's kernel event count;
* ``flow`` pins a hash of the per-link and per-tier byte counters and the
  control-message count;
* ``ids`` pins the run's ObjectID counter after the run (allocation order
  is schedule-sensitive);
* ``ledger`` pins a hash of every link's busy time, grants and bytes
  (``coalesced_accounting``), ``recovery`` the recovery dict of a
  control-plane kill (``control_plane_kills``), and ``latencies`` a hash of
  an application run's iteration latencies (``apps``);
* ``digest`` pins the fuzzer's digest of one seed (``fuzz_band``), or the
  hash of one run's kernel pops ``(when, seq, event type)`` next to that
  run's other columns (``grant_order``).

The two claims cells pin every column of every claims row by ``repr``,
one row per claims row keyed ``"{table}: {label}"``: ``claims_quick`` on
the quick grid, checked here against the session's one quick build (the
build ``tests/test_claims.py`` checks against the claims' bounds), and
``claims_full`` on the full grid, checked by ``benchmarks/bench_claims.py``
in CI.

A failing cell prints only what moved, as a ``| cell | row | column |
recorded | now |`` table.  A *performance* change may move ``events``
entries and ``grant_order`` digests and nothing else: a fast path exists
to save kernel events and pops.  Anything else that moves is a behaviour
change, and a performance change that moves it is wrong.  After an
intentional change, ``PYTHONPATH=src python -m repro.bench.digest
--write`` reruns every cell, rewrites the record and prints the same
table; quote that table in ``CHANGES.md``.  A claims row that moves is one
line of that table, so a re-record pastes nothing else.
"""

import copy

import pytest

from repro.bench.digest import CLAIMS_CELLS, GOLDEN_CELLS, claims_diff, diff, load_record, table

RECORDED = load_record()


def test_record_holds_exactly_the_golden_cells():
    assert list(RECORDED) == [*GOLDEN_CELLS, *CLAIMS_CELLS.values()]


@pytest.mark.parametrize("cell", GOLDEN_CELLS)
def test_golden_cell_matches_record(cell):
    moved = diff({cell: RECORDED.get(cell)}, {cell: GOLDEN_CELLS[cell]()})
    assert not moved, "\n" + table(moved)


def test_quick_claims_match_record(quick_claims):
    moved = claims_diff(True, quick_claims)
    assert not moved, "\n" + table(moved)


@pytest.mark.parametrize("cell", ["fig7_flat", "fault_matrix_2rack"])
def test_golden_cells_are_run_to_run_stable(cell):
    """Two runs in the same process agree (no hidden global state leaks)."""
    assert GOLDEN_CELLS[cell]() == GOLDEN_CELLS[cell]()


def test_diff_names_only_what_moved():
    """The record diff, on in-memory records: no simulation runs."""
    recorded = {
        "cell": {
            "a": {"latency": "0.5", "events": 10, "ids": "count(8)"},
            "b": {"latency": "0.25", "events": 7, "ids": "count(8)"},
        },
        "other": {"x": {"digest": "ab12"}},
    }
    now = copy.deepcopy(recorded)
    now["cell"]["a"]["latency"] = "0.75"
    now["cell"]["b"]["events"] = 8
    assert table(diff(recorded, now)).splitlines()[2:] == [
        "| cell | a | latency | 0.5 | 0.75 |",
        "| cell | b | events | 7 | 8 |",
    ]

    del now["cell"]["b"], now["other"]
    now["cell"]["c"] = {"events": 1}
    now["new"] = {"y": {"digest": "cd34"}}
    assert diff(recorded, now) == [
        ("cell", "a", "latency", "0.5", "0.75"),
        ("cell", "b", "*", "present", "missing"),
        ("cell", "c", "*", "missing", "present"),
        ("other", "*", "*", "present", "missing"),
        ("new", "*", "*", "missing", "present"),
    ]
    assert diff(recorded, copy.deepcopy(recorded)) == []
