"""The paper's evaluation as one claims table (``repro.bench.claims``).

One case per table: Figs. 6-15, the §5.1.1 directory microbenchmark, the
allgather/alltoall and MoE extension and the §3.3/§3.4.1 mechanism
ablation.  Each case builds its table on the full grid, prints it, then
prints its claims as claim x worst cell x measured x target, with the
margin.  It fails if any claim does not hold, or if any cell differs from
the record's ``claims_full`` cell (``tests/golden_record.json``; the moved
cells print as a ``| cell | row | column | recorded | now |`` table).
Under ``--quick`` each case builds the quick grid with the observability
plane installed in every cluster, the apps' included, and checks it
against ``claims_quick``: observers must change no cell.  Tier-1 checks the
plain quick build.

The fast-path gate builds every table on the same grid again with fast
paths off in every cluster.  The cells that then differ from the record
are asserted exactly: a change that makes another cell diverge fails here,
and one that fixes a cell updates :data:`KNOWN_DIVERGENT`.
"""

import pytest

from repro.bench import claims
from repro.bench.digest import claims_diff, table
from repro.net.cluster import Cluster

#: (grid, table, row, column) cells that read differently with fast paths
#: off.  In each, one instant grants a different flow on one link, because
#: same-instant releases run in a different order.
KNOWN_DIVERGENT = {
    *(
        (grid, "collectives", "alltoall 8MB nodes=8", column)
        for grid in ("quick", "full")
        for column in ("openmpi", "gloo")
    ),
    ("quick", "topology", "allgather 4:1 4x2 8MB", "oblivious"),
    ("quick", "topology", "allgather 4:1 4x2 8MB", "x_aware"),
    ("full", "topology", "allgather 4:1 4x4 32MB", "oblivious"),
    ("full", "topology", "allgather 4:1 4x4 32MB", "x_aware"),
    ("full", "topology", "allgather 4:1 8x8 32MB", "aware"),
    ("full", "topology", "allgather 4:1 8x8 32MB", "rack_frac"),
    ("full", "topology", "allgather 4:1 8x8 32MB", "rack_busy"),
    ("full", "topology", "allgather 4:1 8x8 32MB", "x_aware"),
}


@pytest.fixture
def every_cluster(monkeypatch):
    """Patch every ``Cluster`` built in the test, the apps' included:
    ``fast_paths=False`` puts it on the per-block path, and ``observe``
    installs the observability plane in it."""
    init = Cluster.__init__

    def patch(fast_paths: bool = True, observe: bool = False) -> None:
        def patched(cluster, *args, **kwargs):
            if not fast_paths:
                kwargs["fast_paths"] = False
            init(cluster, *args, **kwargs)
            if observe:
                cluster.enable_observability()

        monkeypatch.setattr(Cluster, "__init__", patched)

    return patch


@pytest.mark.parametrize("name", list(claims.FIGURES))
def test_claims(name, run_once, quick, every_cluster):
    if quick:
        every_cluster(observe=True)
    rows = run_once(claims.build, name, quick)
    verdicts = claims.evaluate({name: rows})
    print()
    print(claims.render(name, rows))
    print()
    print(claims.format_verdicts(verdicts))
    assert all(verdict.passed for verdict in verdicts), name
    moved = claims_diff(quick, {name: rows})
    assert not moved, "\n" + table(moved)


def test_fast_paths_off_diverge_only_on_known_cells(run_once, quick, every_cluster):
    every_cluster(fast_paths=False)
    tables = run_once(lambda: {name: claims.build(name, quick) for name in claims.FIGURES})
    grid = "quick" if quick else "full"
    divergent = {
        (grid, *row.split(": ", 1), column) for _, row, column, *_ in claims_diff(quick, tables)
    }
    print(f"\n{grid} grid, fast paths off: divergent cells {sorted(divergent)}")
    assert divergent == {cell for cell in KNOWN_DIVERGENT if cell[0] == grid}
