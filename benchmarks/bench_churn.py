"""Liveness under unthinned churn: which cells of the churn sweep never complete.

The sweep runs allgather and alltoall over
:func:`repro.bench.digest.churn_scenario` (8 nodes, 16 MB, 2 racks at 2:1,
1 Gbps, source-selection seed 0) for Poisson failure seeds 0-99: 200
cells, about 7 s.  The object plane must ride through every failure
schedule (Section 6); a cell that does not complete is a wedge.

The set of wedged cells is asserted exactly.  One remains: allgather seed
35, a relay cycle among partial sources after a double failure.  A change
that wedges another cell fails here, and one that fixes seed 35 updates
:data:`WEDGED`.

Every cell that completes must also be freed by reference counting: with
the cyclic collector off, a collection after the cell finds nothing.  A
wedged cell raises before its cluster is closed, so it is not counted.
"""

import gc

from repro.bench.digest import churn_scenario
from repro.bench.scenarios import run

#: (collective, failure seed) cells known not to complete.
WEDGED = {("allgather", 35)}


def _sweep() -> tuple[set, dict]:
    """The wedged cells, and the cyclic objects each completing cell left."""
    wedged, leaks = set(), {}
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for collective in ("allgather", "alltoall"):
            for seed in range(100):
                try:
                    run(churn_scenario(collective, seed))
                except RuntimeError as error:
                    assert "did not complete" in str(error), error
                    wedged.add((collective, seed))
                found = gc.collect()
                if found and (collective, seed) not in wedged:
                    leaks[(collective, seed)] = found
    finally:
        if enabled:
            gc.enable()
    return wedged, leaks


def test_churn_sweep_wedges_only_known_cells(run_once):
    wedged, leaks = run_once(_sweep)
    print(f"\n{200 - len(wedged)}/200 churn cells complete; wedged: {sorted(wedged)}")
    assert wedged == WEDGED
    assert not leaks, f"{len(leaks)} cells left cyclic garbage: {sorted(leaks.items())[:5]}"
