"""The paper's evaluation as one claims table (``repro.bench.claims``).

One case per table: Figs. 6-15, the §5.1.1 directory microbenchmark, the
allgather/alltoall and MoE extension and the §3.3/§3.4.1 mechanism
ablation.  Each case builds its table on the full grid (the quick grid
under ``--quick``), prints it, then prints its claims as claim x worst
cell x measured x target, with the margin, and fails if any claim does
not hold.
"""

import pytest

from repro.bench import claims


@pytest.mark.parametrize("table", list(claims.FIGURES))
def test_claims(table, run_once, quick):
    rows = run_once(claims.build, table, quick)
    verdicts = claims.evaluate({table: rows})
    print()
    print(claims.render(table, rows))
    print()
    print(claims.format_verdicts(verdicts))
    assert all(verdict.passed for verdict in verdicts), table
