"""Golden determinism: the fast-path kernel reproduces the slow kernel bit-for-bit.

The digests below were recorded on the pre-fast-path simulator (before
coalesced block transfers, incremental admission matching, and the memoized
fabric paths landed).  Every optimization since must keep them byte-identical:
a digest covers completion times at full float precision, per-link and
per-tier byte counters, control-message counts, and the global ObjectID
allocation state — see :mod:`repro.bench.digest` for exactly what is hashed.

If one of these fails after an intentional *behaviour* change (a new
scheduling policy, a model change), re-record the digest in the same commit
and say so in the commit message; if it fails after a *performance* change,
the performance change is wrong.
"""

import pytest

from repro.bench.digest import (
    RECORDED_DIGESTS as RECORDED,
    golden_fault_matrix_cell,
    golden_fig7_cell,
    golden_fuzz_band_cell,
    golden_matching_cell,
    golden_perf_basket_cell,
)


def test_golden_fig7_cell_matches_pre_fastpath_kernel():
    assert golden_fig7_cell() == RECORDED["fig7_flat"]


def test_golden_fault_matrix_cell_matches_pre_fastpath_kernel():
    assert golden_fault_matrix_cell() == RECORDED["fault_matrix_2rack"]


def test_golden_matching_cell_16_matches_pre_convoy_kernel():
    """Contention-bound collectives at 16 nodes (pre-convoy recording)."""
    assert golden_matching_cell(16) == RECORDED["matching_16"]


def test_golden_matching_cell_64_matches_pre_convoy_kernel():
    """The same collectives at 64 nodes (pre-convoy recording)."""
    assert golden_matching_cell(64) == RECORDED["matching_64"]


def test_golden_perf_basket_cell_matches_recorded_latencies():
    """Pipeline chains, static baselines, rack sweep, MoE and the fleet."""
    assert golden_perf_basket_cell() == RECORDED["perf_basket"]


def test_golden_fuzz_band_matches_recorded_digests():
    """The fuzz seeds' own digests, fast paths on, plain and shard-killed."""
    assert golden_fuzz_band_cell() == RECORDED["fuzz_band"]


@pytest.mark.parametrize("cell", ["fig7_flat", "fault_matrix_2rack"])
def test_golden_cells_are_run_to_run_stable(cell):
    """Two runs in the same process agree (no hidden global state leaks)."""
    from repro.bench.digest import GOLDEN_CELLS

    assert GOLDEN_CELLS[cell]() == GOLDEN_CELLS[cell]()
