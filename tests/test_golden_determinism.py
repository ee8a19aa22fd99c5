"""Golden determinism: the fast-path kernel reproduces the slow kernel bit-for-bit.

The digests below were recorded on the pre-fast-path simulator (before
coalesced block transfers, incremental admission matching, and the memoized
fabric paths landed).  Every optimization since must keep them byte-identical:
a digest covers completion times at full float precision, per-link and
per-tier byte counters, control-message counts, and each run's ObjectID
allocation state — see :mod:`repro.bench.digest` for exactly what is hashed.

If one of these fails after an intentional *behaviour* change (a new
scheduling policy, a model change), re-record the digest in the same commit
and say so in the commit message; if it fails after a *performance* change,
the performance change is wrong.  The exceptions are the ``*_events``
cells (``perf_basket_events``, ``ablations_events``,
``coalesced_accounting_events``, ``control_plane_kills_events``) and the
``grant_order`` pop digest: they pin kernel event counts and pops, which a
fast path exists to lower, so a change that saves events re-records them
and says which counts moved.
The fig7, fault-matrix and matching digests were re-recorded once, when
ObjectIDs moved onto the cluster: each run there now reproduces its
standalone schedule.
"""

import pytest

from repro.bench.digest import (
    RECORDED_DIGESTS as RECORDED,
    golden_ablations_cell,
    golden_ablations_events_cell,
    golden_coalesced_accounting_cell,
    golden_coalesced_accounting_events_cell,
    golden_control_plane_kills_cell,
    golden_control_plane_kills_events_cell,
    golden_fault_matrix_cell,
    golden_fig7_cell,
    golden_fuzz_band_cell,
    golden_grant_order_cell,
    golden_matching_cell,
    golden_perf_basket_cell,
    golden_perf_basket_events_cell,
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


def test_golden_perf_basket_events_match_recorded_counts():
    """The same cells' kernel event counts, pinned apart from the latencies."""
    assert golden_perf_basket_events_cell() == RECORDED["perf_basket_events"]


def test_golden_fuzz_band_matches_recorded_digests():
    """The fuzz seeds' own digests, fast paths on, plain and shard-killed."""
    assert golden_fuzz_band_cell() == RECORDED["fuzz_band"]


def test_golden_grant_order_matches_recorded_pops():
    """Every kernel pop ``(when, seq, event type)`` of a 16-node alltoall
    and allgather, so admission changes keep the dispatch order."""
    assert golden_grant_order_cell() == RECORDED["grant_order"]


def test_golden_ablations_match_recorded_runs():
    """The no-pipelining and no-relay paths, alone and together: latencies
    of p2p, broadcast, reduce and allreduce."""
    assert golden_ablations_cell() == RECORDED["ablations"]


def test_golden_ablations_events_match_recorded_counts():
    """The same runs' kernel event counts, pinned apart from the latencies."""
    assert golden_ablations_events_cell() == RECORDED["ablations_events"]


def test_golden_coalesced_accounting_matches_recorded_ledgers():
    """Every link's busy time (full ``repr``), grants and bytes, with the
    latency, of the 1 GB pipelines and a 2-rack broadcast."""
    assert golden_coalesced_accounting_cell() == RECORDED["coalesced_accounting"]


def test_golden_coalesced_accounting_events_match_recorded_counts():
    """The same runs' kernel event counts, pinned apart from the ledgers."""
    assert golden_coalesced_accounting_events_cell() == RECORDED["coalesced_accounting_events"]


def test_golden_control_plane_kills_match_recorded_runs():
    """Directory, lineage and both-target kills of an allreduce, and the
    lineage kills whose re-executed tasks park in ``lookup_spec``."""
    assert golden_control_plane_kills_cell() == RECORDED["control_plane_kills"]


def test_golden_control_plane_kills_events_match_recorded_counts():
    """The same runs' kernel event counts, pinned apart from the results."""
    assert golden_control_plane_kills_events_cell() == RECORDED["control_plane_kills_events"]


@pytest.mark.parametrize("cell", ["fig7_flat", "fault_matrix_2rack"])
def test_golden_cells_are_run_to_run_stable(cell):
    """Two runs in the same process agree (no hidden global state leaks)."""
    from repro.bench.digest import GOLDEN_CELLS

    assert GOLDEN_CELLS[cell]() == GOLDEN_CELLS[cell]()
