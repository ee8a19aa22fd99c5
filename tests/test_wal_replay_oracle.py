"""Replay oracle: every WAL replay rebuilds what the whole history builds.

Each durable control-plane service, a directory shard or the
orchestrator's lineage plane, logs every mutation to its WAL.  The
``replay_oracle`` fixture (``conftest.py``) records each log's whole
history and, at every replay, compares the recovered state with what
restore-from-nothing plus that history builds.

It covers control-plane fuzz seeds 0-19, the golden ``control_plane_kills``
cell and the full grid of the claims table's ``control_plane_kill`` table.
"""

import pytest

from repro.bench import claims
from repro.bench.digest import control_plane_kills_cell
from repro.bench.fuzz import control_plane_case
from repro.bench.scenarios import run


def _fuzz_seeds(oracle):
    for seed in range(20):
        scenario = control_plane_case(seed)[0].scenario
        oracle.run(lambda: run(scenario))


def _kills_cell(oracle):
    oracle.run(control_plane_kills_cell)


def _claims_grid(oracle):
    oracle.run(lambda: claims.build("control_plane_kill", quick=False))


@pytest.mark.parametrize(
    "workload, planes",
    [
        (_fuzz_seeds, {"shard"}),
        (_kills_cell, {"shard", "lineage"}),
        (_claims_grid, {"shard", "lineage"}),
    ],
    ids=["fuzz-seeds-0-19", "control-plane-kills", "claims-grid"],
)
def test_every_replay_equals_the_whole_history(replay_oracle, workload, planes):
    workload(replay_oracle)
    print(f"\nreplays checked: {replay_oracle.replays}")
    assert {plane for plane, count in replay_oracle.replays.items() if count} == planes
