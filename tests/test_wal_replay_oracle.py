"""Replay oracle: every WAL replay rebuilds what the whole history builds.

Each durable control-plane service, a directory shard or the
orchestrator's lineage plane, logs every mutation to its WAL.  The
``replay_oracle`` fixture (``conftest.py``) records each log's whole
history and, at every replay, compares the recovered state with what
restore-from-nothing plus that history builds.

It covers control-plane fuzz seeds 0-19, the golden ``control_plane_kills``
cell and the full grid of ``benchmarks/bench_control_plane.py``.
"""

import importlib.util
import pathlib

import pytest

from repro.bench.digest import control_plane_kills_cell
from repro.bench.fuzz import control_plane_case
from repro.bench.scenarios import run

BENCH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "bench_control_plane.py"


def _bench_control_plane():
    spec = importlib.util.spec_from_file_location("bench_control_plane", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fuzz_seeds(oracle):
    for seed in range(20):
        scenario = control_plane_case(seed)[0].scenario
        oracle.run(lambda: run(scenario))


def _kills_cell(oracle):
    oracle.run(control_plane_kills_cell)


def _bench_grid(oracle):
    bench = _bench_control_plane()
    oracle.run(lambda: bench._grid(8, bench.MB * 16, bench.FULL_CELLS))


@pytest.mark.parametrize(
    "workload, planes",
    [
        (_fuzz_seeds, {"shard"}),
        (_kills_cell, {"shard", "lineage"}),
        (_bench_grid, {"shard", "lineage"}),
    ],
    ids=["fuzz-seeds-0-19", "control-plane-kills", "bench-grid"],
)
def test_every_replay_equals_the_whole_history(replay_oracle, workload, planes):
    workload(replay_oracle)
    print(f"\nreplays checked: {replay_oracle.replays}")
    assert {plane for plane, count in replay_oracle.replays.items() if count} == planes
