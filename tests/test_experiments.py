"""Smoke tests for the experiment registry (tiny grids) and the examples."""

import runpy
from pathlib import Path

import pytest

from repro.bench.experiments import (
    KB,
    MB,
    collective_rows,
    directory_latency_microbenchmark,
    fig6_point_to_point,
    fig15_reduce_degree,
)

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def test_fig6_rows_have_expected_columns():
    rows = fig6_point_to_point(sizes=(KB,), systems=("optimal", "hoplite", "ray"))
    assert len(rows) == 1
    assert set(rows[0]) == {"size", "optimal", "hoplite", "ray"}
    assert rows[0]["size"] == "1KB"


def test_collective_rows_tiny_grid():
    rows = collective_rows(
        sizes=(MB,),
        node_counts=(4,),
        primitives=("broadcast", "reduce"),
        systems_by_primitive={"broadcast": ("hoplite", "ray"), "reduce": ("hoplite",)},
    )
    assert len(rows) == 2
    for row in rows:
        assert row["nodes"] == 4
        assert row["hoplite"] > 0


def test_collective_rows_unsupported_pair_reads_nan():
    rows = collective_rows(
        sizes=(MB,), node_counts=(4,), primitives=("gather",),
        systems_by_primitive={"gather": ("gloo",)},
    )
    assert rows[0]["gloo"] != rows[0]["gloo"]  # NaN
    assert rows[0]["optimal"] > 0


def test_collective_rows_lets_a_failing_cell_raise(monkeypatch):
    """A supported cell that crashes fails the table instead of printing NaN."""
    from repro.bench import experiments

    def _crash(scenario, observe=None):
        raise RuntimeError("broadcast did not complete")

    monkeypatch.setattr(experiments, "run", _crash)
    with pytest.raises(RuntimeError, match="did not complete"):
        collective_rows(
            sizes=(MB,), node_counts=(4,), primitives=("broadcast",),
            systems_by_primitive={"broadcast": ("hoplite",)},
        )


def test_fig15_tiny_grid_has_degree_columns():
    rows = fig15_reduce_degree(sizes=(4 * KB,), node_counts=(8,), degrees=(1, 0))
    assert len(rows) == 1
    assert "d=1" in rows[0] and "d=n" in rows[0]


def test_directory_microbenchmark_orders_of_magnitude():
    stats = directory_latency_microbenchmark(num_nodes=4, repeats=8)
    assert 1e-5 < stats["publish_mean"] < 1e-3
    assert 1e-5 < stats["lookup_mean"] < 1e-3
    assert stats["publish_std"] >= 0


@pytest.mark.parametrize(
    "script",
    ["quickstart.py", "fault_tolerant_broadcast.py"],
)
def test_examples_run_end_to_end(script, capsys):
    """The runnable examples execute without errors on a fresh interpreter state."""
    path = EXAMPLES_DIR / script
    assert path.exists()
    runpy.run_path(str(path), run_name="__main__")
    output = capsys.readouterr().out
    assert "node" in output
