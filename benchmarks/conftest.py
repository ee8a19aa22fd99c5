"""Shared configuration for the benchmark suite.

Every benchmark drives a deterministic discrete-event simulation, so a single
round per benchmark is sufficient and repeat runs would only re-measure the
Python interpreter.  The helper below standardizes that convention.
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help=(
            "Smoke mode for CI: benchmarks shrink their parameter grids to "
            "one cheap point per scenario."
        ),
    )


@pytest.fixture
def quick(request):
    """True when the suite runs with ``--quick`` (CI smoke invocation)."""
    return request.config.getoption("--quick")


@pytest.fixture
def run_once(benchmark):
    """Run a deterministic experiment exactly once under pytest-benchmark."""

    def _run(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run
