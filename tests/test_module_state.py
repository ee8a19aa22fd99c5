"""Hermetic by construction: ``repro`` keeps no module-level mutable state.

A run's state lives on its own objects: ObjectIDs on the cluster, admission
arrival stamps on the simulator, the fast-path switch on the cluster.  So no
module binds a counter, and running scenarios neither rebinds a module
global nor changes a module-level container.  Constant tables (``_OPTIMA``,
``STATIC_OPS``, ...) stay: a run only reads them.
"""

import importlib
import itertools
import pkgutil
from collections import deque

import repro
from repro.bench.scenarios import Kill, Scenario, run
from repro.net.config import NetworkConfig
from repro.net.failure import poisson_failures

MB = 1024 * 1024

_CONTAINERS = (list, dict, set, deque, bytearray)


def _modules() -> list:
    names = sorted(info.name for info in pkgutil.walk_packages(repro.__path__, "repro."))
    return [importlib.import_module(name) for name in ["repro", *names]]


def _contents(value) -> list:
    """A container's items, held so that identity comparisons stay valid."""
    if isinstance(value, dict):
        return [item for pair in value.items() for item in pair]
    return list(value)


def _globals(modules: list) -> dict:
    """``(module, name) -> (value, contents or None)`` for every module global."""
    snapshot = {}
    for module in modules:
        for name, value in vars(module).items():
            if name.startswith("__"):
                continue
            contents = _contents(value) if isinstance(value, _CONTAINERS) else None
            snapshot[module.__name__, name] = (value, contents)
    return snapshot


def _changed(before: dict, after: dict) -> list:
    changed = sorted(set(before) ^ set(after))
    for key in sorted(set(before) & set(after)):
        (old, old_items), (new, new_items) = before[key], after[key]
        if old is not new:
            changed.append(key)
        elif old_items is not None and (
            len(old_items) != len(new_items)
            or any(a is not b for a, b in zip(old_items, new_items))
        ):
            changed.append(key)
    return changed


def test_src_keeps_no_module_level_mutable_state():
    modules = _modules()
    counters = [
        f"{module.__name__}.{name}"
        for module in modules
        for name, value in vars(module).items()
        if isinstance(value, itertools.count)
    ]
    assert counters == []

    before = _globals(modules)
    run(Scenario("allgather", "hoplite", 4, 16 * MB, fast_paths=False))
    failures = poisson_failures(
        node_ids=[1, 2, 3], rate_per_second=4.0, horizon=0.6, downtime=0.2, seed=7
    )
    run(
        Scenario(
            "alltoall",
            "hoplite",
            4,
            8 * MB,
            network=NetworkConfig(bandwidth=1.25e8),
            faults=failures,
        )
    )
    run(Scenario("allreduce", "hoplite", 4, 8 * MB, kill=Kill("both", fraction=0.5)))
    assert _changed(before, _globals(_modules())) == []
