"""Application-level workloads from the paper's evaluation (Sections 5.2-5.6).

Every application runs through one harness,
:func:`~repro.apps.common.run_app`: it builds the cluster, the selected
communication plane (Hoplite, Ray-style, Dask-style; none for the static
OpenMPI and Gloo libraries of synchronous training), the failure and, where
the app uses one, the task system; the app's ``start`` callback spawns its
processes; and the harness runs, checks and closes the run and returns an
:class:`~repro.apps.common.AppResult` with throughput, per-iteration
latencies and metrics.  Async SGD and both RL algorithms share one server
loop, :func:`repro.apps.param_server.serve`.

Each application loads on first use: ``from repro.apps import
run_model_serving`` imports :mod:`repro.apps.serving` alone, and importing
:mod:`repro.apps.common` (which the scenario drivers use for their retry
loop) loads no application, no model catalog and no task system.
"""

import importlib

from repro.apps.common import AppResult, FailureSchedule

#: public name -> the application module that defines it.
_APPS = {
    "run_async_sgd": "repro.apps.param_server",
    "run_model_serving": "repro.apps.serving",
    "run_moe_routing": "repro.apps.moe",
    "run_rl_training": "repro.apps.rl",
    "run_sync_training": "repro.apps.sync_training",
}

__all__ = ["AppResult", "FailureSchedule", *sorted(_APPS)]


def __getattr__(name: str):
    if name in _APPS:
        return getattr(importlib.import_module(_APPS[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
