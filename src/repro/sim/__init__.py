"""Discrete-event simulation kernel.

A minimal, dependency-free coroutine simulator in the spirit of SimPy.
Processes are Python generators that ``yield`` events; the :class:`Simulator`
advances virtual time and resumes processes when the events they wait on are
triggered.

The kernel is the substrate for every other subsystem in this repository:
the network model, the object stores, the Hoplite control plane, the
baseline collectives, and the mini task system all run as processes on a
single :class:`Simulator`.
"""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    ProcessFailure,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.resources import MultiRequest, Resource

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "MultiRequest",
    "Process",
    "ProcessFailure",
    "Resource",
    "SimulationError",
    "Simulator",
    "Timeout",
]
