"""Every system a scenario or an application can run on, in one table.

The object planes (``PLANES``) serve Put/Get/Reduce through a
:class:`~repro.collectives.plane.CommPlane`.  The static systems run one
rank-based collective op per call; ``STATIC_OPS`` maps each ``(system,
collective)`` pair they implement to the op's constructor.  A pair in
neither table is not implemented.  For ``"p2p"`` the "op" is the MPI
endpoint itself: every static system sends point-to-point the MPI way.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.collectives.gloo import GlooCollectives
from repro.collectives.mpi import MPICollectives
from repro.collectives.naive import DASK_PROFILE, RAY_PROFILE, TaskSystemPlane
from repro.collectives.plane import CommPlane, HoplitePlane
from repro.core.options import HopliteOptions
from repro.core.runtime import HopliteRuntime
from repro.net.cluster import Cluster

PLANES: dict[str, Callable[[Cluster, Optional[HopliteOptions]], CommPlane]] = {
    "hoplite": lambda cluster, options: HoplitePlane(HopliteRuntime(cluster, options=options)),
    "ray": lambda cluster, options: TaskSystemPlane(cluster, RAY_PROFILE),
    "dask": lambda cluster, options: TaskSystemPlane(cluster, DASK_PROFILE),
}

#: Gloo's allreduce variants; plain ``"gloo"`` is its ring-chunked default.
_GLOO_ALLREDUCE = {
    "gloo": GlooCollectives.allreduce_ring_chunked,
    "gloo_ring": GlooCollectives.allreduce_ring,
    "gloo_ring_chunked": GlooCollectives.allreduce_ring_chunked,
    "gloo_halving_doubling": GlooCollectives.allreduce_halving_doubling,
}

STATIC_OPS: dict[tuple[str, str], Callable[[Cluster, int], object]] = {
    **{
        (system, "p2p"): lambda cluster, nbytes: MPICollectives(cluster)
        for system in ("openmpi", *_GLOO_ALLREDUCE)
    },
    ("openmpi", "broadcast"): lambda cluster, nbytes: MPICollectives(cluster).broadcast(
        nbytes, root=0
    ),
    ("openmpi", "gather"): lambda cluster, nbytes: MPICollectives(cluster).gather(nbytes, root=0),
    ("openmpi", "reduce"): lambda cluster, nbytes: MPICollectives(cluster).reduce(nbytes, root=0),
    ("openmpi", "allreduce"): lambda cluster, nbytes: MPICollectives(cluster).allreduce(nbytes),
    ("openmpi", "allgather"): lambda cluster, nbytes: MPICollectives(cluster).allgather(nbytes),
    ("openmpi", "alltoall"): lambda cluster, nbytes: MPICollectives(cluster).alltoall(nbytes),
    ("gloo", "broadcast"): lambda cluster, nbytes: GlooCollectives(cluster).broadcast(
        nbytes, root=0
    ),
    ("gloo", "allgather"): lambda cluster, nbytes: GlooCollectives(cluster).allgather(nbytes),
    ("gloo", "alltoall"): lambda cluster, nbytes: GlooCollectives(cluster).alltoall(nbytes),
    **{
        (system, "allreduce"): (
            lambda cluster, nbytes, build=build: build(GlooCollectives(cluster), nbytes)
        )
        for system, build in _GLOO_ALLREDUCE.items()
    },
}


def make_plane(
    system: str, cluster: Cluster, options: Optional[HopliteOptions] = None
) -> CommPlane:
    """Build the object plane ``system`` on ``cluster``."""
    if system not in PLANES:
        raise ValueError(f"unknown plane system {system!r}; expected one of {tuple(PLANES)}")
    return PLANES[system](cluster, options)
