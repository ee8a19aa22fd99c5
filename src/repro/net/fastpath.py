"""Per-cluster fast-path statistics.

The coalescing fast path (:mod:`repro.net.coalesce`) is switched per run:
``Cluster(fast_paths=False)`` (or ``Scenario(fast_paths=False)``) runs every
transfer block by block, the reference the fast path must reproduce
bit for bit.  :class:`FastpathStats` holds the counters, scoped per
:class:`~repro.net.cluster.Cluster` (``cluster.fastpath_stats``), so
back-to-back runs of the same scenario in one process report identical
values.  A node built without a cluster (micro unit tests) counts into a
throwaway set, so counting never crashes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.node import Node

#: every counter key, in reporting order: coalesced runs started, and runs
#: re-split to per-block transfers by a disturbance.
COUNTER_KEYS = (
    "coalesced_runs",
    "resplits",
)


class FastpathStats:
    """Fast-path observability counters for one cluster.

    Purely observational: incrementing a counter never schedules an event
    or perturbs admission, so digests are identical with or without anyone
    reading them.  ``on_event`` is an optional hook the observability plane
    installs to mirror increments into a :class:`MetricsRegistry` counter.
    """

    __slots__ = ("counts", "on_event")

    def __init__(self) -> None:
        self.counts = {key: 0 for key in COUNTER_KEYS}
        self.on_event: Optional[Callable[[str], None]] = None

    def bump(self, key: str) -> None:
        self.counts[key] += 1
        if self.on_event is not None:
            self.on_event(key)

    def as_dict(self) -> dict:
        return dict(self.counts)

    def __getitem__(self, key: str) -> int:
        return self.counts[key]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self.counts.items())
        return f"FastpathStats({inner})"


def stats_for(node: "Node") -> FastpathStats:
    """The counters a fast-path event on ``node`` should land in."""
    cluster = node.cluster
    return FastpathStats() if cluster is None else cluster.fastpath_stats

