"""Tunable behaviour of the Hoplite runtime."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class HopliteOptions:
    """Feature switches for the Hoplite runtime.

    The defaults correspond to the full system described in the paper.
    Ablations (used by the benchmark suite and the tests) disable individual
    mechanisms:

    Attributes:
        enable_pipelining: stream objects block by block across nodes and
            between workers and their local store (Section 3.3).  When off,
            every copy waits for its source to be complete first.
        enable_small_object_cache: cache objects under the directory's
            small-object threshold inline in the directory (Section 3.2).
        enable_dynamic_broadcast: let earlier receivers act as senders for
            later receivers (Section 3.4.1).  When off, every receiver pulls
            from a complete copy only — i.e. the naive sender-bottlenecked
            behaviour of existing task systems.
        reduce_degree: force a fixed reduce-tree degree (``0`` stands for
            ``n``, a flat tree).  ``None`` selects the degree at runtime from
            the latency/bandwidth model, choosing among `d ∈ {1, 2, n}` —
            the paper's implementation note says these suffice
            (Section 3.4.2 / Appendix B; see ``choose_reduce_degree``).
        source_selection_seed: seed of the directory's deterministic
            tie-break among equally loaded transfer sources.  Any fixed seed
            makes a run byte-for-byte reproducible; varying it varies the
            broadcast-tree shapes without losing replayability.
        topology_aware: exploit the cluster's fabric hierarchy: the
            directory prefers same-rack (then same-zone) transfer sources,
            broadcast relays accordingly stay inside a rack after one
            cross-rack copy, multi-rack reduces run hierarchically
            (intra-rack trees feeding an inter-rack tree), and allgather
            participants pull remote-rack objects first.  On the flat
            topology this switch changes nothing; ``False`` keeps the
            topology-oblivious behaviour as an ablation.
    """

    enable_pipelining: bool = True
    enable_small_object_cache: bool = True
    enable_dynamic_broadcast: bool = True
    reduce_degree: Optional[int] = None
    source_selection_seed: int = 0
    topology_aware: bool = True

    def __post_init__(self) -> None:
        if self.reduce_degree is not None and self.reduce_degree < 0:
            raise ValueError("reduce_degree must be None, 0 (meaning n), or positive")
