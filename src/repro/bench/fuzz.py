"""Differential fuzzing of the coalescing fast paths.

The coalescing machinery (`repro.net.coalesce`) promises
*bit-for-bit* equivalence: a run with the fast paths enabled must produce
exactly the completion times, per-link byte counters, control-message counts
and ObjectID allocation order of a run with every fast path disabled.  The
unit suites pin specific shapes; this module pins the combinatorial space
around them — seeded random scenarios mixing collectives, cluster sizes,
topologies, arrival jitter and fault schedules, each executed twice
(fast paths on / off) and compared by digest.

``tests/test_differential.py`` runs a fixed band of seeds in tier-1;

    PYTHONPATH=src python -m repro.bench.fuzz --seeds 200

runs a deep sweep.  Any mismatch prints the scenario needed to reproduce it —
and, since the flight recorder landed, the harness re-runs a mismatching
seed with recording enabled on both settings and bisects to the **first
diverging semantic event** (time, kind, resource, detail) instead of
leaving a bare pair of hashes.  ``--flight`` is an observer flag: it runs
every scenario of the band (plain, or with ``--control-plane`` shard kills)
with the observability plane on (``enable_observability()``, which
includes the flight recorder), checking that digests still match
(observing changes nothing), that the on/off semantic records are
identical, and that the critical-path blame and the metrics registry
(:func:`registry_difference`) read from them are too.
"""

from __future__ import annotations

import argparse
import random
from dataclasses import replace
from typing import NamedTuple, Optional

from repro.bench.digest import _digest, _flow_fingerprint, _object_id_state
from repro.bench.scenarios import Scenario, run
from repro.core.options import HopliteOptions
from repro.net.config import NetworkConfig
from repro.net.failure import poisson_control_plane_failures, poisson_failures
from repro.net.topology import Topology

MB = 1024 * 1024

#: the default tier-1 band (see tests/test_differential.py).
TIER1_SEEDS = tuple(range(20))


class FuzzCase(NamedTuple):
    """One seeded :class:`Scenario` and the text that describes it.

    The description is hashed into every digest.  Its ``fabric`` and
    ``faults`` parts record what was drawn rather than what runs: an
    alltoall draws topology awareness but runs with default options, and
    the failure events do not say which Poisson rate and seed made them.
    """

    seed: int
    scenario: Scenario
    fabric: str = ""
    faults: str = ""

    def describe(self) -> str:
        s = self.scenario
        bits = [
            f"seed={self.seed}",
            f"{s.system}/{s.collective}",
            f"n={s.nodes}",
            f"size={s.nbytes // MB}MB",
        ]
        if self.fabric:
            bits.append(self.fabric)
        if not isinstance(s.arrivals, float):
            bits.append(f"jitter<= {max(s.arrivals):.4f}s")
        if self.faults:
            bits.append(self.faults)
        return " ".join(bits)


def generate_spec(seed: int) -> FuzzCase:
    """Deterministically derive one scenario from ``seed``."""
    rng = random.Random(0x5EED ^ seed)
    collective = rng.choice(
        [
            "broadcast",
            "reduce",
            "allreduce",
            "allreduce",
            "allgather",
            "allgather",
            "alltoall",
            "alltoall",
            "gather",
        ]
    )
    # Mostly the object plane (that is where the fast paths live), sometimes
    # the static baselines (they register streams on the same links).
    if collective in ("allreduce",) and rng.random() < 0.2:
        system = rng.choice(["gloo", "openmpi"])
    elif collective in ("allgather", "broadcast") and rng.random() < 0.15:
        system = "openmpi"
    else:
        system = "hoplite"

    num_nodes = rng.choice([4, 6, 8, 8, 12])
    # 2-5 pipelining blocks: small enough to fuzz densely, large enough that
    # every multi-block fast path (coalesced runs, relay cascades) can engage.
    nbytes = rng.choice([6, 8, 9, 12, 17, 20]) * MB
    scenario = Scenario(collective, system, num_nodes, nbytes)

    # Arrival jitter for the collectives that take it (spread of a few block
    # serialization times: enough to shuffle admission order).
    if collective in ("broadcast", "reduce", "allreduce") and rng.random() < 0.6:
        count = num_nodes - 1 if (collective == "broadcast" and system == "hoplite") else num_nodes
        scale = rng.choice([0.002, 0.01, 0.05])
        scenario = replace(scenario, arrivals=[rng.random() * scale for _ in range(count)])

    # Hierarchical fabric with oversubscribed tier links.  Three racks give
    # cross-rack flows to *distinct* destination racks, whose only shared
    # contended link is the source rack's uplink.
    fabric = ""
    bandwidth = 1.25e9
    topology = None
    if rng.random() < 0.35:
        racks = rng.choice([r for r in (2, 3) if num_nodes % r == 0])
        oversubscription = rng.choice([2.0, 4.0])
        aware = rng.random() < 0.5
        topology = Topology.racks(racks, num_nodes // racks, oversubscription=oversubscription)
        if aware and collective != "alltoall":
            scenario = replace(scenario, options=HopliteOptions(topology_aware=True))
        fabric = (
            f"racks={racks}x{num_nodes // racks}@{oversubscription}{'+aware' if aware else ''}"
        )

    # Fault schedules ride the collectives that support injected failures.
    faults = ""
    if collective in ("allgather", "alltoall") and system == "hoplite" and rng.random() < 0.35:
        bandwidth = 1.25e8  # slow the run down so failures land mid-flight
        rate = rng.choice([2.0, 4.0])
        failure_seed = rng.randrange(1 << 16)
        failures = poisson_failures(
            node_ids=list(range(1, num_nodes)),
            rate_per_second=rate,
            horizon=0.6,
            downtime=0.2,
            seed=failure_seed,
        )
        scenario = replace(scenario, failures=failures)
        faults = f"faults(rate={rate}, horizon=0.6, fseed={failure_seed})"

    scenario = replace(scenario, network=NetworkConfig(bandwidth=bandwidth, topology=topology))
    return FuzzCase(seed, scenario, fabric, faults)


def _run(case: FuzzCase, fast_paths: bool, trace: bool = False):
    """Run one case with the fast paths on or off (``Scenario.fast_paths``).

    ``trace`` turns the whole observability plane on, flight recorder
    included.  Returns ``(digest, latency, cluster)``.  Raises
    ``RuntimeError`` if a run with the fast paths off coalesced anyway, so
    the on/off comparison can never pass by comparing a run with itself.
    """
    clusters: list = []

    def observe(cluster) -> None:
        clusters.append(cluster)
        if trace:
            cluster.enable_observability()

    result = run(replace(case.scenario, fast_paths=fast_paths), observe=observe)
    if not fast_paths:
        for cluster in clusters:
            if cluster.fastpath_stats["coalesced_runs"]:
                raise RuntimeError(f"seed {case.seed}: coalesced with the fast paths off")
    parts: list = [(case.describe(), repr(result["latency"]))]
    parts.extend(_flow_fingerprint(result["usage"]))
    parts.append(_object_id_state(clusters[0]))
    return _digest(parts), result["latency"], clusters[0]


def run_spec(case: FuzzCase, fast_paths: bool) -> str:
    """Run one scenario with the fast paths forced on or off; return its digest."""
    return _run(case, fast_paths)[0]


def differential(seed: int) -> tuple[FuzzCase, str, str]:
    """Digests of one seeded scenario with fast paths on vs. off."""
    case = generate_spec(seed)
    return case, run_spec(case, fast_paths=True), run_spec(case, fast_paths=False)


def control_plane_case(seed: int):
    """One seeded scenario with directory-shard kills mid-collective.

    The ``control_plane`` fault class: a baseline run measures the scenario's
    latency, and a seeded Poisson schedule then kills directory shards
    within it.  The killed run must still digest-identical between
    fast-paths-on and fast-paths-off — shard death, RPC parking, and WAL
    replay are all deterministic machinery, so they must not reopen the
    equivalence the plain band pins.

    Returns ``(killed case, events)``.
    """
    case = generate_spec(seed)
    scenario = case.scenario
    if scenario.system != "hoplite":
        # Only the object plane has a directory to kill; the static
        # baselines are exercised by the plain band.
        arrivals = scenario.arrivals
        if scenario.collective == "broadcast" and not isinstance(arrivals, float):
            arrivals = arrivals[: scenario.nodes - 1]
        case = case._replace(scenario=replace(scenario, system="hoplite", arrivals=arrivals))

    _, latency, _ = _run(case, fast_paths=True)
    horizon = max(latency * 0.8, 1e-3)
    events = poisson_control_plane_failures(
        num_shards=4,
        rate_per_second=2.0 / horizon,
        horizon=horizon,
        seed=0xC7A1 ^ seed,
        include_lineage=False,
    )
    return case._replace(scenario=replace(case.scenario, shard_kills=events)), events


def run_spec_recorded(case: FuzzCase, fast_paths: bool):
    """Like :func:`run_spec`, with the whole observability plane on.

    Returns ``(digest, cluster)``: read the recording from
    ``cluster.flight`` and the plane from ``cluster.obs``.
    """
    digest, _, cluster = _run(case, fast_paths, trace=True)
    return digest, cluster


def blame_of(cluster) -> tuple[dict, dict]:
    """The ``(categories, link_blame)`` of an observed cluster's whole run."""
    from repro.obs.critpath import cluster_blame

    blame = cluster_blame(cluster.obs)
    return blame.categories, blame.link_blame


def registry_difference(on_cluster, off_cluster) -> Optional[str]:
    """The first metric family (by name) whose export differs between two
    observed runs, or None; ``fastpath_events`` counts the fast paths
    themselves, so it is left out."""
    from repro.obs.export import to_json

    on, off = (
        {f["name"]: f for f in to_json(cluster.obs.registry)["families"]}
        for cluster in (on_cluster, off_cluster)
    )
    names = sorted((on.keys() | off.keys()) - {"fastpath_events"})
    return next((name for name in names if on.get(name) != off.get(name)), None)


def bisect_divergence(case: FuzzCase):
    """Re-run one scenario recorded on both settings; first diverging event.

    Returns a :class:`repro.obs.flight.Divergence` (or ``None`` when the
    semantic timelines are identical — a digest mismatch without one means
    the divergence is outside the transfer timeline, e.g. ObjectID order).
    """
    from repro.obs.flight import first_divergence

    _, on = run_spec_recorded(case, fast_paths=True)
    _, off = run_spec_recorded(case, fast_paths=False)
    return first_divergence(on.flight, off.flight)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=len(TIER1_SEEDS), help="number of seeds")
    parser.add_argument("--start", type=int, default=0, help="first seed")
    parser.add_argument(
        "--flight",
        action="store_true",
        help="observe every run with the plane and the flight recorder; also "
        "compare the semantic transfer timelines, the critical-path blame and "
        "the metrics registry",
    )
    parser.add_argument(
        "--control-plane",
        action="store_true",
        help="inject seeded directory-shard kills mid-collective and compare "
        "killed digests fast-paths-on vs off (the control_plane fault class)",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    from repro.obs.flight import first_divergence

    failures = killed = 0
    for seed in range(args.start, args.start + args.seeds):
        divergence, note = None, ""
        if args.control_plane:
            case, events = control_plane_case(seed)
            killed += len(events)
            note = f" kills={len(events)}"
        else:
            case = generate_spec(seed)
        if args.flight:
            on, on_cluster = run_spec_recorded(case, fast_paths=True)
            off, off_cluster = run_spec_recorded(case, fast_paths=False)
            divergence = first_divergence(on_cluster.flight, off_cluster.flight)
            same_blame = blame_of(on_cluster) == blame_of(off_cluster)
            family = registry_difference(on_cluster, off_cluster)
            ok = on == off and divergence is None and same_blame and family is None
            if not same_blame:
                note += " blame differs"
            if family is not None:
                note += f" metrics differ from family {family}"
        else:
            on, off = run_spec(case, fast_paths=True), run_spec(case, fast_paths=False)
            ok = on == off
            if not ok:
                divergence = bisect_divergence(case)
        failures += not ok
        if args.verbose or not ok:
            print(f"{'OK  ' if ok else 'FAIL'} {case.describe()}{note}")
        if divergence is not None:
            print(divergence.describe())
    summary = f"{args.seeds - failures}/{args.seeds} seeds identical"
    if args.control_plane:
        summary += f" ({killed} control-plane kills injected)"
    print(summary)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
