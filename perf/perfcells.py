"""The benchmark's four workloads and how each op's outcome is checked.

Each workload function drives one *pass*: it calls the program's public
entry points with generated inputs only (sizes, node counts, seeds derived
from ``--seed``) and records one :class:`Op` per measured operation.
Entry points are looked up on their module at call time, so a pass run
after :func:`perflib.instrument` calls the wrapped versions.

Nothing here imports ``repro`` at module level: the child process times
those imports itself (they count toward ``setup_s``).
"""

from __future__ import annotations

import hashlib
import importlib
import math
import re
import time
from dataclasses import dataclass
from typing import Callable, Optional

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

#: Why each workload exists (also recorded in BENCHMARK.json).
WHY = {
    "matching": "contended many-to-many collectives at 32 nodes: admission and "
    "flow scheduling do the work, the fast paths are bypassed",
    "pipeline": "synchronized (Fig. 7) and staggered (Fig. 8) 1 GB pipelines: "
    "coalescing does the work, admission is bypassed",
    "fleet": "240 jobs arriving open-loop on a 4:1 two-zone fabric: directory, "
    "store, topology and per-job runtime construction",
    "recovery": "churn, control-plane and driver kills, and the Fig. 12 apps, "
    "each against its fault-free run: the task system and recovery paths",
}

#: Modules each workload imports before its first pass (counted in setup_s).
MODULES = {
    "matching": ("repro.bench.scenarios", "repro.core.options"),
    "pipeline": ("repro.bench.scenarios", "repro.core.options"),
    "fleet": ("repro.bench.fleet", "repro.bench.scenarios"),
    "recovery": (
        "repro.bench.scenarios",
        "repro.core.options",
        "repro.net.failure",
        "repro.apps.common",
        "repro.apps.serving",
        "repro.apps.param_server",
    ),
}
COMMON_MODULES = ("repro.store.objects", "repro.net.config", "repro.net.topology")

#: Relative slack when checking a latency against its analytic optimum.
OPTIMUM_SLACK = 1e-9


def _mod(name: str):
    return importlib.import_module(name)


@dataclass
class Op:
    """One measured operation: a collective cell, a fleet job or a faulted run."""

    cell: str
    seed: int
    latency: Optional[float] = None
    reference: Optional[float] = None
    failure: Optional[str] = None

    def as_row(self) -> list:
        return [self.cell, self.seed, self.latency, self.reference, self.failure]


def describe(exc: BaseException) -> str:
    """A failure reason stable across processes (no object addresses)."""
    return re.sub(r"0x[0-9a-fA-F]+", "0x?", f"{type(exc).__name__}: {exc}")


class NoHooks:
    def before(self) -> None:
        pass

    def after(self) -> None:
        pass


class Pass:
    """One pass of a workload: runs simulations, records and checks ops.

    ``hooks.before()``/``hooks.after()`` bracket every simulation (reference
    slices, counters and blame are taken there); their wall and CPU time is
    kept in ``hook_s``/``hook_cpu_s`` so the caller can exclude it.
    """

    def __init__(self, seed: int, hooks=None):
        self.seed = seed
        self.hooks = hooks or NoHooks()
        self.ops: list[Op] = []
        self.hook_s = 0.0
        self.hook_cpu_s = 0.0

    def _hook(self, call) -> None:
        start, cpu_start = time.perf_counter(), time.process_time()
        call()
        self.hook_s += time.perf_counter() - start
        self.hook_cpu_s += time.process_time() - cpu_start

    def sim(self, run: Callable[[], object]) -> tuple[object, Optional[str]]:
        """Run one simulation; returns ``(value, None)`` or ``(None, reason)``."""
        reset_id_counter = _mod("repro.store.objects").reset_id_counter
        self._hook(self.hooks.before)
        reset_id_counter()
        try:
            value, failure = run(), None
        except Exception as exc:  # noqa: BLE001 - a failed op is recorded, not fatal
            value, failure = None, describe(exc)
        self._hook(self.hooks.after)
        return value, failure

    def record(
        self,
        cell: str,
        seed: int,
        latency=None,
        reference=None,
        optimum=None,
        failure: Optional[str] = None,
    ) -> Op:
        """Record one op, turning a wrong outcome into a listed failure."""
        if failure is None:
            if latency is None or not math.isfinite(latency):
                failure = f"non-finite latency {latency!r}"
            elif optimum is not None and latency < optimum * (1.0 - OPTIMUM_SLACK):
                failure = f"latency {latency!r} below the optimum {optimum!r}"
            elif reference is None or not (math.isfinite(reference) and reference > 0):
                failure = f"no usable reference latency ({reference!r})"
        op = Op(cell, seed, latency, reference, failure)
        self.ops.append(op)
        return op

    def collective(self, cell: str, run, optimum: float) -> Op:
        """A cell whose reference is its analytic optimum."""
        latency, failure = self.sim(run)
        return self.record(cell, self.seed, latency, optimum, optimum, failure)

    def faulted(self, cell: str, seed: int, run, clean, optimum=None) -> Op:
        """A faulted run against its fault-free run ``clean`` = (value, failure)."""
        latency, failure = self.sim(run)
        reference, clean_failure = clean
        if failure is None and clean_failure is not None:
            failure = f"fault-free run: {clean_failure}"
        return self.record(cell, seed, latency, reference, optimum, failure)

    def digest(self) -> str:
        """sha256 over every op's outcome, in order (``repr`` precision)."""
        lines = [
            f"{op.cell}|{op.seed}|{op.latency!r}|{op.reference!r}|{op.failure}"
            for op in self.ops
        ]
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


# -- matching -----------------------------------------------------------------


def matching(p: Pass) -> None:
    """Contended many-to-many cells at 32 nodes on the flat fabric."""
    scenarios = _mod("repro.bench.scenarios")
    options = _mod("repro.core.options").HopliteOptions(source_selection_seed=p.seed)
    for cell, measure, system, nbytes in (
        ("alltoall_32MB_hoplite", "measure_alltoall", "hoplite", 32 * MB),
        ("allgather_32MB_hoplite", "measure_allgather", "hoplite", 32 * MB),
        ("allreduce_256MB_hoplite", "measure_allreduce", "hoplite", 256 * MB),
        ("allgather_32MB_openmpi", "measure_allgather", "openmpi", 32 * MB),
        ("allreduce_256MB_gloo", "measure_allreduce", "gloo", 256 * MB),
    ):
        fn = getattr(scenarios, measure)
        p.collective(
            cell,
            lambda: fn(system, 32, nbytes, options=options),
            fn("optimal", 32, nbytes),
        )


# -- pipeline -----------------------------------------------------------------


def pipeline(p: Pass) -> None:
    """Fig. 7 synchronized cells at 64 nodes, Fig. 8 staggered cells at 16."""
    scenarios = _mod("repro.bench.scenarios")
    options = _mod("repro.core.options").HopliteOptions(source_selection_seed=p.seed)
    interval = 0.1
    for cell, measure, nodes, stagger in (
        ("broadcast_1GB_64n", "measure_broadcast", 64, 0.0),
        ("reduce_1GB_64n", "measure_reduce", 64, 0.0),
        ("broadcast_1GB_16n_staggered", "measure_broadcast", 16, interval),
        ("reduce_1GB_16n_staggered", "measure_reduce", 16, interval),
        ("allreduce_1GB_16n_staggered", "measure_allreduce", 16, interval),
    ):
        fn = getattr(scenarios, measure)
        # Broadcast staggers its n - 1 receivers; the others all n ranks.
        arrivals = nodes - 2 if measure == "measure_broadcast" else nodes - 1
        p.collective(
            cell,
            lambda: fn("hoplite", nodes, GB, arrival_interval=stagger, options=options),
            fn("optimal", nodes, GB) + stagger * arrivals,
        )


# -- fleet --------------------------------------------------------------------

FLEET_SEEDS = 10
FLEET_JOBS = 24


def job_optimum(scenarios, spec) -> float:
    """Analytic lower bound of one fleet job: the optima of its ops, per round.

    Mirrors the job kinds of ``repro.bench.fleet``: training allreduces its
    payload, moe exchanges it all-to-all, serving and rl broadcast it and
    gather a reply (1/32 resp. 1/4 of it, at least 1 KB) back.
    """
    n, size = len(spec.nodes), spec.payload_bytes
    if spec.kind == "training":
        per_round = scenarios.measure_allreduce("optimal", n, size)
    elif spec.kind == "moe":
        per_round = scenarios.measure_alltoall("optimal", n, size)
    else:
        reply = max(KB, size // (32 if spec.kind == "serving" else 4))
        per_round = scenarios.measure_broadcast("optimal", n, size) + (
            scenarios.measure_gather("optimal", n, reply)
        )
    return spec.rounds * per_round


def fleet(p: Pass) -> None:
    """``run_fleet`` for seeds S..S+9; each job is an op timed from arrival."""
    fleet_mod = _mod("repro.bench.fleet")
    scenarios = _mod("repro.bench.scenarios")
    for fleet_seed in range(p.seed, p.seed + FLEET_SEEDS):
        result, failure = p.sim(
            lambda: fleet_mod.run_fleet(
                num_jobs=FLEET_JOBS,
                num_racks=4,
                nodes_per_rack=8,
                observe=False,
                seed=fleet_seed,
            )
        )
        if failure is not None:
            for job in range(FLEET_JOBS):
                p.record(f"job{job}", fleet_seed, failure=failure)
            continue
        for spec in result.specs:
            done = result.completions.get(spec.name)
            optimum = job_optimum(scenarios, spec)
            p.record(
                spec.name,
                fleet_seed,
                None if done is None else done - spec.arrival,
                optimum,
                optimum,
                None if done is not None else "job did not complete",
            )
        # Free this fleet's cluster before the next one is built.
        del result


# -- recovery -----------------------------------------------------------------

CHURN_SEEDS = 20


def churn(failure_mod, seed: int, detection: float) -> list:
    """Poisson churn (4 failures/s over 0.8 s, 0.2 s down) on nodes 1..7,
    thinned so that one node is down at a time, no node fails twice, and a
    failure-detection delay separates a rejoin from the next failure.

    Unthinned schedules wedge the object planes on some seeds (overlapping,
    back-to-back or repeated failures: a known liveness bug in the program,
    see README.md); the benchmark keeps to schedules on which no op fails.
    """
    kept: list = []
    for event in failure_mod.poisson_failures(
        node_ids=list(range(1, 8)),
        rate_per_second=4.0,
        horizon=0.8,
        downtime=0.2,
        seed=seed,
    ):
        if not kept or (
            event.fail_at >= kept[-1].recover_at + detection
            and all(event.node_id != k.node_id for k in kept)
        ):
            kept.append(event)
    return kept


def _app(p: Pass, run, count: int, failure) -> tuple:
    """An app run: ``(duration, None)`` if it finished every iteration."""
    result, error = p.sim(lambda: run(failure))
    if error is None and len(result.iteration_latencies) < count:
        error = f"finished {len(result.iteration_latencies)} of {count} iterations"
    return (None, error) if error is not None else (result.duration, None)


def recovery(p: Pass) -> None:
    """Faulted runs, each against the same run with no fault injected."""
    scenarios = _mod("repro.bench.scenarios")
    failure_mod = _mod("repro.net.failure")
    config = _mod("repro.net.config")
    topology = _mod("repro.net.topology")
    common = _mod("repro.apps.common")
    serving = _mod("repro.apps.serving")
    param_server = _mod("repro.apps.param_server")
    options = _mod("repro.core.options").HopliteOptions(source_selection_seed=p.seed)

    slow = config.NetworkConfig(
        bandwidth=1.25e8,
        topology=topology.Topology.racks(2, 4, oversubscription=2.0),
    )
    detection = slow.failure_detection_delay
    for cell, measure in (
        ("allgather_16MB_churn", "measure_allgather"),
        ("alltoall_16MB_churn", "measure_alltoall"),
    ):
        fn = getattr(scenarios, measure)
        clean = p.sim(lambda: fn("hoplite", 8, 16 * MB, network=slow, options=options))
        optimum = fn("optimal", 8, 16 * MB, network=slow)
        for churn_seed in range(p.seed, p.seed + CHURN_SEEDS):
            events = churn(failure_mod, churn_seed, detection)
            p.faulted(
                cell,
                churn_seed,
                lambda: fn("hoplite", 8, 16 * MB, network=slow, options=options, failures=events),
                clean,
                optimum,
            )

    for target in ("directory", "lineage", "both"):
        run = scenarios.measure_control_plane_failure
        p.faulted(
            f"control_plane_{target}",
            p.seed,
            lambda: run(8, 16 * MB, target=target, fail_fraction=0.5, options=options),
            p.sim(lambda: run(8, 16 * MB, target=target, options=options)),
            scenarios.measure_allgather("optimal", 8, 16 * MB),
        )

    run = scenarios.measure_driver_failure
    p.faulted(
        "driver_allreduce",
        p.seed,
        lambda: run("hoplite", 8, 16 * MB, "allreduce", fail_fraction=0.5, options=options),
        p.sim(lambda: run("hoplite", 8, 16 * MB, "allreduce", options=options)),
        scenarios.measure_allreduce("optimal", 8, 16 * MB),
    )

    # Fig. 12: serving 40 queries with node 3 down 2.0-4.5 s, and async SGD
    # (AlexNet, 20 iterations) with node 3 down 3-6 s.  Latency is the run's
    # duration; the reference is the same run without the failure.
    FailureSchedule = common.FailureSchedule
    for cell, run, count, failure in (
        (
            "serving_fig12",
            lambda f: serving.run_model_serving(8, "hoplite", 40, failure=f),
            40,
            FailureSchedule(node_id=3, fail_at=2.0, recover_at=4.5),
        ),
        (
            "async_sgd_fig12",
            lambda f: param_server.run_async_sgd(7, "alexnet", "hoplite", 20, failure=f),
            20,
            FailureSchedule(node_id=3, fail_at=3.0, recover_at=6.0),
        ),
    ):
        clean = _app(p, run, count, None)
        latency, error = _app(p, run, count, failure)
        reference, clean_error = clean
        if error is None and clean_error is not None:
            error = f"fault-free run: {clean_error}"
        p.record(cell, p.seed, latency, reference, None, error)


WORKLOADS: dict[str, Callable[[Pass], None]] = {
    "matching": matching,
    "pipeline": pipeline,
    "fleet": fleet,
    "recovery": recovery,
}


def import_modules(workload: str) -> None:
    for name in COMMON_MODULES + MODULES[workload]:
        importlib.import_module(name)
