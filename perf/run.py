#!/usr/bin/env python3
"""One-command benchmark of the simulator, on both of its clocks.

Run from the repository root (no install step; ``src/`` is found relative
to this file)::

    python3 perf/run.py                        # all workloads, timed + traced
    python3 perf/run.py --workload fleet --seed 3 --seconds 20 --trace 0
    python3 perf/run.py --seed 0 --json a.json
    python3 perf/run.py --compare a.json b.json

Every pass runs in a fresh ``python`` child (``PYTHONHASHSEED=0``), one at
a time.  A child imports the workload's modules (timed: part of
``setup_s``) and runs the pass with reference slices before, between and
after its simulations; host seconds are reported in reference-host
seconds (see ``perflib.ReferenceSlices``).  ``--trace 0`` runs
timed passes for ``--seconds`` and prints the end-to-end metrics;
``--trace 1`` runs one untraced, one span and one blame pass and prints the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import perfcells  # noqa: E402
import perflib  # noqa: E402

#: Timed passes per workload never fall below this, whatever ``--seconds``.
MIN_PASSES = 3
#: A child that runs longer than this is killed and the run fails (a
#: traced matching pass, the longest, takes about 10 s).
CHILD_TIMEOUT_S = 120
#: ``trace.coverage`` below this fails the run's self-check.
MIN_COVERAGE = 0.95

# (name, unit, better) of the end-to-end metrics, in reporting order.
END_TO_END = (
    ("host_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("x_ref_p50", "ratio", "lower"),
    ("x_ref_tail", "ratio", "lower"),
)

CRITPATH = ("grant_wait", "tx", "propagation", "compute", "detect", "recovery", "straggler")

# Simulated-clock counters of the span pass: (metric, unit).
COUNTERS = (
    ("sim.events", "count"),
    ("sim.events_per_mb", "1/MB"),
    ("net.flowsched.reservations", "count"),
    ("net.flowsched.nic_mb", "MB"),
    ("net.flowsched.control_msgs", "count"),
    ("net.flowsched.uplink_util_mean", "ratio"),
    ("net.topology.cross_rack_frac", "ratio"),
    ("net.coalesce.runs", "count"),
    ("net.coalesce.resplits", "count"),
    ("net.coalesce.resplit_ratio", "ratio"),
    ("net.convoy.domains", "count"),
    ("net.convoy.refusals", "count"),
    ("net.convoy.yield", "ratio"),
    ("directory.notify_calls", "count"),
    ("directory.waiter_wakes", "count"),
    ("directory.eligibility_scans", "count"),
    ("directory.wakes_per_notify", "ratio"),
    ("store.evictions", "count"),
    ("tasksys.submitted", "count"),
    ("tasksys.failures", "count"),
    ("tasksys.reconstructions", "count"),
    ("tasksys.adoptions", "count"),
    ("tasksys.wal_checkpoints", "count"),
    ("tasksys.wal_replays", "count"),
)


def per_layer_names() -> list[tuple[str, str]]:
    """(metric, unit) of every per-layer metric, in reporting order."""
    names = []
    for layer in perflib.LAYERS:
        names += [(f"{layer}.self_s", "s"), (f"{layer}.calls", "count")]
    names += [("trace.coverage", "ratio"), ("trace.overhead_x", "ratio")]
    names += list(COUNTERS)
    names += [(f"critpath.{c}", "ratio") for c in CRITPATH]
    return names


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a failed op)."""


# -- child side: one pass -----------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Counters:
    """Span-pass hooks: read public counters of the instances built per sim."""

    def __init__(self, tracer: perflib.Tracer):
        from repro.directory.service import ObjectDirectory
        from repro.net.cluster import Cluster
        from repro.store.object_store import LocalObjectStore
        from repro.tasksys.system import TaskSystem
        from repro.tasksys.wal import WriteAheadLog

        self.tracer = tracer
        self.live: dict[str, list] = {}
        for key, cls in (
            ("cluster", Cluster),
            ("directory", ObjectDirectory),
            ("store", LocalObjectStore),
            ("tasks", TaskSystem),
            ("wal", WriteAheadLog),
        ):
            self.live[key] = []
            perflib.wrap_init(cls, self.live[key].append)
        self.sums: dict[str, float] = {}
        self.utilization: list[float] = []

    def before(self) -> None:
        for instances in self.live.values():
            instances.clear()

    def after(self) -> None:
        # Reading counters calls wrapped entry points: keep those spans out.
        snapshot = self.tracer.snapshot()
        try:
            self._read()
        finally:
            self.tracer.restore(snapshot)
        self.before()

    def _add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0) + value

    def _read(self) -> None:
        from repro.bench.scenarios import collect_flow_usage

        for cluster in self.live["cluster"]:
            usage = collect_flow_usage(cluster)
            self._add("events", usage["events_processed"])
            self._add("nic_bytes", usage["tier_bytes"]["nic"])
            self._add("rack_bytes", usage["tier_bytes"]["rack_uplink"])
            self._add("reservations", sum(link.reservations for link in usage["links"]))
            self._add("control_msgs", usage["control_messages"])
            self.utilization.append(usage["mean_uplink_utilization"])
            # .get: a fast path that is removed reads as never having run.
            for key in ("coalesced_runs", "resplits", "domains_formed", "refusals"):
                self._add(key, usage["fastpath"].get(key, 0))
        for directory in self.live["directory"]:
            for key in ("notify_calls", "waiter_wakes", "eligibility_scans"):
                self._add(key, getattr(directory, key))
        for store in self.live["store"]:
            self._add("evictions", store.evictions)
        for tasks in self.live["tasks"]:
            for key in ("submitted", "failures", "reconstructions", "adoptions"):
                self._add(key, getattr(tasks.metrics, key))
        for wal in self.live["wal"]:
            self._add("wal_checkpoints", wal.checkpoints)
            self._add("wal_replays", wal.replays)

    def metrics(self) -> dict:
        s = self.sums.get
        nic_mb = s("nic_bytes", 0) / perfcells.MB
        runs, resplits = s("coalesced_runs", 0), s("resplits", 0)
        domains, refusals = s("domains_formed", 0), s("refusals", 0)
        notify = s("notify_calls", 0)
        values = {
            "sim.events": s("events", 0),
            "sim.events_per_mb": _ratio(s("events", 0), nic_mb),
            "net.flowsched.reservations": s("reservations", 0),
            "net.flowsched.nic_mb": nic_mb,
            "net.flowsched.control_msgs": s("control_msgs", 0),
            "net.flowsched.uplink_util_mean": _ratio(
                sum(self.utilization), len(self.utilization)
            ),
            "net.topology.cross_rack_frac": _ratio(s("rack_bytes", 0), s("nic_bytes", 0)),
            "net.coalesce.runs": runs,
            "net.coalesce.resplits": resplits,
            "net.coalesce.resplit_ratio": _ratio(resplits, runs),
            "net.convoy.domains": domains,
            "net.convoy.refusals": refusals,
            "net.convoy.yield": _ratio(domains, domains + refusals),
            "directory.notify_calls": notify,
            "directory.waiter_wakes": s("waiter_wakes", 0),
            "directory.eligibility_scans": s("eligibility_scans", 0),
            "directory.wakes_per_notify": _ratio(s("waiter_wakes", 0), notify),
            "store.evictions": s("evictions", 0),
        }
        for key in ("submitted", "failures", "reconstructions", "adoptions"):
            values[f"tasksys.{key}"] = s(key, 0)
        values["tasksys.wal_checkpoints"] = s("wal_checkpoints", 0)
        values["tasksys.wal_replays"] = s("wal_replays", 0)
        return values


class Blame:
    """Blame-pass hooks: observe every cluster, sum its critical-path blame."""

    def __init__(self):
        from repro.net.cluster import Cluster

        self.clusters: list = []
        self.length = 0.0
        self.categories = dict.fromkeys(CRITPATH, 0.0)
        perflib.wrap_init(Cluster, self._observe)

    def _observe(self, cluster) -> None:
        cluster.enable_observability(trace_transfers=True)
        self.clusters.append(cluster)

    def before(self) -> None:
        self.clusters.clear()

    def after(self) -> None:
        from repro.obs.critpath import cluster_blame

        for cluster in self.clusters:
            blame = cluster_blame(cluster.obs)
            self.length += blame.length
            for category in CRITPATH:
                self.categories[category] += blame.categories.get(category, 0.0)
        self.clusters.clear()

    def metrics(self) -> dict:
        return {f"critpath.{c}": _ratio(v, self.length) for c, v in self.categories.items()}


def _import_everything() -> None:
    """Load every ``repro`` module, so the span pass wraps lazy imports too."""
    import pkgutil

    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        __import__(info.name)


def child_pass(mode: str, workload: str, seed: int, out_dir: Path) -> dict:
    """One pass in this (fresh) process; ``mode`` is timed, span or blame."""
    start = time.process_time()
    perfcells.import_modules(workload)
    import_s = time.process_time() - start

    tracer = hooks = clock = None
    if mode == "timed":
        from repro.collectives.naive import TaskSystemPlane
        from repro.collectives.plane import HoplitePlane
        from repro.core.runtime import HopliteRuntime
        from repro.net.cluster import Cluster
        from repro.tasksys import CollectiveOrchestrator, TaskSystem

        clock = perflib.ConstructorClock()
        for cls in (
            Cluster,
            HopliteRuntime,
            TaskSystem,
            CollectiveOrchestrator,
            HoplitePlane,
            TaskSystemPlane,
        ):
            clock.time(cls)
        hooks = perflib.ReferenceSlices(setup=lambda: clock.seconds)
    elif mode == "span":
        _import_everything()
        tracer = perflib.Tracer()
        perflib.instrument(tracer)
        hooks = Counters(tracer)
    elif mode == "blame":
        hooks = Blame()
    else:
        raise HarnessError(f"unknown pass mode {mode!r}")

    # Timed passes interleave reference slices with their simulations; the
    # traced ones (whose wall includes tracing) are bracketed only.
    refs = [] if mode == "timed" else [perflib.reference_loop()]
    p = perfcells.Pass(seed, hooks)
    start, cpu_start = time.perf_counter(), time.process_time()
    perfcells.WORKLOADS[workload](p)
    cpu_s = time.process_time() - cpu_start - p.hook_cpu_s
    wall_s = time.perf_counter() - start - p.hook_s
    if mode == "timed":
        hooks.finish()
        intervals = hooks.intervals
        refs = [hooks.first_slice] + [after for *_, after in intervals]
    else:
        gc.collect()
        refs.append(perflib.reference_loop())
        intervals = []

    result = {
        "mode": mode,
        "workload": workload,
        "seed": seed,
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "import_s": import_s,
        "ctor_s": clock.seconds if clock is not None else 0.0,
        "refs_s": refs,
        "intervals": intervals,
        # Peak RSS of the work alone where the kernel allows; else the whole
        # child's (reference slices included).
        "rss_kb": (
            hooks.peak_rss_kb
            if mode == "timed" and hooks.peak_rss_kb is not None
            else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        ),
        "ops": [op.as_row() for op in p.ops],
        "digest": p.digest(),
    }
    if mode == "span":
        result["self_s"] = {k: v / 1e9 for k, v in tracer.self_ns.items()}
        result["calls"] = dict(tracer.calls)
        result["counters"] = hooks.metrics()
        out_dir.mkdir(parents=True, exist_ok=True)
        trace_file = out_dir / f"trace-{workload}-seed{seed}.json"
        trace_file.write_text(json.dumps(tracer.chrome_trace()))
        result["trace_file"] = str(trace_file)
    elif mode == "blame":
        result["counters"] = hooks.metrics()
    return result


# -- parent side --------------------------------------------------------------


def run_child(mode: str, workload: str, seed: int, out_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--child",
        mode,
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--out",
        str(out_dir),
    ]
    try:
        proc = subprocess.run(
            command, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{mode} pass of {workload} exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise HarnessError(
            f"{mode} pass of {workload} exited {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _ratios(p: dict) -> list[float]:
    return [lat / ref for _, _, lat, ref, failure in p["ops"] if failure is None]


def _normalized(p: dict, raw_s: float) -> float:
    """``raw_s`` of pass ``p`` in reference-host seconds (its own slices)."""
    return perflib.normalize(raw_s, statistics.fmean(p["refs_s"]))


def _host_s(p: dict) -> float:
    """The pass's CPU seconds, each stretch normalized by its own slices."""
    slices = [(before, after) for *_, before, after in p["intervals"]]
    return perflib.normalize_intervals([i[0] for i in p["intervals"]], slices)


def _setup_s(p: dict) -> float:
    """Import time (normalized by the slice right after it) plus the
    constructor time of each stretch (normalized by its own slices)."""
    slices = [(before, after) for *_, before, after in p["intervals"]]
    ctor = perflib.normalize_intervals([i[1] for i in p["intervals"]], slices)
    return perflib.normalize(p["import_s"], p["refs_s"][0]) + ctor


def end_to_end(passes: list[dict]) -> dict:
    """The end-to-end metrics of a set of timed passes of one workload.

    Host seconds are process CPU seconds (the simulator is single-threaded,
    so on an idle host this is its wall time; on a shared one it leaves out
    time other tenants held the CPU), normalized per pass.
    """
    raw = {
        "host_s": [p["cpu_s"] for p in passes],
        "setup_s": [p["import_s"] + p["ctor_s"] for p in passes],
    }
    samples = {
        "host_s": [_host_s(p) for p in passes],
        "setup_s": [_setup_s(p) for p in passes],
    }
    samples["peak_rss_mb"] = [p["rss_kb"] / 1024.0 for p in passes]
    samples["x_ref_p50"], samples["x_ref_tail"] = [], []
    for p in passes:
        ratios = _ratios(p)
        if ratios:
            samples["x_ref_p50"].append(statistics.median(ratios))
            samples["x_ref_tail"].append(perflib.tail(ratios))
    metrics = {}
    for name, unit, better in END_TO_END:
        if not samples[name]:
            continue
        entry = {"unit": unit, "better": better, **perflib.summary(samples[name])}
        entry["samples"] = samples[name]
        if name in raw:
            entry["raw_median"] = perflib.summary(raw[name])["median"]
        metrics[name] = entry
    return metrics


def per_layer(untraced: dict, span: dict, blame: dict) -> dict:
    values = {}
    for layer in perflib.LAYERS:
        values[f"{layer}.self_s"] = _normalized(span, span["self_s"][layer])
        values[f"{layer}.calls"] = span["calls"][layer]
    values["trace.coverage"] = _ratio(sum(span["self_s"].values()), span["wall_s"])
    values["trace.overhead_x"] = _ratio(span["wall_s"], untraced["wall_s"])
    values.update(span["counters"])
    values.update(blame["counters"])
    units = dict(per_layer_names())
    return {name: {"unit": units[name], "value": values[name]} for name, _ in per_layer_names()}


def _failures(p: dict) -> list[list]:
    return [[cell, seed, failure] for cell, seed, _, _, failure in p["ops"] if failure]


def fingerprint(ref_s: float) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "ref_loop_raw_s": ref_s,
    }


def benchmark(workloads, seed: int, seconds: float, trace, out_dir: Path) -> dict:
    """Run the timed and/or traced passes and check them."""
    timed: dict[str, list[dict]] = {w: [] for w in workloads}
    traced: dict[str, tuple] = {}
    if trace in (None, 0):
        # Round-robin, one child at a time.  A workload gets another pass
        # while that pass (at its mean duration so far) should end within
        # its budget, and at least MIN_PASSES passes.
        spent = dict.fromkeys(workloads, 0.0)
        while True:
            due = [
                w for w in workloads
                if len(timed[w]) < MIN_PASSES
                or spent[w] * (len(timed[w]) + 1) / len(timed[w]) <= seconds
            ]
            if not due:
                break
            for workload in due:
                start = time.perf_counter()
                timed[workload].append(run_child("timed", workload, seed, out_dir))
                spent[workload] += time.perf_counter() - start
    for workload in workloads:
        if trace == 1:
            timed[workload].append(run_child("timed", workload, seed, out_dir))
        if trace in (None, 1):
            traced[workload] = (
                run_child("span", workload, seed, out_dir),
                run_child("blame", workload, seed, out_dir),
            )

    children = [p for passes in timed.values() for p in passes]
    children += [p for pair in traced.values() for p in pair]
    ref_s = perflib.summary([r for p in children for r in p["refs_s"]])["median"]

    report: dict = {"seed": seed, "seconds": seconds, "workloads": {}}
    for workload in workloads:
        passes = timed[workload]
        entry: dict = {"why": perfcells.WHY[workload], "checks": {}}
        entry["checks"]["digest_stable"] = len({p["digest"] for p in passes}) == 1
        entry["digest"] = passes[0]["digest"]
        entry["passes"] = len(passes)
        entry["attempted"] = sum(len(p["ops"]) for p in passes)
        entry["failed"] = sum(len(_failures(p)) for p in passes)
        entry["failures"] = _failures(passes[0])
        if trace in (None, 0):
            entry["end_to_end"] = end_to_end(passes)
        if workload in traced:
            span, blame = traced[workload]
            untraced = min(passes, key=lambda p: p["wall_s"])
            entry["checks"]["span_digest"] = span["digest"] == entry["digest"]
            entry["checks"]["blame_digest"] = blame["digest"] == entry["digest"]
            entry["per_layer"] = per_layer(untraced, span, blame)
            coverage = entry["per_layer"]["trace.coverage"]["value"]
            entry["checks"]["coverage"] = coverage >= MIN_COVERAGE
            trace_file = Path(span["trace_file"])
            if trace_file.is_relative_to(ROOT):
                trace_file = trace_file.relative_to(ROOT)
            entry["trace_file"] = str(trace_file)
        report["workloads"][workload] = entry
    report["fingerprint"] = fingerprint(ref_s)
    report["correct"] = all(
        all(entry["checks"].values()) for entry in report["workloads"].values()
    )
    return report


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, int) or float(value).is_integer() and abs(value) >= 1:
        return f"{int(value)}"
    return f"{value:.6g}"


def print_report(report: dict) -> None:
    for workload, entry in report["workloads"].items():
        print(f"== {workload} (seed {report['seed']}, {entry['passes']} timed passes)")
        print(f"   {entry['why']}")
        rows = entry.get("end_to_end", {})
        if rows:
            print(f"   {'metric':<14} {'unit':<6} {'median':>11} {'q1':>11} {'q3':>11} "
                  f"{'n':>4} {'raw median':>11}")
            for name, m in rows.items():
                print(f"   {name:<14} {m['unit']:<6} {_fmt(m['median']):>11} "
                      f"{_fmt(m['q1']):>11} {_fmt(m['q3']):>11} {m['n']:>4} "
                      f"{_fmt(m.get('raw_median')):>11}")
        layers = entry.get("per_layer", {})
        if layers:
            print(f"   {'per-layer metric':<34} {'unit':<6} {'value':>12}")
            for name, m in layers.items():
                print(f"   {name:<34} {m['unit']:<6} {_fmt(m['value']):>12}")
        if "trace_file" in entry:
            print(f"   chrome trace: {entry['trace_file']}")
        print(f"   ops: {entry['failed']} failed of {entry['attempted']} attempted")
        for cell, seed, reason in entry["failures"]:
            print(f"   FAILED {workload}/{cell} seed {seed}: {reason}")
        checks = ", ".join(f"{k}={'ok' if v else 'FAILED'}" for k, v in entry["checks"].items())
        print(f"   checks: {checks}; digest {entry['digest'][:16]}")


def result_line(report: dict) -> dict:
    """The last-line result: metrics by name (prefixed when >1 workload)."""
    entries = report["workloads"]
    prefix = len(entries) > 1
    metrics = {}
    for workload, entry in entries.items():
        for section in ("end_to_end", "per_layer"):
            for name, m in entry.get(section, {}).items():
                value = m["median"] if section == "end_to_end" else m["value"]
                key = f"{workload}.{name}" if prefix else name
                metrics[key] = {"value": value, "unit": m["unit"]}
    return {
        "correct": report["correct"],
        "attempted": sum(e["attempted"] for e in entries.values()),
        "failed": sum(e["failed"] for e in entries.values()),
        "metrics": metrics,
    }


# -- compare ------------------------------------------------------------------


def load_bounds() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def compare(path_a: str, path_b: str) -> int:
    """Print one verdict row per (workload, metric); 1 if anything regressed."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    bounds = load_bounds()
    regressed = False
    print(f"{'workload':<10} {'metric':<12} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34}  verdict")
    for workload, ea in a["workloads"].items():
        eb = b["workloads"].get(workload)
        if eb is None:
            continue
        for name, ma in ea.get("end_to_end", {}).items():
            mb = eb.get("end_to_end", {}).get(name)
            if mb is None or name not in bounds:
                continue
            spec = bounds[name]
            rating = perflib.verdict(ma["samples"], mb["samples"], spec["bound"], spec["better"])
            regressed |= rating == perflib.REGRESSED

            def cell(m):
                return f"{_fmt(m['median'])} [{_fmt(m['q1'])}, {_fmt(m['q3'])}]"

            print(f"{workload:<10} {name:<12} {cell(ma):>34} {cell(mb):>34}  {rating}")
        fa = ea["failed"] / ea["attempted"]
        fb = eb["failed"] / eb["attempted"]
        rating = (
            perflib.REGRESSED if fb > fa else perflib.IMPROVED if fb < fa else perflib.NO_WORSE
        )
        regressed |= rating == perflib.REGRESSED
        print(f"{workload:<10} {'failed_frac':<12} {_fmt(fa):>34} {_fmt(fb):>34}  {rating}")
        same = "same" if ea["digest"] == eb["digest"] else "DIFFERENT (behaviour change)"
        print(f"{workload:<10} {'digest':<12} {same:>34}")
    return 1 if regressed else 0


# -- entry point --------------------------------------------------------------


def default_seconds() -> int:
    try:
        return int(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    except (OSError, ValueError, KeyError):
        return 20


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + tuple(perfcells.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-pass budget per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: timed passes only; 1: traced passes only; default both")
    parser.add_argument("--out", default=str(ROOT / ".bench_out"),
                        help="directory for Chrome-trace files")
    parser.add_argument("--json", help="also write the full report to this file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--child", choices=("timed", "span", "blame"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.child:
        print(json.dumps(child_pass(args.child, args.workload, args.seed, Path(args.out))))
        return 0
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources under {SRC.name}/", file=sys.stderr)
        return 2
    workloads = list(perfcells.WORKLOADS) if args.workload == "all" else [args.workload]
    seconds = args.seconds if args.seconds is not None else default_seconds()
    try:
        report = benchmark(workloads, args.seed, seconds, args.trace, Path(args.out).resolve())
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(report)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1))
    print(json.dumps(result_line(report)))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
