"""Host-clock self-profiler: wall-clock blame per kernel subsystem.

Every observability layer so far records *simulated* time.  This module is
the deliberate exception: a sampling-free interval profiler that wraps
``time.perf_counter_ns`` around instrumented regions of the kernel and
attributes **host** wall-clock time to the subsystem that burned it —
the evidence the parallel-kernel work (ROADMAP item 3) needs before any
sharding decision.

Design:

* **Boundary accounting, not nesting timers.**  The profiler keeps a stack
  of open categories and a single ``_last`` timestamp.  ``enter(cat)``
  charges the elapsed nanoseconds since ``_last`` to the category on top
  of the stack (its *self* time), then pushes ``cat``; ``exit()`` charges
  the tail to the popped category.  Each boundary is one
  ``perf_counter_ns`` call and a dict update — no per-region subtraction
  bookkeeping, and self-times across categories sum to exactly the span
  between the first ``enter`` and the last ``exit``.
* **"dispatch" is the outermost region.**  The kernel's dispatch
  (``Simulator.run``, or ``step``) enters it before popping the queue and
  exits after callbacks run, so every
  instrumented sub-region (admission, directory, flowsched, coalesce)
  nests inside it and all *un*-instrumented callback time lands in
  dispatch self-time.  Category totals therefore cover essentially 100% of
  step time; ``coverage`` in :meth:`HostProfiler.report` measures them
  against the ``Simulator.run`` loop wall (the only uncovered nanoseconds
  are the run-loop's own condition checks).
* **Zero overhead when off.**  Every site follows the existing hook
  discipline: load ``sim.host_prof`` once, guard with a single
  ``is not None`` branch, and do nothing else when disabled
  (``tests/test_hostprof.py`` scans the instrumented sources for exactly
  this pattern).
* **Exempt from bit-identical exports.**  Host nanoseconds differ run to
  run by construction.  :meth:`HostProfiler.export_to` stamps every series
  with ``clock="host"`` and is never called by the default fleet export,
  so the golden Prometheus bytes in ``benchmarks/bench_fleet.py`` stay
  frozen.  Simulated results are unaffected either way: the profiler only
  ever reads the host clock (the differential fuzz band pins this).
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

#: Instrumented kernel subsystems, in blame-table display order.
#: ``dispatch`` is the outermost region (event pop + callback run in
#: ``sim/core.py``); the rest are the nested hot regions named by ROADMAP
#: item 3.
CATEGORIES = (
    "dispatch",
    "admission",
    "flowsched",
    "directory",
    "coalesce",
)


class HostProfiler:
    """Attribute kernel wall-clock self-time to subsystem categories.

    Attach with ``cluster.enable_host_profiler()`` (which sets
    ``sim.host_prof``); read results with :meth:`report` or
    :meth:`format_table`.  All figures use the host clock and are *not*
    deterministic — never fold them into a simulated-result digest.
    """

    __slots__ = (
        "nanos",
        "counts",
        "run_ns",
        "_stack",
        "_last",
        "_run_t0",
        "_in_run",
    )

    def __init__(self) -> None:
        #: self-time nanoseconds per category.
        self.nanos: dict[str, int] = {cat: 0 for cat in CATEGORIES}
        #: region entries per category.
        self.counts: dict[str, int] = {cat: 0 for cat in CATEGORIES}
        #: total wall nanoseconds spent inside ``Simulator.run`` loops.
        self.run_ns = 0
        self._stack: list[str] = []
        self._last = 0
        self._run_t0 = 0
        self._in_run = False

    # -- region boundaries (the hot path) ---------------------------------
    def enter(self, cat: str) -> None:
        """Open a region: charge elapsed self-time to the enclosing one."""
        now = perf_counter_ns()
        stack = self._stack
        if stack:
            self.nanos[stack[-1]] += now - self._last
        elif self._in_run:
            # Between steps the stack is empty; the gap since the last exit
            # is the run loop's own overhead (condition checks, hook loads).
            # Charge it to the region being entered — for the outermost
            # "dispatch" region this is exactly kernel-loop time, keeping
            # coverage near 100% instead of leaking a few percent per step.
            self.nanos[cat] += now - self._last
        stack.append(cat)
        self.counts[cat] += 1
        self._last = now

    def exit(self) -> None:
        """Close the innermost open region, charging it the tail."""
        now = perf_counter_ns()
        self.nanos[self._stack.pop()] += now - self._last
        self._last = now

    # -- run-loop bracketing ----------------------------------------------
    def begin_run(self) -> None:
        self._run_t0 = self._last = perf_counter_ns()
        self._in_run = True

    def end_run(self) -> None:
        self.run_ns += perf_counter_ns() - self._run_t0
        self._in_run = False

    # -- aggregation / reporting ------------------------------------------
    def merge(self, other: "HostProfiler") -> None:
        """Fold another profiler's totals in (multi-cluster scenarios)."""
        for cat in CATEGORIES:
            self.nanos[cat] += other.nanos[cat]
            self.counts[cat] += other.counts[cat]
        self.run_ns += other.run_ns

    def report(self) -> dict:
        """Blame summary: per-category seconds, counts, and coverage.

        ``coverage`` is the instrumented fraction of the measured
        ``Simulator.run`` wall time — the acceptance bar is >= 0.95, and in
        practice it sits at ~0.99 because ``dispatch`` wraps every step.
        """
        total_ns = sum(self.nanos.values())
        run_ns = self.run_ns
        return {
            "clock": "host",
            "kernel_wall_s": round(run_ns / 1e9, 6),
            "instrumented_wall_s": round(total_ns / 1e9, 6),
            "coverage": round(total_ns / run_ns, 4) if run_ns else 0.0,
            "categories": {
                cat: round(self.nanos[cat] / 1e9, 6) for cat in CATEGORIES
            },
            "counts": {cat: self.counts[cat] for cat in CATEGORIES},
        }

    def export_to(self, registry: "MetricsRegistry") -> None:
        """Emit ``host_*`` families (``clock="host"``) into a registry.

        Called explicitly by artifact writers — never by the default fleet
        export — so bit-identical metric goldens stay untouched.
        """
        secs = registry.counter(
            "host_wall_seconds",
            "kernel wall-clock self-time per subsystem "
            "(host clock; exempt from bit-identical discipline)",
            ("subsystem", "clock"),
        )
        regions = registry.counter(
            "host_regions",
            "instrumented region entries per subsystem (host clock)",
            ("subsystem", "clock"),
        )
        kernel = registry.counter(
            "host_kernel_wall_seconds",
            "total wall-clock seconds inside Simulator.run (host clock)",
            ("clock",),
        )
        for cat in CATEGORIES:
            secs.labels(subsystem=cat, clock="host").inc(self.nanos[cat] / 1e9)
            regions.labels(subsystem=cat, clock="host").inc(self.counts[cat])
        kernel.labels(clock="host").inc(self.run_ns / 1e9)


def format_table(report: dict) -> str:
    """Render a :meth:`HostProfiler.report` dict as an aligned blame table."""
    lines = [
        f"{'subsystem':<12s} {'wall_s':>10s} {'share':>7s} {'regions':>10s}",
    ]
    total = report["instrumented_wall_s"] or 1.0
    for cat in CATEGORIES:
        secs = report["categories"][cat]
        lines.append(
            f"{cat:<12s} {secs:>10.4f} {secs / total * 100.0:>6.1f}% "
            f"{report['counts'][cat]:>10d}"
        )
    lines.append(
        f"{'total':<12s} {report['instrumented_wall_s']:>10.4f} "
        f"{100.0:>6.1f}% {sum(report['counts'].values()):>10d}"
    )
    lines.append(
        f"kernel run wall {report['kernel_wall_s']:.4f}s, "
        f"coverage {report['coverage'] * 100.0:.1f}%"
    )
    return "\n".join(lines)
