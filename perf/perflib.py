"""Measurement machinery of the benchmark: spans, reference clock, statistics.

Nothing here imports ``repro`` at module level.  The reference loop and the
statistics run before the program under test is imported, and the unit tests
in ``test_harness.py`` exercise this module without it.

Spans are recorded from outside ``src/``: :func:`instrument` replaces the
public entry points of every mapped module with wrappers that open a span
around each call (or, for generators, around each resume), so the program
itself carries no tracing code.
"""

from __future__ import annotations

import functools
import gc
import heapq
import inspect
import statistics
import sys
import time
import types
from enum import Enum

# -- layers -------------------------------------------------------------------

#: Layer names, in reporting order.  ``sim.kernel`` is the self time of
#: ``Simulator.step``/``run``: event dispatch no other layer claimed.
LAYERS = (
    "sim.kernel",
    "sim.admission",
    "net.flowsched",
    "net.transport",
    "net.coalesce",
    "net.convoy",
    "net.topology",
    "directory",
    "store",
    "core",
    "collectives",
    "tasksys",
    "driver",
)

#: (module prefix, layer).  Modules under no prefix (``net.cluster``,
#: ``net.node``, ``obs``, ...) are not wrapped: their time is charged to the
#: layer that called them.
MODULE_LAYERS = (
    ("repro.sim.core", "sim.kernel"),
    ("repro.sim.resources", "sim.admission"),
    ("repro.net.flowsched", "net.flowsched"),
    ("repro.net.transport", "net.transport"),
    ("repro.net.coalesce", "net.coalesce"),
    ("repro.net.convoy", "net.convoy"),
    ("repro.net.topology", "net.topology"),
    ("repro.directory", "directory"),
    ("repro.store", "store"),
    ("repro.core", "core"),
    ("repro.collectives", "collectives"),
    ("repro.tasksys", "tasksys"),
    ("repro.bench", "driver"),
    ("repro.apps", "driver"),
)


def layer_of(module: str):
    """The layer a module belongs to, or ``None`` when it is not wrapped."""
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


# -- spans --------------------------------------------------------------------

#: Spans kept for the Chrome-trace export (totals count every span).
KEEP_SPANS = 20_000


class Tracer:
    """Nested spans with online self-time accounting.

    A span's self time is its duration minus the durations of its direct
    children.  Spans nest strictly (each is closed by the call that opened
    it), so a stack gives the parent.  Totals cover every span; only the
    first ``KEEP_SPANS`` spans are retained for the Chrome-trace export,
    which bounds memory on passes that open millions of spans.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        #: retained spans: (span_id, parent_id, layer, name, start_ns, end_ns).
        self.spans: list[tuple] = []
        self.opened = 0
        self._stack: list[list] = []

    def enter(self, layer: str, name: str) -> None:
        span_id = self.opened
        self.opened = span_id + 1
        self._stack.append([span_id, layer, name, self.clock(), 0])

    def exit(self) -> None:
        end = self.clock()
        stack = self._stack
        span_id, layer, name, start, child_ns = stack.pop()
        duration = end - start
        self.self_ns[layer] += duration - child_ns
        self.calls[layer] += 1
        parent = None
        if stack:
            top = stack[-1]
            top[4] += duration
            parent = top[0]
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((span_id, parent, layer, name, start, end))

    def snapshot(self) -> tuple:
        """Totals to restore with :meth:`restore` (drops spans in between)."""
        return dict(self.self_ns), dict(self.calls), len(self.spans), self.opened

    def restore(self, snapshot: tuple) -> None:
        self_ns, calls, kept, opened = snapshot
        self.self_ns, self.calls, self.opened = self_ns, calls, opened
        del self.spans[kept:]

    def chrome_trace(self) -> dict:
        """The retained spans as a Chrome-trace (``chrome://tracing``) object."""
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": start / 1000.0,
                "dur": (end - start) / 1000.0,
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent},
            }
            for span_id, parent, layer, name, start, end in self.spans
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"spans_opened": self.opened, "spans_kept": len(self.spans)},
        }


class GenProxy:
    """A generator stand-in that times each resume of the generator it wraps.

    Forwards ``send``, ``throw`` and ``close``; ``StopIteration`` (and so the
    generator's return value) passes through unchanged, which makes
    ``yield from proxy`` behave exactly like ``yield from generator``.
    """

    __slots__ = ("_gen", "_tracer", "_layer", "_name")

    def __init__(self, gen, tracer: Tracer, layer: str, name: str):
        self._gen = gen
        self._tracer = tracer
        self._layer = layer
        self._name = name

    @property
    def __name__(self) -> str:
        return self._gen.__name__

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        tracer = self._tracer
        tracer.enter(self._layer, self._name)
        try:
            return self._gen.send(value)
        finally:
            tracer.exit()

    def throw(self, *args):
        tracer = self._tracer
        tracer.enter(self._layer, self._name)
        try:
            return self._gen.throw(*args)
        finally:
            tracer.exit()

    def close(self):
        tracer = self._tracer
        tracer.enter(self._layer, self._name)
        try:
            return self._gen.close()
        finally:
            tracer.exit()


def span_wrapper(tracer: Tracer, layer: str, name: str, fn):
    """Wrap ``fn`` so every call (or generator resume) is a span of ``layer``."""
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def gen_entry(*args, **kwargs):
            return GenProxy(fn(*args, **kwargs), tracer, layer, name)

        return gen_entry

    @functools.wraps(fn)
    def entry(*args, **kwargs):
        tracer.enter(layer, name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        # A plain function returning a generator it built (a dispatcher):
        # the work happens on resume, so time the resumes too.
        if type(result) is types.GeneratorType:
            return GenProxy(result, tracer, layer, name)
        return result

    return entry


def _wrappable_class(cls) -> bool:
    return not issubclass(cls, (Enum, BaseException, tuple))


def _wrap_class(tracer: Tracer, layer: str, cls) -> None:
    for attr, value in list(vars(cls).items()):
        if attr != "__init__" and attr.startswith("_"):
            continue
        name = f"{cls.__qualname__}.{attr}"
        if isinstance(value, staticmethod):
            setattr(cls, attr, staticmethod(span_wrapper(tracer, layer, name, value.__func__)))
        elif isinstance(value, classmethod):
            setattr(cls, attr, classmethod(span_wrapper(tracer, layer, name, value.__func__)))
        elif inspect.isfunction(value):
            setattr(cls, attr, span_wrapper(tracer, layer, name, value))


def instrument(tracer: Tracer) -> int:
    """Open spans at every public entry point of the loaded ``repro`` layers.

    Wraps module-level functions and the public methods (plus ``__init__``)
    of classes defined in each mapped module, rebinds every ``from ...
    import`` binding of a wrapped function found in ``sys.modules``, times
    ``Simulator.step``/``run`` as ``sim.kernel``, and proxies each process
    generator the kernel is handed by the layer its code lives in, so a
    resume dispatched by the kernel is charged to that layer.  Returns the
    number of entry points wrapped.
    """
    from repro.sim.core import Simulator

    replaced: dict[int, object] = {}
    count = 0
    for modname, module in sorted(sys.modules.items()):
        layer = layer_of(modname)
        if layer is None or layer == "sim.kernel" or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if getattr(value, "__module__", None) != modname:
                continue
            if inspect.isfunction(value) and not attr.startswith("_"):
                wrapper = span_wrapper(tracer, layer, f"{modname}.{attr}", value)
                replaced[id(value)] = (value, wrapper)
                setattr(module, attr, wrapper)
                count += 1
            elif inspect.isclass(value) and _wrappable_class(value):
                _wrap_class(tracer, layer, value)
                count += 1
    for module in list(sys.modules.values()):
        if module is None or not hasattr(module, "__dict__"):
            continue
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])

    Simulator.step = span_wrapper(tracer, "sim.kernel", "Simulator.step", Simulator.step)
    Simulator.run = span_wrapper(tracer, "sim.kernel", "Simulator.run", Simulator.run)
    original_process = Simulator.process

    def process(self, generator, name: str = ""):
        frame = getattr(generator, "gi_frame", None)
        if type(generator) is types.GeneratorType and frame is not None:
            layer = layer_of(frame.f_globals.get("__name__", ""))
            if layer is not None and layer != "sim.kernel":
                code = generator.gi_code
                label = getattr(code, "co_qualname", code.co_name)
                generator = GenProxy(generator, tracer, layer, label)
        return original_process(self, generator, name)

    Simulator.process = process
    return count + 3


def wrap_init(cls, after):
    """Call ``after(instance)`` once each ``cls(...)`` construction returns."""
    original = cls.__init__

    @functools.wraps(original)
    def __init__(self, *args, **kwargs):
        original(self, *args, **kwargs)
        if type(self) is cls:
            after(self)

    cls.__init__ = __init__


class ConstructorClock:
    """Host time spent inside the outermost of a set of constructors."""

    def __init__(self):
        self.seconds = 0.0
        self._depth = 0

    def time(self, cls) -> None:
        original = cls.__init__
        owner = self

        @functools.wraps(original)
        def __init__(self, *args, **kwargs):
            if owner._depth:
                return original(self, *args, **kwargs)
            owner._depth = 1
            start = time.process_time()
            try:
                return original(self, *args, **kwargs)
            finally:
                owner.seconds += time.process_time() - start
                owner._depth = 0

        cls.__init__ = __init__


# -- the reference clock ------------------------------------------------------

#: Events dispatched by one :func:`reference_loop` run (a "slice").
REF_EVENTS = 20_000
#: Generator processes of :func:`reference_loop` (sets its working set).
REF_PROCESSES = 20_000
#: Seconds the reference loop is *defined* to take: normalized seconds are
#: raw seconds scaled by ``REF_NOMINAL_S / measured reference time``, so a
#: host that runs everything 20% slower reports the same normalized time.
#: Set to the loop's median on the host the baseline was recorded on.
REF_NOMINAL_S = 0.12


class _RefEvent:
    __slots__ = ("callbacks", "value")

    def __init__(self):
        self.callbacks = None
        self.value = None


def reference_loop(events: int = REF_EVENTS) -> float:
    """A fixed miniature event kernel in pure Python; returns its seconds.

    ``REF_PROCESSES`` generator processes each allocate an event, schedule
    it on a heap of ``(time, priority, seq, event)`` tuples and suspend on
    it; the loop pops events and resumes their processes with ``send``.
    This is the shape of the simulator's hot loop (allocation, heap,
    generator resume, small dict updates) over a working set of similar
    size (tens of MB), so host contention slows it as it slows a pass: with
    a cache-resident working set the loop sped up far more than a pass in
    a shared host's quiet spells.  It shares no code with the program under
    test.  Timed on the clock of the passes it normalizes, process CPU time.
    """
    # No cyclic collection inside the slice: its cost would scale with the
    # pass's live heap, not with the host's speed.
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        queue: list = []
        seq = 0
        now = 0.0

        def process(pid: int):
            nonlocal seq
            counts: dict = {}
            key = pid
            while True:
                key = (key * 1103515245 + 12345) & 0x7FFFFFFF
                event = _RefEvent()
                heapq.heappush(queue, (now + (key & 1023) * 1e-6, 1, seq, event))
                seq += 1
                yield event
                counts[key & 4095] = counts.get(key & 4095, 0) + 1

        gens = [process(pid) for pid in range(REF_PROCESSES)]
        for gen in gens:
            next(gen).callbacks = [gen]
        for _ in range(events):
            now, _, _, event = heapq.heappop(queue)
            for gen in event.callbacks:
                gen.send(event.value).callbacks = [gen]
        elapsed = time.process_time() - start
        # Break the event <-> generator cycles so the slice leaves no
        # garbage for the pass's collector.
        for *_, event in queue:
            event.callbacks = None
        for gen in gens:
            gen.close()
        return elapsed
    finally:
        if collecting:
            gc.enable()


#: A timed pass runs a reference slice after any simulation that ends at
#: least this many CPU seconds after the previous slice.
REF_EVERY_S = 0.5


class ReferenceSlices:
    """Pass hooks that interleave reference slices with the pass's work.

    A slice runs before the first simulation, after any simulation ending at
    least ``REF_EVERY_S`` CPU seconds after the previous slice, and at
    :meth:`finish`.  ``intervals`` holds, for each stretch of work between
    two slices, ``(work_s, setup_s, slice_before_s, slice_after_s)``, where
    ``setup_s`` is the part of the work the ``setup`` clock (constructor
    time) saw.  A shared host's speed changes within seconds, so each
    stretch is normalized by the slices on either side of it (see
    :func:`normalize_intervals`).
    """

    def __init__(self, setup):
        self.setup = setup
        self.intervals: list[tuple[float, float, float, float]] = []
        #: peak resident set (KB) over the stretches of work alone, or None
        #: where the kernel cannot reset its high-water mark.
        self.peak_rss_kb = 0
        self.first_slice = None
        self._last_slice = None
        self._mark = None
        self._setup_mark = 0.0

    def before(self) -> None:
        if self._mark is None:
            self._slice()

    def after(self) -> None:
        if time.process_time() - self._mark >= REF_EVERY_S:
            self._slice()

    def finish(self) -> None:
        # The pass's remaining garbage is part of its cost, and the last
        # slice should not run on a heap still holding it.
        gc.collect()
        self._slice()

    def _slice(self) -> None:
        if self._mark is not None:
            work = time.process_time() - self._mark
            setup = self.setup() - self._setup_mark
            if self.peak_rss_kb is not None:
                self.peak_rss_kb = max(self.peak_rss_kb, peak_rss_kb())
        ref = reference_loop()
        if self._mark is None:
            self.first_slice = ref
        else:
            self.intervals.append((work, setup, self._last_slice, ref))
        self._last_slice = ref
        # The slice's own working set must not count as the pass's peak.
        if not reset_peak_rss():
            self.peak_rss_kb = None
        self._setup_mark = self.setup()
        self._mark = time.process_time()


def peak_rss_kb() -> int:
    """This process's resident-set high-water mark (KB) since the last reset."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def reset_peak_rss() -> bool:
    """Reset the high-water mark to the current resident set (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as clear_refs:
            clear_refs.write("5")
    except OSError:
        return False
    return True


def normalize(raw_s: float, ref_s: float) -> float:
    """Raw host seconds in reference-host seconds, given the reference loop's
    measured time ``ref_s`` on the same host and clock."""
    return raw_s * REF_NOMINAL_S / ref_s


def normalize_intervals(amounts, slices) -> float:
    """Sum of per-stretch ``amounts`` (raw seconds), each in reference-host
    seconds by the mean of its ``(slice_before_s, slice_after_s)``."""
    return sum(
        normalize(amount, (before + after) / 2.0)
        for amount, (before, after) in zip(amounts, slices)
    )


# -- statistics ---------------------------------------------------------------


def summary(values) -> dict:
    """Median, quartiles (as ``statistics.quantiles(n=4)`` gives them) and n."""
    values = [float(v) for v in values]
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def tail(values, beyond: int = 10):
    """The highest percentile that has ``beyond`` samples above it: the
    ``beyond + 1``-th largest value (of 240 samples, the 95.8th
    percentile).  With ``beyond`` samples or fewer no percentile has that
    support, and the largest value is returned.  ``None`` when empty."""
    ordered = sorted(values)
    if not ordered:
        return None
    if len(ordered) <= beyond:
        return ordered[-1]
    return ordered[-beyond - 1]


# -- comparing two runs -------------------------------------------------------

IMPROVED = "improved"
NO_WORSE = "no worse"
REGRESSED = "regressed"
UNRESOLVED = "unresolved"


def verdict(parent, change, bound: float, better: str = "lower") -> str:
    """Rate ``change`` samples against ``parent`` samples of one metric.

    * ``improved``: the change wins at least nine tenths of the pairs
      (ties count for neither) and the medians differ by more than the
      parent's own quartile spread;
    * ``regressed``: the change's median is worse by more than ``bound``
      (a share of the parent's median);
    * ``unresolved``: the run-to-run spread (quartile distance over median,
      either side) is wider than ``bound``, unless every change sample reads
      better than every parent sample;
    * ``no worse``: otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0
    a = [sign * float(v) for v in parent]
    b = [sign * float(v) for v in change]
    pairs = list(zip(a, b))
    if not pairs:
        raise ValueError("verdict needs samples on both sides")
    sa, sb = summary(a), summary(b)
    wins = sum(1 for x, y in pairs if y < x)
    spread_a = sa["q3"] - sa["q1"]
    if wins * 10 >= 9 * len(pairs) and sa["median"] - sb["median"] > spread_a:
        return IMPROVED
    scale = abs(sa["median"]) or 1.0
    if (sb["median"] - sa["median"]) / scale > bound:
        return REGRESSED
    spread = max(spread_a, sb["q3"] - sb["q1"]) / scale
    if spread > bound and not max(b) < min(a):
        return UNRESOLVED
    return NO_WORSE
