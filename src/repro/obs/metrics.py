"""Simulated-time metrics: counters and exact histograms.

A :class:`MetricsRegistry` is the in-simulator analogue of a Prometheus
client registry, with two deliberate differences:

* **time is simulated** — every sample is stamped with the owning
  simulator's virtual clock (``sim._now``), never the host clock, so a
  recorded series is a property of the scenario, not of the machine that
  ran it, and is bit-identical across runs of the same seed;
* **histograms are exact** — observations are kept, not bucketed into
  preconfigured boundaries, and quantiles are computed by the nearest-rank
  rule over the full (or windowed) sample set.  Simulated workloads record
  thousands of latencies, not billions, so exactness is affordable and
  makes SLO verdicts reproducible to the last float.

Recording never schedules events, allocates ObjectIDs, or touches any
simulation state: a registry can be attached to a live cluster without
changing a single simulated result (the differential test in
``tests/test_fleet.py`` pins this).  A family can also be *derived*: the
registry's ``collect`` hook runs before every read of
:attr:`MetricsRegistry.families` and may rebuild families from another
record, stamping each sample with its own simulated time (``at=``).

Label discipline follows Prometheus: a family declares its label names at
creation, every child supplies exactly those labels, and the exporter can
therefore emit a stable label set.  The taxonomy used by the built-in
instrumentation is documented in ROADMAP perf notes: ``tenant``, ``job``,
``op``, ``size`` (bucket), ``link`` / ``tier``, ``cls`` (flow class), and
``kind`` (fast-path event kind).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import ceil
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Simulator

COUNTER = "counter"
HISTOGRAM = "histogram"


def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    """The exact nearest-rank percentile of a sorted, non-empty sequence.

    ``pct`` is in (0, 100]: the smallest value v such that at least
    ``pct``% of the samples are <= v.  No interpolation — the returned
    value is always one of the samples, which keeps verdicts exact.
    """
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of an empty sample set")
    rank = ceil(pct / 100.0 * n)
    if rank < 1:
        rank = 1
    return sorted_values[rank - 1]


class Counter:
    """A monotonically increasing count, windowed against simulated time."""

    __slots__ = ("sim", "window", "label_values", "value", "_buckets")

    def __init__(self, sim: "Simulator", window: float, label_values: tuple):
        self.sim = sim
        self.window = window
        self.label_values = label_values
        self.value = 0.0
        #: per-window increments as ``[bucket_index, sum]`` pairs, append
        #: only (simulated time is monotonic within one simulator).
        self._buckets: list[list] = []

    def inc(self, amount: float = 1.0, at: Optional[float] = None) -> None:
        """Add ``amount`` at ``at`` (default: now); stamps must not go back."""
        self.value += amount
        bucket = int((self.sim._now if at is None else at) / self.window)
        buckets = self._buckets
        if buckets and buckets[-1][0] == bucket:
            buckets[-1][1] += amount
        else:
            buckets.append([bucket, amount])

    def series(self) -> list[tuple[float, float]]:
        """``(window_start_time, increments_in_window)`` pairs, in order."""
        window = self.window
        return [(bucket * window, total) for bucket, total in self._buckets]


class Histogram:
    """Every observation kept, stamped with simulated time; exact quantiles."""

    __slots__ = ("sim", "label_values", "samples", "total", "_sorted", "_dirty")

    def __init__(self, sim: "Simulator", label_values: tuple):
        self.sim = sim
        self.label_values = label_values
        #: ``(simulated_time, value)`` in recording order (time-monotonic).
        self.samples: list[tuple[float, float]] = []
        self.total = 0.0
        self._sorted: list[float] = []
        self._dirty = False

    def observe(self, value: float, at: Optional[float] = None) -> None:
        """Record ``value`` at ``at`` (default: now); stamps must not go back."""
        self.samples.append((self.sim._now if at is None else at, value))
        self.total += value
        self._dirty = True

    @property
    def count(self) -> int:
        return len(self.samples)

    def _values_sorted(self) -> list[float]:
        if self._dirty:
            self._sorted = sorted(v for _, v in self.samples)
            self._dirty = False
        return self._sorted

    def percentile(
        self,
        pct: float,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> float:
        """Exact nearest-rank percentile, optionally over a time window."""
        if since is None and until is None:
            return nearest_rank(self._values_sorted(), pct)
        times = [t for t, _ in self.samples]
        lo = 0 if since is None else bisect_left(times, since)
        hi = len(times) if until is None else bisect_right(times, until)
        return nearest_rank(sorted(v for _, v in self.samples[lo:hi]), pct)

    def series(self) -> list[tuple[float, float]]:
        return list(self.samples)


class MetricFamily:
    """One named metric with a declared label-name set and many children.

    A family and its children hold the registry's clock and window, not the
    registry: the registry lists its families, and each family lists its
    children, so a back-reference either way would be a reference cycle.
    """

    __slots__ = ("sim", "window", "kind", "name", "help", "label_names", "children")

    def __init__(
        self,
        sim: "Simulator",
        window: float,
        kind: str,
        name: str,
        help_text: str,
        label_names: tuple[str, ...],
    ):
        self.sim = sim
        self.window = window
        self.kind = kind
        self.name = name
        self.help = help_text
        self.label_names = label_names
        #: children keyed by their label-value tuple (label-name order).
        self.children: dict[tuple, object] = {}

    def labels(self, **labels):
        """The child for this exact label assignment (created on first use)."""
        try:
            key = tuple(labels[name] for name in self.label_names)
        except KeyError:
            missing = set(self.label_names) - set(labels)
            raise ValueError(
                f"{self.name}: missing label(s) {sorted(missing)}; "
                f"declared {list(self.label_names)}"
            ) from None
        if len(labels) != len(self.label_names):
            extra = set(labels) - set(self.label_names)
            raise ValueError(f"{self.name}: unexpected label(s) {sorted(extra)}")
        child = self.children.get(key)
        if child is None:
            if self.kind == COUNTER:
                child = Counter(self.sim, self.window, key)
            else:
                child = Histogram(self.sim, key)
            self.children[key] = child
        return child

    def sorted_children(self) -> list:
        return [self.children[key] for key in sorted(self.children)]


class MetricsRegistry:
    """All metric families of one cluster, on one simulated clock.

    ``window`` is the time-series bucket width in simulated seconds; it
    trades series resolution against memory for counters and the windowed
    views (histograms always keep every observation regardless).
    """

    def __init__(self, sim: "Simulator", window: float = 0.1):
        if window <= 0:
            raise ValueError("window must be positive")
        self.sim = sim
        self.window = window
        self._families: dict[str, MetricFamily] = {}
        #: called before every read of :attr:`families`, to bring derived
        #: families up to date (None: every family is recorded directly).
        self.collect: Optional[Callable[[], None]] = None

    @property
    def families(self) -> dict[str, MetricFamily]:
        """Every family by name, derived ones brought up to date first."""
        if self.collect is not None:
            self.collect()
        return self._families

    def _family(
        self, kind: str, name: str, help_text: str, label_names: Iterable[str]
    ) -> MetricFamily:
        family = self._families.get(name)
        names = tuple(label_names)
        if family is not None:
            if family.kind != kind or family.label_names != names:
                raise ValueError(
                    f"metric {name!r} re-declared as {kind}{list(names)} "
                    f"(was {family.kind}{list(family.label_names)})"
                )
            return family
        family = MetricFamily(self.sim, self.window, kind, name, help_text, names)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help_text: str = "", label_names: Iterable[str] = ()
    ) -> MetricFamily:
        return self._family(COUNTER, name, help_text, label_names)

    def histogram(
        self, name: str, help_text: str = "", label_names: Iterable[str] = ()
    ) -> MetricFamily:
        return self._family(HISTOGRAM, name, help_text, label_names)

    def sorted_families(self) -> list[MetricFamily]:
        families = self.families
        return [families[name] for name in sorted(families)]
