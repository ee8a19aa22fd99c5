"""Exporters and the SLO evaluator for the observability plane.

``to_prometheus`` renders a :class:`~repro.obs.metrics.MetricsRegistry` in
the Prometheus text exposition format (``# HELP`` / ``# TYPE`` headers,
``_total`` counters, summary-style ``quantile`` lines for the exact
histograms).  Families and children are emitted in sorted order, so the
output is deterministic for a deterministic scenario — CI pins a golden
export of the quick fleet run on that property.

``to_json`` serializes the same registry *with* its simulated-time series
(per-window counter increments, histogram observations), as
the machine-readable artifact the fleet benchmark uploads from CI.

``evaluate_slos`` checks recorded latency histograms against a target
table — exact p50/p99 per (op, size bucket), evaluated per tenant — and
returns pass/fail rows; ``format_slo_table`` renders them the way the MPI
AI-cluster benchmark README prints its latency targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.obs.metrics import COUNTER, MetricsRegistry, nearest_rank

#: the quantiles every histogram exports (exact, nearest-rank).
EXPORT_QUANTILES = (0.5, 0.95, 0.99)


def _fmt(value: float) -> str:
    """Prometheus sample formatting: integers without a trailing ``.0``."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    """HELP-line escaping: backslash and newline only (quotes stay)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _label_str(names: tuple, values: tuple, extra: Optional[tuple] = None) -> str:
    pairs = [f'{n}="{_escape(str(v))}"' for n, v in zip(names, values)]
    if extra is not None:
        pairs.append(f'{extra[0]}="{_escape(str(extra[1]))}"')
    return "{" + ",".join(pairs) + "}" if pairs else ""


def to_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (deterministic)."""
    lines: list[str] = []
    for family in registry.sorted_families():
        name = family.name
        if not family.children:
            # A declared family no child ever materialized (e.g. a labeled
            # histogram nothing observed into): bare HELP/TYPE headers with
            # no samples confuse scrapers, so emit nothing.
            continue
        if family.kind == COUNTER:
            lines.append(f"# HELP {name}_total {_escape_help(family.help)}")
            lines.append(f"# TYPE {name}_total counter")
            for child in family.sorted_children():
                labels = _label_str(family.label_names, child.label_values)
                lines.append(f"{name}_total{labels} {_fmt(child.value)}")
        else:
            # Exact quantiles: exported in the summary shape, because the
            # registry computes true nearest-rank values, not bucket bounds.
            lines.append(f"# HELP {name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {name} summary")
            for child in family.sorted_children():
                values = child._values_sorted()
                for q in EXPORT_QUANTILES:
                    labels = _label_str(
                        family.label_names, child.label_values, ("quantile", q)
                    )
                    if values:
                        lines.append(
                            f"{name}{labels} {_fmt(nearest_rank(values, q * 100))}"
                        )
                labels = _label_str(family.label_names, child.label_values)
                lines.append(f"{name}_sum{labels} {_fmt(child.total)}")
                lines.append(f"{name}_count{labels} {child.count}")
    return "\n".join(lines) + "\n"


def to_json(registry: MetricsRegistry, fastpath_stats=None) -> dict:
    """The registry plus its simulated-time series, JSON-serializable.

    ``fastpath_stats`` (a :class:`repro.net.fastpath.FastpathStats`, usually
    ``cluster.fastpath_stats``) rides along under a ``"fastpath"`` key so a
    single artifact carries the whole picture — metric series *and* the
    coalescing counters that explain them.  The key set is pinned to
    ``repro.net.fastpath.COUNTER_KEYS`` by a regression test.
    """
    families = []
    for family in registry.sorted_families():
        children = []
        for child in family.sorted_children():
            entry: dict = {
                "labels": dict(zip(family.label_names, child.label_values)),
            }
            if family.kind == COUNTER:
                entry["value"] = child.value
                entry["series"] = [list(point) for point in child.series()]
            else:
                entry["count"] = child.count
                entry["sum"] = child.total
                values = child._values_sorted()
                entry["quantiles"] = {
                    str(q): nearest_rank(values, q * 100) for q in EXPORT_QUANTILES
                } if values else {}
                entry["series"] = [list(point) for point in child.series()]
            children.append(entry)
        families.append(
            {
                "name": family.name,
                "kind": family.kind,
                "help": family.help,
                "label_names": list(family.label_names),
                "children": children,
            }
        )
    doc = {"window": registry.window, "families": families}
    if fastpath_stats is not None:
        doc["fastpath"] = fastpath_stats.as_dict()
    return doc


# ---------------------------------------------------------------------------
# SLO evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SLOTarget:
    """Latency targets for one (op, size-bucket) cell, in simulated seconds."""

    op: str
    size: str
    p50: float
    p99: float


@dataclass
class SLORow:
    """One evaluated cell: measured vs target, per tenant."""

    tenant: str
    op: str
    size: str
    count: int
    p50: float
    p99: float
    p50_target: float
    p99_target: float

    @property
    def ok(self) -> bool:
        return self.p50 <= self.p50_target and self.p99 <= self.p99_target

    @property
    def verdict(self) -> str:
        return "PASS" if self.ok else "FAIL"


def evaluate_slos(
    registry: MetricsRegistry,
    targets: list[SLOTarget],
    metric: str = "fleet_op_latency_seconds",
) -> list[SLORow]:
    """Evaluate every recorded (tenant, op, size) cell against the targets.

    The metric must be a histogram family labeled at least (``tenant``,
    ``op``, ``size``); cells with no matching target are skipped (they are
    traffic without an SLO, e.g. background bulk), and a target with no
    recorded samples produces no row — absence of traffic is not a pass.
    """
    family = registry.families.get(metric)
    if family is None:
        return []
    by_cell = {(t.op, t.size): t for t in targets}
    idx = {name: i for i, name in enumerate(family.label_names)}
    rows: list[SLORow] = []
    for child in family.sorted_children():
        tenant = str(child.label_values[idx["tenant"]])
        op = str(child.label_values[idx["op"]])
        size = str(child.label_values[idx["size"]])
        target = by_cell.get((op, size))
        if target is None or child.count == 0:
            continue
        rows.append(
            SLORow(
                tenant=tenant,
                op=op,
                size=size,
                count=child.count,
                p50=child.percentile(50),
                p99=child.percentile(99),
                p50_target=target.p50,
                p99_target=target.p99,
            )
        )
    return rows


def format_slo_table(rows: list[SLORow]) -> str:
    """Render pass/fail rows like the MPI benchmark README's target table."""
    header = (
        f"{'tenant':<12} {'op':<12} {'size':>8} {'n':>6} "
        f"{'p50':>12} {'target':>12} {'p99':>12} {'target':>12}  verdict"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.tenant:<12} {row.op:<12} {row.size:>8} {row.count:>6} "
            f"{row.p50 * 1e3:>10.3f}ms {row.p50_target * 1e3:>10.3f}ms "
            f"{row.p99 * 1e3:>10.3f}ms {row.p99_target * 1e3:>10.3f}ms  {row.verdict}"
        )
    return "\n".join(lines)
