"""The multi-tenant fleet scenario and the plane's zero-interference pledge.

The load-bearing test here is the differential one: running the identical
fleet with and without the observability plane must produce byte-identical
simulated behaviour (who finished when).  Metrics recording and tracing
never schedule events, so the plane is pure measurement — the same pledge
the coalescing fuzz harness makes for the fast path.
"""

import pytest

from repro.bench import fleet
from repro.bench.fleet import (
    TENANTS,
    build_fleet,
    congestion_latency_correlation,
    run_fleet,
    size_label,
)
from repro.net.flowsched import FlowClass
from repro.sim import ProcessFailure

#: a small fleet that still exercises every job kind and both tenants.
SMALL = dict(num_jobs=8, num_racks=2, nodes_per_rack=4, quick=True)


def _small_fleet(**overrides):
    return run_fleet(**{**SMALL, **overrides})


def test_size_label_buckets():
    assert size_label(256 * 1024) == "256KB"
    assert size_label(8 * 1024 * 1024) == "8MB"
    assert size_label(1000) == "1000B"


def test_build_fleet_is_deterministic_and_covers_the_matrix():
    specs = build_fleet(24, 32, seed=7)
    again = build_fleet(24, 32, seed=7)
    assert specs == again
    assert build_fleet(24, 32, seed=8) != specs
    # Every (tenant, kind) pair occurs, arrivals are strictly increasing,
    # and placements stay within the fabric.
    assert {(s.tenant.name, s.kind) for s in specs} == {
        (tenant.name, kind)
        for tenant in TENANTS
        for kind in ("training", "serving", "moe", "rl")
    }
    arrivals = [s.arrival for s in specs]
    assert arrivals == sorted(arrivals) and arrivals[0] > 0.0
    for spec in specs:
        assert len(set(spec.nodes)) == len(spec.nodes)
        assert all(0 <= nid < 32 for nid in spec.nodes)


def test_observability_does_not_change_the_simulation():
    """The same fleet, observed and unobserved, behaves identically."""
    observed = _small_fleet(observe=True)
    unobserved = _small_fleet(observe=False)
    assert observed.digest() == unobserved.digest()
    # The unobserved run really had no plane (and hence no verdicts).
    assert unobserved.obs is None and unobserved.slo_rows == []
    assert observed.obs is not None and observed.slo_rows


def test_fleet_runs_deterministically_per_seed():
    assert _small_fleet().digest() == _small_fleet().digest()
    assert _small_fleet(seed=1).digest() != _small_fleet().digest()


def test_tenant_traffic_rides_its_flow_class():
    """prod fetches ride REDUCE_PARTIAL, batch rides BULK, on real links."""
    result = _small_fleet()
    family = result.obs.registry.families["link_bytes"]
    cls_idx = family.label_names.index("cls")
    by_class = {cls.name.lower(): 0.0 for cls in FlowClass}
    for child in family.children.values():
        by_class[child.label_values[cls_idx]] += child.value
    assert by_class["reduce_partial"] > 0.0, "prod traffic missing"
    assert by_class["bulk"] > 0.0, "batch traffic missing"
    # Control RPCs are counted as messages, not link bytes.
    control = result.obs.registry.families["control_messages"]
    assert sum(child.value for child in control.children.values()) > 0.0


def test_fleet_records_every_slo_cell_and_correlation():
    result = _small_fleet()
    assert len(result.completions) == 8
    assert result.peak_concurrency >= 2
    cells = {(row.tenant, row.op) for row in result.slo_rows}
    assert cells == {
        (tenant, op)
        for tenant in ("prod", "batch")
        for op in ("allreduce", "broadcast", "gather", "alltoall")
    }
    # The correlation is computed purely from recorded series.
    assert result.congestion_latency_r == congestion_latency_correlation(
        result.obs.registry
    )


def test_traced_fleet_links_transfers_to_jobs():
    from repro.obs.flight import timeline

    result = _small_fleet(num_jobs=4)
    tracer = result.obs.tracer
    transfers, _ = timeline(result.cluster.flight)
    assert transfers, "the flight recorder recorded no transfers"
    by_id = {span.span_id: span for span in tracer.spans}

    def op_of(span):
        while span is not None and not span.name.startswith("op:"):
            span = by_id.get(span.parent_id)
        return span

    for transfer in transfers:
        # Every block resolves to the fleet op that moved it...
        op = op_of(tracer.span_for_flow(transfer.flow, transfer.submit))
        assert op is not None, transfer
        # ...and its phases are ordered.
        assert transfer.submit <= transfer.grant <= transfer.release


def test_a_job_that_raises_fails_the_fleet(monkeypatch):
    """A job body that raises has no waiter; ``run_fleet`` names it instead
    of returning a fleet with the job silently missing."""

    def broken(sim, runtime, spec, recorder):
        yield sim.timeout(0.0)
        raise KeyError(spec.name)

    monkeypatch.setitem(fleet._JOB_BODIES, "training", broken)
    with pytest.raises(ProcessFailure, match=r"^process 'fleet-.*KeyError"):
        _small_fleet()
