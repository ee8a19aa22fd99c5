"""A finished run is freed by reference counting, not the cyclic collector.

Each test turns the collector off, runs something, drops it, and then asks
``gc.collect()`` how many unreachable objects it had to find: any nonzero
count is a reference cycle the run left behind.
"""

import gc
from contextlib import contextmanager

import pytest

from repro.bench.fleet import run_fleet
from repro.bench.scenarios import collect_flow_usage
from repro.net import Cluster
from repro.sim import SimulationError, Simulator
from repro.store.object_store import StoredObject
from repro.store.objects import ObjectID


@contextmanager
def collector_off():
    """Collect what is already garbage, then keep the collector off."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _returns(sim):
    yield sim.timeout(1.0)
    return "done"


def _raises(sim):
    yield sim.timeout(1.0)
    raise ValueError("boom")


def _yields_non_event(sim):
    yield sim.timeout(1.0)
    yield "not an event"


@pytest.mark.parametrize("body", [_returns, _raises, _yields_non_event])
def test_finished_process_leaves_no_cycle(body):
    outcomes = []

    def parent(sim):
        try:
            outcomes.append((yield sim.process(body(sim))))
        except (ValueError, SimulationError) as exc:
            outcomes.append(type(exc).__name__)

    with collector_off():
        sim = Simulator()
        proc = sim.process(parent(sim))
        sim.run()
        assert proc.ok and outcomes
        del sim, proc
        assert gc.collect() == 0


def test_failed_process_traceback_starts_in_its_generator():
    sim = Simulator()
    proc = sim.process(_raises(sim))
    sim.run()
    assert sim.unhandled_failures == [proc]
    assert proc.value.__traceback__.tb_frame.f_code is _raises.__code__


def test_sealed_object_leaves_no_cycle():
    with collector_off():
        sim = Simulator()
        entry = StoredObject(sim, ObjectID.of("sealed"), size=4, num_blocks=1)
        waited = []

        def waiter():
            waited.append((yield entry.wait_sealed()))

        sim.process(waiter())
        entry.seal(b"data")
        sim.run()
        assert waited == [entry]
        del sim, entry, waited
        assert gc.collect() == 0


def test_finished_fleet_leaves_no_cycle():
    """Dropping an unobserved fleet's result frees all of it (the observed
    fleet is a case of ``tests/test_no_cyclic_garbage.py``)."""
    with collector_off():
        result = run_fleet(quick=True, observe=False)
        assert len(result.completions) == len(result.specs)
        del result
        assert gc.collect() == 0


def test_closed_fleet_cluster_stays_readable():
    result = run_fleet(quick=True, observe=False)
    cluster = result.cluster
    assert cluster.closed
    assert cluster.now == result.duration
    usage = collect_flow_usage(cluster)
    assert usage["events_processed"] == cluster.sim.events_processed > 0
    assert usage["tier_bytes"]["nic"] > 0
    assert usage["fastpath"] == cluster.fastpath_stats.counts
    assert cluster.flight is None and cluster.obs is None
    assert all(not node.failure_listeners and node.cluster is None for node in cluster)


def test_closed_cluster_refuses_to_run():
    cluster = Cluster(num_nodes=2)
    cluster.process(_returns(cluster.sim))
    cluster.run()
    cluster.close()
    cluster.close()  # idempotent
    with pytest.raises(SimulationError):
        cluster.run()
    with pytest.raises(SimulationError):
        cluster.process(_returns(cluster.sim))


def test_cluster_with_queued_events_refuses_to_close():
    cluster = Cluster(num_nodes=2)
    cluster.process(_returns(cluster.sim))
    with pytest.raises(SimulationError):
        cluster.close()
    cluster.run()
    cluster.close()
    assert cluster.closed
