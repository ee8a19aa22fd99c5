"""Tests for the miniature task system: submission, wait/get, recovery."""

import numpy as np
import pytest

from repro.collectives.plane import HoplitePlane
from repro.core import HopliteRuntime, ObjectID, ObjectValue, ReduceOp
from repro.net import Cluster, NetworkConfig
from repro.tasksys import ObjectRef, TaskError, TaskSystem

MB = 1024 * 1024


def make_system(num_nodes=4):
    cluster = Cluster(num_nodes=num_nodes, network=NetworkConfig())
    plane = HoplitePlane(HopliteRuntime(cluster))
    return cluster, TaskSystem(cluster, plane)


def run_driver(cluster, generator):
    process = cluster.sim.process(generator)
    cluster.run()
    assert process.ok, process.value
    return process.value


def _produce(ctx, value, size=MB):
    yield ctx.compute(0.01)
    return ObjectValue.from_array(np.full(2, float(value)), logical_size=size)


def _consume(ctx, upstream_value):
    yield ctx.compute(0.01)
    return ObjectValue.from_array(upstream_value.as_array() * 2, logical_size=MB)


def test_submit_and_get_result():
    cluster, system = make_system()

    def driver():
        ref = system.submit(_produce, args=(7,), name="produce")
        value = yield from system.get(ref)
        return value

    value = run_driver(cluster, driver())
    assert np.allclose(value.as_array(), 7.0)
    assert system.metrics.finished == 1


def test_object_ref_arguments_are_resolved():
    cluster, system = make_system()

    def driver():
        first = system.submit(_produce, args=(3,))
        second = system.submit(_consume, args=(first,))
        value = yield from system.get(second)
        return value

    value = run_driver(cluster, driver())
    assert np.allclose(value.as_array(), 6.0)


def test_wait_returns_first_finished():
    cluster, system = make_system()

    def slow(ctx, value):
        yield ctx.compute(5.0)
        return ObjectValue.from_array(np.full(1, float(value)), logical_size=MB)

    def fast(ctx, value):
        yield ctx.compute(0.1)
        return ObjectValue.from_array(np.full(1, float(value)), logical_size=MB)

    def driver():
        refs = [system.submit(slow, args=(1,)), system.submit(fast, args=(2,))]
        ready, pending = yield from system.wait(refs, num_returns=1)
        return ready, pending, cluster.sim.now

    ready, pending, when = run_driver(cluster, driver())
    assert len(ready) == 1 and len(pending) == 1
    assert when < 1.0

    with pytest.raises(ValueError):
        next(system.wait([], num_returns=1))


def test_driver_put_and_task_context_put():
    cluster, system = make_system()

    def task(ctx, value):
        ref = yield from ctx.put(ObjectValue.from_array(np.full(1, 5.0), logical_size=MB))
        fetched = yield from ctx.get(ref)
        return ObjectValue.from_array(fetched.as_array() + value.as_array(), logical_size=MB)

    def driver():
        base = yield from system.put(ObjectValue.from_array(np.full(1, 2.0), logical_size=MB))
        ref = system.submit(task, args=(base,))
        value = yield from system.get(ref)
        return value

    value = run_driver(cluster, driver())
    assert np.allclose(value.as_array(), 7.0)


def test_task_context_reduce_uses_the_plane():
    cluster, system = make_system()

    def producer(ctx, value):
        yield ctx.compute(0.0)
        return ObjectValue.from_array(np.full(1, float(value)), logical_size=4 * MB)

    def driver():
        refs = [system.submit(producer, args=(v,)) for v in (1, 2, 3)]
        yield from system.wait(refs, num_returns=3)
        target = ObjectID.of("sum")
        context_ref = refs[0]
        # Drive a reduce from the driver node via the plane directly.
        yield from system.plane.reduce(
            system.driver_node, target, [ref.object_id for ref in refs], ReduceOp.SUM
        )
        value = yield from system.fetch(system.driver_node, target)
        return value

    value = run_driver(cluster, driver())
    assert np.allclose(value.as_array(), 6.0)


def test_scheduler_respects_node_hint_and_skips_dead_nodes():
    cluster, system = make_system()
    cluster.node(2).fail()

    def task(ctx):
        yield ctx.compute(0.01)
        return ObjectValue.of_size(1024)

    def driver():
        hinted = system.submit(task, node=1)
        dead_hint = system.submit(task, node=2)
        yield from system.wait([hinted, dead_hint], num_returns=2)
        return (
            system.tasks[hinted.producer_task_id].node_id,
            system.tasks[dead_hint.producer_task_id].node_id,
        )

    hinted_node, fallback_node = run_driver(cluster, driver())
    assert hinted_node == 1
    assert fallback_node != 2


def test_running_task_is_resubmitted_after_node_failure():
    cluster, system = make_system()

    def long_task(ctx):
        yield ctx.compute(2.0)
        return ObjectValue.of_size(MB)

    def driver():
        ref = system.submit(long_task, node=1, name="doomed")
        yield from system.wait([ref], num_returns=1)
        value = yield from system.get(ref)
        return value, system.tasks[ref.producer_task_id].attempts

    cluster.schedule_failure(1, at=0.5)
    value, attempts = run_driver(cluster, driver())
    assert value.size == MB
    assert attempts >= 2
    assert system.metrics.reconstructions >= 1


def test_task_with_no_restarts_fails_permanently():
    cluster, system = make_system()

    def exploding(ctx):
        yield ctx.compute(0.01)
        raise RuntimeError("bug in task")

    def driver():
        ref = system.submit(exploding, max_restarts=0)
        try:
            yield from system.wait([ref], num_returns=1)
        except TaskError as exc:
            return str(exc)
        return "no error"

    message = run_driver(cluster, driver())
    assert "failed permanently" in message
    assert system.metrics.failures == 1


def test_finished_object_is_reconstructed_when_its_node_dies():
    cluster, system = make_system()

    def producer(ctx):
        yield ctx.compute(0.05)
        return ObjectValue.from_array(np.full(1, 9.0), logical_size=MB)

    def driver():
        ref = system.submit(producer, node=1)
        yield from system.wait([ref], num_returns=1)
        # Kill the node that holds the only copy of the result.
        cluster.node(1).fail()
        yield cluster.sim.timeout(1.0)
        value = yield from system.get(ref)
        return value

    value = run_driver(cluster, driver())
    assert np.allclose(value.as_array(), 9.0)
    assert system.metrics.reconstructions >= 1


def test_task_returning_wrong_type_is_an_error():
    cluster, system = make_system()

    def bad(ctx):
        yield ctx.compute(0.01)
        return 42

    def driver():
        ref = system.submit(bad, max_restarts=0)
        try:
            yield from system.wait([ref], num_returns=1)
        except TaskError:
            return "failed"
        return "ok"

    assert run_driver(cluster, driver()) == "failed"


def test_object_ref_str():
    ref = ObjectRef(object_id=ObjectID.of("x"), producer_task_id=None)
    assert "x" in str(ref)


def test_strict_placement_waits_for_the_nodes_recovery():
    cluster, system = make_system()
    cluster.node(2).fail()

    def task(ctx):
        yield ctx.compute(0.01)
        return ObjectValue.from_array(np.full(1, float(ctx.node.node_id)), logical_size=MB)

    def driver():
        ref = system.submit(task, node=2, placement="strict", name="pinned")
        yield cluster.sim.timeout(1.0)
        running_before_recovery = system.tasks[ref.producer_task_id].status.value
        cluster.node(2).recover()
        yield from system.wait([ref], num_returns=1)
        value = yield from system.get(ref)
        return running_before_recovery, value, system.tasks[ref.producer_task_id].node_id

    status_before, value, node_id = run_driver(cluster, driver())
    assert status_before == "pending"
    assert node_id == 2, "a strict task must not migrate"
    assert np.allclose(value.as_array(), 2.0)

    with pytest.raises(ValueError):
        system.submit(task, placement="strict")  # strict needs a node hint
    with pytest.raises(ValueError):
        system.submit(task, node=1, placement="sideways")


def test_idempotent_key_revives_a_permanently_failed_task():
    cluster, system = make_system()
    state = {"raises": True}

    def flaky(ctx):
        yield ctx.compute(0.01)
        if state["raises"]:
            raise RuntimeError("transient bug")
        return ObjectValue.of_size(MB)

    def driver():
        ref = system.submit(flaky, key="flaky", max_restarts=0)
        try:
            yield from system.wait([ref], num_returns=1)
        except TaskError:
            pass
        state["raises"] = False
        revived = system.submit(flaky, key="flaky", max_restarts=0)
        assert revived.producer_task_id == ref.producer_task_id
        yield from system.wait([revived], num_returns=1)
        return system.tasks[revived.producer_task_id].status.value

    assert run_driver(cluster, driver()) == "finished"
    assert system.metrics.deduplicated == 1
