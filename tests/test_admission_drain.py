"""Admission drains at quiescence: a finished run holds and queues nothing.

Every claim a run makes is released or withdrawn by the time its event
queue drains, whatever faults it met.  So after each fuzz scenario (seeds
0–39, fast paths on and off) every NIC direction, memory-copy channel and
fabric tier link reads no units in use, no waiting request and no virtual
hold.  A leaked claim would wedge the next transfer on that link; a leaked
virtual hold would keep coalescing off it.
"""

from dataclasses import replace

import pytest

from repro.bench.fuzz import generate_spec
from repro.bench.scenarios import run

SEEDS = range(40)


def _resources(cluster):
    for node in cluster.nodes:
        yield f"node{node.node_id}.uplink", node.uplink
        yield f"node{node.node_id}.downlink", node.downlink
        yield f"node{node.node_id}.memcpy", node.memcpy_channel
    for link in cluster.fabric.iter_links():
        yield link.name, link.resource


@pytest.mark.parametrize("fast_paths", [True, False], ids=["fast-on", "fast-off"])
def test_every_resource_drains_after_a_fuzz_run(fast_paths):
    undrained, checked = [], 0
    for seed in SEEDS:
        clusters: list = []
        scenario = replace(generate_spec(seed).scenario, fast_paths=fast_paths)
        run(scenario, observe=clusters.append)
        for name, resource in _resources(clusters[0]):
            checked += 1
            if resource._in_use or resource._waiting or resource._virtual:
                undrained.append((seed, name, resource._in_use, len(resource._waiting)))
    assert checked > 0
    assert undrained == []
