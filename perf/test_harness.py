"""Unit tests of the benchmark's own machinery (no simulation runs)."""

import json
import re
from pathlib import Path

import pytest

import perflib
import run
from perflib import GenProxy, Tracer


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


# -- generator proxy ----------------------------------------------------------


def test_proxy_under_yield_from_keeps_values_and_return():
    tracer = Tracer()

    def inner():
        first = yield "ready"
        second = yield first + 1
        return first + second

    def outer():
        result = yield from GenProxy(inner(), tracer, "core", "inner")
        return result * 2

    gen = outer()
    assert next(gen) == "ready"
    assert gen.send(10) == 11
    with pytest.raises(StopIteration) as stop:
        gen.send(5)
    assert stop.value.value == 30
    assert tracer.calls["core"] == 3
    assert GenProxy(inner(), tracer, "core", "inner").__name__ == "inner"


def test_proxy_forwards_throw_and_close_and_raises_through():
    tracer = Tracer()
    log = []

    def inner():
        try:
            while True:
                try:
                    yield "waiting"
                except KeyError:
                    log.append("caught")
        finally:
            log.append("closed")

    proxy = GenProxy(inner(), tracer, "store", "inner")
    assert next(proxy) == "waiting"
    assert proxy.throw(KeyError("k")) == "waiting"
    proxy.close()
    assert log == ["caught", "closed"]

    def failing():
        yield 1
        raise ValueError("boom")

    def outer():
        yield from GenProxy(failing(), tracer, "store", "failing")

    gen = outer()
    next(gen)
    with pytest.raises(ValueError, match="boom"):
        next(gen)
    assert tracer._stack == []


def test_span_wrapper_times_plain_calls_and_generator_resumes():
    tracer = Tracer()

    def plain(x):
        return x + 1

    def gen_fn():
        yield 1
        return 2

    assert perflib.span_wrapper(tracer, "directory", "plain", plain)(1) == 2
    wrapped = perflib.span_wrapper(tracer, "directory", "gen", gen_fn)()
    assert list(wrapped) == [1]
    assert tracer.calls["directory"] == 1 + 2


# -- self-time arithmetic -----------------------------------------------------


def test_self_time_is_span_minus_direct_children():
    # a [0, 10] contains b [2, 5] (which contains c [3, 4]) and d [6, 7].
    tracer = Tracer(clock=FakeClock(0, 2, 3, 4, 5, 6, 7, 10))
    tracer.enter("driver", "a")
    tracer.enter("core", "b")
    tracer.enter("store", "c")
    tracer.exit()
    tracer.exit()
    tracer.enter("core", "d")
    tracer.exit()
    tracer.exit()
    assert tracer.self_ns["driver"] == 10 - 3 - 1
    assert tracer.self_ns["core"] == (3 - 1) + 1
    assert tracer.self_ns["store"] == 1
    assert sum(tracer.self_ns.values()) == 10
    parents = {span[0]: span[1] for span in tracer.spans}
    assert parents == {0: None, 1: 0, 2: 1, 3: 0}
    trace = tracer.chrome_trace()
    assert len(trace["traceEvents"]) == 4
    assert trace["otherData"]["spans_opened"] == 4


def test_snapshot_restore_discards_spans_in_between():
    tracer = Tracer(clock=FakeClock(0, 1, 2, 5))
    tracer.enter("core", "kept")
    tracer.exit()
    snapshot = tracer.snapshot()
    tracer.enter("core", "dropped")
    tracer.exit()
    tracer.restore(snapshot)
    assert tracer.self_ns["core"] == 1
    assert tracer.calls["core"] == 1
    assert len(tracer.spans) == 1


def test_layer_mapping():
    assert perflib.layer_of("repro.sim.core") == "sim.kernel"
    assert perflib.layer_of("repro.directory.service") == "directory"
    assert perflib.layer_of("repro.apps.serving") == "driver"
    assert perflib.layer_of("repro.net.cluster") is None
    assert perflib.layer_of("repro.simx") is None


# -- statistics ---------------------------------------------------------------


def test_tail_has_ten_samples_beyond_it():
    # 240 fleet jobs: the 230th value, at the 95.8th percentile.
    assert perflib.tail(range(240)) == 229
    assert sum(1 for v in range(240) if v > perflib.tail(range(240))) == 10
    assert perflib.tail(reversed(range(11))) == 0
    # Ten samples or fewer (a matching pass has five cells): the worst one.
    assert perflib.tail([1.2, 3.0, 1.0, 2.5, 1.1]) == 3.0
    assert perflib.tail([]) is None


def test_summary_matches_statistics_quantiles():
    s = perflib.summary([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert (s["median"], s["q1"], s["q3"], s["n"]) == (5.5, 2.75, 8.25, 10)
    assert perflib.summary([4.0])["q1"] == 4.0


def test_reference_normalization():
    nominal = perflib.REF_NOMINAL_S
    # A host twice as slow takes twice as long on both: same normalized time.
    fast = perflib.normalize(2.0, nominal)
    slow = perflib.normalize(4.0, 2 * nominal)
    assert fast == slow == 2.0
    # Each stretch is scaled by the mean of the slices around it.
    stretches = perflib.normalize_intervals(
        [1.0, 3.0], [(nominal, 3 * nominal), (nominal / 2, nominal / 2)]
    )
    assert stretches == pytest.approx(1.0 / 2 + 3.0 * 2)
    assert perflib.reference_loop(events=2000) > 0


# -- compare verdicts ---------------------------------------------------------

PARENT = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05]


def test_verdict_improved():
    change = [v * 0.8 for v in PARENT]
    assert perflib.verdict(PARENT, change, 0.08) == perflib.IMPROVED


def test_verdict_no_worse_within_bound():
    change = [v * 1.01 for v in PARENT]
    assert perflib.verdict(PARENT, change, 0.08) == perflib.NO_WORSE
    assert perflib.verdict(PARENT, PARENT, 0.08) == perflib.NO_WORSE
    # A deterministic metric (no spread) that does not move.
    assert perflib.verdict([1.5] * 10, [1.5] * 10, 0.0) == perflib.NO_WORSE


def test_verdict_regressed_beyond_bound():
    change = [v * 1.2 for v in PARENT]
    assert perflib.verdict(PARENT, change, 0.08) == perflib.REGRESSED
    # Higher-is-better metrics regress downwards.
    assert perflib.verdict(PARENT, [v * 0.8 for v in PARENT], 0.08, "higher") == (
        perflib.REGRESSED
    )


def test_verdict_unresolved_when_spread_exceeds_bound():
    wide = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    change = [v * 1.02 for v in wide]
    assert perflib.verdict(wide, change, 0.08) == perflib.UNRESOLVED
    # ... unless every change sample reads better than every parent sample.
    bimodal = [10.0] * 4 + [30.0] * 4
    assert perflib.verdict(bimodal, [9.9] * 8, 0.08) == perflib.NO_WORSE


# -- the benchmark's declared metrics -----------------------------------------


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [m[0] for m in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in run.per_layer_names()]
    assert [w["name"] for w in spec["workloads"]] == list(run.perfcells.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert len(spec["per_layer"]) <= 128
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    # Set-up time has the widest bound, so work moved into set-up shows.
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def _report(samples: dict, failed: int = 0, digest: str = "d") -> dict:
    end_to_end = {
        name: {"samples": values, **perflib.summary(values)} for name, values in samples.items()
    }
    return {"workloads": {"matching": {
        "end_to_end": end_to_end, "failed": failed, "attempted": 10, "digest": digest,
    }}}


def test_compare_prints_a_verdict_per_metric(tmp_path, capsys):
    parent = _report({
        "host_s": PARENT,
        "setup_s": PARENT,
        "peak_rss_mb": PARENT,
        "x_ref_p50": [1.5] * 10,
    })
    change = _report({
        "host_s": [v * 0.8 for v in PARENT],
        "setup_s": [v * 1.3 for v in PARENT],
        "peak_rss_mb": [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0],
        "x_ref_p50": [1.5] * 10,
    }, failed=1, digest="e")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(parent))
    b.write_text(json.dumps(change))
    assert run.compare(str(a), str(b)) == 1
    rows = {
        line.split()[1]: line for line in capsys.readouterr().out.splitlines()[1:]
    }
    assert rows["host_s"].endswith(perflib.IMPROVED)
    assert rows["setup_s"].endswith(perflib.REGRESSED)
    assert rows["peak_rss_mb"].endswith(perflib.UNRESOLVED)
    assert rows["x_ref_p50"].endswith(perflib.NO_WORSE)
    assert rows["failed_frac"].endswith(perflib.REGRESSED)
    assert "DIFFERENT" in rows["digest"]
