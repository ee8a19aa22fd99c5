"""No option without a caller: the census of settable values.

Every defaulted parameter of a module-level function or a method (a class's
``__init__`` counts as the class) in ``src/repro`` is an option.  A
parameter counts as set when a call by that name in ``src/``,
``benchmarks/``, ``perf/`` or ``examples/`` passes it by keyword or by
position, or passes ``*``/``**``.  A class is called by its own name and by
the name of every subclass that inherits its ``__init__``; ``super()
.__init__(...)`` and ``Base.__init__(self, ...)`` call the base.  Matching
is by name only, so the census over-counts what is set, never what is
unset.  Fields of a dataclass are not counted: it has no ``def`` to parse.

The options no such call sets must equal :data:`UNSET_OPTIONS` exactly,
each with its reason.  A change that adds an option nobody sets, or stops
setting one, fails here; a change that deletes one shrinks the set.  An
entry kept because tier-1 reaches the path through it must really be set by
a call in ``tests/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: ``perf/`` calls the ``measure_*`` wrappers through ``getattr``, so no
#: call names them; they go with ROADMAP item 4.
MEASURE = "perf-frozen measure_* wrapper"
#: ``python -m`` passes ``sys.argv``; tier-1 passes an explicit list.
CLI = "CLI entry point"
#: no workload sets it; tier-1 reaches the path through it.
TIER1 = "set by tier-1 only"

UNSET_OPTIONS = {
    **{
        f"repro.bench.scenarios.{function}({name}=)": MEASURE
        for function, names in (
            ("measure_broadcast", ("arrival_interval", "arrival_delays", "network", "options")),
            ("measure_gather", ("network", "options")),
            ("measure_reduce", ("arrival_interval", "arrival_delays", "network", "options")),
            ("measure_allreduce", ("arrival_interval", "arrival_delays", "network", "options")),
            ("measure_allgather", ("network", "options", "failures")),
            ("measure_alltoall", ("network", "options", "failures")),
            (
                "measure_driver_failure",
                ("collective", "fail_at", "fail_fraction", "downtime", "network", "options"),
            ),
            (
                "measure_control_plane_failure",
                ("collective", "target", "fail_at", "fail_fraction", "network", "options"),
            ),
        )
        for name in names
    },
    "repro.bench.digest.main(argv=)": CLI,
    "repro.bench.fuzz.main(argv=)": CLI,
    "repro.apps.moe.run_moe_routing(failure=)": TIER1,
    "repro.apps.rl.run_rl_training(failure=)": TIER1,
    "repro.bench.fleet.run_fleet(oversubscription=)": TIER1,
    "repro.bench.fleet.run_fleet(window=)": TIER1,
    "repro.bench.fleet.run_fleet(slos=)": TIER1,
    "repro.bench.scenarios.supported(faults=)": TIER1,
    "repro.core.reduce.choose_reduce_degree(candidates=)": TIER1,
    "repro.core.runtime.HopliteRuntime(store_capacity_bytes=)": TIER1,
    "repro.net.cluster.Cluster(topology=)": TIER1,
    "repro.net.topology.Topology.racks(zone_oversubscription=)": TIER1,
    "repro.net.topology.Topology.racks(nic_bandwidths=)": TIER1,
    "repro.obs.critpath.cluster_blame(name=)": TIER1,
    "repro.obs.flight.FlightRecorder(capacity=)": TIER1,
    "repro.obs.metrics.Histogram.percentile(since=)": TIER1,
    "repro.obs.metrics.Histogram.percentile(until=)": TIER1,
    "repro.sim.core.Simulator.timeout(value=)": TIER1,
    "repro.sim.core.Simulator._schedule(delay=)": TIER1,
    "repro.sim.resources.MultiRequest(priority=)": TIER1,
    "repro.store.object_store.LocalObjectStore.put_complete(pin=)": TIER1,
    "repro.tasksys.system.TaskSystem.submit(output_id=)": TIER1,
}


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _defaulted(fn, bound):
    """``(name, position)`` of each defaulted parameter; ``None`` for keyword-only."""
    args = fn.args
    positional = (args.posonlyargs + args.args)[1 if bound else 0 :]
    first = len(positional) - len(args.defaults)
    found = [(arg.arg, first + i) for i, arg in enumerate(positional[first:])]
    found += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def _classes():
    """Every class in ``src/repro``: name -> (module, base names, defines __init__)."""
    classes = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                own_init = any(
                    isinstance(item, ast.FunctionDef) and item.name == "__init__"
                    for item in node.body
                )
                classes[node.name] = (module, [_name(b) for b in node.bases], own_init)
    return classes


def _constructor_names(cls, classes):
    """``cls`` and every subclass that inherits its ``__init__``."""
    names = {cls}
    grew = True
    while grew:
        grew = False
        for name, (_module, bases, own_init) in classes.items():
            if name not in names and not own_init and names.intersection(bases):
                names.add(name)
                grew = True
    return names


def options():
    """``(key, callee names, parameter, position)`` for every option."""
    classes = _classes()
    found = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                for name, position in _defaulted(node, bound=False):
                    found.append((f"{module}.{node.name}({name}=)", {node.name}, name, position))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    static = any(_name(d) == "staticmethod" for d in item.decorator_list)
                    if item.name == "__init__":
                        qualified = f"{module}.{node.name}"
                        callees = _constructor_names(node.name, classes)
                    else:
                        qualified = f"{module}.{node.name}.{item.name}"
                        callees = {item.name}
                    for name, position in _defaulted(item, bound=not static):
                        found.append((f"{qualified}({name}=)", callees, name, position))
    return found


class _Calls(ast.NodeVisitor):
    """Every call's ``(positional count, keyword names, passes * or **)`` by callee name."""

    def __init__(self, classes):
        self.classes = classes
        self.by_name: dict[str, list] = {}
        self.enclosing: list[str] = []

    def visit_ClassDef(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    def visit_Call(self, node):
        self.generic_visit(node)
        func = node.func
        positional = len(node.args)
        star = any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords
        )
        names = [_name(func)]
        if names[0] == "__init__":
            owner = func.value
            if isinstance(owner, ast.Call) and _name(owner.func) == "super":
                base = self.classes.get(self.enclosing[-1]) if self.enclosing else None
                names = base[1] if base else []
            else:
                # ``Base.__init__(self, ...)``: ``self`` is the first argument.
                names, positional = [_name(owner)], positional - 1
        call = (positional, {k.arg for k in node.keywords}, star)
        for name in names:
            if name is not None:
                self.by_name.setdefault(name, []).append(call)


def unset(tops):
    """The option keys that no call under the directories ``tops`` sets."""
    calls = _Calls(_classes())
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            calls.visit(ast.parse(path.read_text()))
    return {
        key
        for key, callees, name, position in options()
        if not any(
            star or name in keywords or (position is not None and count > position)
            for callee in callees
            for count, keywords, star in calls.by_name.get(callee, ())
        )
    }


def test_every_unset_option_is_listed_with_its_reason():
    census = unset(("src", "benchmarks", "perf", "examples"))
    assert sorted(census - UNSET_OPTIONS.keys()) == [], "options no workload sets"
    assert sorted(UNSET_OPTIONS.keys() - census) == [], "listed options a workload now sets"


def test_options_kept_for_tier1_are_set_by_tier1():
    kept = {key for key, reason in UNSET_OPTIONS.items() if reason == TIER1}
    assert sorted(kept & unset(("tests",))) == []
