"""The names the benchmark in ``perfbench/`` looks up on ``ralab``.

The traced pass replaces each function of ``workloads.TRACED`` at the
attribute its caller looks up, and refuses an attribute that is missing,
so a renamed or moved function fails every traced repetition.  The
workloads also reach other module attributes directly.  These tests read
``perfbench/workloads.py`` and ``perfbench/worker.py`` (without writing
bytecode there) and resolve every such name on the package.  A traced
simulation run also fails when one of its expected spans records no call,
so a short run must reach each of them through the wrapped attributes.
"""

import ast
import dataclasses
import heapq
import importlib
import importlib.util
import sys
from pathlib import Path

import ralab

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("analysis", "cli", "core", "estimator", "metrics", "protocol",
           "scenario", "simulator")


def load_workloads():
    """Import ``perfbench/workloads.py`` by path, leaving the tree as it is."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    saved_path, saved_flag = sys.path[:], sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))  # for its `from spans import ...`
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
    return module


def module_attributes(path: Path) -> set[tuple[str, str]]:
    """``(module, attribute)`` for every ``x.<module>.<attribute>`` lookup,
    every lookup through a local alias (``a = x.<module>``; ``a.<attribute>``)
    and every ``(x.<module>, "<attribute>", ...)`` replacement tuple."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {
        node.targets[0].id: node.value.attr for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.Attribute) and node.value.attr in MODULES
    }
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute) \
                and node.value.attr in MODULES + ("ralab",):
            found.add((node.value.attr, node.attr))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            found.add((aliases[node.value.id], node.attr))
        elif isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            owner, attr = node.elts[:2]
            if isinstance(owner, ast.Attribute) and owner.attr in MODULES \
                    and isinstance(attr, ast.Constant) and isinstance(attr.value, str):
                found.add((owner.attr, attr.value))
    return found


def resolve(module: str, attr: str):
    owner = ralab if module == "ralab" else importlib.import_module(f"ralab.{module}")
    return getattr(owner, attr)


def test_every_traced_target_resolves():
    traced = load_workloads().TRACED
    assert len(traced) == 22
    for module, owner, attr, span in traced:
        obj = importlib.import_module(f"ralab.{module}")
        if owner is not None:
            obj = getattr(obj, owner)
        assert callable(getattr(obj, attr)), span


def test_every_module_attribute_resolves():
    names = module_attributes(PERFBENCH / "workloads.py") \
        | module_attributes(PERFBENCH / "worker.py")
    # the scan sees the lookups of the checks and of the heap counter
    assert {("cli", "fourstep_params"), ("cli", "VALIDATE_TOLERANCE"),
            ("metrics", "satisfiable_latency"), ("simulator", "heapq")} <= names
    missing = []
    for module, attr in sorted(names):
        try:
            resolve(module, attr)
        except AttributeError:
            missing.append(f"{module}.{attr}")
    assert not missing
    # the heap counter stands in for the module the simulator calls through
    assert resolve("simulator", "heapq") is heapq


def test_short_periodic_run_reaches_every_simulator_span():
    """A 2 s run shaped like ``periodic_700``, long enough to classify,
    calls every simulator-side span of the traced pass at least once, with
    the wrappers and the heap counter installed as ``perfbench`` installs
    them: a hot-path change that stops calling one through its module
    attribute would leave it at 0 calls and fail the traced benchmark."""
    workloads = load_workloads()
    spans = sys.modules[workloads.patched.__module__]
    wl = workloads.Periodic700(seed=1, out_dir=None, traced=True)
    wl.import_package()
    wl.make_inputs()
    sc = dataclasses.replace(wl.sc, duration_ms=2_000.0)
    tracer, heap = spans.Tracer("contract"), spans.CountingHeapq()
    replacements = [(owner, attr, tracer.wrap(span, getattr(owner, attr)))
                    for owner, attr, span in wl.trace_targets()]
    replacements.append((wl.simulator, "heapq", heap))
    with spans.patched(replacements):
        wl.simulator.run_scenario(sc, wl.seeds[0])
    totals = spans.span_totals(tracer.names, *tracer.arrays())
    calls = {name: row["calls"] for name, row in totals.items()}
    calls["simulator.heappush"], calls["simulator.heappop"] = heap.pushes, heap.pops
    silent = [span for span in workloads._SIM_SPANS if not calls.get(span)]
    assert not silent, calls
