"""Outside-in tracing of the ``algebroids`` package for the benchmark's traced runs.

The tracer rebinds chosen functions of the package from outside: the function
in its defining module or class, and every other ``algebroids.*`` module
namespace that binds the same object.  ``cli``, ``chern`` and ``classes``
import ``d_A``, ``curvature`` and others by name, so patching the defining
module alone would miss their calls.  Each call becomes one span
``[name, start, end, parent]`` kept in memory and written out at the end of
the process.  Exact counters are taken from the call arguments.  Nothing
under ``src/`` is modified.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
from collections import Counter
from time import perf_counter

# Span name -> the functions it times, as (module, attribute path).
SPANS = {
    "algebroid.d_A": [("algebroids.algebroid", "d_A")],
    "algebroid.verify_axioms": [("algebroids.algebroid", "verify_axioms")],
    "algebroid.check_morphism": [("algebroids.algebroid", "check_morphism")],
    "algebroid.jet_prolong": [("algebroids.algebroid", "jet_prolong")],
    "chern.quadrature": [("algebroids.chern", "integrate_unit_interval"),
                         ("algebroids.chern", "fiber_integrate")],
    "chern.chern_polarized": [("algebroids.chern", "chern_polarized")],
    "chern.parameter_degree": [("algebroids.chern", "_parameter_degree")],
    "chern.bott_delta": [("algebroids.chern", "bott_delta")],
    "forms.wedge": [("algebroids.forms", "AFormData.wedge")],
    "forms.max_abs": [("algebroids.forms", "AFormData.max_abs")],
    "connections.check": [("algebroids.connections", "metric_compat_check"),
                          ("algebroids.connections", "k_flatness_check"),
                          ("algebroids.connections", "quasi_metric_frame_check")],
    "connections.curvature": [("algebroids.connections", "curvature")],
    "connections.link_curvature": [("algebroids.connections", "link_curvature")],
    "connections.orthogonal_connection": [("algebroids.connections", "orthogonal_connection")],
    "sampling.sample_points": [("algebroids.sampling", "sample_points")],
    "fixtures.load": [("algebroids.fixtures", "load_fixture")],
    "classes.mu_form": [("algebroids.classes", "mu_form")],
    "classes.jet_relative": [("algebroids.classes", "jet_relative")],
    "cli.suite.axioms": [("algebroids.cli", "_suite_axioms")],
    "cli.suite.connections": [("algebroids.cli", "_suite_connections")],
    "cli.suite.transgression": [("algebroids.cli", "_suite_transgression")],
    "cli.suite.classes": [("algebroids.cli", "_suite_classes")],
    "cli.suite.composition": [("algebroids.cli", "_suite_composition")],
    "cli.suite.jet": [("algebroids.cli", "_suite_jet")],
    "cli.emit": [("algebroids.cli", "emit_class"), ("algebroids.cli", "emit_modular"),
                 ("algebroids.cli", "emit_jet")],
    "reports.to_json": [("algebroids.reports", "Report.to_json")],
}

# Spans reported with their whole duration rather than their self time.
CUMULATIVE_PREFIXES = ("classes.", "cli.")

# The span around one whole CLI call; its self time is the unattributed rest.
MAIN_SPAN = "cli.main"
# Time spent taking counts; a child of the current span, so it is excluded
# from the self time of every layer.
COUNTING = "trace.count"

COUNTERS = ("forms.point_evals", "expressions.tree_nodes", "expressions.distinct_nodes",
            "expressions.node_visits", "chern.polarized_terms", "sampling.points_drawn")


def _count_max_abs(tracer: "Tracer", arguments: dict) -> None:
    fields = list(arguments["self"].table.values())
    points = len(arguments["points"])
    tree_nodes = tracer.trees.tree_nodes(fields)
    tracer.counts["forms.point_evals"] += len(fields) * points
    tracer.counts["expressions.tree_nodes"] += tree_nodes
    tracer.counts["expressions.node_visits"] += tree_nodes * points


def _count_polarized(tracer: "Tracer", arguments: dict) -> None:
    args = arguments["args"]
    if not args:
        return
    r, h = args[0].size, len(args)
    if h <= r and sum(m.degree for m in args) <= args[0].chart.rank:
        tracer.counts["chern.polarized_terms"] += math.perm(r, h) * math.factorial(h)


def _count_sample_points(tracer: "Tracer", arguments: dict) -> None:
    tracer.counts["sampling.points_drawn"] += int(arguments["count"])


_COUNTED = {
    "AFormData.max_abs": _count_max_abs,
    "chern_polarized": _count_polarized,
    "sample_points": _count_sample_points,
}


def _children(node, field_type) -> list:
    kids = []
    for cls in type(node).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            value = getattr(node, slot, None)
            if isinstance(value, field_type):
                kids.append(value)
    return kids


class TreeCounter:
    """Sizes of expression trees, memoized per node object.

    A tree's size counts a shared subtree at every use, as a pointwise tree
    walk visits it.  Every node seen is kept alive, so ids stay unique and
    ``len(nodes)`` is the number of distinct node objects seen so far.
    """

    def __init__(self):
        from algebroids.expressions import ScalarField

        self.field_type = ScalarField
        self.nodes: dict[int, object] = {}
        self.size: dict[int, int] = {}
        self.kids: dict[int, list] = {}

    def tree_nodes(self, roots) -> int:
        size, kids = self.size, self.kids
        for root in roots:
            stack = [root]
            while stack:
                node = stack[-1]
                key = id(node)
                if key in size:
                    stack.pop()
                    continue
                if key not in kids:
                    self.nodes[key] = node
                    kids[key] = _children(node, self.field_type)
                    stack.extend(k for k in kids[key] if id(k) not in size)
                    continue
                stack.pop()
                size[key] = 1 + sum(size[id(k)] for k in kids[key])
        return sum(size[id(root)] for root in roots)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.trees = TreeCounter()
        self.missing: list[str] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, counter=None):
        signature = inspect.signature(fn) if counter else None

        def traced(*args, **kwargs):
            if counter is not None:
                index = self.begin(COUNTING)
                try:
                    counter(self, signature.bind(*args, **kwargs).arguments)
                finally:
                    self.end(index)
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def install(self) -> None:
        """Rebind every target listed in SPANS; record the ones not found."""
        import algebroids.cli  # noqa: F401  (imports every package module)

        modules = [module for key, module in sorted(sys.modules.items())
                   if key == "algebroids" or key.startswith("algebroids.")]
        for name, targets in SPANS.items():
            for module_name, path in targets:
                owner = sys.modules.get(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                original = vars(owner).get(attr) if owner is not None else None
                if not callable(original):
                    self.missing.append(f"{module_name}.{path}")
                    continue
                wrapper = self.wrap(name, original, _COUNTED.get(path))
                setattr(owner, attr, wrapper)
                if not outer:
                    for module in modules:
                        _rebind(vars(module), original, wrapper)

    def totals(self) -> dict:
        """Exact counters of the process so far."""
        return {**self.counts, "expressions.distinct_nodes": len(self.trees.nodes)}

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent}) + "\n")


def _rebind(namespace: dict, original, wrapper) -> None:
    """Replace `original` by `wrapper` in a module namespace, including inside
    dispatch tables such as ``cli._SUITE_RUNNERS`` (a dict of tuples)."""
    for key, value in list(namespace.items()):
        if value is original:
            namespace[key] = wrapper
        elif isinstance(value, dict):
            for k, v in list(value.items()):
                if v is original:
                    value[k] = wrapper
                elif isinstance(v, tuple) and any(x is original for x in v):
                    value[k] = tuple(wrapper if x is original else x for x in v)


def layer_times(spans: list[dict]) -> tuple[dict, Counter]:
    """Per-span-name seconds and call counts derived from a span list.

    Names under CUMULATIVE_PREFIXES get their whole duration (outermost span
    of that name only); every other name gets its self time: duration minus
    the time covered by its direct children.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_time[span["parent"]] += span["end"] - span["start"]
    seconds: Counter = Counter()
    calls: Counter = Counter()
    for i, span in enumerate(spans):
        name = span["name"]
        duration = span["end"] - span["start"]
        calls[name] += 1
        if name.startswith(CUMULATIVE_PREFIXES) and name != MAIN_SPAN:
            parent = span["parent"]
            while parent >= 0 and spans[parent]["name"] != name:
                parent = spans[parent]["parent"]
            if parent < 0:
                seconds[name] += duration
        else:
            seconds[name] += duration - child_time[i]
    return dict(seconds), calls
