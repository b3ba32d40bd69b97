"""Outside-in tracer: per-layer spans and exact work counts for ultragram.

The layers are the package's modules.  The tracer patches names from the
benchmark's side only, nothing under ``src/`` changes:

* module functions are wrapped at every import site, because the modules
  bind each other's names with ``from .x import y`` (``spaces.coset_equal``
  and ``extensions.coset_equal`` are separate bindings of
  ``groups.coset_equal``);
* selected methods (``Subgroup.solve``, ``Series.ensure_below``,
  ``SubfieldPresentation.monomial_section``, ...) are patched once on
  their class;
* scalar arithmetic (``GroupElement`` and ``FieldElement`` dunders), node
  expansion, node construction and fuel are counted, not spanned, so
  their time lands in the calling layer's self time.

A span opens when a call crosses into another layer, or for the few
functions named in ``ALWAYS_SPANNED`` whose inclusive time is a metric.
Spans record name, start, end, parent and scenario id; they are kept in
memory in flat arrays and reduced once at the end.  A span's self time is
its duration minus the part covered by its child spans.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import defaultdict

LAYERS = (
    "cli", "scenarios", "verify", "reports", "extensions", "spaces",
    "presentations", "series", "residues", "groups",
)

# (layer, class name, method names) patched once on the class, spanned
METHODS = (
    ("groups", "Subgroup", ("solve", "contains", "lattice_basis")),
    ("series", "Series", ("ensure_below",)),
    ("series", "SeriesField", ("from_terms", "monomial", "stream")),
    ("presentations", "SubfieldPresentation", (
        "monomial_section", "monomial_term", "residue_section", "embed_residue",
        "restrict_residue", "value_in_subgroup", "sample_element",
    )),
)

# (layer, class name, method names) counted under a counter, not spanned
SCALAR_OPS = (
    ("groups", "GroupElement", ("__add__", "__sub__", "__neg__", "scale", "__lt__", "__le__", "__gt__", "__ge__")),
    ("residues", "FieldElement", ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "invert")),
)

PARSE = ("load_scenario", "parse_scenario", "scenario_from_dict", "apply_precision_overrides")
RESOLVE = ("resolve_runtime",)
ALWAYS_SPANNED = {("scenarios", name) for name in PARSE + RESOLVE}

# counter name -> the (layer, function) calls it counts
CALL_COUNTERS = {
    "groups.coset_tests": [("groups", "coset_equal")],
    "groups.solves": [("groups", "Subgroup.solve")],
    "residues.linalg_calls": [
        ("residues", n) for n in (
            "linear_rank", "solve_in_span", "subfield_vectorize", "rank_over_subfield", "solve_over_subfield",
        )
    ],
    "presentations.monomial_sections": [("presentations", "SubfieldPresentation.monomial_section")],
    "presentations.samples": [("presentations", "SubfieldPresentation.sample_element")],
    "spaces.independence_calls": [
        ("spaces", "is_valuation_independent"), ("spaces", "is_valuation_independent_over"),
    ],
    "spaces.normalize_calls": [("spaces", "normalize")],
    "spaces.nearest_calls": [("spaces", "nearest_point")],
    "reports.series_json_calls": [("reports", "series_json")],
}

COUNTERS = (
    "groups.coset_tests", "groups.solves", "groups.element_ops",
    "residues.linalg_calls", "residues.field_ops",
    "presentations.monomial_sections", "presentations.samples",
    "series.expand_calls", "series.fuel_spent", "series.nodes",
    "series.ensure_below_calls", "series.ensure_below_incomplete",
    "spaces.independence_calls", "spaces.normalize_calls", "spaces.nearest_calls", "spaces.nearest_steps",
    "extensions.calls",
    "reports.series_json_calls", "reports.bytes",
    "verify.checks", "verify.checks_failed",
)


class Tracer:
    """Installs wrappers into the loaded ``ultragram`` modules; see module doc."""

    def __init__(self):
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.round_counts: list = []  # counts of each traced round, filled by the caller
        self.names: list = []  # span name id -> (layer, qualified name)
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_scenario = array("q")
        self.scenario = -1
        self._stack: list = []  # (layer, span index)
        self._patches: list = []  # (owner, attribute, original, wrapper)
        self._root = self._name_id("cli", "main")

    # spans

    def _open(self, layer: str, name_id: int) -> int:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][1] if self._stack else -1)
        self.span_scenario.append(self.scenario)
        self.span_end.append(0)
        self._stack.append((layer, index))
        self.span_start.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, scenario: int, fn, *args):
        """Run one scenario call under a root span of the ``cli`` layer."""
        self.scenario = scenario
        index = self._open("cli", self._root)
        try:
            return fn(*args)
        finally:
            self._close(index)

    def _name_id(self, layer: str, name: str) -> int:
        self.names.append((layer, name))
        return len(self.names) - 1

    # wrappers

    def _spanned(self, func, layer: str, name: str):
        name_id = self._name_id(layer, name)
        always = (layer, name) in ALWAYS_SPANNED
        counters = [c for c, targets in CALL_COUNTERS.items() if (layer, name) in targets]
        if layer == "extensions":
            counters.append("extensions.calls")
        on_result = self._result_hook(layer, name)
        counts, stack, open_, close = self.counts, self._stack, self._open, self._close

        def wrapper(*args, **kwargs):
            for c in counters:
                counts[c] += 1
            if not always and stack and stack[-1][0] == layer:
                result = func(*args, **kwargs)
            else:
                index = open_(layer, name_id)
                try:
                    result = func(*args, **kwargs)
                finally:
                    close(index)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _result_hook(self, layer: str, name: str):
        counts = self.counts
        if (layer, name) == ("spaces", "nearest_point"):
            def hook(result):
                counts["spaces.nearest_steps"] += len(result.steps)
        elif (layer, name) == ("series", "Series.ensure_below"):
            def hook(result):
                counts["series.ensure_below_calls"] += 1
                if not result:
                    counts["series.ensure_below_incomplete"] += 1
        elif (layer, name) == ("reports", "emit"):
            def hook(result):
                counts["reports.bytes"] += len(result)
        elif (layer, name) == ("verify", "verify_report"):
            def hook(result):
                counts["verify.checks"] += len(result)
                counts["verify.checks_failed"] += sum(1 for c in result if not c["ok"])
        else:
            hook = None
        return hook

    def _counted(self, func, counter: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return func(*args, **kwargs)

        return wrapper

    def _fuel_spend(self, func):
        counts = self.counts

        def spend(fuel, n=1):
            ok = func(fuel, n)
            if ok:
                counts["series.fuel_spent"] += n
            return ok

        return spend

    # installation

    def install(self) -> None:
        """Patch every target; the wrappers are built on the first call."""
        if not self._patches:
            self._patches = self._plan()
        for owner, attribute, _, wrapper in self._patches:
            setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original, _ in reversed(self._patches):
            setattr(owner, attribute, original)

    def _plan(self) -> list:
        modules = {
            name.split(".", 1)[1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("ultragram.") and name.split(".", 1)[1] in LAYERS
        }
        missing = set(LAYERS) - set(modules)
        if missing:
            raise RuntimeError(f"ultragram modules not loaded: {sorted(missing)}")
        module_names = {mod.__name__ for mod in modules.values()}
        sites = list(modules.values()) + [sys.modules["ultragram"]]
        imported_elsewhere = {
            value
            for mod in sites
            for value in vars(mod).values()
            if inspect.isfunction(value) and value.__module__ in module_names and value.__module__ != mod.__name__
        }
        # module-level functions that are public or imported by name into
        # another module; cli is the root span opened by ``call``
        wrappers = {}
        for layer, mod in modules.items():
            if layer == "cli":
                continue
            for name, value in vars(mod).items():
                if (
                    inspect.isfunction(value) and value.__module__ == mod.__name__
                    and not inspect.isgeneratorfunction(value)
                    and (not name.startswith("_") or value in imported_elsewhere)
                ):
                    wrappers[value] = self._spanned(value, layer, name)
        plan = []

        def patch(owner, attribute, wrapper):
            plan.append((owner, attribute, vars(owner)[attribute], wrapper))

        for mod in sites:
            for name, value in vars(mod).items():
                if inspect.isfunction(value) and value in wrappers:
                    patch(mod, name, wrappers[value])
        for layer, cls_name, methods in METHODS:
            cls = getattr(modules[layer], cls_name)
            for method in methods:
                patch(cls, method, self._spanned(vars(cls)[method], layer, f"{cls_name}.{method}"))
        for layer, cls_name, methods in SCALAR_OPS:
            cls = getattr(modules[layer], cls_name)
            counter = "groups.element_ops" if layer == "groups" else "residues.field_ops"
            for method in methods:
                patch(cls, method, self._counted(vars(cls)[method], counter))
        series = modules["series"]
        for cls in [series.Series] + _subclasses(series.Series):
            if "_expand" in vars(cls):
                patch(cls, "_expand", self._counted(vars(cls)["_expand"], "series.expand_calls"))
        patch(series.Series, "__init__", self._counted(vars(series.Series)["__init__"], "series.nodes"))
        patch(series.Fuel, "spend", self._fuel_spend(vars(series.Fuel)["spend"]))
        return plan

    # reduction

    def self_times(self, group_of: dict, scale_of: dict) -> list:
        """Per-layer self seconds and the parse and resolve times, per group of scenarios.

        ``group_of`` maps scenario id to a group index 0..k-1; spans of other
        scenarios are ignored.  ``scale_of`` maps scenario id to the factor
        that scales its times to the nominal machine speed.
        """
        n = len(self.span_start)
        durations = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += durations[i]
        out = [defaultdict(float) for _ in range(max(group_of.values(), default=-1) + 1)]
        for i in range(n):
            scenario = self.span_scenario[i]
            if scenario not in group_of:
                continue
            totals = out[group_of[scenario]]
            factor = scale_of[scenario] / 1e9
            layer, name = self.names[self.span_name[i]]
            totals[f"{layer}.self_s"] += (durations[i] - child[i]) * factor
            parent = self.span_parent[i]
            parent_name = self.names[self.span_name[parent]][1] if parent >= 0 else None
            for metric, names in (("scenarios.parse_s", PARSE), ("scenarios.resolve_s", RESOLVE)):
                if layer == "scenarios" and name in names and parent_name not in names:
                    totals[metric] += durations[i] * factor
        return out

    def write_spans(self, path) -> None:
        """All spans as tab-separated lines: name, start_ns, end_ns, parent, scenario."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tscenario\n")
            for i in range(len(self.span_start)):
                layer, name = self.names[self.span_name[i]]
                fh.write(
                    f"{layer}.{name}\t{self.span_start[i]}\t{self.span_end[i]}\t"
                    f"{self.span_parent[i]}\t{self.span_scenario[i]}\n"
                )

    def reset_counts(self) -> None:
        for name in self.counts:
            self.counts[name] = 0


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
