"""Declarative scenario files: parsing, the task table, built-ins and execution.

Scenarios are a JSON-compatible subset of structured text: an ambient
series field, a base subfield presentation, named series elements, a
precision block and an ordered task list.  Exact rationals travel as
strings, exponents of lexicographic groups as coordinate arrays.  Built-in
scenarios cover the worked examples the library is built around and are
keyed ``paper:<name>``.  Malformed scenarios raise ``ScenarioError``.

Each task kind is one ``TaskKind`` record in ``TASKS``: how a raw task is
canonicalized, how it runs, its one-line text summary and the witnesses the
verifier re-checks on its outcome.

``scenario_from_dict`` is the one place where input becomes objects.  It
builds the series field, the presentations and the precision once, makes each
finite term list its exhausted leaf once and compiles each exponent formula
once, then renders the canonical form from what it parsed.  Every ``run``
builds fresh streams, sums and telescoping families, which keep state as they
expand, so repeated runs of the same scenario produce byte-identical
structured reports.  A run reads only its ``Scenario``: an override of the
precision or of the sampling seed is a new ``Scenario``.
"""

from __future__ import annotations

import ast
import json
import operator
import random
import time
from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Callable, Optional

from .groups import GroupElement, OrderedGroup
from .presentations import (
    SubfieldPresentation,
    completion_presentation,
    laurent_presentation,
    trivial_presentation,
)
from .residues import FieldElement, MismatchedFields, ResidueField, check_subfield
from .series import (
    Precision,
    SeriesField,
    artin_schreier,
    custom_powers,
    geometric,
    leading_term,
    sum_series,
)
from .spaces import (
    NearestKind,
    NotIndependent,
    UncertifiedSubspace,
    VerdictKind,
    _independent,
    check_normalized,
    immediacy_evidence,
    is_valuation_independent,
    make_family,
    nearest_point,
    normalize,
    orthogonalize,
)
from .extensions import analyze_extension, complete_and_approximate
from .reports import (
    Report,
    TaskOutcome,
    nearest_json,
    series_json,
)


class ScenarioError(ValueError):
    pass


class ParseError(ScenarioError):
    pass


class UnknownName(ScenarioError):
    pass


class UnsupportedCombination(ScenarioError):
    pass


# atom parsing and canonicalization


def _atom(parse):
    """An atom parser ``_parse_<what>`` whose malformed input raises ParseError."""
    what = parse.__name__.removeprefix("_parse_")

    def checked(spec, *context):
        try:
            return parse(spec, *context)
        except ScenarioError:
            raise
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise ParseError(f"cannot parse {what} {spec!r}: {exc}") from None

    return checked


def _object(spec, what: str) -> dict:
    if not isinstance(spec, dict):
        raise ParseError(f"{what} must be an object, got {spec!r}")
    return spec


def _only_keys(spec: dict, allowed, where: str) -> None:
    """Reject the keys of ``spec`` that its parser never reads."""
    unknown = set(spec).difference(allowed)
    if unknown:
        raise ParseError(f"unknown keys {sorted(unknown)} in {where}")


def _is_int(spec) -> bool:
    return isinstance(spec, int) and not isinstance(spec, bool)


def _integer(spec, what: str, low: Optional[int] = None) -> int:
    """A JSON integer, at least ``low`` when given."""
    if not _is_int(spec) or (low is not None and spec < low):
        bound = "" if low is None else f" >= {low}"
        raise ParseError(f"{what} must be an integer{bound}, got {spec!r}")
    return spec


def _string(spec, what: str) -> str:
    if not isinstance(spec, str):
        raise ParseError(f"{what} must be a string, got {spec!r}")
    return spec


def _size(spec, what: str) -> int:
    """A JSON integer from 1 to MAX_SIZE: a size that sets how much work a run does."""
    size = _integer(spec, what, 1)
    if size > MAX_SIZE:
        raise ParseError(f"{what} must be at most {MAX_SIZE}, got {size}")
    return size


def _refs(spec, known: dict, what: str, single: bool = False):
    """References to declared elements: one name, or a list of names."""
    names = [spec] if single else spec
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        expected = "an element name" if single else "a list of element names"
        raise ParseError(f"{what} must be {expected}, got {spec!r}")
    for name in names:
        if name not in known:
            raise UnknownName(f"{what} references undeclared element {name!r}")
    return spec if single else list(spec)


def _parse_group(spec) -> OrderedGroup:
    if not isinstance(spec, dict) or "group" not in spec:
        raise ParseError(f"group descriptor must be an object with 'group', got {spec!r}")
    kind = spec["group"]
    _only_keys(spec, ("group", "n") if kind == "Z^n_lex" else ("group",), f"group {kind!r}")
    if kind == "Z":
        return OrderedGroup.integers()
    if kind == "Q":
        return OrderedGroup.rationals()
    if kind == "Z^n_lex":
        return OrderedGroup.lex(_size(spec.get("n"), "lex product 'n'"))
    raise ParseError(f"unknown group kind {kind!r}")


@_atom
def _parse_field(spec) -> ResidueField:
    if not isinstance(spec, dict) or "field" not in spec:
        raise ParseError(f"field descriptor must be an object with 'field', got {spec!r}")
    kind = spec["field"]
    _only_keys(spec, ("field",) if kind == "Q" else ("field", "p"), f"field {kind!r}")
    if kind == "Fp":
        return ResidueField.prime(_integer(spec.get("p"), "field 'p'", 2))
    if kind == "Q":
        return ResidueField.rationals()
    if kind == "Fp(s)":
        return ResidueField.rational_functions(_integer(spec.get("p"), "field 'p'", 2))
    raise ParseError(f"unknown field kind {kind!r}")


@_atom
def _parse_exponent(spec, group: OrderedGroup) -> GroupElement:
    coords = spec if isinstance(spec, list) else [spec]
    if len(coords) != group.rank or not all(_is_int(c) or isinstance(c, str) for c in coords):
        raise ParseError(f"exponent {spec!r} needs {group.rank} integer or 'p/q' coordinates")
    return group.element(*coords)


@_atom
def _parse_coefficient(spec, field: ResidueField) -> FieldElement:
    if field.kind == "Fp":
        if _is_int(spec):
            return field.element(spec)
        raise ParseError(f"coefficients over F_p are integers, got {spec!r}")
    if field.kind == "Q":
        if _is_int(spec) or isinstance(spec, str):
            return field.element(spec)  # a string in the strict grammar of groups.parse_rational
        raise ParseError(f"coefficients over Q are ints or 'p/q' strings, got {spec!r}")
    if _is_int(spec):
        return field.element(spec)
    if spec == "s":
        return field.generator()
    if isinstance(spec, dict) and "num" in spec:
        _only_keys(spec, ("num", "den"), "function-field coefficient")
        num, den = spec["num"], spec.get("den", [1])
        if any(isinstance(c, bool) for c in (*num, *den)):
            raise ParseError(f"function-field coefficients are integers, got {spec!r}")
        return field.fraction(num, den)
    raise ParseError(f"cannot parse function-field coefficient {spec!r}")


class FormulaError(ScenarioError):
    """An exponent formula has no bounded integer value at some i."""


MAX_FORMULA_LENGTH = 200  # keeps the formula's syntax tree shallow
MAX_POWER_BITS = 4096  # largest result of ^ in an exponent formula
MAX_SIZE = 4096  # largest count, term budget, degree cap or sample size in a scenario


def _power(base: int, exponent: int) -> int:
    if max(abs(base).bit_length(), 1) * exponent > MAX_POWER_BITS:
        raise FormulaError(f"{base}^{exponent} has more than {MAX_POWER_BITS} bits")
    return base**exponent


_FORMULA_OPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.FloorDiv: operator.floordiv, ast.Pow: _power,
}


def _formula_value(node: ast.AST, i: Optional[int]) -> Optional[int]:
    """The value of a checked formula tree at i; None when i is None and the
    tree uses i.  A ^ whose exponent is known must have a non-negative one."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        return i
    if isinstance(node, ast.UnaryOp):
        value = _formula_value(node.operand, i)
        return None if value is None else -value
    left = _formula_value(node.left, i)
    right = _formula_value(node.right, i)
    if isinstance(node.op, ast.Pow) and right is not None and right < 0:
        raise FormulaError(f"negative exponent {right} after ^")
    if left is None or right is None:
        return None
    return _FORMULA_OPS[type(node.op)](left, right)


def _compile_formula(expr: str) -> Callable[[int], int]:
    """Safe strictly-increasing integer formula in the variable i.

    Parsing folds every part that does not use i, so a constant too large
    for ^ or a negative constant exponent is a ParseError.  A value that
    fails later (a division by zero, a negative or oversized ^ at some i)
    raises FormulaError: at resolve time for i = 0, as a task error after.
    """
    if len(expr) > MAX_FORMULA_LENGTH:
        raise ParseError(f"exponent formula longer than {MAX_FORMULA_LENGTH} characters")
    source = expr.replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval")
    except (SyntaxError, ValueError) as exc:
        raise ParseError(f"bad exponent formula {expr!r}: {exc}") from None
    allowed = (
        ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name,
        ast.Add, ast.Sub, ast.Mult, ast.Pow, ast.FloorDiv, ast.USub, ast.Load,
    )
    for node in ast.walk(tree):
        if not isinstance(node, allowed):
            raise ParseError(f"unsupported syntax in exponent formula {expr!r}")
        if isinstance(node, ast.Name) and node.id != "i":
            raise ParseError(f"exponent formula may only use 'i', got {node.id!r}")
        if isinstance(node, ast.Constant) and not isinstance(node.value, int):
            raise ParseError("exponent formula constants must be integers")
    try:
        _formula_value(tree.body, None)
    except (FormulaError, ZeroDivisionError) as exc:
        raise ParseError(f"bad exponent formula {expr!r}: {exc}") from None

    def exponent_of(i: int) -> int:
        try:
            return _formula_value(tree.body, i)
        except (FormulaError, ZeroDivisionError) as exc:
            raise FormulaError(f"exponent formula {expr!r} at i={i}: {exc}") from None

    return exponent_of


# parsed scenarios and the runtime of one task


@dataclass
class Scenario:
    """A validated scenario: ``canonical`` is its normal form, and the other
    fields are the objects parsed from it.  ``builders`` maps each element
    name to a function of the elements built before it."""

    canonical: dict
    ambient: SeriesField
    base: SubfieldPresentation
    presentations: dict
    builders: dict
    precision: Precision  # what a run uses: the declared precision unless overridden
    seed: Optional[int]  # for every sampling task; None: each task's own seed

    def __eq__(self, other) -> bool:
        return isinstance(other, Scenario) and (self.canonical, self.precision, self.seed) == (
            other.canonical, other.precision, other.seed)


@dataclass(eq=False)
class Runtime(Scenario):
    elements: dict

    def named(self, names: list) -> list:
        return [self.elements[name] for name in names]


def parse_scenario(text: str) -> Scenario:
    """Parse and validate scenario text, normalizing it along the way."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError as exc:
        raise ParseError(f"scenario nests too deeply: {exc}") from None
    return scenario_from_dict(raw)


def scenario_from_dict(raw: dict) -> Scenario:
    if not isinstance(raw, dict):
        raise ParseError("scenario must be an object")
    _only_keys(raw, (
        "name", "ambient", "base_field", "presentations", "elements", "tasks", "precision",
    ), "the scenario")
    for key in ("ambient", "base_field", "precision"):
        if key not in raw:
            raise ParseError(f"scenario is missing {key!r}")
    if "tasks" not in raw or not isinstance(raw["tasks"], list):
        raise ParseError("scenario needs a task list (possibly empty)")

    ambient_spec = _object(raw["ambient"], "'ambient'")
    _only_keys(ambient_spec, ("group", "coefficients"), "'ambient'")
    group = _parse_group(ambient_spec.get("group", {}))
    coeff = _parse_field(ambient_spec.get("coefficients", {}))
    ambient = SeriesField(group, coeff)
    base, base_json = _parse_presentation(raw["base_field"], ambient)
    precision = _parse_precision(raw["precision"], group)

    canonical: dict = {
        "name": _string(raw.get("name", "<unnamed>"), "the scenario name"),
        "ambient": {"group": group.describe(), "coefficients": coeff.describe()},
        "base_field": base_json,
        "elements": {},
        "tasks": [],
        "precision": precision.describe(),
    }
    presentations: dict = {}
    named = _object(raw.get("presentations", {}), "'presentations'")
    if named:
        canonical["presentations"] = {}
        for name, spec in named.items():
            presentations[name], canonical["presentations"][name] = _parse_presentation(spec, ambient)

    builders: dict = {}
    for name, spec in _object(raw.get("elements", {}), "'elements'").items():
        canonical["elements"][name], builders[name] = _parse_element(name, spec, ambient, canonical["elements"])

    for pos, task in enumerate(raw["tasks"]):
        canonical["tasks"].append(_canonical_task(task, pos, canonical))
    return Scenario(canonical, ambient, base, presentations, builders, precision, None)


def _parse_presentation(spec, ambient: SeriesField) -> tuple:
    """A presentation and its canonical form."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ParseError(f"presentation descriptor needs a 'kind', got {spec!r}")
    kind = spec["kind"]
    name = _string(spec.get("name", "K"), f"the name of a {kind!r} presentation")
    out = {"kind": kind, "name": name}
    _only_keys(spec, ("kind", "name") if kind == "trivial" else ("kind", "name", "t_value", "residue"),
               f"{kind!r} presentation")
    if kind == "trivial":
        return trivial_presentation(ambient, name=name), out
    if kind not in ("laurent", "completion"):
        raise ParseError(f"unknown presentation kind {kind!r}")
    if "t_value" not in spec:
        raise ParseError(f"{kind} presentation needs 't_value'")
    t_value = _parse_exponent(spec["t_value"], ambient.group)
    if not ambient.group.zero() < t_value:
        raise UnsupportedCombination("uniformizer value must be positive")
    out["t_value"] = t_value.describe()
    residue = None
    if "residue" in spec:
        residue = _parse_field(spec["residue"])
        try:
            check_subfield(residue, ambient.coeff)
        except MismatchedFields as exc:
            raise UnsupportedCombination(f"residue field {exc}") from None
        out["residue"] = residue.describe()
    present = laurent_presentation if kind == "laurent" else completion_presentation
    return present(ambient, t_value, residue, name=name), out


def _parse_precision(spec, group: OrderedGroup) -> Precision:
    if not isinstance(spec, dict) or "ceiling" not in spec:
        raise ParseError("precision block needs a 'ceiling'")
    _only_keys(spec, ("ceiling", "max_terms", "degree_cap"), "the precision block")
    return Precision(
        _parse_exponent(spec["ceiling"], group),
        **{key: _size(spec[key], key) for key in ("max_terms", "degree_cap") if key in spec},
    )


def _parse_term(pair, exponent, coefficient) -> tuple:
    """One [exponent, coefficient] pair, read by ``exponent(spec)`` and ``coefficient(spec)``."""
    if not isinstance(pair, list) or len(pair) != 2:
        raise ParseError(f"series term must be [exponent, coefficient], got {pair!r}")
    return exponent(pair[0]), coefficient(pair[1])


def _parse_terms(spec: list, ambient: SeriesField) -> list:
    """A term list as (exponent, coefficient) pairs, in input order, zeros kept."""
    group, field = ambient.group, ambient.coeff
    exponent, coefficient = (lambda e: _parse_exponent(e, group)), (lambda c: _parse_coefficient(c, field))
    return [_parse_term(pair, exponent, coefficient) for pair in spec]


def _parse_element(name: str, spec, ambient: SeriesField, known: dict) -> tuple:
    """An element's canonical form and its builder."""
    where = f"element {name!r}"
    if isinstance(spec, list):
        terms = _parse_terms(spec, ambient)
        leaf = ambient.from_terms(terms)  # exhausted when made, so every run shares it
        return [[e.describe(), c.describe()] for e, c in terms], lambda made: leaf
    if isinstance(spec, dict) and "sum" in spec:
        _only_keys(spec, ("sum",), where)
        if not spec["sum"]:
            raise ParseError("'sum' takes a nonempty list of element names")
        names = _refs(spec["sum"], known, "'sum'")
        return {"sum": names}, lambda made: sum_series(ambient, [made[n] for n in names])
    if isinstance(spec, dict) and "builder" in spec:
        builder = spec["builder"]
        axis = _integer(spec.get("axis", ambient.group.rank - 1), "builder axis", 0)
        if axis >= ambient.group.rank:
            raise ParseError(f"builder axis {axis!r} out of range")
        if builder == "geometric":
            _only_keys(spec, ("builder", "axis"), where)
            return {"builder": "geometric", "axis": axis}, lambda made: geometric(ambient, axis)
        if builder == "artin_schreier":
            _only_keys(spec, ("builder", "axis", "p"), where)
            p = _integer(spec.get("p"), "artin_schreier 'p'", 2)
            return (
                {"builder": "artin_schreier", "p": p, "axis": axis},
                lambda made: artin_schreier(ambient, p, axis),
            )
        if builder == "custom_powers":
            _only_keys(spec, ("builder", "axis", "exponents"), where)
            expr = spec.get("exponents")
            if not isinstance(expr, str):
                raise ParseError("custom_powers builder needs an 'exponents' formula")
            exponent_of = _compile_formula(expr)
            return (
                {"builder": "custom_powers", "exponents": expr, "axis": axis},
                lambda made: custom_powers(ambient, exponent_of, axis),
            )
        raise ParseError(f"unknown builder {builder!r}")
    raise ParseError(f"cannot parse series element {spec!r}")


def _canonical_family(spec, what: str, canonical: dict):
    if not (isinstance(spec, dict) and spec.get("family_builder") == "telescoping"):
        return _refs(spec, canonical["elements"], what)
    _only_keys(spec, ("family_builder", "start", "count"), what)
    start = _integer(spec.get("start", 1), "telescoping start", 0)
    count = spec.get("count", 4)
    if count != "auto":
        count = _size(count, "telescoping count (or 'auto')")
    if canonical["ambient"]["group"]["group"] == "Z^n_lex":
        raise UnsupportedCombination("telescoping families need a rank-1 exponent group")
    return {"family_builder": "telescoping", "start": start, "count": count}


def _resolve_family_elements(spec, runtime: Runtime) -> list:
    if isinstance(spec, list):
        return runtime.named(spec)
    start = spec["start"]
    count = runtime.precision.max_terms + 2 if spec["count"] == "auto" else spec["count"]
    F = runtime.ambient  # t^i - t^(i+1): each exponent and both coefficients coerced once
    one, minus, exps = F.coeff.one(), -F.coeff.one(), [F.group.element(i) for i in range(start, start + count + 1)]
    return [F.from_terms([(a, one), (b, minus)]) for a, b in zip(exps, exps[1:])]


def _canonical_task(task, pos: int, canonical: dict) -> dict:
    if not isinstance(task, dict) or "task" not in task:
        raise ParseError(f"task {pos} must be an object with a 'task' kind")
    kind = task["task"]
    if not isinstance(kind, str) or kind not in TASKS:
        raise ParseError(f"task {pos}: unknown kind {kind!r}")
    where = f"task {pos} ({kind})"

    def refs(key, single=False):
        return _refs(task.get(key), canonical["elements"], f"{where} {key!r}", single)

    fields = TASKS[kind].canonical(task, refs, where, canonical)
    _only_keys(task, ("task", *fields), where)  # a task's canonical form keeps every key it reads
    return {"task": kind, **fields}


def resolve_runtime(scenario: Scenario) -> Runtime:
    """A runtime for one task: each element made by its builder, in order."""
    elements: dict = {}
    for name, build in scenario.builders.items():
        elements[name] = build(elements)
    return Runtime(**vars(scenario), elements=elements)


def apply_precision_overrides(
    scenario: Scenario,
    ceiling: Optional[str] = None,
    max_terms: Optional[int] = None,
    degree_cap: Optional[int] = None,
) -> Scenario:
    """The scenario under the given bounds, read by ``_parse_precision``; ``canonical`` keeps the declared ones."""
    try:
        if ceiling is not None and ceiling.strip().startswith("["):
            ceiling = json.loads(ceiling)
        overrides = {"ceiling": ceiling, "max_terms": max_terms, "degree_cap": degree_cap}
        spec = {**scenario.precision.describe(), **{k: v for k, v in overrides.items() if v is not None}}
        return replace(scenario, precision=_parse_precision(spec, scenario.ambient.group))
    except (ValueError, RecursionError) as exc:
        raise ScenarioError(f"invalid precision override: {exc}") from exc


# task execution


def run(scenario: Scenario) -> Report:
    """Execute each task against a fresh runtime: its outcome depends on no other task."""
    report, tasks = Report(scenario=scenario.canonical), scenario.canonical["tasks"]
    if not tasks:  # a builder that fails is a scenario error with no task to run too
        resolve_runtime(scenario)
    for index, task in enumerate(tasks):
        runtime = resolve_runtime(scenario)  # outside the try: a failing builder is no task error
        started = time.monotonic()
        kind = TASKS[task["task"]]
        try:
            outcome = kind.run(task, runtime)
            done = TaskOutcome(index, kind.name, outcome, summary=kind.summary(outcome))
        except Exception as exc:  # captured per spec: task errors land in the report
            error = {"type": type(exc).__name__, "message": str(exc)}
            done = TaskOutcome(index, kind.name, {}, error=error)
        done.elapsed = time.monotonic() - started
        report.tasks.append(done)
    return report


def _fmt_exp(coords: list) -> str:
    return coords[0] if len(coords) == 1 else "(" + ",".join(coords) + ")"


# task kinds


def _independence_canonical(task, refs, where, canonical) -> dict:
    out = {"family": refs("family")}
    if "over" in task:
        out["over"] = refs("over")
    return out


def _independence_run(task, runtime: Runtime) -> dict:
    prec = runtime.precision
    over = make_family(runtime.base, runtime.named(task["over"])) if task.get("over") else None
    family = make_family(runtime.base, runtime.named(task["family"]), relative_to=over)
    try:
        verdict = is_valuation_independent(family, prec)  # over W, it decides W first
    except UncertifiedSubspace:
        raise NotIndependent("the 'over' family failed its certificate") from None
    out = {"verdict": verdict.kind.value}
    if verdict.kind is VerdictKind.INDEPENDENT:
        out["scalings"] = [series_json(s, prec) for s in verdict.scalings]
    elif verdict.kind is VerdictKind.DEPENDENT:
        w = verdict.witness
        witness = {
            "coefficients": [series_json(c, prec) for c in w.coefficients],
            "min_value": w.min_value.describe(),
            "achieved": w.achieved.describe(),
        }
        if w.shift is not None:
            witness["shift"] = series_json(w.shift, prec)
        out["witness"] = witness
    else:
        out["note"] = verdict.precision_note
    return out


def _independence_summary(o: dict) -> str:
    line = o["verdict"]
    if o.get("witness"):
        line += f" (min value {_fmt_exp(o['witness']['min_value'])})"
    return line


def _independence_witnesses(task, outcome: dict, runtime: Runtime):
    family = runtime.named(task["family"])
    if outcome["verdict"] == "dependent":
        yield "dependence", family, outcome["witness"]
    elif outcome["verdict"] == "independent":
        yield "independence", (runtime.named(task["over"]) if task.get("over") else [], family), outcome


def _normalize_canonical(task, refs, where, canonical) -> dict:
    return {"family": refs("family")}


def _normalize_run(task, runtime: Runtime) -> dict:
    prec = runtime.precision
    normalized = normalize(make_family(runtime.base, runtime.named(task["family"])), prec)
    check = check_normalized(normalized, prec)
    leads = [leading_term(e, prec) for e in normalized.elements]
    return {
        "elements": [series_json(e, prec) for e in normalized.elements],
        "scalings": [series_json(s, prec) for s in normalized.scalings],
        "values": [t.exponent.describe() for t in leads],
        "check": "pass" if check.ok else f"fail:{check.condition}",
    }


def _normalize_summary(o: dict) -> str:
    return f"ok, values {[ _fmt_exp(v) for v in o['values'] ]}"


def _nearest_canonical(task, refs, where, canonical) -> dict:
    return {
        "target": refs("target", single=True),
        "family": _canonical_family(task.get("family"), f"{where} 'family'", canonical),
    }


def _nearest_run(task, runtime: Runtime) -> dict:
    prec = runtime.precision
    target = runtime.elements[task["target"]]
    elements = _resolve_family_elements(task["family"], runtime)
    try:
        normalized = normalize(make_family(runtime.base, elements), prec)
    except NotIndependent:
        raise NotIndependent("nearest_point family failed its certificate") from None
    result = nearest_point(target, normalized, prec)
    out = nearest_json(result, prec)
    out["family_size"] = len(normalized)
    return out


def _chase_summary(o: dict) -> str:
    """A nearest-point chase: kind, reached value and evidence chain, after a failed sample's case."""
    if o.get("all_basis") is False:
        return f"sampled, case {o['failed_case']} failed: {_chase_summary(o['obstruction'])}"
    line = o["kind"]
    detail = o.get("result", o)
    if detail.get("value") is not None:
        line += f" at {_fmt_exp(detail['value'])}"
    ev = detail.get("full_evidence") or detail.get("evidence")
    if ev:
        line += " evidence [" + ", ".join(_fmt_exp(e) for e in ev) + "]"
    return line


def _nearest_witnesses(task, outcome: dict, runtime: Runtime):
    target = runtime.elements[task["target"]]
    if outcome["kind"] == "value":
        yield "max", target, outcome
    if outcome.get("evidence"):
        yield "chain", target, outcome


def _orthogonalize_canonical(task, refs, where, canonical) -> dict:
    if "sample" not in task:
        return {"generators": refs("generators")}
    sample = task["sample"]
    if not isinstance(sample, dict) or "count" not in sample:
        raise ParseError(f"{where}: sample spec needs a 'count'")
    _only_keys(sample, ("count", "support", "max_size", "seed"), f"{where} sample")
    return {"sample": {
        "count": _size(sample["count"], f"{where} sample 'count'"),
        "support": _size(sample.get("support", 4), f"{where} sample 'support'"),
        "max_size": _size(sample.get("max_size", 3), f"{where} sample 'max_size'"),
        "seed": _integer(sample.get("seed", 0), f"{where} sample 'seed'"),
    }}


def _orthogonalize_run(task, runtime: Runtime) -> dict:
    prec = runtime.precision
    if "sample" not in task:
        result = orthogonalize(runtime.named(task["generators"]), runtime.base, prec)
        if result.ok:
            return {
                "kind": "basis",
                "size": len(result.basis),
                "basis": [series_json(e, prec) for e in result.basis.elements],
            }
        return {
            "kind": "obstruction",
            "index": result.obstruction_index,
            "result": nearest_json(result.obstruction, prec),
        }
    sample = task["sample"]
    rng = random.Random(sample["seed"] if runtime.seed is None else runtime.seed)
    out = {"kind": "sampled", "count": sample["count"]}
    sizes: dict[int, int] = {}
    for case in range(sample["count"]):
        count = rng.randint(1, sample["max_size"])
        generators = [
            runtime.base.sample_element(rng, sample["support"]) for _ in range(count)
        ]
        result = orthogonalize(generators, runtime.base, prec)
        if not result.ok:
            return {
                **out,
                "all_basis": False,
                "failed_case": case,
                "obstruction": nearest_json(result.obstruction, prec),
            }
        sizes[len(result.basis)] = sizes.get(len(result.basis), 0) + 1
    return {
        **out,
        "all_basis": True,
        "basis_size_histogram": {str(k): v for k, v in sorted(sizes.items())},
    }


def _orthogonalize_witnesses(task, outcome: dict, runtime: Runtime):
    if outcome["kind"] == "obstruction":
        probe = runtime.elements[task["generators"][outcome["index"] - 1]]
        yield "chain", probe, outcome["result"]


def _extension_canonical(task, refs, where, canonical) -> dict:
    generators = refs("generators")
    mode = task.get("mode", "closure")
    if mode not in ("closure", "direct"):
        raise ParseError(f"{where}: unknown span mode {mode!r}")
    return {"generators": generators, "mode": mode}


def _extension_run(task, runtime: Runtime) -> dict:
    prec = runtime.precision
    report = analyze_extension(
        runtime.named(task["generators"]), runtime.base, prec, span_mode=task["mode"]
    )
    out = {
        "verdict": report.verdict,
        "n": report.n,
        "e": report.e,
        "f": report.f,
        "defect_index": None if report.defect_index is None else str(report.defect_index),
    }
    if report.note:
        out["note"] = report.note
    if report.standard is not None:
        out["standard_basis"] = {
            "x": [series_json(x, prec) for x in report.standard.x_part],
            "y": [series_json(y, prec) for y in report.standard.y_part],
            "products": [series_json(p, prec) for p in report.standard.products],
        }
    if report.obstruction is not None:
        out["obstruction"] = nearest_json(report.obstruction, prec)
        out["obstruction_index"] = report.obstruction_index
    return out


def _extension_summary(o: dict) -> str:
    line = o["verdict"]
    if o.get("n") is not None:
        line += f" n={o['n']}"
    if o.get("e") is not None:
        line += f" e={o['e']} f={o['f']} defect={o['defect_index']}"
    return line


def _extension_witnesses(task, outcome: dict, runtime: Runtime):
    if "standard_basis" in outcome:
        yield "standard", None, outcome["standard_basis"]


def _immediacy_canonical(task, refs, where, canonical) -> dict:
    return {"probe": refs("probe", single=True)}


def _immediacy_run(task, runtime: Runtime) -> dict:
    prec = runtime.precision
    probe = runtime.elements[task["probe"]]
    reduction = immediacy_evidence(runtime.base, probe, prec)
    # a chase that ends at a value stops before it has max_terms evidence entries
    out = {"evidence": [e.describe() for e in reduction.full_evidence[: prec.max_terms]]}
    if reduction.kind is NearestKind.VALUE:
        out.update(kind="not_immediate", max_value=reduction.value.describe())
        out["witness"] = series_json(reduction.best, prec)
    else:
        out.update(kind="immediate_evidence", precision_limited=reduction.kind is NearestKind.PRECISION_EXHAUSTED)
    out["reduction"] = nearest_json(reduction, prec)
    return out


def _immediacy_witnesses(task, outcome: dict, runtime: Runtime):
    probe = runtime.elements[task["probe"]]
    reduction = outcome["reduction"]
    if outcome["kind"] == "not_immediate":
        yield "max", probe, reduction
    yield "chain", probe, reduction


def _approximate_canonical(task, refs, where, canonical) -> dict:
    family = refs("family")
    matrix = task.get("matrix")
    if not isinstance(matrix, list):
        raise ParseError(f"{where} needs a coefficient 'matrix'")
    completion = task.get("completion")
    if not isinstance(completion, str):
        raise ParseError(f"{where} needs a 'completion' presentation name")
    if completion not in canonical.get("presentations", {}):
        raise UnknownName(f"{where}: undeclared presentation {completion!r}")
    return {
        "family": family,
        "matrix": [_refs(row, canonical["elements"], f"{where} 'matrix'") for row in matrix],
        "completion": completion,
    }


def _approximate_run(task, runtime: Runtime) -> dict:
    prec = runtime.precision
    fam = make_family(runtime.base, runtime.named(task["family"]))
    if not _independent(fam, prec):
        raise NotIndependent("approximate needs an independent base family")
    matrix = [runtime.named(row) for row in task["matrix"]]
    khat = runtime.presentations[task["completion"]]
    result = complete_and_approximate(fam, matrix, khat, prec)
    return {
        "verdict": "independent",
        "output": [series_json(e, prec) for e in result.family.elements],
        "coefficients": [[series_json(c, prec) for c in row] for row in result.coefficients],
        "pairs": [
            {
                "row": p.row,
                "col": p.col,
                "cutoff": p.cutoff.describe(),
                "required_above": p.required_above.describe(),
                "difference_value": p.difference_value.describe(),
            }
            for p in result.pairs
        ],
        "completion_values": [v.describe() for v in result.completion_values],
        "output_values": [v.describe() for v in result.output_values],
    }


def _approximate_summary(o: dict) -> str:
    return "certified, values [" + ", ".join(_fmt_exp(v) for v in o["output_values"]) + "]"


def _approximate_witnesses(task, outcome: dict, runtime: Runtime):
    matrix = [runtime.named(row) for row in task["matrix"]]
    yield "approximation", (runtime.named(task["family"]), matrix), outcome


# One record per task kind.  canonical(task, refs, where, scenario) checks a
# raw task and returns its fields, refs(key, single=False) reading checked
# element names; run(task, runtime) returns the structured outcome, under the
# runtime's precision and seed; summary(outcome) is its one-line text form;
# witnesses(task, outcome, runtime) yields (check name, subject, document) for
# the verifier.
TaskKind = namedtuple(
    "TaskKind", "name canonical run summary witnesses", defaults=(lambda task, outcome, runtime: (),)
)
TASKS: dict = {kind.name: kind for kind in (
    TaskKind("independence", _independence_canonical, _independence_run,
             _independence_summary, _independence_witnesses),
    TaskKind("normalize", _normalize_canonical, _normalize_run, _normalize_summary),
    TaskKind("nearest_point", _nearest_canonical, _nearest_run, _chase_summary, _nearest_witnesses),
    TaskKind("orthogonalize", _orthogonalize_canonical, _orthogonalize_run,
             _chase_summary, _orthogonalize_witnesses),
    TaskKind("analyze_extension", _extension_canonical, _extension_run,
             _extension_summary, _extension_witnesses),
    TaskKind("immediacy", _immediacy_canonical, _immediacy_run, _chase_summary, _immediacy_witnesses),
    TaskKind("approximate", _approximate_canonical, _approximate_run,
             _approximate_summary, _approximate_witnesses),
)}


# built-in scenarios: the worked examples the library is organized around


def _builtin_fpt_y() -> dict:
    return {
        "name": "paper:fpt-y",
        "ambient": {"group": {"group": "Z"}, "coefficients": {"field": "Fp(s)", "p": 3}},
        "base_field": {
            "kind": "laurent", "t_value": 1,
            "residue": {"field": "Fp", "p": 3}, "name": "F3(t)",
        },
        "elements": {
            "one": [[0, 1]],
            "y": [[0, "s"]],
            "ty": [[1, "s"]],
        },
        "tasks": [
            {"task": "independence", "family": ["one", "y"]},
            {"task": "immediacy", "probe": "ty"},
        ],
        "precision": {"ceiling": 32, "max_terms": 8, "degree_cap": 16},
    }


def _builtin_ti_minus_ti1() -> dict:
    return {
        "name": "paper:ti-minus-ti1",
        "ambient": {"group": {"group": "Z"}, "coefficients": {"field": "Q"}},
        "base_field": {"kind": "trivial", "name": "Q"},
        "elements": {"t": [[1, 1]]},
        "tasks": [
            {"task": "nearest_point", "target": "t",
             "family": {"family_builder": "telescoping", "start": 1, "count": 4}},
            {"task": "nearest_point", "target": "t",
             "family": {"family_builder": "telescoping", "start": 1, "count": "auto"}},
        ],
        "precision": {"ceiling": 40, "max_terms": 8, "degree_cap": 16},
    }


def _builtin_notCA() -> dict:
    return {
        "name": "paper:notCA",
        "ambient": {"group": {"group": "Z^n_lex", "n": 2}, "coefficients": {"field": "Fp", "p": 3}},
        "base_field": {"kind": "laurent", "t_value": [0, 1], "name": "F3(t)"},
        "elements": {
            "one": [[[0, 0], 1]],
            "frobenius_orbit": {"builder": "artin_schreier", "p": 3, "axis": 1},
            "infinitesimal": [[[1, 0], 1]],
            "x": {"sum": ["frobenius_orbit", "infinitesimal"]},
        },
        "tasks": [
            {"task": "orthogonalize", "generators": ["one", "x"]},
            {"task": "independence", "family": ["one", "x"]},
        ],
        "precision": {"ceiling": [1, 24], "max_terms": 8, "degree_cap": 16},
    }


def _builtin_sqrt_t() -> dict:
    return {
        "name": "paper:sqrt-t",
        "ambient": {"group": {"group": "Q"}, "coefficients": {"field": "Fp", "p": 5}},
        "base_field": {"kind": "laurent", "t_value": 1, "name": "F5(t)"},
        "elements": {"sqrt_t": [["1/2", 1]]},
        "tasks": [
            {"task": "analyze_extension", "generators": ["sqrt_t"], "mode": "closure"},
        ],
        "precision": {"ceiling": 32, "max_terms": 8, "degree_cap": 16},
    }


def _builtin_standard_2x2() -> dict:
    return {
        "name": "paper:standard-2x2",
        "ambient": {"group": {"group": "Q"}, "coefficients": {"field": "Fp(s)", "p": 5}},
        "base_field": {
            "kind": "laurent", "t_value": 1,
            "residue": {"field": "Fp", "p": 5}, "name": "F5(t)",
        },
        "elements": {
            "one": [[0, 1]],
            "sqrt_t": [["1/2", 1]],
            "y": [[0, "s"]],
            "sqrt_t_y": [["1/2", "s"]],
        },
        "tasks": [
            {"task": "normalize", "family": ["one", "sqrt_t", "y", "sqrt_t_y"]},
            {"task": "analyze_extension",
             "generators": ["one", "sqrt_t", "y", "sqrt_t_y"], "mode": "direct"},
        ],
        "precision": {"ceiling": 32, "max_terms": 8, "degree_cap": 16},
    }


def _builtin_artin_schreier() -> dict:
    return {
        "name": "paper:artin-schreier",
        "ambient": {"group": {"group": "Z"}, "coefficients": {"field": "Fp", "p": 3}},
        "base_field": {"kind": "laurent", "t_value": 1, "name": "F3(t)"},
        "elements": {"root": {"builder": "artin_schreier", "p": 3}},
        "tasks": [
            {"task": "immediacy", "probe": "root"},
            {"task": "analyze_extension", "generators": ["root"], "mode": "closure"},
        ],
        "precision": {"ceiling": 100, "max_terms": 6, "degree_cap": 5},
    }


def _builtin_cofinal_approx() -> dict:
    return {
        "name": "paper:cofinal-approx",
        "ambient": {"group": {"group": "Z"}, "coefficients": {"field": "Fp(s)", "p": 3}},
        "base_field": {
            "kind": "laurent", "t_value": 1,
            "residue": {"field": "Fp", "p": 3}, "name": "F3(t)",
        },
        "presentations": {
            "Khat": {
                "kind": "completion", "t_value": 1,
                "residue": {"field": "Fp", "p": 3}, "name": "F3((t))",
            },
        },
        "elements": {
            "one": [[0, 1]],
            "zero": [],
            "y": [[0, "s"]],
            "geometric": {"builder": "geometric"},
        },
        "tasks": [
            {"task": "approximate", "family": ["one", "y"],
             "matrix": [["one", "zero"], ["geometric", "one"]],
             "completion": "Khat"},
        ],
        "precision": {"ceiling": 32, "max_terms": 8, "degree_cap": 16},
    }


def _builtin_baur_sampling() -> dict:
    return {
        "name": "paper:baur-sampling",
        "ambient": {"group": {"group": "Z"}, "coefficients": {"field": "Fp", "p": 3}},
        "base_field": {"kind": "completion", "t_value": 1, "name": "F3((t))"},
        "elements": {},
        "tasks": [
            {"task": "orthogonalize",
             "sample": {"count": 100, "support": 5, "max_size": 3, "seed": 271828}},
        ],
        "precision": {"ceiling": 32, "max_terms": 8, "degree_cap": 16},
    }


BUILTINS: dict = {
    "paper:fpt-y": _builtin_fpt_y,
    "paper:ti-minus-ti1": _builtin_ti_minus_ti1,
    "paper:notCA": _builtin_notCA,
    "paper:sqrt-t": _builtin_sqrt_t,
    "paper:standard-2x2": _builtin_standard_2x2,
    "paper:artin-schreier": _builtin_artin_schreier,
    "paper:cofinal-approx": _builtin_cofinal_approx,
    "paper:baur-sampling": _builtin_baur_sampling,
}


def load_scenario(source: str) -> Scenario:
    """A scenario from a built-in name or from scenario text."""
    if source in BUILTINS:
        return scenario_from_dict(BUILTINS[source]())
    return parse_scenario(source)
