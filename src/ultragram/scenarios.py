"""Declarative scenario files: parsing, built-in registry, execution, verification.

Scenarios are a JSON-compatible subset of structured text: an ambient
series field, a base subfield presentation, named series elements, a
precision block and an ordered task list.  Exact rationals travel as
strings, exponents of lexicographic groups as coordinate arrays.  Built-in
scenarios cover the worked examples the library is built around and are
keyed ``paper:<name>``.

``run`` resolves a fresh runtime environment per call, so repeated runs of
the same scenario produce byte-identical structured reports.  ``verify``
re-parses the witnesses embedded in a report and re-evaluates each one
against freshly resolved elements.
"""

from __future__ import annotations

import ast
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .groups import GroupElement, OrderedGroup
from .presentations import (
    SubfieldPresentation,
    completion_presentation,
    laurent_presentation,
    trivial_presentation,
)
from .residues import FieldElement, ResidueField
from .series import (
    Precision,
    Series,
    SeriesField,
    artin_schreier,
    custom_powers,
    geometric,
    leading_term,
    sum_series,
)
from .spaces import (
    ImmediacyKind,
    VerdictKind,
    check_normalized,
    immediacy_evidence,
    is_valuation_independent,
    is_valuation_independent_over,
    make_family,
    nearest_point,
    normalize,
    orthogonalize,
)
from .extensions import analyze_extension, complete_and_approximate
from .reports import (
    Report,
    TaskOutcome,
    coefficient_json,
    exponent_json,
    nearest_json,
    rational_str,
    series_json,
    valuation_json,
)


class ScenarioError(ValueError):
    pass


class ParseError(ScenarioError):
    pass


class UnknownName(ScenarioError):
    pass


class UnsupportedCombination(ScenarioError):
    pass


TASK_KINDS = (
    "independence",
    "normalize",
    "nearest_point",
    "orthogonalize",
    "analyze_extension",
    "immediacy",
    "approximate",
)


# atom parsing and canonicalization


def _parse_group(spec) -> OrderedGroup:
    if not isinstance(spec, dict) or "group" not in spec:
        raise ParseError(f"group descriptor must be an object with 'group', got {spec!r}")
    kind = spec["group"]
    if kind == "Z":
        return OrderedGroup.integers()
    if kind == "Q":
        return OrderedGroup.rationals()
    if kind == "Z^n_lex":
        n = spec.get("n")
        if not isinstance(n, int) or n < 1:
            raise ParseError(f"lex product needs a positive 'n', got {n!r}")
        return OrderedGroup.lex(n)
    raise ParseError(f"unknown group kind {kind!r}")


def _parse_field(spec) -> ResidueField:
    if not isinstance(spec, dict) or "field" not in spec:
        raise ParseError(f"field descriptor must be an object with 'field', got {spec!r}")
    kind = spec["field"]
    if kind == "Fp":
        return ResidueField.prime(spec.get("p", 0))
    if kind == "Q":
        return ResidueField.rationals()
    if kind == "Fp(s)":
        return ResidueField.rational_functions(spec.get("p", 0))
    raise ParseError(f"unknown field kind {kind!r}")


def _parse_exponent(spec, group: OrderedGroup) -> GroupElement:
    if isinstance(spec, (int, str)):
        if group.rank != 1:
            raise ParseError(f"exponent {spec!r} needs {group.rank} coordinates")
        return group.element(Fraction(spec))
    if isinstance(spec, list):
        if len(spec) != group.rank:
            raise ParseError(f"exponent {spec!r} needs {group.rank} coordinates")
        return group.element(*[Fraction(c) for c in spec])
    raise ParseError(f"cannot parse exponent {spec!r}")


def _parse_coefficient(spec, field: ResidueField) -> FieldElement:
    if field.kind == "Fp":
        if isinstance(spec, int):
            return field.element(spec)
        raise ParseError(f"coefficients over F_p are integers, got {spec!r}")
    if field.kind == "Q":
        if isinstance(spec, (int, str)):
            return field.element(Fraction(spec))
        raise ParseError(f"coefficients over Q are ints or 'p/q' strings, got {spec!r}")
    if isinstance(spec, int):
        return field.element(spec)
    if spec == field.variable:
        return field.generator()
    if isinstance(spec, dict) and "num" in spec:
        return field.fraction(spec["num"], spec.get("den", [1]))
    raise ParseError(f"cannot parse function-field coefficient {spec!r}")


def _compile_formula(expr: str) -> Callable[[int], int]:
    """Safe strictly-increasing integer formula in the variable i."""
    source = expr.replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
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
    code = compile(tree, "<exponents>", "eval")
    return lambda i: int(eval(code, {"__builtins__": {}}, {"i": i}))


def _canonical_exponent(g: GroupElement) -> list:
    return exponent_json(g)


def _canonical_coefficient(c: FieldElement):
    return coefficient_json(c)


# runtime environment resolved from a canonical scenario


@dataclass
class Runtime:
    ambient: SeriesField
    base: SubfieldPresentation
    presentations: dict
    elements: dict
    precision: Precision


@dataclass
class Scenario:
    """A validated scenario; ``canonical`` is its normal form."""

    canonical: dict

    @property
    def name(self) -> str:
        return self.canonical.get("name", "<unnamed>")

    def __eq__(self, other) -> bool:
        return isinstance(other, Scenario) and self.canonical == other.canonical


def parse_scenario(text: str) -> Scenario:
    """Parse and validate scenario text, normalizing it along the way."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    return scenario_from_dict(raw)


def scenario_from_dict(raw: dict) -> Scenario:
    if not isinstance(raw, dict):
        raise ParseError("scenario must be an object")
    unknown = set(raw) - {
        "name", "ambient", "base_field", "presentations", "elements", "tasks", "precision",
    }
    if unknown:
        raise ParseError(f"unknown scenario keys {sorted(unknown)}")
    for key in ("ambient", "base_field", "precision"):
        if key not in raw:
            raise ParseError(f"scenario is missing {key!r}")
    if "tasks" not in raw or not isinstance(raw["tasks"], list):
        raise ParseError("scenario needs a task list (possibly empty)")

    ambient_spec = raw["ambient"]
    group = _parse_group(ambient_spec.get("group", {}))
    coeff = _parse_field(ambient_spec.get("coefficients", {}))
    ambient = SeriesField(group, coeff)

    canonical: dict = {
        "name": raw.get("name", "<unnamed>"),
        "ambient": {"group": group.describe(), "coefficients": coeff.describe()},
        "base_field": _canonical_presentation(raw["base_field"], ambient),
        "elements": {},
        "tasks": [],
        "precision": _canonical_precision(raw["precision"], group),
    }
    if raw.get("presentations"):
        canonical["presentations"] = {
            name: _canonical_presentation(spec, ambient)
            for name, spec in raw["presentations"].items()
        }

    names: list[str] = []
    for name, spec in (raw.get("elements") or {}).items():
        canonical["elements"][name] = _canonical_element(spec, ambient, names)
        names.append(name)

    for pos, task in enumerate(raw["tasks"]):
        canonical["tasks"].append(_canonical_task(task, pos, names, canonical))
    return Scenario(canonical)


def _canonical_presentation(spec, ambient: SeriesField) -> dict:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ParseError(f"presentation descriptor needs a 'kind', got {spec!r}")
    kind = spec["kind"]
    out = {"kind": kind, "name": spec.get("name", "K")}
    if kind == "trivial":
        return out
    if kind not in ("laurent", "completion"):
        raise ParseError(f"unknown presentation kind {kind!r}")
    if "t_value" not in spec:
        raise ParseError(f"{kind} presentation needs 't_value'")
    t_value = _parse_exponent(spec["t_value"], ambient.group)
    if t_value.is_zero() or not ambient.group.zero() < t_value:
        raise UnsupportedCombination("uniformizer value must be positive")
    out["t_value"] = _canonical_exponent(t_value)
    if "residue" in spec:
        residue = _parse_field(spec["residue"])
        _check_residue_pair(residue, ambient.coeff)
        out["residue"] = residue.describe()
    return out


def _check_residue_pair(sub: ResidueField, amb: ResidueField) -> None:
    if sub == amb:
        return
    if sub.kind == "Fp" and amb.kind == "Fp(s)" and sub.p == amb.p:
        return
    raise UnsupportedCombination(
        f"residue field {sub.describe()} does not embed in {amb.describe()}"
    )


def _resolve_presentation(spec: dict, ambient: SeriesField) -> SubfieldPresentation:
    kind = spec["kind"]
    name = spec.get("name", "K")
    if kind == "trivial":
        return trivial_presentation(ambient, name=name)
    t_value = _parse_exponent(spec["t_value"], ambient.group)
    residue = _parse_field(spec["residue"]) if "residue" in spec else None
    if kind == "laurent":
        return laurent_presentation(ambient, t_value, residue, name=name)
    return completion_presentation(ambient, t_value, residue, name=name)


def _canonical_precision(spec, group: OrderedGroup) -> dict:
    if not isinstance(spec, dict) or "ceiling" not in spec:
        raise ParseError("precision block needs a 'ceiling'")
    ceiling = _parse_exponent(spec["ceiling"], group)
    max_terms = spec.get("max_terms", 8)
    degree_cap = spec.get("degree_cap", 16)
    if not isinstance(max_terms, int) or max_terms < 1:
        raise ParseError(f"max_terms must be a positive integer, got {max_terms!r}")
    if not isinstance(degree_cap, int) or degree_cap < 1:
        raise ParseError(f"degree_cap must be a positive integer, got {degree_cap!r}")
    return {
        "ceiling": _canonical_exponent(ceiling),
        "max_terms": max_terms,
        "degree_cap": degree_cap,
    }


def _canonical_element(spec, ambient: SeriesField, known: list) -> dict | list:
    if isinstance(spec, list):
        out = []
        for pair in spec:
            if not isinstance(pair, list) or len(pair) != 2:
                raise ParseError(f"series term must be [exponent, coefficient], got {pair!r}")
            exp = _parse_exponent(pair[0], ambient.group)
            coeff = _parse_coefficient(pair[1], ambient.coeff)
            out.append([_canonical_exponent(exp), _canonical_coefficient(coeff)])
        return out
    if isinstance(spec, dict) and "sum" in spec:
        refs = spec["sum"]
        if not isinstance(refs, list) or not refs:
            raise ParseError("'sum' takes a nonempty list of element names")
        for ref in refs:
            if ref not in known:
                raise UnknownName(f"sum references undeclared element {ref!r}")
        return {"sum": list(refs)}
    if isinstance(spec, dict) and "builder" in spec:
        builder = spec["builder"]
        axis = spec.get("axis", ambient.group.rank - 1)
        if not isinstance(axis, int) or not 0 <= axis < ambient.group.rank:
            raise ParseError(f"builder axis {axis!r} out of range")
        if builder == "geometric":
            return {"builder": "geometric", "axis": axis}
        if builder == "artin_schreier":
            p = spec.get("p")
            if not isinstance(p, int) or p < 2:
                raise ParseError("artin_schreier builder needs a prime 'p'")
            return {"builder": "artin_schreier", "p": p, "axis": axis}
        if builder == "custom_powers":
            expr = spec.get("exponents")
            if not isinstance(expr, str):
                raise ParseError("custom_powers builder needs an 'exponents' formula")
            _compile_formula(expr)
            return {"builder": "custom_powers", "exponents": expr, "axis": axis}
        raise ParseError(f"unknown builder {builder!r}")
    raise ParseError(f"cannot parse series element {spec!r}")


def _resolve_element(spec, ambient: SeriesField, resolved: dict) -> Series:
    if isinstance(spec, list):
        terms = [
            (_parse_exponent(exp, ambient.group), _parse_coefficient(c, ambient.coeff))
            for exp, c in spec
        ]
        return ambient.from_terms(terms)
    if "sum" in spec:
        return sum_series(ambient, [resolved[name] for name in spec["sum"]])
    builder = spec["builder"]
    axis = spec["axis"]
    if builder == "geometric":
        return geometric(ambient, axis)
    if builder == "artin_schreier":
        return artin_schreier(ambient, spec["p"], axis)
    return custom_powers(ambient, _compile_formula(spec["exponents"]), axis)


def _canonical_family(spec, names: list, canonical: dict):
    if isinstance(spec, list):
        for ref in spec:
            if ref not in names:
                raise UnknownName(f"family references undeclared element {ref!r}")
        return list(spec)
    if isinstance(spec, dict) and spec.get("family_builder") == "telescoping":
        start = spec.get("start", 1)
        count = spec.get("count", 4)
        if not isinstance(start, int) or start < 0:
            raise ParseError(f"telescoping start must be a nonnegative int, got {start!r}")
        if count != "auto" and (not isinstance(count, int) or count < 1):
            raise ParseError(f"telescoping count must be positive or 'auto', got {count!r}")
        group = canonical["ambient"]["group"]
        if group["group"] == "Z^n_lex":
            raise UnsupportedCombination("telescoping families need a rank-1 exponent group")
        return {"family_builder": "telescoping", "start": start, "count": count}
    raise ParseError(f"cannot parse family spec {spec!r}")


def _resolve_family_elements(spec, runtime: Runtime) -> list:
    if isinstance(spec, list):
        return [runtime.elements[name] for name in spec]
    start = spec["start"]
    count = spec["count"]
    if count == "auto":
        count = runtime.precision.max_terms + 2
    ambient = runtime.ambient
    out = []
    for i in range(start, start + count):
        out.append(ambient.from_terms([(i, 1), (i + 1, -1)]))
    return out


def _canonical_task(task, pos: int, names: list, canonical: dict) -> dict:
    if not isinstance(task, dict) or "task" not in task:
        raise ParseError(f"task {pos} must be an object with a 'task' kind")
    kind = task["task"]
    if kind not in TASK_KINDS:
        raise ParseError(f"task {pos}: unknown kind {kind!r}")
    out = {"task": kind}

    def need_names(key, optional=False):
        refs = task.get(key)
        if refs is None:
            if optional:
                return None
            raise ParseError(f"task {pos} ({kind}) needs {key!r}")
        for ref in refs if isinstance(refs, list) else [refs]:
            if ref not in names:
                raise UnknownName(f"task {pos} references undeclared element {ref!r}")
        return refs

    if kind == "independence":
        out["family"] = need_names("family")
        over = task.get("over")
        if over is not None:
            out["over"] = need_names("over")
    elif kind == "normalize":
        out["family"] = need_names("family")
    elif kind == "nearest_point":
        if not isinstance(task.get("target"), str):
            raise ParseError(f"task {pos}: nearest_point needs a 'target' element name")
        out["target"] = need_names("target")
        out["family"] = _canonical_family(task.get("family"), names, canonical)
    elif kind == "orthogonalize":
        if "sample" in task:
            sample = task["sample"]
            if not isinstance(sample, dict) or "count" not in sample:
                raise ParseError(f"task {pos}: sample spec needs a 'count'")
            out["sample"] = {
                "count": int(sample["count"]),
                "support": int(sample.get("support", 4)),
                "max_size": int(sample.get("max_size", 3)),
                "seed": int(sample.get("seed", 0)),
            }
        else:
            out["generators"] = need_names("generators")
    elif kind == "analyze_extension":
        out["generators"] = need_names("generators")
        mode = task.get("mode", "closure")
        if mode not in ("closure", "direct"):
            raise ParseError(f"task {pos}: unknown span mode {mode!r}")
        out["mode"] = mode
    elif kind == "immediacy":
        out["probe"] = need_names("probe")
    elif kind == "approximate":
        out["family"] = need_names("family")
        matrix = task.get("matrix")
        if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
            raise ParseError(f"task {pos}: approximate needs a coefficient 'matrix'")
        for row in matrix:
            for ref in row:
                if ref not in names:
                    raise UnknownName(f"task {pos} references undeclared element {ref!r}")
        out["matrix"] = [list(r) for r in matrix]
        completion = task.get("completion")
        if completion is None:
            raise ParseError(f"task {pos}: approximate needs a 'completion' presentation name")
        if completion not in (canonical.get("presentations") or {}):
            raise UnknownName(f"task {pos}: undeclared presentation {completion!r}")
        out["completion"] = completion
    return out


def resolve_runtime(scenario: Scenario, precision: Optional[Precision] = None) -> Runtime:
    """Materialize a fresh runtime: ambient field, presentations, elements."""
    c = scenario.canonical
    group = _parse_group(c["ambient"]["group"])
    coeff = _parse_field(c["ambient"]["coefficients"])
    ambient = SeriesField(group, coeff)
    base = _resolve_presentation(c["base_field"], ambient)
    presentations = {"base": base}
    for name, spec in (c.get("presentations") or {}).items():
        presentations[name] = _resolve_presentation(spec, ambient)
    elements: dict = {}
    for name, spec in c["elements"].items():
        elements[name] = _resolve_element(spec, ambient, elements)
    if precision is None:
        p = c["precision"]
        precision = Precision(
            _parse_exponent(p["ceiling"], group), p["max_terms"], p["degree_cap"]
        )
    return Runtime(ambient, base, presentations, elements, precision)


def apply_precision_overrides(
    scenario: Scenario,
    ceiling: Optional[str] = None,
    max_terms: Optional[int] = None,
    degree_cap: Optional[int] = None,
) -> Precision:
    c = scenario.canonical
    group = _parse_group(c["ambient"]["group"])
    p = dict(c["precision"])
    try:
        if ceiling is not None:
            parsed = json.loads(ceiling) if ceiling.strip().startswith("[") else ceiling
            p["ceiling"] = _canonical_exponent(_parse_exponent(parsed, group))
        if max_terms is not None:
            p["max_terms"] = max_terms
        if degree_cap is not None:
            p["degree_cap"] = degree_cap
        return Precision(_parse_exponent(p["ceiling"], group), p["max_terms"], p["degree_cap"])
    except ScenarioError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioError(f"invalid precision override: {exc}") from exc


# task execution


def run(scenario: Scenario, precision: Optional[Precision] = None, seed: Optional[int] = None) -> Report:
    """Execute the task list against a fresh runtime."""
    runtime = resolve_runtime(scenario, precision)
    report = Report(scenario=scenario.canonical)
    for index, task in enumerate(scenario.canonical["tasks"]):
        started = time.monotonic()
        try:
            outcome = _run_task(task, runtime, seed)
            report.tasks.append(
                TaskOutcome(index, task["task"], outcome, elapsed=time.monotonic() - started)
            )
        except ScenarioError:
            raise
        except Exception as exc:  # captured per spec: task errors land in the report
            report.tasks.append(
                TaskOutcome(
                    index, task["task"], {},
                    error={"type": type(exc).__name__, "message": str(exc)},
                    elapsed=time.monotonic() - started,
                )
            )
    return report


def _certified_family(runtime: Runtime, names_or_elements, prec: Precision, over=None):
    elements = (
        [runtime.elements[n] for n in names_or_elements]
        if names_or_elements and isinstance(names_or_elements[0], str)
        else list(names_or_elements)
    )
    fam = make_family(runtime.base, elements)
    if over is not None:
        verdict = is_valuation_independent_over(fam, over, prec)
    else:
        verdict = is_valuation_independent(fam, prec)
    return fam, verdict


def _independence_outcome(verdict, prec) -> dict:
    out = {"verdict": verdict.kind.value}
    if verdict.kind is VerdictKind.INDEPENDENT:
        out["scalings"] = [series_json(s, prec) for s in verdict.scalings]
    elif verdict.kind is VerdictKind.DEPENDENT:
        w = verdict.witness
        witness = {
            "coefficients": [series_json(c, prec) for c in w.coefficients],
            "min_value": exponent_json(w.min_value),
            "achieved": valuation_json(w.achieved),
        }
        if w.shift is not None:
            witness["shift"] = series_json(w.shift, prec)
        out["witness"] = witness
    else:
        out["note"] = verdict.precision_note
    return out


def _run_task(task: dict, runtime: Runtime, seed: Optional[int]) -> dict:
    prec = runtime.precision
    kind = task["task"]

    if kind == "independence":
        over_fam = None
        if task.get("over"):
            over_fam, over_verdict = _certified_family(runtime, task["over"], prec)
            if over_verdict.kind is not VerdictKind.INDEPENDENT:
                raise UnsupportedCombination("the 'over' family failed its certificate")
        fam, verdict = _certified_family(runtime, task["family"], prec, over=over_fam)
        return _independence_outcome(verdict, prec)

    if kind == "normalize":
        fam, verdict = _certified_family(runtime, task["family"], prec)
        normalized = normalize(fam, prec)
        check = check_normalized(normalized, prec)
        leads = [leading_term(e, prec) for e in normalized.elements]
        return {
            "elements": [series_json(e, prec) for e in normalized.elements],
            "scalings": [series_json(s, prec) for s in normalized.scalings],
            "values": [exponent_json(t.exponent) for t in leads],
            "check": "pass" if check.ok else f"fail:{check.condition}",
        }

    if kind == "nearest_point":
        target = runtime.elements[task["target"]]
        elements = _resolve_family_elements(task["family"], runtime)
        fam, verdict = _certified_family(runtime, elements, prec)
        if verdict.kind is not VerdictKind.INDEPENDENT:
            raise UnsupportedCombination("nearest_point family failed its certificate")
        normalized = normalize(fam, prec)
        result = nearest_point(target, normalized, prec)
        out = nearest_json(result, prec)
        out["family_size"] = len(normalized)
        return out

    if kind == "orthogonalize":
        if "sample" in task:
            return _run_sampled_orthogonalize(task["sample"], runtime, seed)
        generators = [runtime.elements[n] for n in task["generators"]]
        result = orthogonalize(generators, runtime.base, prec)
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

    if kind == "analyze_extension":
        generators = [runtime.elements[n] for n in task["generators"]]
        report = analyze_extension(
            generators, runtime.base, prec, span_mode=task.get("mode", "closure")
        )
        out = {
            "verdict": report.verdict,
            "n": report.n,
            "e": report.e,
            "f": report.f,
            "defect_index": None if report.defect_index is None else rational_str(report.defect_index),
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

    if kind == "immediacy":
        probe = runtime.elements[task["probe"]]
        result = immediacy_evidence(runtime.base, probe, prec)
        out = {
            "kind": result.kind.value,
            "evidence": [exponent_json(e) for e in result.evidence],
        }
        if result.kind is ImmediacyKind.NOT_IMMEDIATE:
            out["max_value"] = exponent_json(result.max_value)
            out["witness"] = series_json(result.witness, prec)
        else:
            out["precision_limited"] = result.precision_limited
        if result.reduction is not None:
            out["reduction"] = nearest_json(result.reduction, prec)
        return out

    if kind == "approximate":
        fam, verdict = _certified_family(runtime, task["family"], prec)
        if verdict.kind is not VerdictKind.INDEPENDENT:
            raise UnsupportedCombination("approximate needs an independent base family")
        matrix = [[runtime.elements[n] for n in row] for row in task["matrix"]]
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
                    "cutoff": exponent_json(p.cutoff),
                    "required_above": exponent_json(p.required_above),
                    "difference_value": valuation_json(p.difference_value),
                }
                for p in result.pairs
            ],
            "completion_values": [exponent_json(v) for v in result.completion_values],
            "output_values": [exponent_json(v) for v in result.output_values],
        }

    raise ParseError(f"unhandled task kind {kind!r}")


def _run_sampled_orthogonalize(sample: dict, runtime: Runtime, seed: Optional[int]) -> dict:
    rng = random.Random(seed if seed is not None else sample["seed"])
    prec = runtime.precision
    sizes: dict[int, int] = {}
    for case in range(sample["count"]):
        count = rng.randint(1, sample["max_size"])
        generators = [
            runtime.base.sample_element(rng, sample["support"]) for _ in range(count)
        ]
        result = orthogonalize(generators, runtime.base, prec)
        if not result.ok:
            return {
                "kind": "sampled",
                "count": sample["count"],
                "all_basis": False,
                "failed_case": case,
                "obstruction": nearest_json(result.obstruction, prec),
            }
        sizes[len(result.basis)] = sizes.get(len(result.basis), 0) + 1
    return {
        "kind": "sampled",
        "count": sample["count"],
        "all_basis": True,
        "basis_size_histogram": {str(k): v for k, v in sorted(sizes.items())},
    }


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
