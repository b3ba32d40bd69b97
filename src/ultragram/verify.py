"""Witness re-checking for emitted reports.

Two layers: a determinism check (the scenario is re-run from scratch and
the structured task outcomes must match byte for byte) and per-witness
re-evaluation, where serialized coefficients, approximants and truncations
are parsed back out of the report and their claimed inequalities are
recomputed against freshly resolved elements.
"""

from __future__ import annotations

import random
from typing import Optional

from .reports import Report, emit
from .series import Precision, Series, add, leading_term, multiply, subtract, valuation
from .spaces import VerdictKind, _combination, _strictly_above, is_valuation_independent, make_family
from .scenarios import TASKS, Runtime, Scenario, _parse_exponent, _parse_terms, resolve_runtime, run


def _series_from_json(doc: dict, runtime: Runtime) -> Optional[Series]:
    """Rebuild a serialized series; None when only a truncation was stored."""
    if not doc.get("exact") and not doc.get("complete_below"):
        return None
    return runtime.ambient.from_terms(_parse_terms(doc["terms"], runtime.ambient))


def _check(checks: list, check_id: str, ok: bool, detail: str = "") -> None:
    entry = {"id": check_id, "ok": bool(ok)}
    if detail and not ok:
        entry["detail"] = detail
    checks.append(entry)


def _verify_dependence(checks, tid, elements, witness_doc, runtime, prec):
    check_id = f"{tid}:dependence"
    coeffs = [_series_from_json(c, runtime) for c in witness_doc["coefficients"]]
    if any(c is None for c in coeffs):
        _check(checks, check_id, False, "witness coefficients were serialized truncated")
        return
    min_value = _parse_exponent(witness_doc["min_value"], runtime.ambient.group)
    combined = _combination(runtime.base, coeffs, elements)
    if "shift" in witness_doc:
        shift = _series_from_json(witness_doc["shift"], runtime)
        if shift is None:
            _check(checks, check_id, False, "witness shift was serialized truncated")
            return
        combined = add(combined, shift)
    achieved = valuation(combined, prec)
    summand_min = None
    for c, b in zip(coeffs, elements):
        if not c.witnessed_terms():
            continue
        # c is a finite series: its lead is its first term, even above the ceiling
        v = c.witnessed_terms()[0].exponent + leading_term(b, prec).exponent
        summand_min = v if summand_min is None else min(summand_min, v)
    ok = (
        summand_min == min_value
        and _strictly_above(achieved, min_value)
    )
    _check(checks, check_id, ok, f"achieved {achieved.describe()} vs min {min_value}")


def _verify_independence(checks, tid, over_and_elements, outcome, runtime, prec):
    """Recompute each N1 scaling from the leads, then confirm minimum equality by sampling."""
    check_id = f"{tid}:independence"
    over, elements = over_and_elements
    scalings = [_series_from_json(s, runtime) for s in outcome.get("scalings", [])]
    if len(scalings) != len(elements) or any(s is None for s in scalings):
        _check(checks, check_id, False, "scaling witnesses were serialized truncated")
        return
    base = runtime.base
    leads = [leading_term(b, prec) for b in list(over) + list(elements)]
    if any(t is None for t in leads):
        _check(checks, check_id, False, "an element has no witnessed lead")
        return
    # as is_valuation_independent: t^(v(b_ref) - v(b_i)), b_ref first in b_i's coset class (W's members first)
    refs: dict = {}
    for i, t in enumerate(leads):
        ref = refs.setdefault(base.value_subgroup.coset_key(t.exponent), t.exponent)
        k = i - len(over)
        if k >= 0 and scalings[k].witnessed_terms() != base.monomial_section(ref - t.exponent).witnessed_terms():
            _check(checks, check_id, False, f"scaling {k} is not t^(v(b_ref) - v(b_{k}))")
            return
    rng = random.Random(8128)
    for _ in range(20):
        coefficients = [base.sample_element(rng, 2) for _ in elements]
        # a sample is a finite series: its lead is its first term, even above the ceiling
        expected = min(c.witnessed_terms()[0].exponent + leading_term(b, prec).exponent
                       for c, b in zip(coefficients, elements))
        val = valuation(_combination(base, coefficients, elements), prec)
        if expected < prec.ceiling:
            ok = val.is_value and val.value == expected
        else:  # the minimum lies at or above the ceiling: no term may lie below it
            ok = not val.is_value and val.up_to == prec.ceiling
        if not ok:
            _check(checks, check_id, False, f"minimum equality failed: {val.describe()}")
            return
    _check(checks, check_id, True)


def _verify_chain(checks, tid, target, outcome_doc, runtime, prec):
    """Each serialized approximant must realize its evidence entry."""
    check_id = f"{tid}:chain"
    evidence = outcome_doc.get("evidence", [])
    approximants = outcome_doc.get("approximants", [])
    if len(approximants) < len(evidence):
        _check(checks, check_id, False, "fewer approximants than evidence entries")
        return
    previous = None
    for k, ev in enumerate(evidence):
        claimed = _parse_exponent(ev, runtime.ambient.group)
        if previous is not None and not previous < claimed:
            _check(checks, check_id, False, f"evidence not strictly increasing at {k}")
            return
        previous = claimed
        approximant = _series_from_json(approximants[k], runtime)
        if approximant is None:
            continue  # truncated serialization: covered by the determinism check
        val = valuation(subtract(target, approximant), prec)
        if not (val.is_value and val.value == claimed):
            _check(checks, check_id, False, f"approximant {k} realizes {val.describe()}, claimed {claimed}")
            return
    _check(checks, check_id, True)


def _verify_value(checks, tid, target, outcome_doc, runtime, prec):
    """The serialized best approximant must realize the claimed maximum."""
    check_id = f"{tid}:max"
    best = _series_from_json(outcome_doc["best"], runtime)
    claimed = _parse_exponent(outcome_doc["value"], runtime.ambient.group)
    if best is None:
        _check(checks, check_id, False, "best approximant was serialized truncated")
        return
    val = valuation(subtract(target, best), prec)
    ok = val.is_value and val.value == claimed
    _check(checks, check_id, ok, f"v(b-best) is {val.describe()}, claimed {claimed}")


def _verify_standard(checks, tid, _, standard_doc, runtime, prec):
    """The serialized standard-basis products must re-check as independent."""
    products = [_series_from_json(p, runtime) for p in standard_doc["products"]]
    if any(p is None for p in products):
        _check(checks, f"{tid}:standard", True)  # truncated: determinism covers it
        return
    verdict = is_valuation_independent(make_family(runtime.base, products), prec)
    _check(
        checks, f"{tid}:standard",
        verdict.kind is VerdictKind.INDEPENDENT,
        f"standard products re-check as {verdict.kind.value}",
    )


def _verify_approximation(checks, tid, family_and_matrix, outcome, runtime, prec):
    """Each finite coefficient must sit strictly above its required value."""
    check_id = f"{tid}:approximation"
    base_elements, matrix = family_and_matrix
    for pair in outcome["pairs"]:
        i, j = pair["row"], pair["col"]
        finite = _series_from_json(outcome["coefficients"][i][j], runtime)
        if finite is None:
            _check(checks, check_id, False, "truncated coefficient serialization")
            return
        required = _parse_exponent(pair["required_above"], runtime.ambient.group)
        diff_val = valuation(
            multiply(subtract(finite, matrix[i][j]), base_elements[j]), prec
        )
        if not _strictly_above(diff_val, required):
            _check(checks, check_id, False, f"pair ({i},{j}) fails the strict inequality")
            return
    _check(checks, check_id, True)


# witness type (as yielded by a TaskKind's witnesses) -> checker
_CHECKERS = {
    "dependence": _verify_dependence,
    "scalings": _verify_independence,
    "max": _verify_value,
    "chain": _verify_chain,
    "standard": _verify_standard,
    "approximation": _verify_approximation,
}


def verify_report(scenario: Scenario, report: Report, precision: Optional[Precision] = None,
                  seed: Optional[int] = None) -> list:
    """Re-run the scenario and re-evaluate each embedded witness."""
    checks: list = []
    fresh = run(scenario, precision, seed)
    _check(
        checks, "determinism",
        emit(fresh, "structured") == emit(Report(report.scenario, report.tasks), "structured"),
        "re-run produced a different structured report",
    )
    for task_outcome in report.tasks:
        if task_outcome.error is not None:
            continue
        runtime = resolve_runtime(scenario, precision)  # each task's witnesses on fresh elements, as run made them
        prec = runtime.precision
        task = scenario.canonical["tasks"][task_outcome.index]
        witnesses = TASKS[task_outcome.task].witnesses(task, task_outcome.outcome, runtime)
        for witness, subject, doc in witnesses:
            _CHECKERS[witness](checks, f"task{task_outcome.index}", subject, doc, runtime, prec)
    return checks
