"""Witness re-checking for emitted reports.

Two layers: a determinism check (the scenario is re-run from scratch, and its body, as
:func:`reports.encode` encodes it, must match the report's byte for byte; the CLI passes
in the encoding its payload is made of) and per-witness re-evaluation, where serialized
coefficients, approximants and truncations are parsed back out of the report and their
claimed inequalities recomputed against freshly resolved elements.  An ``independent``
verdict and a standard basis are checked by the paper's residue criterion on their
leading terms; nothing is sampled.

A witness type, as a ``TaskKind`` yields it, is the name of its check in
``_CHECKERS``: ``(subject, doc, runtime)`` returns None when the witness holds under
``runtime.precision``, else the failure detail, and :func:`verify_report` builds each
entry.  A truncated serialization fails a check, but ``chain`` skips a truncated
approximant and ``standard`` passes truncated products: determinism covers them.
``chain`` parses each distinct serialized exponent, coefficient and term once, as the
evidence and approximants of one chase repeat them, and keeps b - a_k as a chain of
differences: an approximant adds, in one leaf, the negated terms it gained on the last
one read and those it lost, so no approximant is rebuilt in full.  A detail prints an
exponent, and a valuation that is a value, as ``GroupElement.describe()`` does,
``["7"]``, and any other valuation as ``Valuation.describe()`` does.
"""

from __future__ import annotations

import json
from typing import Optional

from .reports import Report, encode
from .residues import rank_over_subfield
from .series import Series, Valuation, add, leading_term, multiply, subtract, valuation
from .spaces import _combination, _strictly_above
from .scenarios import (TASKS, Runtime, Scenario, _parse_coefficient, _parse_exponent, _parse_term, _parse_terms,
                        resolve_runtime, run)


def _rebuildable(doc: dict) -> bool:
    """A serialized series holds all its terms: it is exact, or complete below the ceiling."""
    return bool(doc.get("exact") or doc.get("complete_below"))


def _series_from_json(doc: dict, runtime: Runtime) -> Optional[Series]:
    """Rebuild a serialized series; None when only a truncation was stored."""
    return runtime.ambient.from_terms(_parse_terms(doc["terms"], runtime.ambient)) if _rebuildable(doc) else None


def _shown(x) -> str:
    """A group element, or a realized valuation, as the report prints it: ["7"], or {"zero_up_to": ["40"]}."""
    return json.dumps((x.value if isinstance(x, Valuation) and x.is_value else x).describe())


def _residue_ranks(leads, base) -> Optional[str]:
    """Independence over ``base``: per class of values modulo vK, res(lead_i / lead_first) are Kv-independent."""
    classes: dict = {}
    for t in leads:
        classes.setdefault(base.value_subgroup.coset_key(t.exponent), []).append(t)
    for cls in classes.values():
        if len(cls) > 1:
            profile = [t.coefficient / cls[0].coefficient for t in cls]
            rank = rank_over_subfield(profile, base.residue_field, base.ambient.coeff)[0]
            if rank < len(cls):
                return f"the class of {_shown(cls[0].exponent)} has residue rank {rank} for {len(cls)} elements"


def _dependence(elements, witness_doc, runtime) -> Optional[str]:
    coeffs = [_series_from_json(c, runtime) for c in witness_doc["coefficients"]]
    if any(c is None for c in coeffs):
        return "witness coefficients were serialized truncated"
    min_value = _parse_exponent(witness_doc["min_value"], runtime.ambient.group)
    combined = _combination(runtime.base, coeffs, elements)
    if "shift" in witness_doc:
        shift = _series_from_json(witness_doc["shift"], runtime)
        if shift is None:
            return "witness shift was serialized truncated"
        combined = add(combined, shift)
    achieved = valuation(combined, runtime.precision)
    # v(c) + v(b) for each finite nonzero c: its lead is its first term, even above the ceiling
    sums = [c.witnessed_terms()[0].exponent + leading_term(b, runtime.precision).exponent
            for c, b in zip(coeffs, elements) if c.witnessed_terms()]
    if min(sums, default=None) != min_value or not _strictly_above(achieved, min_value):
        return f"achieved {_shown(achieved)} vs min {_shown(min_value)}"


def _independence(over_and_elements, outcome, runtime) -> Optional[str]:
    """Recompute each N1 scaling from the leads, then check the residue criterion on W's members and the family."""
    over, elements = over_and_elements
    scalings = [_series_from_json(s, runtime) for s in outcome.get("scalings", [])]
    if len(scalings) != len(elements):
        return f"{len(scalings)} scaling witnesses for {len(elements)} elements"
    if any(s is None for s in scalings):
        return "scaling witnesses were serialized truncated"
    base = runtime.base
    leads = [leading_term(b, runtime.precision) for b in list(over) + list(elements)]
    if any(t is None for t in leads):
        return "an element has no witnessed lead"
    # as is_valuation_independent: t^(v(b_ref) - v(b_i)), b_ref first in b_i's coset class (W's members first)
    refs: dict = {}
    for i, t in enumerate(leads):
        ref = refs.setdefault(base.value_subgroup.coset_key(t.exponent), t.exponent)
        k = i - len(over)
        if k >= 0 and scalings[k].witnessed_terms() != base.monomial_section(ref - t.exponent).witnessed_terms():
            return f"scaling {k} is not t^(v(b_ref) - v(b_{k}))"
    return _residue_ranks(leads, base)


def _memo(parse, context):
    """``parse`` of one check: each distinct serialized doc (by its repr) is parsed once."""
    parsed: dict = {}
    return lambda doc: parsed[key] if (key := repr(doc)) in parsed else parsed.setdefault(key, parse(doc, context))


def _chain(target, outcome_doc, runtime) -> Optional[str]:
    """Each serialized approximant must realize its evidence entry."""
    evidence = outcome_doc.get("evidence", [])
    approximants = outcome_doc.get("approximants", [])
    if len(approximants) < len(evidence):
        return "fewer approximants than evidence entries"
    exponent = _memo(_parse_exponent, runtime.ambient.group)
    coefficient = _memo(_parse_coefficient, runtime.ambient.coeff)
    terms: dict = {}  # repr of a serialized term -> it parsed, for this check only

    # b - the last approximant read, and the reprs of that approximant's serialized terms
    residual, held, previous = target, set(), None
    for k, (ev, doc) in enumerate(zip(evidence, approximants)):
        claimed = exponent(ev)
        if previous is not None and not previous < claimed:
            return f"evidence not strictly increasing at {k}"
        previous = claimed
        if not _rebuildable(doc):
            continue  # truncated serialization: covered by the determinism check
        now = dict(zip(map(repr, doc["terms"]), doc["terms"]))
        if len(now) < len(doc["terms"]):
            return f"approximant {k} repeats a term"
        # b - a_k = (b - a_j) - (a_k - a_j): add the negated terms a_k gained and those it lost
        gained, lost = now.keys() - held, held - now.keys()
        terms.update((t, _parse_term(now[t], exponent, coefficient)) for t in gained if t not in terms)
        change = [(e, -c) for e, c in map(terms.get, gained)] + [terms[t] for t in lost]
        residual, held = add(residual, runtime.ambient.from_terms(change)), now.keys()
        val = valuation(residual, runtime.precision)
        if not (val.is_value and val.value == claimed):
            return f"approximant {k} realizes {_shown(val)}, claimed {_shown(claimed)}"


def _max(target, outcome_doc, runtime) -> Optional[str]:
    """The serialized best approximant must realize the claimed maximum."""
    best = _series_from_json(outcome_doc["best"], runtime)
    claimed = _parse_exponent(outcome_doc["value"], runtime.ambient.group)
    if best is None:
        return "best approximant was serialized truncated"
    val = valuation(subtract(target, best), runtime.precision)
    if not (val.is_value and val.value == claimed):
        return f"v(b-best) is {_shown(val)}, claimed {_shown(claimed)}"


def _standard(_, standard_doc, runtime) -> Optional[str]:
    """The serialized standard-basis products must meet the residue criterion."""
    products = [_series_from_json(p, runtime) for p in standard_doc["products"]]
    if any(p is None for p in products):
        return None  # truncated: determinism covers it
    leads = [leading_term(p, runtime.precision) for p in products]
    return "a product has no witnessed lead" if any(t is None for t in leads) else _residue_ranks(leads, runtime.base)


def _approximation(family_and_matrix, outcome, runtime) -> Optional[str]:
    """Each finite coefficient must sit strictly above its required value."""
    base_elements, matrix = family_and_matrix
    for pair in outcome["pairs"]:
        i, j = pair["row"], pair["col"]
        finite = _series_from_json(outcome["coefficients"][i][j], runtime)
        if finite is None:
            return "truncated coefficient serialization"
        required = _parse_exponent(pair["required_above"], runtime.ambient.group)
        diff_val = valuation(multiply(subtract(finite, matrix[i][j]), base_elements[j]), runtime.precision)
        if not _strictly_above(diff_val, required):
            return f"pair ({i},{j}) fails the strict inequality"


# check name (the witness type a TaskKind's witnesses yield) -> check
_CHECKERS = {
    "dependence": _dependence,
    "independence": _independence,
    "max": _max,
    "chain": _chain,
    "standard": _standard,
    "approximation": _approximation,
}


def _entry(check_id: str, failure: Optional[str]) -> dict:
    return {"id": check_id, "ok": True} if failure is None else {"id": check_id, "ok": False, "detail": failure}


def verify_report(scenario: Scenario, report: Report, body: Optional[bytes] = None) -> list:
    """Re-run the scenario under its precision and seed and re-check each witness; ``body`` is encode(report)."""
    same = encode(run(scenario)) == (encode(report) if body is None else body)
    checks = [_entry("determinism", None if same else "re-run produced a different structured report")]
    for task_outcome in report.tasks:
        if task_outcome.error is not None:
            continue
        runtime = resolve_runtime(scenario)  # each task's witnesses on fresh elements, as run made them
        task = scenario.canonical["tasks"][task_outcome.index]
        for name, subject, doc in TASKS[task_outcome.task].witnesses(task, task_outcome.outcome, runtime):
            failure = _CHECKERS[name](subject, doc, runtime)
            checks.append(_entry(f"task{task_outcome.index}:{name}", failure))
    return checks
