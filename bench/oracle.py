"""Hand-written verdict oracle for the benchmark scenarios.

Every fact below is derived from the scenario definitions and the worked
examples in README.md / PAPER.md, not from the program's own output.  A
scenario call counts as failed when any of these holds:

* the call raised or exited non-zero;
* the structured report has a task ``error`` entry;
* a ``--verify`` check failed, or the report carries no verification;
* the report breaks a hand-written fact;
* the report's sha256 differs from the one recorded in ``golden.json``.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def check(case, rc, payload, golden) -> list:
    """Problems found in one scenario call; empty when the call passed.

    ``rc`` is the exit code, or the error text when the call raised.
    ``golden`` maps case keys to sha256 digests; None skips the digest check.
    """
    if rc != 0:
        return [rc if isinstance(rc, str) else f"exit code {rc}"]
    if not payload:
        return ["no report written"]
    try:
        doc = json.loads(payload)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    for task in doc.get("tasks", []):
        if "error" in task:
            err = task["error"]
            problems.append(f"task {task['index']} error {err['type']}: {err['message']}")
    checks = doc.get("verification")
    if not checks:
        problems.append("report carries no verification")
    else:
        problems += [f"verify check {c['id']} failed" for c in checks if not c["ok"]]
    if not problems:
        try:
            problems += case.facts(doc)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            problems.append(f"report misses an expected field: {type(exc).__name__}: {exc}")
    if golden is not None:
        expected = golden.get(case.key)
        if expected is None:
            problems.append(f"no recorded sha256 for {case.key}")
        elif sha256(payload) != expected:
            problems.append("structured report differs from the recorded sha256")
    return problems


# helpers over the canonical JSON encoding


def exponent(entry) -> tuple:
    return tuple(Fraction(c) for c in entry)


def exponents(entries) -> list:
    return [exponent(e) for e in entries]


def outcome(doc: dict, index: int) -> dict:
    return doc["tasks"][index]["outcome"]


def _expect(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _strict_chain(problems: list, values: list, length: int, label: str) -> None:
    _expect(problems, len(values) == length, f"{label}: chain has {len(values)} entries, expected {length}")
    _expect(problems, all(a < b for a, b in zip(values, values[1:])), f"{label}: chain not strictly increasing")


# paper:* built-ins at their default precision (README table)


def fpt_y(doc: dict) -> list:
    # {1, y} with transcendental residue y is independent, and v(ty - a) <= 1.
    p: list = []
    _expect(p, outcome(doc, 0)["verdict"] == "independent", "fpt-y: {1, y} not independent")
    imm = outcome(doc, 1)
    _expect(p, imm["kind"] == "not_immediate", "fpt-y: ty reported immediate")
    _expect(p, exponent(imm["max_value"]) <= (1,), "fpt-y: max v(ty - a) above 1")
    return p


def ti_minus_ti1(doc: dict) -> list:
    # t against Span{t^i - t^(i+1) : 1 <= i <= N}: t = t^(N+1) modulo the span,
    # so the maximum is N + 1 = 5 for count 4; with count max_terms + 2 the
    # chain 2, 3, ... is cut at max_terms = 8 entries.
    p: list = []
    finite = outcome(doc, 0)
    _expect(p, finite["kind"] == "value" and exponent(finite["value"]) == (5,),
            "ti-minus-ti1: finite family maximum is not 5")
    stream = outcome(doc, 1)
    _expect(p, stream["kind"] == "unbounded", "ti-minus-ti1: stream chase not unbounded")
    _expect(p, exponents(stream["evidence"]) == [(k,) for k in range(2, 10)],
            "ti-minus-ti1: evidence is not [2, ..., 9]")
    return p


def not_ca(max_terms: int, doc: dict) -> list:
    # x = sum_i t2^(3^i) + t1 over F3(t2): reducing x against {1} kills
    # t2^(3^k) at step k, so the obstruction chain is 3^0, 3^1, ... with
    # max_terms entries after the initial value.  {1, x} is dependent: v(x) =
    # (0, 1) lies in vK and both residues are 1.
    p: list = []
    orth = outcome(doc, 0)
    _expect(p, orth["kind"] == "obstruction", "notCA: orthogonalization not obstructed")
    result = orth["result"]
    _expect(p, result["kind"] == "unbounded", "notCA: obstruction chain not unbounded")
    full = exponents(result["full_evidence"])
    _expect(p, full == [(0, 3 ** k) for k in range(max_terms + 1)],
            "notCA: evidence is not [1, 3, 9, 27, ...]")
    _strict_chain(p, exponents(result["evidence"]), max_terms, "notCA")
    _expect(p, outcome(doc, 1)["verdict"] == "dependent", "notCA: {1, x} not dependent")
    return p


def sqrt_t(doc: dict) -> list:
    # t^(1/2) over F5(t): value group index e = 2, residue degree f = 1.
    ext = outcome(doc, 0)
    p: list = []
    _expect(p, (ext["n"], ext["e"], ext["f"]) == (2, 2, 1), "sqrt-t: (n, e, f) is not (2, 2, 1)")
    _expect(p, len(ext["standard_basis"]["products"]) == 2, "sqrt-t: standard basis size is not 2")
    return p


def standard_2x2(doc: dict) -> list:
    # {1, t^(1/2)} x {1, y}: e = 2 from the value group, f = 2 from y.
    p: list = []
    _expect(p, outcome(doc, 0)["check"] == "pass", "standard-2x2: normalization check failed")
    ext = outcome(doc, 1)
    _expect(p, (ext["n"], ext["e"], ext["f"]) == (4, 2, 2), "standard-2x2: (n, e, f) is not (4, 2, 2)")
    _expect(p, len(ext["standard_basis"]["products"]) == 4, "standard-2x2: standard basis size is not 4")
    return p


def artin_schreier(ceiling: int, max_terms: int, doc: dict) -> list:
    # Sum t^(3^i) over F3(t): the reduction kills t^(3^k) at step k, so the
    # immediacy evidence is the powers of 3, cut by the ceiling or by
    # max_terms, and the extension report is obstructed.
    powers = [(3 ** k,) for k in range(max_terms) if 3 ** k < ceiling]
    p: list = []
    imm = outcome(doc, 0)
    _expect(p, imm["kind"] == "immediate_evidence", "artin-schreier: no immediacy evidence")
    _expect(p, exponents(imm["evidence"]) == powers, "artin-schreier: evidence is not 1, 3, 9, ...")
    _expect(p, outcome(doc, 1)["verdict"] == "obstructed", "artin-schreier: extension not obstructed")
    return p


def cofinal_approx(doc: dict) -> list:
    # Every truncated coefficient must beat its required value strictly.
    p: list = []
    approx = outcome(doc, 0)
    _expect(p, approx["verdict"] == "independent", "cofinal-approx: output family not independent")
    for pair in approx["pairs"]:
        diff = pair["difference_value"]
        ok = diff.get("exact_zero") or exponent(diff["value"]) > exponent(pair["required_above"])
        _expect(p, bool(ok), f"cofinal-approx: pair ({pair['row']},{pair['col']}) not strictly above")
    return p


def baur_sampling(doc: dict) -> list:
    # Over the full completion every sampled family orthogonalizes to a basis.
    sampled = outcome(doc, 0)
    p: list = []
    _expect(p, sampled["all_basis"] is True, "baur-sampling: a family failed to orthogonalize")
    _expect(p, sampled["count"] == 100, "baur-sampling: count is not 100")
    _expect(p, sum(sampled["basis_size_histogram"].values()) == 100, "baur-sampling: histogram misses cases")
    return p


# generated scenarios


def chase(start: int, max_terms: int, doc: dict) -> list:
    # t^s against Span{t^i - t^(i+1) : i >= s}: subtracting the first k
    # family elements leaves t^(s+k), so the chain is s+1, ..., s+max_terms.
    p: list = []
    near = outcome(doc, 0)
    _expect(p, near["kind"] == "unbounded", "chase: not unbounded")
    _expect(p, exponent(near["initial_value"]) == (start,), "chase: initial value is not s")
    _expect(p, near["family_size"] == max_terms + 2, "chase: family size is not max_terms + 2")
    chain = exponents(near["evidence"])
    _strict_chain(p, chain, max_terms, "chase")
    _expect(p, chain == [(start + k,) for k in range(1, max_terms + 1)], "chase: chain is not s+1, ..., s+max_terms")
    return p


def _dense(terms: list, p: int, ceiling: int) -> list:
    out = [0] * ceiling
    for exp, coeff in terms:
        if exp < ceiling:
            out[exp] = (out[exp] + coeff) % p
    return out


def _dense_from_report(series_doc: dict, p: int, ceiling: int) -> list:
    return _dense([(int(exponent(e)[0]), c) for e, c in series_doc["terms"]], p, ceiling)


def quotient(target_terms: list, divisor_terms: list, p: int, ceiling: int, doc: dict) -> list:
    # Over the full completion b lies in Span{w}, with coefficient b / w.
    # The coefficient is recomputed here by dense division modulo p (w has
    # constant term 1) and must match the report term for term below the
    # ceiling, which must be certified complete.
    b = _dense(target_terms, p, ceiling)
    w = _dense(divisor_terms, p, ceiling)
    q = [0] * ceiling
    for n in range(ceiling):
        q[n] = (b[n] - sum(w[k] * q[n - k] for k in range(1, n + 1))) % p
    near = outcome(doc, 0)
    problems: list = []
    _expect(problems, near["kind"] == "exact_member", "quotient: target not an exact member")
    coeff = near["coefficients"][0]
    _expect(problems, coeff.get("complete_below") == [str(ceiling)], "quotient: coefficient not complete below the ceiling")
    _expect(problems, _dense_from_report(coeff, p, ceiling) == q, "quotient: coefficient differs from b / w")
    _expect(problems, _dense_from_report(near["best"], p, ceiling) == b, "quotient: best approximant is not b")
    return problems
