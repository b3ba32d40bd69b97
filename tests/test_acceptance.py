"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
criterion states its runtime budget and asserts it.
"""

import itertools
import time
from fractions import Fraction

from ultragram.groups import OrderedGroup
from ultragram.residues import ResidueField
from ultragram.series import Precision, SeriesField, subtract, valuation
from ultragram.presentations import laurent_presentation, trivial_presentation
from ultragram.spaces import (
    NearestKind,
    is_valuation_independent,
    make_family,
    nearest_point,
    normalize,
)
from ultragram.reports import emit
from ultragram.scenarios import BUILTINS, load_scenario, run
from ultragram.verify import verify_report

Z = OrderedGroup.integers()


def _criterion(num: int, description: str, budget: float, body) -> None:
    start = time.monotonic()
    try:
        body()
    except BaseException:
        print(f"FAIL criterion {num}: {description}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.2f}s)"
    print(f"PASS criterion {num}: {description} [{elapsed:.2f}s]")


def test_criterion_1_transcendental_residue():
    def body():
        scenario = load_scenario("paper:fpt-y")
        report = run(scenario)
        independence = report.tasks[0].outcome
        assert independence["verdict"] == "independent"
        immediacy = report.tasks[1].outcome
        assert immediacy["kind"] == "not_immediate"
        assert immediacy["max_value"] == ["1"]

        # module-level check: v(ty - a) <= 1 = v(ty) for every nonzero
        # a = sum c_k t^k over F3 with -2 <= k <= 2
        F3 = ResidueField.prime(3)
        F3s = ResidueField.rational_functions(3)
        ambient = SeriesField(Z, F3s)
        K = laurent_presentation(ambient, Z.element(1), residue_field=F3, name="F3(t)")
        prec = Precision(Z.element(32), max_terms=8)
        ty = ambient.from_terms([(1, F3s.generator())])
        one_val = Z.element(1)
        count = 0
        for combo in itertools.product(range(3), repeat=5):
            if not any(combo):
                continue
            a = ambient.from_terms(
                [(k, K.embed_residue(c)) for k, c in zip(range(-2, 3), combo) if c]
            )
            val = valuation(subtract(ty, a), prec)
            assert val.is_value and val.value <= one_val
            count += 1
        assert count == 3**5 - 1  # the filtration window is genuinely exhausted

    _criterion(1, "paper:fpt-y transcendental residue", 1.0, body)


def test_criterion_2_no_valuation_basis_over_stream():
    def body():
        # oracle for N <= 4: exhaustive rational-grid search, support below t^(N+2)
        ambient = SeriesField(Z, ResidueField.rationals())
        K = trivial_presentation(ambient, name="Q")
        prec = Precision(Z.element(40), max_terms=8)
        grid = [Fraction(n, d) for n in range(-2, 3) for d in (1, 2)]
        for N in range(1, 5):
            elements = [ambient.from_terms([(i, 1), (i + 1, -1)]) for i in range(1, N + 1)]
            fam = make_family(K, elements)
            is_valuation_independent(fam, prec)
            result = nearest_point(ambient.monomial(1), normalize(fam, prec), prec)
            assert result.kind is NearestKind.VALUE
            assert result.value == Z.element(N + 1)
            best_terms = {}
            fuel = prec.fuel()
            result.best.ensure_below(Z.element(40), fuel)
            for t in result.best.terms_below(Z.element(40)):
                best_terms[int(t.exponent.coords[0])] = t.coefficient.rep
            assert best_terms == {1: Fraction(1), N + 1: Fraction(-1)}

            # independent oracle: enumerate coefficient tuples over the grid
            polys = [{i: Fraction(1), i + 1: Fraction(-1)} for i in range(1, N + 1)]
            best_val = None
            tuples = [[]]
            for _ in polys:
                tuples = [t + [c] for t in tuples for c in grid]
            for combo in tuples:
                diff = {1: Fraction(1)}
                for c, poly in zip(combo, polys):
                    for e, v in poly.items():
                        diff[e] = diff.get(e, Fraction(0)) - c * v
                support = [e for e, v in diff.items() if v != 0]
                assert support, "the target is not in the span"
                val = min(support)
                best_val = val if best_val is None else max(best_val, val)
            assert best_val == N + 1

        # streamed version through the builtin: evidence [2, ..., max_terms+1]
        scenario = load_scenario("paper:ti-minus-ti1")
        report = run(scenario)
        finite = report.tasks[0].outcome
        assert finite["kind"] == "value" and finite["value"] == ["5"]
        streamed = report.tasks[1].outcome
        assert streamed["kind"] == "unbounded"
        max_terms = scenario.canonical["precision"]["max_terms"]
        assert streamed["evidence"] == [[str(k)] for k in range(2, max_terms + 2)]

    _criterion(2, "paper:ti-minus-ti1 nearest point and stream", 5.0, body)


def test_criterion_3_notca_construction():
    def body():
        scenario = load_scenario("paper:notCA")
        report = run(scenario)
        orth = report.tasks[0].outcome
        assert orth["kind"] == "obstruction" and orth["index"] == 2
        evidence = orth["result"]["full_evidence"]
        expected = [["0", str(3**k)] for k in range(len(evidence))]
        assert evidence == expected
        assert len(evidence) >= 4  # [1, 3, 9, 27, ...]
        independence = report.tasks[1].outcome
        assert independence["verdict"] in ("dependent", "inconclusive")
        if independence["verdict"] == "dependent":
            achieved = independence["witness"]["achieved"]
            minimum = [Fraction(c) for c in independence["witness"]["min_value"]]
            if "value" in achieved:
                assert [Fraction(c) for c in achieved["value"]] > minimum

    _criterion(3, "paper:notCA obstruction evidence", 5.0, body)


def test_criterion_4_defect_identity_desk_scale():
    def body():
        for name, n, e, f in (("paper:sqrt-t", 2, 2, 1), ("paper:standard-2x2", 4, 2, 2)):
            start = time.monotonic()
            scenario = load_scenario(name)
            report = run(scenario)
            outcome = next(
                t.outcome for t in report.tasks if t.task == "analyze_extension"
            )
            assert outcome["verdict"] == "vs_defectless", name
            assert (outcome["n"], outcome["e"], outcome["f"]) == (n, e, f), name
            assert outcome["defect_index"] == "1"
            assert len(outcome["standard_basis"]["products"]) == e * f
            assert time.monotonic() - start < 5.0

        scenario = load_scenario("paper:artin-schreier")
        report = run(scenario)
        outcome = next(t.outcome for t in report.tasks if t.task == "analyze_extension")
        assert outcome["verdict"] == "obstructed"

    _criterion(4, "defect identity n = e*f with standard bases", 15.0, body)


def test_criterion_5_property_suites():
    import test_properties as props

    suites = [
        props.test_min_equality_soundness_of_independent_verdicts,
        props.test_scaling_invariance,
        props.test_transitivity,
        props.test_normalize_idempotent_and_compliant,
        props.test_perturbation_stability,
        props.test_value_set_identity,
        props.test_nearest_point_matches_exhaustive_oracle,
    ]

    def body():
        for suite in suites:
            suite()

    _criterion(5, "randomized property suites (7 x 200 cases)", 60.0, body)


def test_criterion_6_baur_sampling():
    def body():
        scenario = load_scenario("paper:baur-sampling")
        report = run(scenario)
        outcome = report.tasks[0].outcome
        assert outcome["count"] == 100
        assert outcome["all_basis"] is True

    _criterion(6, "Baur sampling over the completion", 30.0, body)


def test_criterion_7_cofinal_approximation():
    def body():
        scenario = load_scenario("paper:cofinal-approx")
        report = run(scenario)
        outcome = report.tasks[0].outcome
        assert outcome["verdict"] == "independent"
        # the truncation inequality checked exactly for every matrix entry
        for pair in outcome["pairs"]:
            dv = pair["difference_value"]
            required = [Fraction(c) for c in pair["required_above"]]
            if "value" in dv:
                assert [Fraction(c) for c in dv["value"]] > required
            else:
                assert dv.get("exact_zero") or [Fraction(c) for c in dv["zero_up_to"]] > required
        # value multiset preserved
        assert sorted(map(tuple, outcome["output_values"])) == sorted(
            map(tuple, outcome["completion_values"])
        )
        # truncated coefficients are exact finite K-elements
        for row in outcome["coefficients"]:
            for coeff in row:
                assert coeff.get("exact") is True

    _criterion(7, "cofinal completion approximation, exact truncation bounds", 5.0, body)


def test_criterion_8_determinism_and_witnesses():
    def body():
        for name in sorted(BUILTINS):
            scenario = load_scenario(name)
            first = run(scenario)
            second = run(scenario)
            assert emit(first, "structured") == emit(second, "structured"), name
            checks = verify_report(scenario, first)
            assert checks, name
            failed = [c for c in checks if not c["ok"]]
            assert not failed, (name, failed)

    _criterion(8, "byte determinism and witness verification", 60.0, body)
