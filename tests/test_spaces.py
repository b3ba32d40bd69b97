import random
from dataclasses import replace
from fractions import Fraction

import pytest

from ultragram import series
from ultragram.groups import OrderedGroup
from ultragram.residues import ResidueField
from ultragram.series import (
    Precision, SeriesField, add, artin_schreier, custom_powers, leading_term, multiply, subtract, sum_series,
    valuation,
)
from ultragram.presentations import (
    SubfieldPresentation,
    ValueNotInSubgroup,
    completion_presentation,
    laurent_presentation,
    trivial_presentation,
)
from ultragram.reports import series_json
from ultragram.spaces import (
    NearestKind,
    NotNormalized,
    ProbeInK,
    UncertifiedSubspace,
    VerdictKind,
    ZeroElementInFamily,
    _strictly_above,
    check_normalized,
    immediacy_evidence,
    is_valuation_independent,
    make_family,
    nearest_point,
    normalize,
    orthogonalize,
)

Z = OrderedGroup.integers()
Q = OrderedGroup.rationals()
F3 = ResidueField.prime(3)
F5 = ResidueField.prime(5)


@pytest.fixture
def fq5():
    """F_5(t) inside F_5((t^Q))."""
    L = SeriesField(Q, F5)
    K = laurent_presentation(L, Q.element(1), name="F5(t)")
    return L, K, Precision(Q.element(32), max_terms=8)


@pytest.fixture
def fps_ambient():
    """F_3(t) inside F_3(s)((t^Z)): transcendental residue direction."""
    F3s = ResidueField.rational_functions(3)
    L = SeriesField(Z, F3s)
    K = laurent_presentation(L, Z.element(1), residue_field=F3, name="F3(t)")
    return L, K, Precision(Z.element(32), max_terms=8)


def test_singleton_and_empty_families(fq5):
    L, K, prec = fq5
    assert is_valuation_independent(make_family(K, [L.one()]), prec).kind is VerdictKind.INDEPENDENT
    assert is_valuation_independent(make_family(K, []), prec).kind is VerdictKind.INDEPENDENT


def test_sqrt_t_independent(fq5):
    L, K, prec = fq5
    fam = make_family(K, [L.one(), L.monomial("1/2")])
    assert is_valuation_independent(fam, prec).kind is VerdictKind.INDEPENDENT


def test_one_plus_t_dependent_with_reusable_witness(fq5):
    L, K, prec = fq5
    fam = make_family(K, [L.one(), add(L.one(), L.monomial(1))])
    verdict = is_valuation_independent(fam, prec)
    assert verdict.kind is VerdictKind.DEPENDENT
    w = verdict.witness
    assert w.min_value == Q.element(0)
    parts = [multiply(c, b) for c, b in zip(w.coefficients, fam.elements) if c.witnessed_terms()]
    total = parts[0]
    for p in parts[1:]:
        total = add(total, p)
    achieved = valuation(total, prec)
    assert achieved.is_value and w.min_value < achieved.value


def test_transcendental_residue_independent(fps_ambient):
    L, K, prec = fps_ambient
    y = L.from_terms([(0, L.coeff.generator())])
    fam = make_family(K, [L.one(), y])
    assert is_valuation_independent(fam, prec).kind is VerdictKind.INDEPENDENT


def test_zero_element_rejected(fq5):
    L, K, prec = fq5
    with pytest.raises(ZeroElementInFamily):
        is_valuation_independent(make_family(K, [L.one(), L.zero()]), prec)


def test_independence_over_subspace(fq5):
    L, K, prec = fq5
    w = make_family(K, [L.one()])  # never asked: W's independence is read off its record
    fam = make_family(K, [L.monomial("1/2")], relative_to=w)
    verdict = is_valuation_independent(fam, prec)
    assert verdict.kind is VerdictKind.INDEPENDENT and len(verdict.scalings) == 1
    assert w.classification.precision == prec
    # dependent over W: the shift lands in the witness
    fam2 = make_family(K, [add(L.one(), L.monomial(1))], relative_to=w)
    verdict2 = is_valuation_independent(fam2, prec)
    assert verdict2.kind is VerdictKind.DEPENDENT
    assert verdict2.witness.shift is not None


def test_uncertified_subspace_rejected(fq5):
    L, K, prec = fq5
    w = make_family(K, [L.one(), add(L.one(), L.monomial(1))])  # 1 - (1 + t) = -t: dependent
    with pytest.raises(UncertifiedSubspace, match="not valuation independent"):
        is_valuation_independent(make_family(K, [L.monomial("1/2")], relative_to=w), prec)
    with pytest.raises(NotNormalized, match="basis violates N2"):
        nearest_point(L.monomial("1/2"), w, prec)
    # independent, but over another presentation of the same ambient
    w = make_family(trivial_presentation(L, name="F5"), [L.one()])
    assert is_valuation_independent(w, prec).kind is VerdictKind.INDEPENDENT
    with pytest.raises(UncertifiedSubspace, match="different presentations"):
        is_valuation_independent(make_family(K, [L.monomial("1/2")], relative_to=w), prec)


def test_check_normalized_examples(fq5):
    L, K, prec = fq5
    assert check_normalized(make_family(K, [L.one()]), prec).ok
    # same coset, different values
    res = check_normalized(make_family(K, [L.monomial("1/2"), L.monomial("3/2")]), prec)
    assert not res.ok and res.condition == "N1"
    # same value, equal residues
    LZ = SeriesField(Z, F5)
    KZ = laurent_presentation(LZ, Z.element(1), name="F5(t)")
    precZ = Precision(Z.element(32), max_terms=8)
    t = LZ.monomial(1)
    res2 = check_normalized(make_family(KZ, [t, multiply(t, add(LZ.one(), t))]), precZ)
    assert not res2.ok and res2.condition == "N2"
    # value in vK but nonzero
    res3 = check_normalized(make_family(KZ, [t]), precZ)
    assert not res3.ok and res3.condition == "N3"
    # residue in Kv but not 1
    res4 = check_normalized(make_family(KZ, [LZ.monomial(0, 2)]), precZ)
    assert not res4.ok and res4.condition == "N4"


def test_check_normalized_reports_first_n1_pair(fq5):
    L, K, prec = fq5
    # N1 pairs (0, 4), (1, 3) and (2, 4); the pairwise scan finds (0, 4) first
    exponents = ["1/2", 0, "1/2", 1, "3/2"]
    family = make_family(K, [L.monomial(e) for e in exponents])
    values = [Q.element(e) for e in exponents]
    vk = K.value_subgroup
    first_pair = next(
        [i, j]
        for i in range(len(values))
        for j in range(i + 1, len(values))
        if values[i] != values[j] and vk.contains(values[i] - values[j])
    )
    res = check_normalized(family, prec)
    assert res.condition == "N1"
    assert res.witness == {"indices": first_pair} == {"indices": [0, 4]}


def test_normalize_examples(fq5):
    L, K, prec = fq5
    fam = make_family(K, [L.monomial("1/2", 2), L.monomial(0, 3)])
    is_valuation_independent(fam, prec)
    out = normalize(fam, prec)
    assert check_normalized(out, prec).ok
    leads = [leading_term(e, prec) for e in out.elements]
    assert [t.exponent for t in leads] == [Q.element("1/2"), Q.element(0)]
    assert leads[1].coefficient == F5.one()
    # idempotence: unit scalings on an already normalized family
    again = normalize(out, prec)
    for s in again.scalings:
        lead = leading_term(s, prec)
        assert lead.exponent == Q.element(0) and lead.coefficient == F5.one()


def test_normalize_rejects_dependent(fq5):
    L, K, prec = fq5
    fam = make_family(K, [L.monomial(2), L.monomial(0, 3)])
    verdict = is_valuation_independent(fam, prec)
    assert verdict.kind is VerdictKind.DEPENDENT
    from ultragram.spaces import NotIndependent

    with pytest.raises(NotIndependent):
        normalize(fam, prec)


def _telescoping_family(L, K, prec, count, start=1):
    fam = make_family(K, [L.from_terms([(i, 1), (i + 1, -1)]) for i in range(start, start + count)])
    is_valuation_independent(fam, prec)
    return normalize(fam, prec)


def test_nearest_point_value_and_best():
    L = SeriesField(Z, ResidueField.rationals())
    K = trivial_presentation(L, name="Q")
    prec = Precision(Z.element(40), max_terms=8)
    W = _telescoping_family(L, K, prec, 2)
    result = nearest_point(L.monomial(1), W, prec)
    assert result.kind is NearestKind.VALUE and result.value == Z.element(3)
    fuel = prec.fuel()
    result.best.ensure_below(Z.element(40), fuel)
    terms = [(int(t.exponent.coords[0]), t.coefficient.rep) for t in result.best.terms_below(Z.element(40))]
    assert terms == [(1, Fraction(1)), (3, Fraction(-1))]
    assert [int(e.coords[0]) for e in result.evidence] == [2, 3]
    # exhaustive oracle over rational grid coefficients, support below t^4
    target = {1: Fraction(1)}
    w1 = {1: Fraction(1), 2: Fraction(-1)}
    w2 = {2: Fraction(1), 3: Fraction(-1)}
    grid = [Fraction(n, d) for n in range(-2, 3) for d in (1, 2)]
    best_val = None
    for c1 in grid:
        for c2 in grid:
            diff = dict(target)
            for k, v in w1.items():
                diff[k] = diff.get(k, Fraction(0)) - c1 * v
            for k, v in w2.items():
                diff[k] = diff.get(k, Fraction(0)) - c2 * v
            support = [k for k, v in diff.items() if v != 0]
            val = min(support) if support else 99
            best_val = val if best_val is None else max(best_val, val)
    assert best_val == 3


def test_nearest_point_exact_member():
    L = SeriesField(Z, ResidueField.rationals())
    K = trivial_presentation(L, name="Q")
    prec = Precision(Z.element(40), max_terms=8)
    W = _telescoping_family(L, K, prec, 3)
    b = add(W.elements[0], W.elements[2])
    result = nearest_point(b, W, prec)
    assert result.kind is NearestKind.EXACT_MEMBER


def test_nearest_point_unbounded_stream():
    L = SeriesField(Z, ResidueField.rationals())
    K = trivial_presentation(L, name="Q")
    prec = Precision(Z.element(40), max_terms=8)
    W = _telescoping_family(L, K, prec, prec.max_terms + 2)
    result = nearest_point(L.monomial(1), W, prec)
    assert result.kind is NearestKind.UNBOUNDED
    assert [int(e.coords[0]) for e in result.evidence] == list(range(2, prec.max_terms + 2))
    # every evidence entry is realized by its recorded approximant
    for ev, approx in zip(result.evidence, result.approximants):
        val = valuation(subtract(L.monomial(1), approx), prec)
        assert val.is_value and val.value == ev


def test_nearest_point_chase_builds_no_membership_monomial(monkeypatch):
    L = SeriesField(Z, ResidueField.rationals())
    K = trivial_presentation(L, name="Q")
    prec = Precision(Z.element(40), max_terms=8)
    W = _telescoping_family(L, K, prec, prec.max_terms + 2)
    sections = [0]
    plain_section = SubfieldPresentation.monomial_section

    def counted_section(self, delta):
        sections[0] += 1
        return plain_section(self, delta)

    monkeypatch.setattr(SubfieldPresentation, "monomial_section", counted_section)
    result = nearest_point(L.monomial(1), W, prec)
    assert result.kind is NearestKind.UNBOUNDED and sections[0] == 0
    # the two members no step touched share one exhausted zero leaf
    untouched = result.coefficients[-2:]
    assert untouched[0] is untouched[1] and untouched[0].exhausted and not untouched[0].witnessed_terms()
    # a step value outside vK raises through require_value, as in monomial_section
    monkeypatch.setattr(SubfieldPresentation, "value_in_subgroup", lambda self, gamma: False)
    with pytest.raises(ValueNotInSubgroup) as raised:
        nearest_point(L.monomial(1), W, prec)
    assert str(raised.value) == f"{Z.element(0)} is not in vQ"


def test_nearest_point_artin_schreier_against_constants():
    L = SeriesField(Z, F3)
    K = laurent_presentation(L, Z.element(1), name="F3(t)")
    prec = Precision(Z.element(100), max_terms=4)
    W = make_family(K, [L.one()])
    is_valuation_independent(W, prec)
    result = nearest_point(artin_schreier(L, 3), W, prec)
    assert result.kind is NearestKind.UNBOUNDED
    assert [int(e.coords[0]) for e in result.full_evidence] == [1, 3, 9, 27, 81]


def test_nearest_point_requires_normalized(fq5):
    L, K, prec = fq5
    W = make_family(K, [L.monomial(1)])   # value 1 in vK: violates N3
    is_valuation_independent(W, prec)
    with pytest.raises(NotNormalized):
        nearest_point(L.one(), W, prec)


def test_orthogonalize_examples(fq5):
    L, K, prec = fq5
    r = orthogonalize([L.one(), L.monomial("1/2")], K, prec)
    assert r.ok and len(r.basis) == 2
    r2 = orthogonalize([L.one(), add(L.one(), L.monomial(1))], K, prec)
    assert r2.ok and len(r2.basis) == 1
    # span preservation: every generator reduces to an exact member
    for g in (L.one(), add(L.one(), L.monomial(1))):
        reduction = nearest_point(g, r2.basis, prec)
        assert reduction.kind is NearestKind.EXACT_MEMBER


@pytest.mark.parametrize("terms", [[(1, 2), ("3/2", 1)], [("1/2", 3), (2, 1)]])
def test_orthogonalize_singleton_matches_normalize(fq5, terms):
    L, K, prec = fq5
    g = L.from_terms(terms)
    expected = normalize(make_family(K, [g]), prec)
    r = orthogonalize([g], K, prec)
    assert r.ok and check_normalized(r.basis, prec).ok
    assert [series_json(x, prec) for x in r.basis.elements] == [series_json(x, prec) for x in expected.elements]


def test_orthogonalize_empty_is_independent(fq5):
    L, K, prec = fq5
    r = orthogonalize([], K, prec)
    assert r.ok and len(r.basis) == 0 and check_normalized(r.basis, prec).ok
    assert is_valuation_independent(r.basis, prec).scalings == []


def test_orthogonalize_obstruction_notca():
    L2 = OrderedGroup.lex(2)
    L = SeriesField(L2, F3)
    K = laurent_presentation(L, L2.element(0, 1), name="F3(t)")
    prec = Precision(L2.element(1, 24), max_terms=8)
    x = add(artin_schreier(L, 3, axis=1), L.monomial(L2.element(1, 0)))
    r = orthogonalize([L.one(), x], K, prec)
    assert not r.ok and r.obstruction_index == 2
    assert r.obstruction.kind is NearestKind.UNBOUNDED
    evidence = [tuple(int(c) for c in e.coords) for e in r.obstruction.full_evidence]
    assert evidence[:4] == [(0, 1), (0, 3), (0, 9), (0, 27)]
    assert all(a < b for a, b in zip(evidence, evidence[1:]))


def test_a_chase_against_one_takes_tails_of_its_target(monkeypatch):
    """Against the basis {1}, each step subtracts the residual's cached lead, so the next
    residual is a tail of the last, forwarding at once: no step negates, and the lead pull
    of a step starts two sum expansions, the tail's and, past the tails it skips, the target's."""
    counts = {"negate": 0, "expand": 0}
    plain_negate, plain_expand = series.negate, series._Sum._expand

    def negate(x):
        counts["negate"] += 1
        return plain_negate(x)

    def expand(self, *args):
        counts["expand"] += 1
        return plain_expand(self, *args)

    monkeypatch.setattr(series, "negate", negate)
    monkeypatch.setattr(series._Sum, "_expand", expand)
    L2 = OrderedGroup.lex(2)
    L = SeriesField(L2, F3)
    K = laurent_presentation(L, L2.element(0, 1), name="F3(t)")
    x = add(artin_schreier(L, 3, axis=1), L.monomial(L2.element(1, 0)))  # paper:notCA's x
    r = orthogonalize([L.one(), x], K, Precision(L2.element(1, 24), max_terms=64))
    assert not r.ok and r.obstruction.kind is NearestKind.UNBOUNDED
    assert [e.coords for e in r.obstruction.full_evidence] == [(0, 3 ** i) for i in range(65)]
    assert counts["negate"] == 0, counts  # 64 if each step negates its lead
    assert counts["expand"] <= 2 * 64 + 1, counts  # 192 if each step merges a new pair
    counts.update(negate=0, expand=0)
    KZ = laurent_presentation(SeriesField(Z, F3), Z.element(1), name="F3(t)")
    result = immediacy_evidence(KZ, artin_schreier(KZ.ambient, 3), Precision(Z.element(10 ** 6), max_terms=12))
    assert [e.coords for e in result.full_evidence] == [(3 ** i,) for i in range(13)]
    assert counts["negate"] == 0 and counts["expand"] <= 12, counts  # 12 and 23 if each step merges


def test_immediacy_artin_schreier():
    L = SeriesField(Z, F3)
    K = laurent_presentation(L, Z.element(1), name="F3(t)")
    prec = Precision(Z.element(100), max_terms=6)
    result = immediacy_evidence(K, artin_schreier(L, 3), prec)
    assert result.kind is NearestKind.PRECISION_EXHAUSTED
    assert [int(e.coords[0]) for e in result.full_evidence] == [1, 3, 9, 27, 81]


def test_immediacy_not_immediate_cases(fps_ambient):
    L, K, prec = fps_ambient
    ty = L.from_terms([(1, L.coeff.generator())])
    result = immediacy_evidence(K, ty, prec)
    assert result.kind is NearestKind.VALUE
    assert result.value == Z.element(1)

    LQ = SeriesField(Q, F5)
    KQ = laurent_presentation(LQ, Q.element(1), name="F5(t)")
    precQ = Precision(Q.element(32), max_terms=8)
    result2 = immediacy_evidence(KQ, LQ.monomial("1/2"), precQ)
    assert result2.kind is NearestKind.VALUE
    assert result2.value == Q.element("1/2")


def test_immediacy_probe_in_k():
    L = SeriesField(Z, F3)
    K = laurent_presentation(L, Z.element(1), name="F3(t)")
    prec = Precision(Z.element(100), max_terms=6)
    with pytest.raises(ProbeInK):
        immediacy_evidence(K, L.from_terms([(0, 1), (1, 1)]), prec)


def test_full_field_presentation_short_circuits():
    L = SeriesField(Z, F3)
    K = completion_presentation(L, Z.element(1), name="F3((t))")
    assert K.full_field
    prec = Precision(Z.element(32), max_terms=8)
    r = orthogonalize([L.from_terms([(0, 1), (1, 2)]), L.from_terms([(2, 1), (5, 1)])], K, prec)
    assert r.ok and len(r.basis) == 1


def test_nearest_point_of_a_zero_over_a_full_field():
    # with no value to divide, the reduction takes no step: an exact zero is a member,
    # and a zero that no pull sees at once is zero up to the ceiling
    L = SeriesField(Z, F3)
    K = completion_presentation(L, Z.element(1), name="F3((t))")
    prec = Precision(Z.element(32), max_terms=8)
    basis = orthogonalize([L.from_terms([(0, 1), (1, 2)])], K, prec).basis
    exact = nearest_point(L.zero(), basis, prec)
    assert exact.kind is NearestKind.EXACT_MEMBER and exact.initial_value is None
    assert not exact.best.witnessed_terms() and not exact.steps
    lazy = nearest_point(subtract(artin_schreier(L, 3), artin_schreier(L, 3)), basis, prec)
    assert (lazy.kind, lazy.value) == (NearestKind.PRECISION_EXHAUSTED, Z.element(32))


def test_a_lead_pull_out_of_fuel_before_any_child_is_known():
    # fuel for 320 stream terms (max_terms 1) and 400 streams: the sum knows no bound at all
    L = SeriesField(Z, F3)
    streams = [custom_powers(L, lambda i, k=k: 400 * i + k) for k in range(400)]
    achieved = valuation(sum_series(L, streams), Precision(Z.element(10_000), max_terms=1))
    assert (achieved.value, achieved.up_to, achieved.exhausted) == (None, None, False)
    assert achieved.describe() == {"zero_up_to": None}
    assert not _strictly_above(achieved, Z.element(0))


@pytest.mark.parametrize("t_value", [0, -1])
def test_a_uniformizer_of_value_at_most_zero_is_refused(t_value):
    # the scenario parser refuses such a t_value too; a trivially valued K is trivial_presentation
    with pytest.raises(ValueError, match="must be positive"):
        laurent_presentation(SeriesField(Z, F5), Z.element(t_value))


def test_a_full_field_quotient_is_built_on_its_first_read(monkeypatch):
    """Over F3((t)) each generator after the first is an exact member, whose quotient
    b/b_1 adjoin never reads: none is built until a result's coefficients are read."""
    L = SeriesField(Z, F3)
    K = completion_presentation(L, Z.element(1), name="F3((t))")
    prec = Precision(Z.element(32), max_terms=8)
    inverted, plain = [], series._Invert.__init__

    def counted(self, x):
        inverted.append(x)
        plain(self, x)

    monkeypatch.setattr(series._Invert, "__init__", counted)
    g1, g2, g3 = L.from_terms([(0, 1), (1, 2)]), L.from_terms([(2, 1), (5, 1)]), L.from_terms([(-1, 2), (3, 1)])
    r = orthogonalize([g1, g2, g3], K, prec)
    assert r.ok and len(r.basis) == 1 and inverted == []
    result = nearest_point(g2, r.basis, prec)
    assert result.kind is NearestKind.EXACT_MEMBER and inverted == []
    coefficients = result.coefficients
    assert result.coefficients is coefficients and inverted == [r.basis.elements[0]]
    diff = subtract(multiply(coefficients[0], r.basis.elements[0]), g2)
    assert diff.ensure_below(prec.ceiling, prec.fuel()) and not diff.terms_below(prec.ceiling)


LEX2 = OrderedGroup.lex(2)


@pytest.mark.parametrize("group, t_value, full", [
    (Z, Z.element(1), True),
    (Z, Z.element(2), False),
    (Q, Q.element(1), False),  # no finitely generated subgroup spans Q
    (LEX2, LEX2.element(0, 1), False),  # one generator cannot span rank 2
], ids=["Z-t1", "Z-t2", "Q", "Z2lex"])
def test_completion_presentation_full_field_per_group_kind(group, t_value, full):
    assert completion_presentation(SeriesField(group, F3), t_value).full_field is full


def test_nearest_point_residue_class_solves_exactly(fps_ambient):
    # the value-zero class {1, y} has two residue directions; reductions must
    # rebuild exact members and stop only on genuine residue escapes
    import random

    L, K, prec = fps_ambient
    s = L.coeff.generator()
    basis_fam = make_family(K, [L.one(), L.from_terms([(0, s)])])
    is_valuation_independent(basis_fam, prec)
    basis = normalize(basis_fam, prec)
    rng = random.Random(99)
    F3s = L.coeff
    for _ in range(120):
        terms = []
        for e in sorted(rng.sample(range(-2, 5), rng.randint(1, 3))):
            kind = rng.random()
            if kind < 0.4:
                c = F3s.element(rng.randrange(1, 3))
            elif kind < 0.8:
                c = s * F3s.element(rng.randrange(1, 3)) + F3s.element(rng.randrange(3))
            else:
                c = s * s  # outside span{1, s}: must stop the chase
            terms.append((e, c))
        b = L.from_terms(terms)
        result = nearest_point(b, basis, prec)
        if result.kind is NearestKind.VALUE:
            val = valuation(subtract(b, result.best), prec)
            assert val.is_value and val.value == result.value
        else:
            assert result.kind is NearestKind.EXACT_MEMBER
            rebuilt = None
            for c, e in zip(result.coefficients, basis.elements):
                piece = multiply(c, e)
                rebuilt = piece if rebuilt is None else add(rebuilt, piece)
            val = valuation(subtract(b, rebuilt), prec)
            assert not val.is_value and val.exhausted


def test_reduction_against_infinite_division_stays_honest(fq5):
    # b_j = (x - ...)/c_j needs the inverse of a multi-term coefficient, an
    # infinite series: the chase cannot confirm membership and must return a
    # genuine strictly-increasing evidence chain instead of a wrong verdict
    L, K, prec = fq5
    x = add(add(L.one(), L.monomial(1)), L.monomial("1/2"))
    combined = make_family(K, [x, L.monomial("1/2")])
    is_valuation_independent(combined, prec)
    r = nearest_point(L.one(), normalize(combined, prec), prec)
    assert r.kind is NearestKind.UNBOUNDED
    for ev, approx in zip(r.evidence, r.approximants):
        val = valuation(subtract(L.one(), approx), prec)
        assert val.is_value and val.value == ev


# the classification record: reuse rule, equivalence with fresh families, work counts

from hypothesis import example, given, settings, strategies as st

from ultragram import spaces
from ultragram.reports import nearest_json
from ultragram.spaces import NotIndependent, adjoin, classify

LEX = OrderedGroup.lex(2)
F3S = ResidueField.rational_functions(3)
# (group, exponent coordinates of random terms, t value of the Laurent base,
# ceiling above every exponent)
GROUPS = {
    "Z": (Z, st.integers(-2, 6).map(lambda e: (e,)), (2,), (16,)),
    "Q": (Q, st.builds(Fraction, st.integers(-4, 12), st.integers(2, 3)).map(lambda e: (e,)), (1,), (8,)),
    "Z^2_lex": (LEX, st.tuples(st.integers(0, 1), st.integers(-2, 5)), (0, 1), (2, 0)),
}


@st.composite
def family_cases(draw):
    """A presentation, a precision, a family of 1 to 4 finite nonzero series and a target.

    Coefficients lie in F_3, or in F_3(s) over the residue field F_3, so that
    classes of several members can be Kv-independent."""
    group, coords, t_value, ceiling = GROUPS[draw(st.sampled_from(sorted(GROUPS)))]
    coeff = draw(st.sampled_from([F3, F3S]))
    L = SeriesField(group, coeff)
    if draw(st.booleans()):
        K = trivial_presentation(L)
    else:
        K = laurent_presentation(L, group.element(*t_value), residue_field=F3)
    s = F3S.generator()
    pool = [1, 2] if coeff is F3 else [F3S.one(), F3S.element(2), s, s + F3S.one(), s * s]

    def element():
        terms = draw(st.lists(
            st.tuples(coords, st.sampled_from(pool)), min_size=1, max_size=3, unique_by=lambda t: t[0],
        ))
        return L.from_terms([(group.element(*c), v) for c, v in terms])

    elements = [element() for _ in range(draw(st.integers(1, 4)))]
    return K, Precision(group.element(*ceiling), max_terms=6), elements, element()


def _copy(family):
    """The same elements in a new family object, without record or scalings."""
    return make_family(family.over, family.elements, family.relative_to)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _verdict_json(v, prec):
    if isinstance(v, tuple):
        return v
    out = [v.kind, [series_json(x, prec) for x in v.scalings or []]]
    if v.witness is not None:
        w = v.witness
        out += [[series_json(c, prec) for c in w.coefficients], w.min_value, w.achieved.describe()]
    return out


def _family_json(family, prec):
    """The elements and, for a family ``normalize`` built, its scalings."""
    if isinstance(family, tuple):
        return family
    return [series_json(x, prec) for x in list(family.elements) + list(family.scalings or [])]


def _nearest(target, basis, prec):
    result = _outcome(nearest_point, target, basis, prec)
    return result if isinstance(result, tuple) else nearest_json(result, prec)


def _orthogonalize_fresh(generators, K, prec):
    """``orthogonalize`` on a new copy of the basis, without a record, at every step."""
    basis = make_family(K, [])
    for index, g in enumerate(generators, start=1):
        reduction = nearest_point(g, _copy(basis), prec)
        if reduction.kind is NearestKind.EXACT_MEMBER:
            continue
        if reduction.kind is not NearestKind.VALUE:
            return index, nearest_json(reduction, prec)
        residual = subtract(g, reduction.best) if reduction.steps else g
        basis = normalize(make_family(K, list(basis.elements) + [residual]), prec)
    return _family_json(_copy(basis), prec)  # adjoin keeps no scalings


def _orthogonalize(generators, K, prec):
    r = orthogonalize(generators, K, prec)
    if not r.ok:
        return r.obstruction_index, nearest_json(r.obstruction, prec)
    # adjoin extends the record's N1 to N4 check; a fresh family's full check must agree
    cached = r.basis.classification.normalized
    assert cached is not None and cached == check_normalized(_copy(r.basis), prec)
    return _family_json(r.basis, prec)


LZ3 = SeriesField(Z, F3)
# 1 and 1 + t share value 0 and residue 1, so the family fails N2 (N1 holds);
# {1, t} is normalized over the trivial F3
N2_CASE = (trivial_presentation(LZ3), Precision(Z.element(16), max_terms=6),
           [LZ3.one(), LZ3.from_terms([(0, 1), (1, 1)])], LZ3.from_terms([(0, 1), (1, 1), (2, 1)]))
NORMALIZED_CASE = (*N2_CASE[:2], [LZ3.one(), LZ3.monomial(1)], N2_CASE[3])


@settings(max_examples=80, deadline=None)
@given(case=family_cases())
@example(case=N2_CASE)
@example(case=NORMALIZED_CASE)
def test_records_give_the_results_of_fresh_families(case):
    K, prec, elements, target = case
    carried = make_family(K, elements)
    verdict = _outcome(is_valuation_independent, carried, prec)
    fresh_verdict = _outcome(is_valuation_independent, make_family(K, elements), prec)
    assert _verdict_json(verdict, prec) == _verdict_json(fresh_verdict, prec)
    # N1 and N2 imply independence, so nearest_point asks only for the N1 to N4 check
    check = _outcome(check_normalized, make_family(K, elements), prec)
    if not isinstance(check, tuple) and check.ok:
        assert is_valuation_independent(make_family(K, elements), prec).kind is VerdictKind.INDEPENDENT
    elif not isinstance(check, tuple):
        failed = ("NotNormalized", f"basis violates {check.condition}")
        assert _nearest(target, make_family(K, elements), prec) == failed
    if not isinstance(verdict, tuple) and verdict.kind is VerdictKind.INDEPENDENT:
        normalized = _outcome(normalize, carried, prec)
        fresh = _outcome(normalize, make_family(K, elements), prec)
        assert _family_json(normalized, prec) == _family_json(fresh, prec)
        if not isinstance(normalized, tuple):
            # the record normalize hands on is the class pass a copy makes afresh
            handed, afresh = normalized.classification, classify(_copy(normalized), prec)
            assert handed.leads == afresh.leads and list(handed.classes.items()) == list(afresh.classes.items())
            assert handed.independent <= afresh.classes.keys()
            assert check_normalized(normalized, prec) == check_normalized(_copy(normalized), prec)
            # a basis never asked for a verdict chases as a copy that was asked
            never_asked, asked = _copy(normalized), _copy(normalized)
            is_valuation_independent(asked, prec)
            chase = _nearest(target, normalized, prec)
            assert chase == _nearest(target, never_asked, prec) == _nearest(target, asked, prec)
    assert _outcome(_orthogonalize, elements, K, prec) == _outcome(_orthogonalize_fresh, elements, K, prec)


def test_a_new_precision_replaces_the_record(fq5):
    L, K, prec = fq5
    other = Precision(Q.element(24), max_terms=6)
    family = make_family(K, [L.monomial("1/2", 2), L.monomial(0, 3)])
    basis = normalize(family, prec)
    record = basis.classification
    assert record.precision == family.classification.precision == prec
    # an equal Precision, not only the same object, reuses the record and its check
    check = check_normalized(basis, prec)
    assert classify(basis, Precision(Q.element(32), max_terms=8)) is record and record.normalized is check
    renormalized = normalize(family, other)
    assert family.classification.precision == renormalized.classification.precision == other
    nearest_point(L.monomial("1/4"), basis, other)
    assert basis.classification is not record and basis.classification.precision == other
    assert basis.classification.normalized.ok and record.normalized is check


def test_normalize_reads_independence_off_the_record(monkeypatch, ranks):
    L = SeriesField(Q, F3S)
    K = laurent_presentation(L, Q.element(1), residue_field=F3, name="F3(t)")
    prec = Precision(Q.element(16), max_terms=8)
    s = F3S.generator()
    family = make_family(K, [L.from_terms([("1/2", c)]) for c in (F3S.one(), s, s * s)])
    assert is_valuation_independent(family, prec).kind is VerdictKind.INDEPENDENT
    assert len(ranks) == 1
    calls = []
    plain = spaces.is_valuation_independent
    monkeypatch.setattr(spaces, "is_valuation_independent", lambda f, p: calls.append(f) or plain(f, p))
    out = normalize(family, prec)
    nearest_point(L.from_terms([("1/2", s + F3S.one())]), out, prec)
    # the record answers for the input, and what normalize built inherits its independent classes
    assert calls == [] and len(ranks) == 1
    # a plain family: N1 to N4 are conditions on the family alone
    assert out.relative_to is None and check_normalized(out, prec).ok
    assert plain(_copy(out), prec).kind is VerdictKind.INDEPENDENT
    # the record is handed on as a copy: growing what normalize built leaves the input's record as it was
    assert adjoin(out, L.from_terms([("1/2", s * s * s)]), prec) is None
    assert [len(c) for c in out.classification.classes.values()] == [4]
    assert [len(c) for c in family.classification.classes.values()] == [3] and len(family.classification.leads) == 3


def test_normalize_decides_a_relative_family_over_its_subspace(fq5):
    L, K, prec = fq5
    w = make_family(K, [L.one()])
    out = normalize(make_family(K, [L.monomial("1/2", 2), L.monomial("1/3", 4)], relative_to=w), prec)
    assert out.relative_to is None and check_normalized(out, prec).ok
    # independent as a plain family, but 1 + t lies in W up to a higher term
    with pytest.raises(NotIndependent, match="cannot normalize a dependent family"):
        normalize(make_family(K, [add(L.one(), L.monomial(1))], relative_to=w), prec)


@pytest.fixture
def ranks(monkeypatch):
    """The residue profiles handed to rank_over_subfield by spaces."""
    profiles = []
    plain = spaces.rank_over_subfield

    def counted(elements, sub, ambient):
        profiles.append(list(elements))
        return plain(elements, sub, ambient)

    monkeypatch.setattr(spaces, "rank_over_subfield", counted)
    return profiles


def test_orthogonalizing_the_telescoping_family_ranks_nothing(ranks):
    L = SeriesField(Z, ResidueField.rationals())
    K = trivial_presentation(L, name="Q")
    prec = Precision(Z.element(40), max_terms=8)
    r = orthogonalize([L.from_terms([(i, 1), (i + 1, -1)]) for i in range(1, 33)], K, prec)
    assert r.ok and len(r.basis) == 32
    assert ranks == []  # every class has one member


@pytest.mark.parametrize("joins", ["value-zero class, unit scaling", "value-1/2 class, rescaled"])
def test_adjoin_ranks_only_the_class_the_residual_joins(ranks, joins):
    L = SeriesField(Q, F3S)
    K = laurent_presentation(L, Q.element(1), residue_field=F3, name="F3(t)")
    prec = Precision(Q.element(16), max_terms=8)
    s = F3S.generator()
    # classes: value 0 {1, s, s^2}, value 1/2 {t^1/2, s t^1/2}, value 1/3 {t^1/3}
    elements = [L.from_terms([(e, c)]) for e, c in [
        (0, F3S.one()), (0, s), (0, s * s), ("1/2", F3S.one()), ("1/2", s), ("1/3", F3S.one()),
    ]]
    family = make_family(K, elements)
    is_valuation_independent(family, prec)
    basis = normalize(family, prec)
    ranks.clear()
    if joins.startswith("value-zero"):
        g, profile = L.from_terms([(0, s * s * s), (1, F3S.one())]), [F3S.one(), s, s * s, s * s * s]
    else:
        # t^3/2 s^2 is scaled by t^-1 into the class, and the class is ranked once, on the
        # scaled leads: a scaling keeps its Kv-rank
        g, profile = L.from_terms([("3/2", s * s)]), [F3S.one(), s, s * s]
    assert adjoin(basis, g, prec) is None
    assert len(basis) == 7 and check_normalized(basis, prec).ok
    assert ranks == [profile]


def test_adjoin_grows_the_basis_in_place():
    L = SeriesField(Q, F3S)
    K = laurent_presentation(L, Q.element(1), residue_field=F3, name="F3(t)")
    prec = Precision(Q.element(16), max_terms=8)
    basis = normalize(make_family(K, [L.one(), L.monomial("1/2")]), prec)
    elements, record = basis.elements, classify(basis, prec)
    leads, classes = record.leads, record.classes
    assert adjoin(basis, L.from_terms([("3/2", F3S.generator()), (2, F3S.one())]), prec) is None
    assert basis.elements is elements and basis.classification is record
    assert record.leads is leads and record.classes is classes and record.precision == prec
    assert len(basis) == 3 and check_normalized(basis, prec).ok


def test_adjoin_raises_on_an_incomplete_reduction(monkeypatch):
    # a reduction that claims its value but kept no step leaves 1 + t^(1/2) itself, whose lead repeats 1's residue
    L = SeriesField(Q, F3S)
    K = laurent_presentation(L, Q.element(1), residue_field=F3, name="F3(t)")
    prec = Precision(Q.element(16), max_terms=8)
    basis = normalize(make_family(K, [L.one()]), prec)
    plain = spaces.nearest_point
    monkeypatch.setattr(spaces, "nearest_point", lambda g, basis, prec: replace(plain(g, basis, prec), steps=[]))
    with pytest.raises(NotIndependent, match="residual failed the independence check"):
        adjoin(basis, L.from_terms([(0, 1), ("1/2", 1)]), prec)
    assert len(basis) == 2 and classify(basis, prec).normalized.condition == "N2"
