from fractions import Fraction

import pytest

from hypothesis import given, settings, strategies as st

from ultragram import extensions, groups, series
from ultragram.groups import OrderedGroup
from ultragram.reports import nearest_json, series_json
from ultragram.residues import ResidueField
from ultragram.series import Precision, SeriesField, artin_schreier, invert, leading_term, multiply, subtract
from ultragram.presentations import completion_presentation, laurent_presentation, trivial_presentation
from ultragram.extensions import (
    ClosureResult,
    NotFieldClosed,
    analyze_extension,
    complete_and_approximate,
    ramification_and_residue,
    span_closure_basis,
    standard_basis,
)
from ultragram.spaces import (
    NotIndependent,
    NotNormalized,
    VerdictKind,
    adjoin,
    check_normalized,
    is_valuation_independent,
    make_family,
    normalize,
    orthogonalize,
)

Z = OrderedGroup.integers()
Q = OrderedGroup.rationals()
F3 = ResidueField.prime(3)
F5 = ResidueField.prime(5)


@pytest.fixture
def sqrt_setting():
    L = SeriesField(Q, F5)
    K = laurent_presentation(L, Q.element(1), name="F5(t)")
    return L, K, Precision(Q.element(32), max_terms=8)


@pytest.fixture
def mixed_setting():
    F5s = ResidueField.rational_functions(5)
    L = SeriesField(Q, F5s)
    K = laurent_presentation(L, Q.element(1), residue_field=F5, name="F5(t)")
    return L, K, Precision(Q.element(32), max_terms=8)


def test_span_closure_sqrt_t(sqrt_setting):
    L, K, prec = sqrt_setting
    result = span_closure_basis([L.monomial("1/2")], K, prec)
    assert result.ok and len(result.basis) == 2


def test_span_closure_element_of_k(sqrt_setting):
    L, K, prec = sqrt_setting
    result = span_closure_basis([L.from_terms([(0, 1), (1, 1)])], K, prec)
    assert result.ok and len(result.basis) == 1


def test_span_closure_obstruction():
    L = SeriesField(Z, F3)
    K = laurent_presentation(L, Z.element(1), name="F3(t)")
    prec = Precision(Z.element(100), max_terms=6, degree_cap=5)
    result = span_closure_basis([artin_schreier(L, 3)], K, prec)
    assert not result.ok and result.obstruction is not None


def test_span_closure_cap(mixed_setting):
    L, K, prec = mixed_setting
    y = L.from_terms([(0, L.coeff.generator())])
    for degree_cap in (3, 5):
        result = span_closure_basis([y], K, Precision(Q.element(32), 8, degree_cap=degree_cap))
        # the closure stops at the first adjoin past the cap
        assert result.partial_dimension == degree_cap + 1
        assert not result.ok and result.basis is None


def test_ramification_examples(sqrt_setting):
    L, K, prec = sqrt_setting
    fam = make_family(K, [L.one(), L.monomial("1/2")])
    is_valuation_independent(fam, prec)
    data = ramification_and_residue(normalize(fam, prec), prec)
    assert (data.e, data.f) == (2, 1)
    assert len(data.x_part) == 2 and len(data.y_part) == 1


def test_ramification_residue_direction(mixed_setting):
    L, K, prec = mixed_setting
    y = L.from_terms([(0, L.coeff.generator())])
    fam = make_family(K, [L.one(), y])
    is_valuation_independent(fam, prec)
    data = ramification_and_residue(normalize(fam, prec), prec)
    assert (data.e, data.f) == (1, 2)
    fam1 = make_family(K, [L.one()])
    is_valuation_independent(fam1, prec)
    data1 = ramification_and_residue(normalize(fam1, prec), prec)
    assert (data1.e, data1.f) == (1, 1)


def test_standard_basis_2x2(mixed_setting):
    L, K, prec = mixed_setting
    s = L.coeff.generator()
    fam = make_family(
        K,
        [L.one(), L.monomial("1/2"), L.from_terms([(0, s)]), L.from_terms([("1/2", s)])],
    )
    is_valuation_independent(fam, prec)
    basis = normalize(fam, prec)
    sb = standard_basis(basis, prec, ramification_and_residue(basis, prec))
    assert len(sb.products) == 4
    verdict = is_valuation_independent(make_family(K, sb.products), prec)
    assert verdict.kind is VerdictKind.INDEPENDENT


def test_standard_basis_rejects_open_span(mixed_setting):
    L, K, prec = mixed_setting
    y = L.from_terms([(0, L.coeff.generator())])
    fam = make_family(K, [L.one(), y, L.monomial("1/2")])
    is_valuation_independent(fam, prec)
    basis = normalize(fam, prec)
    with pytest.raises(NotFieldClosed):
        standard_basis(basis, prec, ramification_and_residue(basis, prec))


def test_analyze_extension_sqrt(sqrt_setting):
    L, K, prec = sqrt_setting
    report = analyze_extension([L.monomial("1/2")], K, prec)
    assert report.verdict == "vs_defectless"
    assert (report.n, report.e, report.f) == (2, 2, 1)
    assert report.defect_index == Fraction(1)
    assert report.standard is not None


def test_analyze_extension_direct_2x2(mixed_setting):
    L, K, prec = mixed_setting
    s = L.coeff.generator()
    gens = [L.one(), L.monomial("1/2"), L.from_terms([(0, s)]), L.from_terms([("1/2", s)])]
    report = analyze_extension(gens, K, prec, span_mode="direct")
    assert report.verdict == "vs_defectless"
    assert (report.n, report.e, report.f) == (4, 2, 2)
    assert report.n >= report.e * report.f


def test_analyze_extension_obstructed():
    L = SeriesField(Z, F3)
    K = laurent_presentation(L, Z.element(1), name="F3(t)")
    prec = Precision(Z.element(100), max_terms=6, degree_cap=5)
    report = analyze_extension([artin_schreier(L, 3)], K, prec)
    assert report.verdict == "obstructed"
    evidence = [int(e.coords[0]) for e in report.obstruction.full_evidence]
    assert evidence[:4] == [1, 3, 9, 27]


def test_analyze_extension_inconclusive_cap(mixed_setting):
    L, K, prec = mixed_setting
    y = L.from_terms([(0, L.coeff.generator())])
    report = analyze_extension([y], K, Precision(Q.element(32), 8, degree_cap=5))
    assert report.verdict == "inconclusive"


def _worked_instance():
    """u = {1, y} over F3(t), y of value 0 and residue s, and the completion-side rows [[1, 0], [1/(1-t), 1]]."""
    F3s = ResidueField.rational_functions(3)
    L = SeriesField(Z, F3s)
    K = laurent_presentation(L, Z.element(1), residue_field=F3, name="F3(t)")
    Khat = completion_presentation(L, Z.element(1), residue_field=F3, name="F3((t))")
    prec = Precision(Z.element(32), max_terms=8)
    u = make_family(K, [L.one(), L.from_terms([(0, F3s.generator())])])
    c = invert(subtract(L.one(), L.monomial(1)), prec)  # 1/(1-t) in Khat
    return L, u, [[L.one(), L.zero()], [c, L.one()]], Khat, prec


def test_complete_and_approximate_worked_instance():
    L, u, rows, Khat, prec = _worked_instance()
    result = complete_and_approximate(u, rows, Khat, prec)
    assert is_valuation_independent(result.family, prec).kind is VerdictKind.INDEPENDENT
    # first row had K-coefficients already: unchanged
    lead = leading_term(result.family.elements[0], prec)
    assert lead.exponent == Z.element(0)
    # value multiset preserved
    assert sorted(v.coords for v in result.output_values) == sorted(
        v.coords for v in result.completion_values
    )
    # the truncation inequality holds exactly for every pair
    for pair in result.pairs:
        dv = pair.difference_value
        if dv.is_value:
            assert pair.required_above < dv.value
        else:
            assert dv.exhausted or pair.required_above < dv.up_to
    # truncated coefficients are finite K-elements
    for row in result.coefficients:
        for coeff in row:
            assert coeff.exhausted


def test_complete_and_approximate_perturbation_consistency():
    L, u, rows, Khat, prec = _worked_instance()
    result = complete_and_approximate(u, rows, Khat, prec)
    # v(b' - b*) > v(b') for each row: the perturbation-stability hypothesis
    from ultragram.series import sum_series, valuation

    for i, out in enumerate(result.family.elements):
        hat = sum_series(L, [multiply(cc, x) for cc, x in zip(rows[i], u.elements)])
        diff = subtract(hat, out)
        val = valuation(diff, prec)
        target = result.completion_values[i]
        assert (val.is_value and target < val.value) or not val.is_value


def test_complete_and_approximate_requires_cofinality():
    from ultragram.extensions import NotCofinal

    lex = OrderedGroup.lex(2)
    L = SeriesField(lex, F3)
    # vK along the least significant axis only
    K = laurent_presentation(L, lex.element(0, 1), name="F3(t)")
    Khat = completion_presentation(L, lex.element(0, 1), name="F3((t))")
    prec = Precision(lex.element(2, 0), max_terms=6)
    tall = L.monomial(lex.element(1, 0))
    u = make_family(K, [tall])
    is_valuation_independent(u, prec)
    with pytest.raises(NotCofinal):
        complete_and_approximate(u, [[L.one()]], Khat, prec)


def test_complete_and_approximate_needs_one_ambient():
    from ultragram.extensions import NotCofinal

    L = SeriesField(Z, F3)
    K = laurent_presentation(L, Z.element(1), name="F3(t)")
    Khat = completion_presentation(SeriesField(Z, F5), Z.element(1), name="F5((t))")
    with pytest.raises(NotCofinal, match="presentations live in different ambient fields"):
        complete_and_approximate(make_family(K, [L.one()]), [[L.one()]], Khat, Precision(Z.element(8)))


def test_complete_and_approximate_needs_witnessed_family_values():
    L, u, _, Khat, prec = _worked_instance()
    with pytest.raises(NotIndependent, match="family elements need witnessed valuations"):
        complete_and_approximate(make_family(u.over, [L.zero()]), [[L.one()]], Khat, prec)


def test_complete_and_approximate_names_a_coefficient_it_cannot_enumerate():
    # t^(i/1000): a thousand terms below the cutoff 1, against 256 + 64 fuel units
    L = SeriesField(Q, F5)
    K = laurent_presentation(L, Q.element(1), name="F5(t)")
    Khat = completion_presentation(L, Q.element(1), name="F5((t))")
    dense = series.custom_powers(L, lambda i: Fraction(i, 1000))
    with pytest.raises(series.PrecisionExhausted, match=r"could not enumerate coefficient \(0,0\) below g\(1\)"):
        complete_and_approximate(make_family(K, [L.one()]), [[dense]], Khat, Precision(Q.element(8), max_terms=1))


def test_complete_and_approximate_checks_each_truncation(monkeypatch):
    L, u, rows, Khat, prec = _worked_instance()
    monkeypatch.setattr(rows[1][0], "terms_below", lambda bound: [])  # a truncation that keeps no term
    with pytest.raises(series.PrecisionExhausted, match=r"truncation at \(1,0\) misses the strict inequality"):
        complete_and_approximate(u, rows, Khat, prec)


def test_complete_and_approximate_checks_the_truncated_family(monkeypatch):
    L, u, rows, Khat, prec = _worked_instance()
    monkeypatch.setattr(extensions, "_independent", lambda family, prec: False)
    with pytest.raises(NotIndependent, match="truncated family lost independence"):
        complete_and_approximate(u, rows, Khat, prec)
    monkeypatch.undo()
    plain, t, calls = extensions._combination, L.monomial(1), []

    def combination(K, row, elements):  # the output rows, combined after the completion side's, come out times t
        calls.append(row)
        x = plain(K, row, elements)
        return multiply(t, x) if len(calls) > len(rows) else x

    monkeypatch.setattr(extensions, "_combination", combination)
    with pytest.raises(ArithmeticError, match="value multiset changed under truncation"):
        complete_and_approximate(u, rows, Khat, prec)


def test_direct_span_coset_count_vs_group_index(sqrt_setting):
    # {1, t^(1/3)} spans two value cosets although they generate an index-3
    # group; the witnessed coset count is what the report carries
    L, K, prec = sqrt_setting
    report = analyze_extension([L.one(), L.monomial("1/3")], K, prec, span_mode="direct")
    assert (report.n, report.e, report.f) == (2, 2, 1)
    closed = analyze_extension([L.monomial("1/3")], K, prec, span_mode="closure")
    assert (closed.n, closed.e, closed.f) == (3, 3, 1)
    assert closed.verdict == "vs_defectless"


def test_closure_ladder_adjoins_each_product_once(monkeypatch):
    """t^(1/n) over F5(t): n - 1 adjoins in the closure loop (1*g is not reduced again), and its coset
    work about doubles with n."""
    adjoins, reductions = [0], [0]
    plain_adjoin, plain_reduce = extensions.adjoin, groups.Subgroup._reduce

    def counted_adjoin(*args):
        adjoins[0] += 1
        return plain_adjoin(*args)

    def counted_reduce(*args):
        reductions[0] += 1
        return plain_reduce(*args)

    monkeypatch.setattr(extensions, "adjoin", counted_adjoin)
    monkeypatch.setattr(groups.Subgroup, "_reduce", counted_reduce)
    L = SeriesField(Q, F5)
    K = laurent_presentation(L, Q.element(1), name="F5(t)")
    work = []
    for n in (16, 32, 64, 128):
        adjoins[0] = reductions[0] = 0
        result = span_closure_basis([L.monomial(Fraction(1, n))], K, Precision(Q.element(32), degree_cap=n))
        assert result.ok and len(result.basis) == n and adjoins[0] == n - 1
        work.append(reductions[0])
    assert all(b <= 2.3 * a for a, b in zip(work, work[1:])), work


def test_closure_ladder_builds_series_nodes_linearly(monkeypatch):
    """t^(1/n) over F5(t), n = 128 to 2048: a reduction step touches one class, and the members
    it leaves untouched share one zero leaf, so the series nodes about double with n."""
    nodes = [0]
    plain_init = series.Series.__init__

    def counted_init(self, *args):
        nodes[0] += 1
        plain_init(self, *args)

    monkeypatch.setattr(series.Series, "__init__", counted_init)
    L = SeriesField(Q, F5)
    K = laurent_presentation(L, Q.element(1), name="F5(t)")
    work = []
    for n in (128, 256, 512, 1024, 2048):
        nodes[0] = 0
        result = span_closure_basis([L.monomial(Fraction(1, n))], K, Precision(Q.element(32), degree_cap=n))
        assert result.ok and len(result.basis) == n
        work.append(nodes[0])
    assert all(b <= 2.3 * a for a, b in zip(work, work[1:])), work


def test_closure_cross_check_keys_each_class_once_per_span_row(monkeypatch):
    """t^(1/128) over F5(t): the coset-closure check of e against the Hermite index
    translates the e classes by the one Hermite row of the value span, not by each other."""
    L = SeriesField(Q, F5)
    K = laurent_presentation(L, Q.element(1), name="F5(t)")
    prec = Precision(Q.element(32), degree_cap=128)
    result = span_closure_basis([L.monomial(Fraction(1, 128))], K, prec)
    keys = [0]
    plain_key = groups.Subgroup.coset_key

    def counted_key(*args):
        keys[0] += 1
        return plain_key(*args)

    monkeypatch.setattr(groups.Subgroup, "coset_key", counted_key)
    data = ramification_and_residue(result.basis, prec)
    assert (data.e, data.f) == (128, 1) and keys[0] <= 2 * data.e


def test_closure_cross_check_still_catches_a_wrong_index(monkeypatch):
    L = SeriesField(Q, F5)
    K = laurent_presentation(L, Q.element(1), name="F5(t)")
    prec = Precision(Q.element(32), degree_cap=4)
    result = span_closure_basis([L.monomial(Fraction(1, 4))], K, prec)
    for index, message in ((8, "disagrees with the exact subgroup index 8"), (1, "exceeds the exact subgroup index 1")):
        monkeypatch.setattr(extensions, "subgroup_index", lambda sub, group: index)
        with pytest.raises(ArithmeticError, match=f"coset count 4 {message}"):
            ramification_and_residue(result.basis, prec)


def test_empty_direct_span_has_no_cosets_and_is_inconclusive(sqrt_setting):
    # no class at all: the coset cross-check's closure premise holds only vacuously
    L, K, prec = sqrt_setting
    report = analyze_extension([], K, prec, span_mode="direct")
    assert (report.n, report.e, report.f, report.defect_index) == (0, 0, 0, None)
    assert report.verdict == "inconclusive" and report.standard is None
    assert report.note == "the span is zero: it has no basis element, and {0} lacks 1"


def test_extension_input_guards(sqrt_setting, mixed_setting):
    L, K, prec = sqrt_setting
    with pytest.raises(ValueError, match="unknown span mode 'sideways'"):
        analyze_extension([L.monomial("1/2")], K, prec, span_mode="sideways")
    LZ = SeriesField(Z, F5)
    KZ = laurent_presentation(LZ, Z.element(1), name="F5(t)")
    with pytest.raises(NotNormalized, match=r"normalized basis \(N3\)"):  # t has a value in vK other than 0
        ramification_and_residue(make_family(KZ, [LZ.monomial(1)]), Precision(Z.element(32)))
    # t^(1/2) alone is a normalized basis with no value-zero class
    root = make_family(K, [L.monomial("1/2")])
    assert check_normalized(root, prec).ok
    with pytest.raises(NotFieldClosed, match="no value-zero class"):
        standard_basis(root, prec, ramification_and_residue(root, prec))
    # 1, t^(1/2) and s*t^(1/2): every x*y lies in the span, but e*f = 2 products for dimension 3
    L, K, prec = mixed_setting
    s = L.coeff.generator()
    basis = normalize(make_family(K, [L.one(), L.monomial("1/2"), L.from_terms([("1/2", s)])]), prec)
    with pytest.raises(NotFieldClosed, match="product count 2 differs from the dimension 3"):
        standard_basis(basis, prec, ramification_and_residue(basis, prec))


def test_standard_basis_checks_its_products_are_independent(mixed_setting, monkeypatch):
    L, K, prec = mixed_setting
    basis = normalize(make_family(K, [L.one(), L.monomial("1/2")]), prec)
    data = ramification_and_residue(basis, prec)
    assert len(standard_basis(basis, prec, data).products) == 2
    monkeypatch.setattr(extensions, "_independent", lambda family, prec: False)
    with pytest.raises(NotFieldClosed, match="products failed the independence certificate"):
        standard_basis(basis, prec, data)


def _closure_readjoining(generators, K, prec):
    """The closure loop that multiplies every basis element by every generator on each pass."""
    seed = orthogonalize([K.ambient.one()] + list(generators), K, prec)
    if not seed.ok:
        return ClosureResult(obstruction_index=seed.obstruction_index, obstruction=seed.obstruction)
    basis = seed.basis
    while len(basis) <= prec.degree_cap:
        size = len(basis)
        for g in generators:
            for b in list(basis.elements):
                obstruction = adjoin(basis, multiply(b, g), prec)
                if obstruction is not None:
                    return ClosureResult(obstruction_index=len(basis) + 1, obstruction=obstruction)
                if len(basis) > prec.degree_cap:
                    return ClosureResult(partial_dimension=len(basis))
        if len(basis) == size:
            return ClosureResult(basis=basis)
    return ClosureResult(partial_dimension=len(basis))


def _closure_json(result, prec):
    out = [result.partial_dimension, result.obstruction_index]
    if result.obstruction is not None:
        out.append(nearest_json(result.obstruction, prec))
    if result.basis is not None:
        basis = result.basis
        out += [series_json(x, prec) for x in basis.elements]
        # the check adjoin carried over and extended is the one a fresh family gets
        cached = basis.classification.normalized
        assert cached is not None and cached == check_normalized(make_family(basis.over, basis.elements), prec)
    return out


F3S = ResidueField.rational_functions(3)


@settings(max_examples=60, deadline=None)
@given(
    laurent=st.sampled_from([True, True, True, False]),
    monomials=st.lists(st.tuples(
        st.builds(Fraction, st.integers(-4, 8), st.integers(1, 4)),
        st.sampled_from(["1", "2", "1", "2", "s", "s+1", "s^2"]),
    ), min_size=1, max_size=2),
    cap=st.integers(1, 12),
)
def test_closure_matches_the_loop_that_readjoins_every_product(laurent, monomials, cap):
    # products of monomials reduce in one step, so a product adjoined again is an exact member
    L = SeriesField(Q, F3S)
    K = laurent_presentation(L, Q.element(1), residue_field=F3, name="F3(t)") if laurent else trivial_presentation(L)
    prec = Precision(Q.element(16), max_terms=6, degree_cap=cap)
    s = F3S.generator()
    coefficient = {"1": F3S.one(), "2": F3S.element(2), "s": s, "s+1": s + F3S.one(), "s^2": s * s}

    def generators():
        return [L.monomial(e, coefficient[c]) for e, c in monomials]

    assert _closure_json(span_closure_basis(generators(), K, prec), prec) == _closure_json(
        _closure_readjoining(generators(), K, prec), prec)
