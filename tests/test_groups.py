import pickle
import random
import time
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from ultragram.groups import (
    GroupElement,
    GroupKind,
    MismatchedGroups,
    NotASubgroup,
    OrderedGroup,
    Subgroup,
    is_cofinal,
    parse_rational,
    subgroup_index,
)
from ultragram.residues import FieldElement, ResidueField
from ultragram.scenarios import _parse_exponent
from ultragram.series import Term, Valuation

Z = OrderedGroup.integers()
Q = OrderedGroup.rationals()
L2 = OrderedGroup.lex(2)


def test_compare_examples():
    assert L2.element(1, 2) == L2.element(1, 2)
    assert L2.element(0, 100) < L2.element(1, -5)
    assert Q.element("1/3") < Q.element("1/2")
    # > and >= reflect to < and <= on the other operand
    assert Z.element(2) > Z.element(1) and not Z.element(1) > Z.element(1)
    assert Z.element(1) >= Z.element(1) and not Z.element(0) >= Z.element(1)
    assert L2.element(1, -5) > L2.element(0, 100) and L2.element(1, 2) >= L2.element(1, 2)


def test_add_examples():
    assert Q.element("1/2") + Q.element("1/2") == Q.element(1)
    g = L2.element(1, 0)
    assert (g + (-g)).is_zero()
    assert L2.element(1, 0) + L2.element(0, 3) == L2.element(1, 3)


def test_mismatched_groups():
    with pytest.raises(MismatchedGroups):
        Z.element(1) + Q.element(1)
    with pytest.raises(MismatchedGroups):
        Z.element(0) < L2.element(0, 0)
    with pytest.raises(MismatchedGroups):
        Z.element(0) > Q.element(0)
    with pytest.raises(MismatchedGroups):
        Z.element(0) >= Q.element(0)


def test_constructors_reject_malformed_groups_and_generators():
    with pytest.raises(ValueError, match="rank must be positive"):
        OrderedGroup.lex(0)
    with pytest.raises(ValueError, match="Q has rank 1"):
        OrderedGroup(GroupKind.RATIONAL_LINE, 2)
    with pytest.raises(ValueError, match="expected 2 coordinates, got 3"):
        L2.element(1, 2, 3)
    with pytest.raises(MismatchedGroups, match="generator outside ambient group"):
        Subgroup(Q, (Z.element(1),))
    with pytest.raises(ValueError, match="duplicate generator"):
        Subgroup(Q, (Q.element(1), Q.element("2/2")))


def test_integer_line_rejects_fractions():
    with pytest.raises(ValueError):
        Z.element("1/2")
    with pytest.raises(ValueError):
        L2.element("1/2", 0)


@pytest.mark.parametrize("group", [Z, Q, L2], ids=["Z", "Q", "Z^2_lex"])
def test_elements_reject_floats(group):
    # Fraction(0.1) is the binary expansion 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(TypeError):
        group.element(*[0.1] + [0] * (group.rank - 1))
    with pytest.raises(TypeError):
        group.element(*[0] * (group.rank - 1) + [2.0])


def test_coset_equal_examples():
    key = Subgroup.spanned_by(Q, [Q.element(1)]).coset_key
    assert key(Q.element(5)) == key(Q.element(5))
    assert key(Q.element("1/2")) == key(Q.element("3/2"))
    assert key(Q.element("1/2")) != key(Q.element("1/3"))
    # certifies {1, t^(1/2)} standard-independent: 1/2 is not congruent to 0
    assert key(Q.element("1/2")) != key(Q.element(0))


# oracle: brute-force small integer combinations of the generators
def _coset_oracle(g, h, gens, span=12):
    diff = g - h
    if not gens:
        return diff.is_zero()
    combos = [[]]
    for _ in gens:
        combos = [c + [k] for c in combos for k in range(-span, span + 1)]
    for combo in combos:
        acc = g.group.zero()
        for k, gen in zip(combo, gens):
            acc = acc + gen.scale(k)
        if acc == diff:
            return True
    return False


@pytest.mark.parametrize(
    "gens,g,h",
    [
        ([Fraction(1)], Fraction(1, 2), Fraction(3, 2)),
        ([Fraction(1)], Fraction(1, 2), Fraction(1, 3)),
        ([Fraction(2, 3)], Fraction(1, 3), Fraction(1)),
        ([Fraction(1, 2), Fraction(1, 3)], Fraction(1, 6), Fraction(0)),
        ([Fraction(5, 7)], Fraction(3, 7), Fraction(1, 7)),
    ],
)
def test_coset_equal_against_oracle(gens, g, h):
    H = Subgroup.spanned_by(Q, [Q.element(x) for x in gens])
    ge, he = Q.element(g), Q.element(h)
    assert (H.coset_key(ge) == H.coset_key(he)) == _coset_oracle(ge, he, H.generators)


def test_subgroup_index_examples():
    assert subgroup_index(
        Subgroup.spanned_by(Z, [Z.element(2)]), Subgroup.spanned_by(Z, [Z.element(1)])
    ) == 2
    G = Subgroup.spanned_by(Z, [Z.element(1)])
    assert subgroup_index(G, G) == 1
    assert subgroup_index(
        Subgroup.spanned_by(L2, [L2.element(0, 1)]),
        Subgroup.spanned_by(L2, [L2.element(1, 0), L2.element(0, 1)]),
    ) is None


def test_subgroup_index_counts_cosets():
    # oracle: enumerate residues of sample points modulo H
    H = Subgroup.spanned_by(Q, [Q.element(3)])
    G = Subgroup.spanned_by(Q, [Q.element(1)])
    n = subgroup_index(H, G)
    assert n == 3
    reps = []
    for k in range(-6, 7):
        g = Q.element(k)
        if not any(H.coset_key(g) == H.coset_key(r) for r in reps):
            reps.append(g)
    assert len(reps) == n


def test_subgroup_index_requires_containment():
    H = Subgroup.spanned_by(Z, [Z.element(2)])
    G = Subgroup.spanned_by(Z, [Z.element(4)])
    with pytest.raises(NotASubgroup):
        subgroup_index(H, G)


def test_is_cofinal_examples():
    assert is_cofinal(
        Subgroup.spanned_by(Q, [Q.element(1)]), Subgroup.spanned_by(Q, [Q.element("1/2")])
    )
    small = Subgroup.spanned_by(L2, [L2.element(0, 1)])
    big = Subgroup.spanned_by(L2, [L2.element(1, 0), L2.element(0, 1)])
    assert not is_cofinal(small, big)
    assert is_cofinal(Subgroup.spanned_by(L2, [L2.element(2, 5)]), big)
    assert is_cofinal(small, small)
    trivial = Subgroup.trivial(Q)
    assert is_cofinal(trivial, trivial)
    assert not is_cofinal(trivial, Subgroup.spanned_by(Q, [Q.element(1)]))


# st.fractions(max_denominator=20) without its flatmap, which builds and validates a strategy in
# every draw (a third of the draw time of coordinate_cases, whose draws once failed the too_slow
# health check): the same choices, a denominator and then a numerator, make the same fractions
rationals = st.tuples(st.integers(1, 20), st.integers()).map(lambda dn: Fraction(dn[1], dn[0]))


@given(rationals, rationals, rationals)
def test_order_translation_invariant(a, b, c):
    ga, gb, gc = Q.element(a), Q.element(b), Q.element(c)
    assert (ga < gb) == (ga + gc < gb + gc)
    assert (ga == gb) == (ga + gc == gb + gc)


@given(rationals, rationals)
def test_add_commutative(a, b):
    assert Q.element(a) + Q.element(b) == Q.element(b) + Q.element(a)


@given(rationals, rationals, rationals)
def test_add_associative(a, b, c):
    ga, gb, gc = Q.element(a), Q.element(b), Q.element(c)
    assert (ga + gb) + gc == ga + (gb + gc)


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30))
def test_lex_order_total(a, b, c):
    x = L2.element(a, b)
    y = L2.element(b, c)
    # exactly one of x < y, x == y, y < x
    assert [x < y, x == y, y < x].count(True) == 1


@given(rationals, rationals, rationals)
def test_coset_equal_is_congruence(a, b, k):
    key = Subgroup.spanned_by(Q, [Q.element(1), Q.element("1/2")]).coset_key
    ga, gb, gk = Q.element(a), Q.element(b), Q.element(k)
    if key(ga) == key(gb):
        assert key(ga + gk) == key(gb + gk)
    assert key(ga) == key(Q.element(a))


def test_lattice_index_fuzz():
    rng = random.Random(41)
    G = Subgroup.spanned_by(L2, [L2.element(1, 0), L2.element(0, 1)])
    for _ in range(100):
        a, b = rng.randint(1, 6), rng.randint(1, 6)
        shear = rng.randint(-5, 5)
        H = Subgroup.spanned_by(L2, [L2.element(a, shear), L2.element(0, b)])
        assert subgroup_index(H, G) == a * b


# coset keys: the oracle above must find a witness whenever g - h lies in H,
# so g is built as h + (a combination of the generators with coefficients in
# [-2, 2]) + offset; over these pools every offset that lies in H has a
# witness with coefficients in [-5, 5], so g - h stays within the span of 12
Q_GENERATORS = [Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(3, 2), Fraction(1, 3), Fraction(2)]
Q_OFFSETS = sorted({Fraction(k, d) for d in (1, 2, 3, 4, 6) for k in range(-d, d + 1)})
small_vectors = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def congruence_cases(draw, group):
    if group is Q:
        gens = draw(st.lists(st.sampled_from(Q_GENERATORS), min_size=1, max_size=2, unique=True))
        h = draw(st.fractions(-4, 4, max_denominator=6))
        offset = draw(st.sampled_from(Q_OFFSETS))
        gens, h, offset = [Q.element(x) for x in gens], Q.element(h), Q.element(offset)
    else:
        gens = draw(st.lists(small_vectors, min_size=1, max_size=2, unique=True))
        h = draw(small_vectors)
        offset = draw(st.tuples(st.integers(-1, 1), st.integers(-1, 1)))
        gens, h, offset = [L2.element(x) for x in gens], L2.element(h), L2.element(offset)
    g = h + offset
    for gen in gens:
        g = g + gen.scale(draw(st.integers(-2, 2)))
    return Subgroup.spanned_by(group, gens), g, h


@settings(max_examples=150, deadline=None)
@given(st.one_of(congruence_cases(Q), congruence_cases(L2)))
def test_coset_key_matches_oracle(case):
    H, g, h = case
    assert (H.coset_key(g) == H.coset_key(h)) == _coset_oracle(g, h, H.generators)


@st.composite
def translation_cases(draw):
    group = draw(st.sampled_from([Q, L2]))
    if group is Q:
        gens = draw(st.lists(rationals.filter(bool), min_size=1, max_size=3, unique=True))
        g = group.element(draw(rationals))
    else:
        gens = draw(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=3, unique=True))
        g = group.element(draw(st.tuples(st.integers(-50, 50), st.integers(-50, 50))))
    H = Subgroup.spanned_by(group, [group.element(x) for x in gens])
    s = group.zero()
    for gen in H.generators:
        s = s + gen.scale(draw(st.integers(-40, 40)))
    return H, g, s


@given(translation_cases())
def test_coset_key_translation_invariant(case):
    H, g, s = case
    assert H.coset_key(g + s) == H.coset_key(g)
    assert H.contains(s)
    coefficients = H.solve(s)
    total = s.group.zero()
    for k, gen in zip(coefficients, H.generators):
        total = total + gen.scale(k)
    assert total == s


def test_solve_finds_no_coefficients_off_the_subgroup():
    H = Subgroup.spanned_by(L2, [L2.element(0, 2)])
    assert H.solve(L2.element(0, 4)) == [2]
    assert H.solve(L2.element(0, 1)) is None and H.solve(L2.element(1, 0)) is None


@st.composite
def memo_cases(draw):
    """A subgroup of Z, Q or Z^2_lex and a walk through its ambient group that revisits values."""
    group = draw(st.sampled_from([Z, Q, L2]))
    coords = st.tuples(*[rationals if group is Q else st.integers(-12, 12)] * group.rank)
    gens = draw(st.lists(coords, max_size=3, unique=True))
    values = draw(st.lists(coords, min_size=1, max_size=6))
    walk = [group.element(*draw(st.sampled_from(values))) for _ in range(12)]
    return Subgroup.spanned_by(group, [group.element(*g) for g in gens]), walk


@settings(max_examples=150, deadline=None)
@given(memo_cases())
def test_memoized_coset_keys_match_a_fresh_reduction(case):
    H, walk = case
    for g in walk + [gen.scale(2) - gen for gen in H.generators]:
        fresh = tuple(H._reduce(g))
        assert H.coset_key(g) == fresh
        assert H.contains(g) == (not any(fresh))
    assert set(H._keys) <= {g.coords for g in walk} | {gen.coords for gen in H.generators}


@given(memo_cases())
def test_basis_rows_are_as_wide_as_the_group(case):
    """The cached Hermite rows carry no transform columns, whatever the number of generators."""
    H, _ = case
    _, rows, pivots = H._basis
    assert all(len(row) == H.ambient.rank for row in rows)
    assert len(pivots) == len(rows) <= H.ambient.rank


def test_memoized_coset_key_still_checks_the_group():
    H = Subgroup.spanned_by(Z, [Z.element(2)])
    assert H.coset_key(Z.element(3)) == (1,)
    # (3,) is memoized, but these elements carry those coordinates in other groups
    for stranger in (OrderedGroup.lex(1).element(3), Q.element(3)):
        with pytest.raises(MismatchedGroups):
            H.coset_key(stranger)
        with pytest.raises(MismatchedGroups):
            H.contains(stranger)
    # an equal group object that is not the ambient one is reduced afresh, to the same key
    twin = OrderedGroup.integers()
    assert twin == Z and twin is not Z
    assert H.coset_key(twin.element(3)) == (1,) and not H.contains(twin.element(3))
    assert list(H._keys) == [(3,)]


def test_group_zero_is_one_shared_element():
    for group in (Z, Q, L2):
        assert group.zero() is group.zero() and group.zero().is_zero()
        assert group.zero().group is group
    assert OrderedGroup.integers().zero() == Z.zero()
    assert Z.element(7).coords == (7,) and type(OrderedGroup.lex(1).element(7).coords[0]) is int


# differential checks against sympy's normal forms on integer lattices
LEX3 = OrderedGroup.lex(3)


def _lattice_matrix(vectors):
    from sympy import Matrix

    return Matrix([list(map(int, v)) for v in vectors]).T  # generators as columns


def test_membership_against_sympy_hnf():
    hermite_normal_form = pytest.importorskip("sympy.matrices.normalforms").hermite_normal_form
    rng = random.Random(7)
    for _ in range(150):
        gens = {tuple(rng.randint(-6, 6) for _ in range(3)) for _ in range(rng.randint(1, 4))}
        gens.discard((0, 0, 0))
        if not gens:
            continue
        H = Subgroup.spanned_by(LEX3, [LEX3.element(v) for v in gens])
        basis = _lattice_matrix(gens)
        for _ in range(4):
            v = tuple(rng.randint(-12, 12) for _ in range(3))
            widened = basis.row_join(_lattice_matrix([v]))
            expected = hermite_normal_form(widened) == hermite_normal_form(basis)
            assert H.contains(LEX3.element(v)) == expected


def test_index_against_sympy_snf():
    smith_normal_form = pytest.importorskip("sympy.matrices.normalforms").smith_normal_form
    def invariant_product(vectors):
        snf = smith_normal_form(_lattice_matrix(vectors))
        diagonal = [snf[i, i] for i in range(min(snf.shape)) if snf[i, i] != 0]
        return len(diagonal), prod(abs(int(d)) for d in diagonal)

    rng = random.Random(11)
    for _ in range(120):
        group_vectors = [tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(rng.randint(1, 3))]
        if all(not any(v) for v in group_vectors):
            continue
        sub_vectors = []
        for _ in range(rng.randint(1, 3)):
            ks = [rng.randint(-3, 3) for _ in group_vectors]
            sub_vectors.append(tuple(sum(k * v[i] for k, v in zip(ks, group_vectors)) for i in range(3)))
        if all(not any(v) for v in sub_vectors):
            continue
        G = Subgroup.spanned_by(LEX3, [LEX3.element(v) for v in group_vectors])
        H = Subgroup.spanned_by(LEX3, [LEX3.element(v) for v in sub_vectors])
        (rank_h, det_h), (rank_g, det_g) = invariant_product(sub_vectors), invariant_product(group_vectors)
        expected = det_h // det_g if rank_h == rank_g else None
        assert subgroup_index(H, G) == expected


# coordinate types: Z and Z^n_lex keep plain ints, Q keeps Fractions, so
# exponent keys compare as int tuples; mixed inputs still meet as equals

small_ints = st.integers(-50, 50)
integral_inputs = st.one_of(
    small_ints,
    small_ints.map(Fraction),
    st.builds(lambda n, d: f"{n * d}/{d}", small_ints, st.integers(1, 5)),
)


def _raw_cases(group, coords):
    point = st.tuples(*[coords] * group.rank)
    return st.tuples(st.just(group), st.tuples(point, point, point),
                     st.integers(-1, group.rank - 1), st.integers(-6, 6))


# (group, three points' raw coordinates, an axis, a multiplier): the strategies are built once
# and a draw builds no element, so drawing stays cheap (building both in every draw once
# failed the too_slow health check); each test builds its points
coordinate_cases = st.one_of(_raw_cases(Z, integral_inputs), _raw_cases(L2, integral_inputs),
                             _raw_cases(Q, rationals))


@given(coordinate_cases)
def test_coordinates_are_ints_on_integer_groups(case):
    group, raw, axis, k = case
    a, b, c = (group.element(*xs) for xs in raw)
    produced = [a, b, c, group.zero(), group.unit(), group.unit(axis), a + b, a - c, -b, c.scale(k)]
    produced += Subgroup.spanned_by(group, [a, b, c]).lattice_basis()
    expected = Fraction if group is Q else int
    assert all(type(x) is expected for g in produced for x in g.coords)


@given(st.sampled_from([Z, L2]), st.lists(small_ints, min_size=2, max_size=2))
def test_fraction_coordinates_meet_their_int_twins(group, values):
    values = values[: group.rank]
    twin = GroupElement(group, tuple(Fraction(v) for v in values))
    g = group.element(*values)
    assert twin == g and hash(twin) == hash(g)
    H = Subgroup.spanned_by(group, [group.element(*[3] * group.rank)])
    assert H.coset_key(twin) == H.coset_key(g)


@given(coordinate_cases)
def test_subtraction_adds_the_negative(case):
    group, (xs, ys, _), _, _ = case
    a, b = group.element(*xs), group.element(*ys)
    assert a - b == a + (-b) and hash(a - b) == hash(a + (-b))
    assert (a - b) + b == a


@given(coordinate_cases, small_ints)
def test_describe_prints_an_exponent_as_the_scenario_parser_reads_it(case, n):
    group, raw, _, k = case
    points = [group.element(*xs) for xs in raw]
    for g in points + [group.zero(), points[0].scale(k), Q.element(n), OrderedGroup.lex(3).element(n, -n, k)]:
        assert g.describe() == [str(c) for c in g.coords]  # "n" or "p/q" per coordinate, as reports print it
        back = _parse_exponent(g.describe(), g.group)
        assert back == g and [type(c) for c in back.coords] == [type(c) for c in g.coords]


def test_slotted_values_are_frozen_and_print_their_fields():
    Qf, F5s = ResidueField.rationals(), ResidueField.rational_functions(5)
    a, b = L2.element(1, -2), Q.element(Fraction(1, 2))
    term = Term(a, Qf.element(Fraction(-3, 4)))
    values = (a, Qf.element(Fraction(-3, 4)), F5s.fraction([1, 2], [2, 0, 1]), term,
              Valuation(a, None, False), Valuation(None, b, True))
    for value in values:
        assert not hasattr(value, "__dict__")
        for name in type(value).__slots__:  # the fields stay as built
            with pytest.raises(FrozenInstanceError):
                setattr(value, name, getattr(value, name))
            with pytest.raises(FrozenInstanceError):
                delattr(value, name)
        with pytest.raises(FrozenInstanceError):
            value.extra = 1
    assert hash(Term(a, Qf.element(Fraction(-3, 4)))) == hash(term)
    assert hash(Valuation(None, b, True)) == hash(values[5])
    with pytest.raises(ValueError):
        Term(a, Qf.zero())
    assert repr(term) == "Term(exponent=g(1, -2), coefficient=-3/4)"
    assert repr(Term(Z.element(3), Qf.element(-2))) == "Term(exponent=g(3), coefficient=-2)"
    assert repr(values[5]) == "Valuation(value=None, up_to=g(1/2), exhausted=True)"


@given(coordinate_cases, rationals.filter(bool), st.integers(-50, 50).filter(bool))
def test_slotted_elements_and_terms_pickle(case, c, n):
    group, (xs, ys, _), _, _ = case
    a, b = group.element(*xs), group.element(*ys)
    Qf, F5s = ResidueField.rationals(), ResidueField.rational_functions(5)
    term = Term(a, Qf.element(c))
    values = (a, Qf.element(c), F5s.fraction([1, n], [n, 0, 1]), term,
              Valuation(a, None, False), Valuation(None, b, True))
    for value in values:
        back = pickle.loads(pickle.dumps(value))
        assert back == value and hash(back) == hash(value)
    assert values[-1] != values[-2] and term != a and term.__eq__(a) is NotImplemented
    # an integral Fraction is its int twin, on each field that can hold one
    if group is not Q:
        twin = GroupElement(group, tuple(map(Fraction, a.coords)))
        pairs = [(twin, a), (Term(twin, Qf.element(c)), term), (Valuation(twin, None, False), values[4])]
    else:
        pairs = []
    pairs.append((FieldElement(Qf, Fraction(n)), Qf.element(n)))
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)
    assert repr(term) == f"Term(exponent={a!r}, coefficient={c})"
    assert repr(values[5]) == f"Valuation(value=None, up_to={b!r}, exhausted=True)"


@pytest.mark.parametrize("text, value", [
    ("7", 7), ("-7", -7), ("+7", 7), ("007", 7), ("6/4", Fraction(3, 2)), ("-1/2", Fraction(-1, 2)), ("4/2", 2),
])
def test_parse_rational_reads_integers_and_quotients(text, value):
    assert parse_rational(text) == value
    assert type(parse_rational(text)) is (Fraction if "/" in text else int)
    # an integer group reads an integral text to an int coordinate, an unsigned "n" without the parser
    for group in (Z, OrderedGroup.lex(1)):
        if value.denominator != 1:
            with pytest.raises(ValueError, match="requires integer coordinates"):
                group.element(text)
            continue
        g = group.element(text)
        assert g == group.element(int(value)) and type(g.coords[0]) is int


@pytest.mark.parametrize("text", [
    "1e2", "1E2", "1.5", ".5", " 3 ", "3\n", "\u0663", "\uff13", "1/-2", "", "-", "/2", "1/", "--1", "0x10",
    "1_000", "inf", "nan", "1/2/3", "1" * 5000,
])
def test_parse_rational_rejects_everything_else(text):
    with pytest.raises(ValueError):
        parse_rational(text)
    for group in (Z, OrderedGroup.lex(1), Q):  # a non-ASCII digit is no "n" of an integer group either
        with pytest.raises(ValueError):
            group.element(text)


def test_parse_rational_rejects_exponent_notation_at_once():
    started = time.monotonic()
    with pytest.raises(ValueError):
        parse_rational("1e10000000")
    assert time.monotonic() - started < 0.1
