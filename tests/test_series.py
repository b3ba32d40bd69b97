import math
import random
from types import SimpleNamespace

import pytest

from ultragram.groups import GroupElement, MismatchedGroups, OrderedGroup
from ultragram.residues import MismatchedFields, ResidueField
from ultragram.series import (
    LeadingTermUnknown,
    MismatchedAmbient,
    Precision,
    SeriesField,
    Term,
    Valuation,
    _Leaf,
    add,
    artin_schreier,
    custom_powers,
    geometric,
    invert,
    leading_term,
    multiply,
    negate,
    scaled,
    subtract,
    sum_series,
    valuation,
)

Z = OrderedGroup.integers()
F3 = ResidueField.prime(3)
F5 = ResidueField.prime(5)
L5 = SeriesField(Z, F5)
L3 = SeriesField(Z, F3)
PREC = Precision(Z.element(32), max_terms=8)


# independent oracle: dict-based finite polynomial arithmetic


def poly_of(series, bound=64):
    fuel = Precision(Z.element(bound), max_terms=64).fuel()
    fuel.steps = 10_000
    assert series.ensure_below(Z.element(bound), fuel)
    return {int(t.exponent.coords[0]): t.coefficient for t in series.terms_below(Z.element(bound))}


def poly_mul(a, b, field):
    out = {}
    for i, c in a.items():
        for j, d in b.items():
            k = i + j
            prev = out.get(k, field.zero())
            out[k] = prev + c * d
    return {k: v for k, v in out.items() if not v.is_zero()}


def poly_sub(a, b, field):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, field.zero()) - v
    return {k: v for k, v in out.items() if not v.is_zero()}


def test_valuation_examples():
    t = L5.monomial(1)
    v = valuation(add(t, L5.monomial(2)), PREC)
    assert v.is_value and v.value == Z.element(1)
    v0 = valuation(L5.zero(), PREC)
    assert not v0.is_value and v0.exhausted


def test_a_first_term_at_the_ceiling_is_not_a_value():
    # the value is the leading exponent below the ceiling; one at or above it leaves x zero up to
    # the ceiling.  leading_term pulls an uncached lead, as valuation does, and reads a cached one
    prec = Precision(Z.element(32), max_terms=8)
    for x in (L5.monomial(32), L5.monomial(33), custom_powers(L5, lambda i: 32 + i)):
        assert leading_term(x, prec) is None  # the stream's lead is pulled here, the leaves' are cached
        assert valuation(x, prec) == Valuation(None, Z.element(32), False)
        assert leading_term(x, prec) is None
    # a lead over Z, cached or pulled, is compared with a ceiling of Z^2_lex as a group element: it raises
    lex = Precision(OrderedGroup.lex(2).element(1, 0))
    for x in (L5.monomial(1), geometric(L5)):
        for read in (leading_term, valuation):
            with pytest.raises(MismatchedGroups):
                read(x, lex)


@pytest.mark.parametrize("group, ceiling, up_to", [
    (Z, (10**6,), (319,)),
    (OrderedGroup.rationals(), (10**6,), (319,)),
    (OrderedGroup.lex(2), (1, 0), (0, 319)),
], ids=["Z", "Q", "Z2_lex"])
def test_zero_up_to_below_the_ceiling_is_a_group_element(group, ceiling, up_to):
    # g - g stays zero as far as the fuel of max_terms 1 reaches: far below the ceiling, not exhausted
    g = geometric(SeriesField(group, F3))
    v = valuation(subtract(g, g), Precision(group.element(*ceiling), max_terms=1))
    assert not v.is_value and not v.exhausted
    assert isinstance(v.up_to, GroupElement) and v.up_to.group == group and v.up_to == group.element(*up_to)
    assert v.describe() == {"zero_up_to": [str(c) for c in up_to]}


def test_telescoping_product_is_one():
    # (1-t) * sum t^i - 1 has no witnessed term below any tested ceiling
    g = geometric(L5)
    expr = subtract(multiply(subtract(L5.one(), L5.monomial(1)), g), L5.one())
    for ceiling in (8, 16, 32):
        v = valuation(expr, Precision(Z.element(ceiling), max_terms=8))
        assert not v.is_value
    # oracle: truncated polynomial product telescopes to 1 + t^N
    N = 20
    partial = {i: F5.one() for i in range(N)}
    one_minus_t = {0: F5.one(), 1: -F5.one()}
    prod = poly_mul(one_minus_t, partial, F5)
    assert prod == {0: F5.one(), N: -F5.one()}


def test_add_cancellation_and_multiplication():
    t = L5.monomial(1)
    assert not valuation(add(t, negate(t)), PREC).is_value
    prod = multiply(add(L5.one(), t), subtract(L5.one(), t))
    diff = subtract(prod, L5.from_terms([(0, 1), (2, -1)]))
    assert diff.ensure_below(Z.element(20), PREC.fuel()) and not diff.terms_below(Z.element(20))


def test_artin_schreier_identity():
    # x = sum t^(3^i) over F3 satisfies x^3 - x = -t (freshman's dream)
    x = artin_schreier(L3, 3)
    cube = multiply(x, multiply(x, x))
    diff = subtract(cube, x)
    prec = Precision(Z.element(30), max_terms=12)
    assert diff.ensure_below(Z.element(30), prec.fuel())
    assert diff.terms_below(Z.element(30)) == [Term(Z.element(1), -F3.one())]
    # oracle: cube the partial sum termwise in dict arithmetic
    partial = {3**i: F3.one() for i in range(4)}
    cube_oracle = poly_mul(partial, poly_mul(partial, partial, F3), F3)
    diff_oracle = poly_sub(cube_oracle, partial, F3)
    below = {k: v for k, v in diff_oracle.items() if k < 27}
    assert below == {1: -F3.one()}


def test_invert_examples():
    inv = invert(subtract(L5.one(), L5.monomial(1)), PREC)
    for diff in (subtract(inv, geometric(L5)), subtract(multiply(inv, subtract(L5.one(), L5.monomial(1))), L5.one())):
        assert diff.ensure_below(Z.element(20), PREC.fuel()) and not diff.terms_below(Z.element(20))
    tinv = invert(L5.monomial(1), PREC)
    lead = leading_term(tinv, PREC)
    assert lead.exponent == Z.element(-1)
    with pytest.raises(LeadingTermUnknown):
        invert(L5.zero(), PREC)


def test_invert_random_roundtrip():
    rng = random.Random(5)
    for _ in range(25):
        terms = sorted(rng.sample(range(0, 9), rng.randint(1, 4)))
        coeffs = [rng.randrange(1, 5) for _ in terms]
        x = L5.from_terms(list(zip(terms, coeffs)))
        diff = subtract(multiply(x, invert(x, PREC)), L5.one())
        assert diff.ensure_below(Z.element(24), PREC.fuel()) and not diff.terms_below(Z.element(24))


def test_differences_below_a_cut():
    x = artin_schreier(L3, 3)
    prec = Precision(Z.element(40), max_terms=12)
    diff = subtract(x, L3.from_terms([(1, 1), (3, 1)]))  # x less its first two terms: t^9 first
    assert diff.ensure_below(Z.element(9), prec.fuel()) and not diff.terms_below(Z.element(9))
    assert diff.ensure_below(Z.element(10), prec.fuel())
    assert diff.terms_below(Z.element(10)) == [Term(Z.element(9), F3.one())]
    diff = subtract(x, x)
    assert diff.ensure_below(Z.element(40), prec.fuel()) and not diff.terms_below(Z.element(40))
    # y - y cancels everywhere, so no term is found; the fuel of one pull
    # (256 + 64 units at max_terms 1) runs out far below the cut
    y = geometric(L3)
    diff = subtract(y, y)
    assert not diff.ensure_below(Z.element(10_000), Precision(Z.element(40), max_terms=1).fuel())
    assert not diff.terms_below(Z.element(10_000))


def test_precision_bounds_are_positive():
    with pytest.raises(ValueError, match="max_terms must be at least 1"):
        Precision(Z.element(8), max_terms=0)
    with pytest.raises(ValueError, match="degree_cap must be at least 1"):
        Precision(Z.element(8), degree_cap=0)


def test_custom_powers_builder():
    sq = custom_powers(L5, lambda i: i * i + 1)
    fuel = PREC.fuel()
    sq.ensure_below(Z.element(20), fuel)
    assert [int(t.exponent.coords[0]) for t in sq.terms_below(Z.element(20))] == [1, 2, 5, 10, 17]


def test_mismatched_ambient():
    with pytest.raises(MismatchedAmbient):
        add(L5.one(), L3.one())


def test_scaling_by_the_unit_returns_its_argument():
    # a series is a value: t^0 * 1 times x is x itself, a leaf or a lazy node alike
    zero, one = Z.zero(), F5.one()
    for x in (L5.from_terms([(1, 2), (4, 1)]), geometric(L5)):
        assert scaled(x, zero, one) is x and multiply(L5.one(), x) is x and multiply(x, L5.monomial(0)) is x
        assert scaled(x, Z.element(1), one) is not x and scaled(x, zero, F5.element(2)) is not x
    # the unit of another group or field is not this field's: the checks stay
    x = L5.from_terms([(1, 2)])
    with pytest.raises(MismatchedGroups):
        scaled(x, OrderedGroup.rationals().zero(), one)
    with pytest.raises(MismatchedFields):
        multiply(L3.one(), x)


def test_negate_and_subtract_keep_their_field_and_group_checks():
    x = L5.from_terms([(1, 2), (4, 1)])
    for other in (L3.from_terms([(1, 1)]), geometric(L3), geometric(SeriesField(OrderedGroup.rationals(), F5))):
        with pytest.raises(MismatchedAmbient):
            subtract(x, other)
        with pytest.raises(MismatchedAmbient):
            subtract(other, x)
    # equal field objects that are not identical still combine
    twin = SeriesField(OrderedGroup.integers(), ResidueField.prime(5))
    assert twin == L5 and twin is not L5
    y = negate(twin.from_terms([(1, 2), (4, 1)]))
    assert [t.exponent for t in y.witnessed_terms()] == [t.exponent for t in x.witnessed_terms()]
    assert valuation(add(x, y), PREC).exhausted


def test_constructors_drop_zero_coefficients_and_a_cancelled_fold_is_an_exact_zero():
    x = L5.from_terms([(1, 0), (4, 1), (2, 5), (3, 2)])  # 5 is zero in F5
    assert [(t.exponent, t.coefficient) for t in x.witnessed_terms()] == [
        (Z.element(3), F5.element(2)), (Z.element(4), F5.one())]
    assert x.floor == Z.element(3)
    for zero in (L5.monomial(2, 0), L5.monomial(2, 10), L5.from_terms([(1, 0)])):
        assert zero.exhausted and not zero.witnessed_terms() and zero.floor is None
        assert valuation(zero, PREC).exhausted
    # a short fold that cancels completely: an empty leaf, floor None, an exact zero
    y = L5.from_terms([(4, 4), (3, 3)])
    for folded in (add(x, y), subtract(x, negate(y)), sum_series(L5, [x, L5.one(), y, L5.monomial(0, 4)])):
        assert type(folded) is _Leaf and not folded.witnessed_terms() and folded.floor is None
        assert valuation(folded, PREC).exhausted


def test_constructors_reject_an_exponent_of_another_group():
    Q = OrderedGroup.rationals()
    # the Q exponent 3 once merged with Z's t^3 into one term 2*t^3 that only a later valuation rejected
    with pytest.raises(MismatchedGroups):
        add(L5.from_terms([(Q.element(3), 1)]), L5.monomial(3))
    for bad in (Q.element(3), OrderedGroup.lex(1).element(3)):
        with pytest.raises(MismatchedGroups):
            L5.from_terms([(Z.element(1), 1), (bad, 1)])
        for coefficient in (1, 0, 5):  # a zero coefficient does not excuse the exponent
            with pytest.raises(MismatchedGroups):
                L5.monomial(bad, coefficient)
            with pytest.raises(MismatchedGroups):
                L5.from_terms([(bad, coefficient)])
    # an element of an equal group object passes through as given
    three = OrderedGroup.integers().element(3)
    assert L5.monomial(three).witnessed_terms()[0].exponent is three
    assert L5.from_terms([(three, 2)]).witnessed_terms() == L5.monomial(3, 2).witnessed_terms()
    # coordinates as a list, as a scenario spells them, and on a lex group
    assert L5.monomial([3], 2).witnessed_terms() == L5.monomial(three, 2).witnessed_terms()
    LL = SeriesField(OrderedGroup.lex(2), F5)
    assert LL.monomial([1, "-2"], 3).witnessed_terms() == [Term(OrderedGroup.lex(2).element(1, -2), F5.element(3))]


def test_stream_checks_each_term():
    def stream(*exponents, group=Z, coefficient=F5.one()):
        terms = [Term(group.element(e), coefficient) for e in exponents]
        return L5.stream(Z.element(0), lambda: iter(terms))

    cases = [
        (stream(1, 1), ValueError, "strictly increase"),
        (stream(2, 1), ValueError, "strictly increase"),
        (stream(-1, 2), ValueError, "declared floor"),
        (stream(1, 2, group=OrderedGroup.rationals()), MismatchedGroups, None),
        (stream(1, 2, group=OrderedGroup.lex(1)), MismatchedGroups, None),
        (L5.stream(Z.element(0), lambda: iter([SimpleNamespace(exponent=Z.element(1), coefficient=F5.zero())])),
         ValueError, "zero coefficient"),
    ]
    for bad, error, message in cases:
        with pytest.raises(error, match=message):
            bad.ensure_below(Z.element(10), PREC.fuel())
    with pytest.raises(MismatchedGroups):  # a bound of another group
        stream(1, 2).ensure_below(OrderedGroup.rationals().element(10), PREC.fuel())
    good = stream(1, 3, group=OrderedGroup.integers())
    assert good.ensure_below(Z.element(10), PREC.fuel()) and good.exhausted


def test_determinism_of_enumeration():
    for build in (lambda: geometric(L5), lambda: artin_schreier(L3, 3)):
        s = build()
        fuel = PREC.fuel()
        s.ensure_below(Z.element(25), fuel)
        first = [(t.exponent, t.coefficient) for t in s.terms_below(Z.element(25))]
        fuel = PREC.fuel()
        s.ensure_below(Z.element(25), fuel)
        second = [(t.exponent, t.coefficient) for t in s.terms_below(Z.element(25))]
        assert first == second


def _random_series(rng, field):
    support = sorted(rng.sample(range(-3, 12), rng.randint(0, 5)))
    return field.from_terms([(e, rng.randrange(1, field.coeff.p)) for e in support])


def test_ultrametric_inequality_random():
    rng = random.Random(17)
    for _ in range(200):
        x = _random_series(rng, L5)
        y = _random_series(rng, L5)
        vx = valuation(x, PREC)
        vy = valuation(y, PREC)
        vsum = valuation(add(x, y), PREC)
        if not (vx.is_value and vy.is_value):
            continue
        lower = min(vx.value, vy.value)
        if vsum.is_value:
            assert not vsum.value < lower
        if vx.value != vy.value:
            assert vsum.is_value and vsum.value == lower


def test_valuation_multiplicative_random():
    rng = random.Random(19)
    for _ in range(200):
        x = _random_series(rng, L5)
        y = _random_series(rng, L5)
        vx = valuation(x, PREC)
        vy = valuation(y, PREC)
        vprod = valuation(multiply(x, y), PREC)
        if vx.is_value and vy.is_value:
            assert vprod.is_value
            assert vprod.value == vx.value + vy.value
        else:
            assert not vprod.is_value


def test_lex_ambient_basics():
    L2 = OrderedGroup.lex(2)
    LL = SeriesField(L2, F3)
    prec = Precision(L2.element(1, 24), max_terms=8)
    x = add(artin_schreier(LL, 3, axis=1), LL.monomial(L2.element(1, 0)))
    v = valuation(x, prec)
    assert v.is_value and v.value == L2.element(0, 1)
    r = subtract(x, LL.monomial(L2.element(0, 1)))
    v = valuation(r, prec)
    assert v.is_value and v.value == L2.element(0, 3)
    # inverse of 1 - t^(0,1) genuinely has infinitely many terms below (1,0)
    inv = invert(subtract(LL.one(), LL.monomial(L2.element(0, 1))), prec)
    fuel = prec.fuel()
    complete = inv.ensure_below(L2.element(1, 0), fuel)
    assert not complete
    terms = inv.terms_below(L2.element(1, 0))
    assert [t.exponent.coords for t in terms[:3]] == [(0, 0), (0, 1), (0, 2)]


def test_multiply_matches_dict_oracle():
    rng = random.Random(31)
    prec = Precision(Z.element(40), max_terms=16)

    def dict_of(s, bound):
        fuel = prec.fuel()
        fuel.steps = 100_000
        assert s.ensure_below(Z.element(bound), fuel)
        return {int(t.exponent.coords[0]): t.coefficient.rep for t in s.terms_below(Z.element(bound))}

    for _ in range(150):
        def rnd():
            support = sorted(rng.sample(range(-2, 10), rng.randint(1, 5)))
            return L5.from_terms([(e, rng.randrange(1, 5)) for e in support])

        x, y = rnd(), rnd()
        got = dict_of(multiply(x, y), 18)
        dx, dy = dict_of(x, 100), dict_of(y, 100)
        want = {}
        for i, c in dx.items():
            for j, d in dy.items():
                if i + j < 18:
                    want[i + j] = (want.get(i + j, 0) + c * d) % 5
        assert got == {k: v for k, v in want.items() if v}


def test_lex_inversion_roundtrip():
    L2 = OrderedGroup.lex(2)
    LL = SeriesField(L2, F3)
    prec = Precision(L2.element(1, 6), max_terms=8)
    rng = random.Random(37)
    bound = L2.element(0, 6)
    for _ in range(40):
        terms = {(0, 0): 1 + rng.randrange(2)}
        for _ in range(rng.randint(1, 3)):
            coords = (rng.randint(0, 1), rng.randint(1, 4))
            terms[coords] = 1 + rng.randrange(2)
        x = LL.from_terms([(L2.element(*e), c) for e, c in sorted(terms.items())])
        back = multiply(x, invert(x, prec))
        diff = subtract(back, LL.one())
        fuel = prec.fuel()
        diff.ensure_below(bound, fuel)
        assert not diff.terms_below(bound)


# the online kernel: resumable pulls, fuel and work counts

from fractions import Fraction
from itertools import count

from hypothesis import Phase, example, given, settings, strategies as st

from ultragram import series
from ultragram.groups import GroupElement
from ultragram.residues import FieldElement
from ultragram.series import Fuel, Term, sum_series

Q = OrderedGroup.rationals()
LEX = OrderedGroup.lex(2)
# (group, exponent coordinates of random terms, bound of the comparison);
# below each bound every node here has finitely many terms
AMBIENTS = {
    "Z": (Z, st.integers(0, 6).map(lambda e: (e,)), Z.element(12)),
    "Q": (Q, st.builds(Fraction, st.integers(0, 12), st.integers(1, 3)).map(lambda e: (e,)), Q.element(4)),
    "Z^2_lex": (LEX, st.tuples(st.integers(0, 1), st.integers(0, 5)), LEX.element(0, 10)),
}
NODES = ("sum", "product", "map", "inverse")
# one coefficient field per row of the op table, with nonzero coefficients for random terms;
# the F5(s) ones are (num, den) pairs, so sums and products cross-multiply denominators
F5S = ResidueField.rational_functions(5)
COEFFICIENTS = {
    "F5": (F5, st.integers(1, 4)),
    "Q": (ResidueField.rationals(), st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))),
    "F5(s)": (F5S, st.tuples(
        st.lists(st.integers(0, 4), min_size=1, max_size=3).filter(any),
        st.sampled_from([(1,), (1, 1), (2, 0, 1)]),
    )),
}


def _build(kind, field, a, b, unit):
    """A fresh node of ``kind`` over two finite series, geometric pieces and an inverse."""
    g = geometric(field)
    if kind == "sum":
        return sum_series(field, [a, g, negate(b)])
    if kind == "product":
        return multiply(add(a, g), add(b, g))
    if kind == "map":
        return multiply(field.monomial(unit, 2), add(a, g))
    # 1 + t*(a + b + geometric) has lead 1 and an infinite tail
    prec = Precision(unit.scale(64), max_terms=8)
    return invert(add(field.one(), multiply(field.monomial(unit), sum_series(field, [a, b, g]))), prec)


def _state(s, bound):
    return [(t.exponent, t.coefficient) for t in s.witnessed_terms()], s.complete_for(bound), s.exhausted


@st.composite
def node_cases(draw):
    group, coords, bound = AMBIENTS[draw(st.sampled_from(sorted(AMBIENTS)))]
    coeff, values = COEFFICIENTS[draw(st.sampled_from(sorted(COEFFICIENTS)))]
    field = SeriesField(group, coeff)
    terms = st.lists(st.tuples(coords, values), max_size=4)
    a, b = draw(terms), draw(terms)
    steps = sorted(draw(st.lists(st.sampled_from(range(1, 12)), max_size=4)))
    return field, draw(st.sampled_from(NODES)), a, b, steps, bound, draw(st.integers(1, 4))


@settings(max_examples=80, deadline=None)
@given(case=node_cases())
def test_stepwise_small_fuel_pulls_match_one_pull(case):
    field, kind, a, b, steps, bound, fuel_size = case
    unit = field.group.unit()

    def fresh():
        return _build(kind, field, field.from_terms(a), field.from_terms(b), unit)

    whole = fresh()
    assert whole.ensure_below(bound, Fuel(100_000))
    stepped = fresh()
    # intermediate bounds first, then the final one, each with fresh small fuel
    for target in [unit.scale(k) for k in steps if unit.scale(k) < bound] + [bound]:
        for _ in range(2000):
            if stepped.ensure_below(target, Fuel(fuel_size)):
                break
    assert _state(stepped, bound) == _state(whole, bound)


@st.composite
def fold_cases(draw):
    """Two to four random finite term lists over one ambient, and the operation summing them."""
    group, coords, bound = AMBIENTS[draw(st.sampled_from(sorted(AMBIENTS)))]
    coeff, values = COEFFICIENTS[draw(st.sampled_from(sorted(COEFFICIENTS)))]
    parts = draw(st.lists(st.lists(st.tuples(coords, values), max_size=10), min_size=2, max_size=4))
    return SeriesField(group, coeff), parts, draw(st.sampled_from(["add", "subtract", "sum_series"])), bound


# random draws seldom total over _FOLD terms: the explicit cases below build a lazy sum in every run,
# from two 10-term leaves over Q sharing the exponents 0 to 3 (cancelling there under subtract)
LONG_PARTS = [[((Fraction(k, 3),), 1) for k in range(10)], [((Fraction(k, 2),), 1) for k in range(10)]]


# no shrink or explain phase: a failing run that shrank the four term lists and then
# explained them took over 3 minutes; one that prints the case as drawn ends in 2 to 3 s
@settings(max_examples=120, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(case=fold_cases())
@example(case=(SeriesField(Q, F5), LONG_PARTS, "subtract", Q.element(4)))
@example(case=(SeriesField(Q, F5), LONG_PARTS + [[((Fraction(1, 5),), 2)]], "sum_series", Q.element(4)))
def test_short_leaf_sums_merge_as_dict_sums(case):
    field, parts, op, bound = case
    group, coeff = field.group, field.coeff
    if op != "sum_series":
        parts = parts[:2]
    signs = [1, -1] if op == "subtract" else [1] * len(parts)
    expected: dict = {}  # coordinate key -> coefficient, over plain dicts
    for sign, raw in zip(signs, parts):
        for coords, value in raw:
            key, c = group.element(coords).coords, coeff.element(value)
            expected[key] = expected.get(key, coeff.zero()) + (c if sign == 1 else -c)
    expected = sorted(((k, c) for k, c in expected.items() if not c.is_zero()), key=lambda kc: kc[0])
    leaves = [field.from_terms(raw) for raw in parts]
    if op == "add":
        result = add(*leaves)
    elif op == "subtract":
        result = subtract(*leaves)
    else:
        result = sum_series(field, leaves)
    operands = [leaves[0], negate(leaves[1])] if op == "subtract" else leaves
    # the lazy reference needs a child with a floor, as every sum _sum builds has: only an empty leaf has none
    lazy = [series._Sum(list(operands))] if any(x.floor is not None for x in operands) else []
    if type(result) is _Leaf:  # its floor is its first exponent (None when empty), never below the lazy sum's
        first = result.witnessed_terms()[:1]
        assert result.floor == (first[0].exponent if first else None)
        assert result.floor is None or lazy[0].floor <= result.floor
    sizes = [len(x.witnessed_terms()) for x in leaves]
    if sum(sizes) <= series._FOLD:
        assert type(result) is _Leaf and result.exhausted
    elif op != "sum_series":  # two operands over the bound stay a lazy sum
        assert type(result) is series._Sum
    for s in [result] + lazy:
        assert s.ensure_below(bound, Fuel(10_000), whole=True) and s.exhausted
        assert [(t.exponent.coords, t.coefficient) for t in s.witnessed_terms()] == expected
    if not expected:  # a sum that cancels completely is an exact zero
        assert valuation(result, Precision(bound)).exhausted
    x = leaves[0]
    assert valuation(subtract(x, x), Precision(bound)).exhausted
    if 2 * len(x.witnessed_terms()) <= series._FOLD:  # x - x is an empty leaf, so its products are exact zeros
        assert valuation(multiply(subtract(x, x), geometric(field)), Precision(bound)).exhausted
    other = SeriesField(OrderedGroup.lex(3), coeff).one()
    for build in (lambda: add(x, other), lambda: subtract(x, other), lambda: sum_series(field, leaves + [other])):
        with pytest.raises(MismatchedAmbient):
            build()


@st.composite
def chase_chains(draw):
    """A stream, then add/subtract links of random monomials and of the chain's own lead."""
    name = draw(st.sampled_from(["Z", "Q", "Z^2_lex"]))
    group, coords, bound = AMBIENTS[name]
    coeff, values = COEFFICIENTS[draw(st.sampled_from(["F5", "Q"]))]
    links = draw(st.lists(st.tuples(st.sampled_from(["add", "subtract", "cancel"]), coords, values), max_size=8))
    return SeriesField(group, coeff), draw(st.sampled_from(["geometric", "artin_schreier"])), links, bound


@settings(max_examples=80, deadline=None)
@given(case=chase_chains())
def test_lead_first_pulls_match_a_twin_pulled_to_the_ceiling(case):
    field, source, links, bound = case
    prec = Precision(bound, max_terms=8)

    def stream():
        return geometric(field) if source == "geometric" else artin_schreier(field, 3)

    lazy, twin = stream(), stream()
    for op, coords, value in links:
        if op == "cancel":  # subtract the lead, as a nearest-point step does
            assert twin.ensure_below(bound, Fuel(100_000))
            if not twin.terms_below(bound):
                continue
            lead = twin.terms_below(bound)[0]
            op, coords, value = "subtract", lead.exponent, lead.coefficient
        link = add if op == "add" else subtract
        lazy, twin = (link(s, field.from_terms([(coords, value)])) for s in (lazy, twin))
    assert twin.ensure_below(bound, Fuel(100_000))
    pulled = twin.witnessed_terms()
    assert valuation(lazy, prec) == valuation(twin, prec)
    assert leading_term(lazy, prec) == leading_term(twin, prec)
    assert twin.witnessed_terms() == pulled  # the twin answered from its cache
    assert lazy.ensure_below(bound, Fuel(100_000))
    assert lazy.terms_below(bound) == twin.terms_below(bound)


@settings(max_examples=40, deadline=None)
@given(
    terms=st.lists(
        st.tuples(st.builds(Fraction, st.integers(1, 9), st.integers(1, 4)), st.integers(-3, 3).filter(bool)),
        min_size=1, max_size=4,
    ),
    lead=st.integers(-3, 3).filter(bool),
    infinite=st.booleans(),
)
def test_inverse_times_x_is_one_over_q_exponents(terms, lead, infinite):
    field = SeriesField(Q, ResidueField.rationals())
    x = field.from_terms([(Q.element(0), lead)] + [(Q.element(e), c) for e, c in terms])
    if infinite:
        x = add(x, multiply(field.monomial(Q.element(Fraction(5, 2))), geometric(field)))
    prec = Precision(Q.element(4), max_terms=64)
    diff = subtract(multiply(x, invert(x, prec)), field.one())
    assert diff.ensure_below(Q.element(4), prec.fuel()) and not diff.terms_below(Q.element(4))


@pytest.fixture
def pushes(monkeypatch):
    """Counts the work of the series module: a heap push per product pair and per merged
    sum term, and a slot per coefficient slot that a block product packs or reads."""
    count = [0]
    plain_push, plain_pack, plain_unpack = series.heappush, series._pack, series._unpack

    def push(heap, item):
        count[0] += 1
        plain_push(heap, item)

    def pack(terms, origin, nbytes):
        count[0] += terms[-1].exponent.coords[0] - origin + 1
        return plain_pack(terms, origin, nbytes)

    def unpack(value, slots, nbytes, p):
        count[0] += slots
        return plain_unpack(value, slots, nbytes, p)

    monkeypatch.setattr(series, "heappush", push)
    monkeypatch.setattr(series, "_pack", pack)
    monkeypatch.setattr(series, "_unpack", unpack)
    return count


def test_small_fuel_inverse_pull_stops_and_resumes(pushes):
    bound = Z.element(64)
    inv = invert(subtract(L5.one(), L5.monomial(1)), PREC)
    pushes[0] = 0
    assert not inv.ensure_below(bound, Fuel(8))
    assert pushes[0] < 64  # each unit of fuel buys a bounded amount of work
    first = inv.witnessed_terms()
    assert 1 <= len(first) <= 9
    while not inv.ensure_below(bound, Fuel(8)):
        pass
    terms = inv.witnessed_terms()
    assert terms[: len(first)] == first  # the cache only ever grows
    assert [t.exponent for t in terms] == [Z.element(e) for e in range(64)]
    assert all(t.coefficient == F5.one() for t in terms)


def test_inverse_of_one_plus_t_geometric_is_linear_work(pushes):
    # 1/(1 + t + t^2 + ...) = 1 - t exactly, so the work must grow with the ceiling only
    counts = {}
    for ceiling in (256, 512):
        x = add(L3.one(), multiply(L3.monomial(1), geometric(L3)))
        inv = invert(x, Precision(Z.element(ceiling), max_terms=8))
        pushes[0] = 0
        assert inv.ensure_below(Z.element(ceiling), Fuel(10 * ceiling))
        counts[ceiling] = pushes[0]
        assert [(t.exponent, t.coefficient) for t in inv.witnessed_terms()] == [
            (Z.element(0), F3.one()), (Z.element(1), F3.element(2))
        ]
    assert counts[512] <= 6 * 512
    assert counts[512] <= 2.2 * counts[256]


def test_stepwise_product_pulls_cost_at_most_twice_one_pull(pushes):
    ceiling = 128
    work = []
    for step in (ceiling, 16):
        g = geometric(L3)
        square = multiply(g, g)
        pushes[0] = 0
        for bound in range(step, ceiling + 1, step):
            assert square.ensure_below(Z.element(bound), Fuel(10_000))
        work.append(pushes[0])
        # (sum t^i)^2 = sum (i+1) t^i
        assert [t.coefficient for t in square.terms_below(Z.element(ceiling))] == [
            F3.element(i + 1) for i in range(ceiling) if (i + 1) % 3
        ]
        assert square._block is not None  # the Kronecker block path did the work
    assert work[1] <= 2 * work[0]


def test_block_quotient_pull_grows_linearly(pushes):
    # geometric / sum t^(i^2) over F3: a block product over a block inverse, both settled
    # in windows of packed ints, so the whole pull packs and reads about 2x per doubling
    work = {}
    for ceiling in (320, 640):
        bound = Z.element(ceiling)
        divisor = custom_powers(L3, lambda i: i * i)
        g, inverse = geometric(L3), invert(divisor, Precision(bound, max_terms=8))
        quotient = multiply(g, inverse)
        pushes[0] = 0
        assert quotient.ensure_below(bound, Fuel(10 * ceiling))
        work[ceiling] = pushes[0]
        assert quotient._block is not None and inverse._block is not None
        # dense division: q * divisor = geometric, so q_k = 1 - sum_{i >= 1} q_(k - i^2)
        q = []
        for k in range(ceiling):
            q.append((1 - sum(q[k - i * i] for i in range(1, math.isqrt(k) + 1))) % 3)
        assert [(t.exponent, t.coefficient) for t in quotient.terms_below(bound)] == [
            (Z.element(k), F3.element(c)) for k, c in enumerate(q) if c
        ]
    assert work[640] <= 2.5 * work[320], work


def _squares_inverse_terms(ceiling):
    """1 / sum t^(i^2) over F3 below t^ceiling, by long division: y_k = -sum_{i >= 1} y_(k - i^2)."""
    y = [1]
    for k in range(1, ceiling):
        y.append(-sum(y[k - i * i] for i in range(1, math.isqrt(k) + 1)) % 3)
    return [(Z.element(k), F3.element(c)) for k, c in enumerate(y) if c]


def test_block_inverse_pull_grows_linearly(pushes):
    # the pair loop formed about n^1.5 pairs here (907 / 2,526 / 7,041 / 19,468 pushes);
    # the block windows double up to the pull, each packing and reading its own slots
    work = {}
    for ceiling in (160, 320, 640, 1280):
        bound = Z.element(ceiling)
        inverse = invert(custom_powers(L3, lambda i: i * i), Precision(bound, max_terms=8))
        pushes[0] = 0
        assert inverse.ensure_below(bound, Fuel(10 * ceiling))
        work[ceiling] = pushes[0]
        assert inverse._block is not None
        assert [(t.exponent, t.coefficient) for t in inverse.terms_below(bound)] == _squares_inverse_terms(ceiling)
    assert all(work[2 * c] <= 2.3 * work[c] for c in (160, 320, 640)), work


def test_block_inverse_in_small_steps_costs_at_most_the_pair_loop(pushes):
    # a window per pull: short pulls do not redo the settled prefix
    ceiling = 1280
    inverse = invert(custom_powers(L3, lambda i: i * i), Precision(Z.element(ceiling), max_terms=8))
    pushes[0] = 0
    for bound in range(16, ceiling + 1, 16):
        assert inverse.ensure_below(Z.element(bound), Fuel(10_000))
    assert pushes[0] <= 19_468  # the pair loop's pushes, in one pull or in these steps
    assert inverse._block is not None
    assert [(t.exponent, t.coefficient) for t in inverse.terms_below(Z.element(ceiling))] == (
        _squares_inverse_terms(ceiling))


@pytest.mark.parametrize("divisor, ceiling, path", [
    ({0: 1, 1000: 1}, 1000, "block"),  # 1 below t^1000: no window, no fuel
    ({0: 1, 1000: 1}, 2000, "pairs"),  # then sparse: the pair loop from t^1000 on
    ({0: 1, 7: 2}, 1000, "block"),  # a term every 7 slots
    ({0: 1, 1: 1, 2: 2}, 500, "block"),  # dense
])
def test_block_inverse_spends_no_more_fuel_than_the_pair_loop(divisor, ceiling, path):
    # a unit per settled term, each met by a pair of u*y, so a pull that completes
    # on the pair loop under a scenario's budget completes on the block path too
    prec, bound = Precision(Z.element(ceiling), max_terms=8), Z.element(ceiling)
    spent, terms = {}, {}
    for kind in ("block", "pairs"):
        inverse, fuel = invert(L3.from_terms(divisor.items()), prec), prec.fuel()
        if kind == "pairs":
            inverse._block = None
        budget = fuel.steps
        assert inverse.ensure_below(bound, fuel)
        spent[kind], terms[kind] = budget - fuel.steps, inverse.terms_below(bound)
        if kind == "block":
            assert (inverse._block is not None) == (path == "block")
    assert terms["block"] == terms["pairs"] and spent["block"] <= spent["pairs"], spent


def _count_inits(monkeypatch, cls):
    """Counts every ``cls`` built from now on."""
    count = [0]
    plain = cls.__init__

    def counted(self, *args, **kwargs):
        count[0] += 1
        plain(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    return count


def test_product_pull_builds_one_element_per_settled_exponent(monkeypatch):
    # 128 * 129 / 2 pairs lie below 128, but only one exponent and one coefficient survive per sum
    ceiling = Z.element(128)
    g = geometric(L3)
    assert g.ensure_below(ceiling, Fuel(10_000))  # the stream's own exponents come first
    square = multiply(g, g)
    exponents, coefficients = _count_inits(monkeypatch, GroupElement), _count_inits(monkeypatch, FieldElement)
    assert square.ensure_below(ceiling, Fuel(10_000))
    settled = len(square.terms_below(ceiling))
    assert settled == 128 - 128 // 3  # (sum t^i)^2 = sum (i+1) t^i over F3
    assert square._block is not None
    # the constant covers the pull's own bound arithmetic (8 exponents here)
    assert settled <= exponents[0] <= settled + 16
    assert settled <= coefficients[0] <= settled + 16


def test_block_product_with_an_empty_factor_prefix_is_complete_and_empty():
    # g - g is a lazy sum with no terms: the block product settles strips whose left factor
    # prefix is empty, and bounds the product's first exponent by what g - g has certified
    product = multiply(subtract(geometric(L3), geometric(L3)), artin_schreier(L3, 3))
    assert product.ensure_below(Z.element(10), PREC.fuel())
    assert product.terms_below(Z.element(10)) == [] and product.witnessed_terms() == []


def test_lex_product_with_rational_coefficients_matches_schoolbook():
    # exponent keys of rank 2 and Q coefficients, against the schoolbook product of the term lists
    field = SeriesField(LEX, ResidueField.rationals())
    bound = LEX.element(1, 4)
    rng = random.Random(41)
    for _ in range(60):
        def rnd():
            support = {(rng.randint(-1, 1), rng.randint(-3, 6)) for _ in range(rng.randint(1, 5))}
            return {e: Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4)) for e in sorted(support)}

        a, b = rnd(), rnd()
        product = multiply(field.from_terms(a.items()), field.from_terms(b.items()))
        assert product.ensure_below(bound, Fuel(10_000))
        want: dict = {}
        for (i1, i2), c in a.items():
            for (j1, j2), d in b.items():
                want[(i1 + j1, i2 + j2)] = want.get((i1 + j1, i2 + j2), 0) + c * d
        assert [(t.exponent.coords, t.coefficient.rep) for t in product.terms_below(bound)] == [
            (e, c) for e, c in sorted(want.items()) if c and e < bound.coords
        ]


BLOCK_PRIMES = (2, 3, 5, 2**61 - 1)


@st.composite
def block_factors(draw, p):
    """A finite F_p series over Z as {exponent: rep}: dense, sparse, or dense with a sparse tail."""
    kind = draw(st.sampled_from(("dense", "sparse", "tail")))
    start = draw(st.integers(-4, 4))
    if kind == "sparse":
        exponents = [start + 3**i for i in range(draw(st.integers(1, 7)))]
    else:
        keep = draw(st.lists(st.booleans(), min_size=1, max_size=48))
        exponents = [start + i for i, k in enumerate(keep) if k] or [start]
        if kind == "tail":  # its last gap, 162, is too sparse for any small-step strip
            exponents += [exponents[-1] + 3**i for i in range(1, 6)]
    return {e: draw(st.integers(1, p - 1)) for e in exponents}, kind


def _stream_of(field, reps):
    """{exponent: rep} as a stream, so that each pull sees only a prefix of it."""
    terms = [Term(Z.element(e), field.coeff.element(c)) for e, c in sorted(reps.items())]
    return field.stream(terms[0].exponent, lambda: iter(terms))


def _product_in_steps(p, a, b, step):
    """a*b over F_p, pulled to bounds ``step()`` apart, checked against the schoolbook product."""
    field = SeriesField(Z, ResidueField.prime(p))
    product = multiply(_stream_of(field, a), _stream_of(field, b))
    want: dict = {}
    for i, c in a.items():
        for j, d in b.items():
            want[i + j] = (want.get(i + j, 0) + c * d) % p
    bound, seen = min(a) + min(b), []
    while not product.exhausted:
        bound += step()
        assert product.ensure_below(Z.element(bound), Fuel(10_000))
        got = [(t.exponent.coords[0], t.coefficient.rep) for t in product.witnessed_terms()]
        assert got[: len(seen)] == seen  # earlier prefixes stay as they were
        assert got == [(e, c) for e, c in sorted(want.items()) if c and (e < bound or product.exhausted)]
        seen = got
    return product


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_block_product_in_small_steps_matches_schoolbook(data):
    p = data.draw(st.sampled_from(BLOCK_PRIMES))
    (a, a_kind), (b, b_kind) = data.draw(block_factors(p)), data.draw(block_factors(p))
    rng = data.draw(st.randoms(use_true_random=False))
    product = _product_in_steps(p, a, b, lambda: rng.randint(1, 12))
    if "tail" in (a_kind, b_kind):
        assert product._block is None  # the tail moved the product to the pair loop


def test_a_sparse_strip_hands_the_settled_prefix_to_the_pair_loop():
    # unit steps: the block settles 1 * (1 + 2t^3) first, then t^9, t^27, ... is too sparse for it
    product = _product_in_steps(5, {0: 1}, {0: 1, **{3**i: 2 for i in range(1, 6)}}, lambda: 1)
    assert product._block is None


def _long_division(x, p, length):
    """The first ``length`` coefficients of 1/x, x a finite series over F_p as {exponent: rep}
    with lead c*t^e, in plain ints: y_0 = 1/c and y_k = -(1/c) * sum_{i >= 1} x_(e+i) * y_(k-i)."""
    e = min(x)
    inverse = pow(x[e], -1, p)
    y = [inverse]
    for k in range(1, length):
        y.append(-inverse * sum(x.get(e + i, 0) * y[k - i] for i in range(1, k + 1)) % p)
    return y


@st.composite
def divisors(draw, p):
    """A finite F_p divisor over Z as {exponent: rep}, with the path its inverse takes.

    Dense: 2 to 9 consecutive exponents.  1/x has no run of 8 zeros (it would end
    there, and x*(1/x) = 1 has no polynomial solution), so no prefix turns sparse:
    the block path.  Sparse: exponents 16 or more apart.  The first window that reads
    a term of u is sparse already: the pair loop.  Dense with a sparse tail: either."""
    kind = draw(st.sampled_from(("dense", "sparse", "tail")))
    start = draw(st.integers(-4, 4))
    if kind == "sparse":
        gap = draw(st.integers(16, 24))
        exponents = [start] + [start + gap * i for i in sorted(draw(st.sets(st.integers(1, 5), min_size=1)))]
    else:
        exponents = list(range(start, start + draw(st.integers(2, 9))))
        if kind == "tail":
            exponents += [exponents[-1] + 3**i for i in range(1, draw(st.integers(2, 5)))]
    return {e: draw(st.integers(1, p - 1)) for e in exponents}, kind


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_inverse_in_small_steps_matches_long_division(data):
    p = data.draw(st.sampled_from(BLOCK_PRIMES))
    field = SeriesField(Z, ResidueField.prime(p))
    x, kind = data.draw(divisors(p))
    inverse = invert(_stream_of(field, x), Precision(Z.element(1000), max_terms=8))
    floor, length = -min(x), 150
    want = _long_division(x, p, length)
    rng = data.draw(st.randoms(use_true_random=False))
    offset, seen = 0, []
    while offset < length:
        offset = min(length, offset + rng.randint(1, 24))
        bound = Z.element(floor + offset)
        complete = False
        while not complete:  # random small fuel: each pull may stop short and resume
            complete = inverse.ensure_below(bound, Fuel(rng.randint(1, 6)))
            got = [(t.exponent.coords[0] - floor, t.coefficient.rep) for t in inverse.witnessed_terms()]
            assert got[: len(seen)] == seen  # the cache only ever grows
            # every cached term is settled, and a complete pull holds every term below the bound
            top = max(got[-1][0] + 1, offset if complete else 0)
            assert got == [(k, c) for k, c in enumerate(want[:top]) if c]
            seen = got
    path = "block" if inverse._block is not None else "pairs"
    assert path == {"dense": "block", "sparse": "pairs"}.get(kind, path)


def _count_fractions(monkeypatch):
    """Counts every Fraction built from now on, including arithmetic results
    on Pythons whose Fraction arithmetic bypasses ``__new__``."""
    count = [0]

    def counting(original):
        def counted(*args, **kwargs):
            count[0] += 1
            return original(*args, **kwargs)
        return counted

    monkeypatch.setattr(Fraction, "__new__", counting(Fraction.__new__))
    if hasattr(Fraction, "_from_coprime_ints"):
        direct = counting(Fraction._from_coprime_ints.__func__)
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(direct))
    return count


def test_int_coordinates_build_no_fractions(monkeypatch):
    built = _count_fractions(monkeypatch)
    assert Z.element(5).coords == (5,) and LEX.element(1, 2).coords == (1, 2)
    assert built[0] == 0
    # other inputs still go through the exact check
    assert type(Z.element("4").coords[0]) is int
    with pytest.raises(TypeError):
        Z.element(1.5)
    with pytest.raises(ValueError):
        Z.element("3/2")


def test_integer_exponent_pulls_build_no_fractions(monkeypatch):
    inverse_ceiling, square_ceiling = Z.element(256), Z.element(128)
    x = add(L3.one(), multiply(L3.monomial(1), geometric(L3)))
    inv = invert(x, Precision(inverse_ceiling, max_terms=8))
    g = geometric(L3)
    square = multiply(g, g)
    built = _count_fractions(monkeypatch)
    assert inv.ensure_below(inverse_ceiling, Fuel(2560))
    assert square.ensure_below(square_ceiling, Fuel(10_000))
    assert built[0] == 0
    for s in (x, inv, g, square):
        assert all(type(c) is int for t in s.witnessed_terms() for c in t.exponent.coords)


def test_zero_nodes_are_exhausted_before_any_pull():
    zero = L3.zero()
    for s in (negate(zero), sum_series(L3, [zero, zero])):
        assert s.exhausted and not s.witnessed_terms()
        v = valuation(s, PREC)
        assert not v.is_value and v.exhausted and v.up_to == PREC.ceiling


LINKS = 5000  # five times the interpreter's default recursion limit


def test_pull_through_a_long_subtract_chain():
    # 1 + t + t^2 + ... - t - t^2 - ... - t^LINKS
    chain = geometric(L3)
    for i in range(1, LINKS + 1):
        chain = subtract(chain, L3.monomial(i))
    assert chain.ensure_below(Z.element(4), Fuel(64))
    assert [(t.exponent, t.coefficient) for t in chain.terms_below(Z.element(4))] == [
        (Z.element(0), F3.one()),
    ]


def test_exhausted_difference_chain_merges_only_below_the_bound(pushes):
    # 1 - t - t^2 - ... - t^LINKS: every link is exhausted, yet merges only below t^3
    chain = L3.one()
    for i in range(1, LINKS + 1):
        chain = subtract(chain, L3.monomial(i))
    pushes[0] = 0
    assert chain.ensure_below(Z.element(3), Fuel(64))
    assert pushes[0] <= 50_000
    assert [(t.exponent, t.coefficient) for t in chain.terms_below(Z.element(3))] == [
        (Z.element(0), F3.one()), (Z.element(1), F3.element(2)), (Z.element(2), F3.element(2)),
    ]
    assert not chain.exhausted
    # a sum whose terms all cancel below the bound still ends exhausted
    x = L3.from_terms([(0, 1), (1, 1)])
    zero = subtract(x, x)
    assert zero.ensure_below(Z.element(3), Fuel(8)) and zero.exhausted
    # and a lead pull still finds an exact zero whose cancelling terms lie past the ceiling
    y = L3.from_terms([(0, 1), (40, 1)])
    v = valuation(subtract(y, y), PREC)
    assert not v.is_value and v.exhausted


# x = stream + leaf over F3, as paper:notCA's x is: (stream exponent i, leaf terms, bound
# of the comparisons, the group element at stream coordinate b, a ceiling above every
# term).  Over Z the leaf falls among the stream's terms and cancels one; over Z^2_lex
# one leaf term lies above them all
TAIL_CASES = {
    "Z": (Z, lambda i: (2 * i,), [((3,), 1), ((4,), 2)], Z.element(64), Z.element, Z.element(100)),
    "Z^2_lex": (LEX, lambda i: (0, 3 * i), [((1, 0), 2), ((0, 6), 1)], LEX.element(0, 90),
                lambda b: LEX.element(0, b), LEX.element(2, 0)),
}


def _stream_plus_leaf(name, length=None):
    """A builder of fresh copies of x, whose stream ends after ``length`` terms when given,
    and the oracle: x's (coordinates, rep) pairs in order, from a plain dict."""
    group, at, leaf, bound, element, _ = TAIL_CASES[name]
    field = SeriesField(group, F3)

    def gen():
        for i in range(length) if length else count():
            yield Term(GroupElement(group, at(i)), F3.element(1 + i % 2))

    terms = {at(i): 1 + i % 2 for i in range(length or 40)}  # 40 terms reach past the bound
    for c, v in leaf:
        terms[c] = (terms.get(c, 0) + v) % 3
    return (field, lambda: add(field.stream(GroupElement(group, at(0)), gen), field.from_terms(leaf)),
            sorted((c, v) for c, v in terms.items() if v), bound, element)


def _pairs(terms):
    return [(t.exponent.coords, t.coefficient.rep) for t in terms]


def _pulled_in_random_steps(s, bound, element, rng):
    """Lead pulls of a few terms and pulls to rising bounds, on small fuel, until complete below ``bound``."""
    while not s.complete_for(bound):
        if rng.random() < 0.5:
            s._pull(bound, Fuel(rng.randint(1, 3)), len(s._cache) + rng.randint(1, 3))
        else:
            s.ensure_below(min(bound, element(rng.randint(0, 100))), Fuel(rng.randint(1, 8)))


@pytest.mark.parametrize("name", sorted(TAIL_CASES))
@pytest.mark.parametrize("length", [None, 7])
def test_a_difference_of_a_cached_prefix_is_the_tail(name, length):
    field, make, oracle, bound, element = _stream_plus_leaf(name, length)
    below = [p for p in oracle if p[0] < bound.coords]
    rng = random.Random(f"{name}/{length}")
    k = 5
    for j in range(1, k + 1):
        for op, sign in ((subtract, 1), (add, -1)):
            for whole in (False, True):
                x = make()
                x._pull(bound, Fuel(64), k)  # k terms cached
                y = field.from_terms([(t.exponent, sign * t.coefficient.rep) for t in x._cache[:j]])
                s = op(x, y)
                assert type(s) is series._Sum and s.children == [x] and s._lag is not None
                assert s.floor == x.floor
                if whole:
                    s.ensure_below(bound, Fuel(10_000), whole=True)
                else:
                    _pulled_in_random_steps(s, bound, element, rng)
                assert _pairs(s.terms_below(bound)) == below[j:]
            if length:  # pulled whole, a finite x's tail ends with it
                assert s.exhausted and _pairs(s.witnessed_terms()) == oracle[j:]
    if length:  # less every term, a finite x is an exact zero; over Z, where x has not
        # yet seen its stream end, through its tail (an exhausted x merges, as a leaf folds)
        ceiling = TAIL_CASES[name][-1]
        x = make()
        x._pull(ceiling, Fuel(64), len(oracle))
        s = subtract(x, field.from_terms([(t.exponent, t.coefficient) for t in x._cache]))
        assert x.exhausted is (name != "Z") and (s.children == [x]) is not x.exhausted
        v = valuation(s, Precision(ceiling))
        assert not v.is_value and v.exhausted


@pytest.mark.parametrize("name", sorted(TAIL_CASES))
def test_a_chase_of_tails_matches_the_oracle(name):
    # r_k = r_{k-1} less its lead, as nearest_point subtracts it and as verify's chain adds its
    # negation: each tail skips down the chain to the node that does not forward
    field, make, oracle, bound, element = _stream_plus_leaf(name)
    prec = Precision(bound, max_terms=8)
    for op, sign in ((subtract, 1), (add, -1)):
        x = r = make()
        for k in range(20):
            lead = leading_term(r, prec)
            assert (lead.exponent.coords, lead.coefficient.rep) == oracle[k]
            r = op(r, field.monomial(lead.exponent, sign * lead.coefficient.rep))
        assert r.ensure_below(bound, Fuel(10_000))
        assert r.children[0] in [x] + x.children  # x, or x's own source once x forwards
        assert _pairs(r.terms_below(bound)) == [p for p in oracle[20:] if p[0] < bound.coords]


@pytest.mark.parametrize("name", sorted(TAIL_CASES))
def test_near_misses_of_a_cached_prefix_merge(name):
    field, make, oracle, bound, element = _stream_plus_leaf(name)
    below = dict(p for p in oracle if p[0] < bound.coords)

    def leaf(pairs):
        return field.from_terms([(GroupElement(field.group, c), v) for c, v in pairs])

    misses = {
        "one coefficient off": [oracle[0], (oracle[1][0], 3 - oracle[1][1])],
        "one term longer than the cache": oracle[:4],
        "out of prefix position": [oracle[1]],
        "zero": [],
    }
    for what, pairs in misses.items():
        for op, sign in ((subtract, 1), (add, -1)):
            x = make()
            x._pull(bound, Fuel(64), 3)
            s = op(x, leaf([(c, sign * v) for c, v in pairs]))
            assert not (type(s) is series._Sum and s.children == [x]), what
            expected = dict(below)
            for c, v in pairs:
                expected[c] = (expected.get(c, 0) - v) % 3
            assert s.ensure_below(bound, Fuel(10_000))
            assert _pairs(s.terms_below(bound)) == sorted((c, v) for c, v in expected.items() if v), what
    # a lazy y is not a leaf of cached terms: x - x merges, and is zero below the bound
    x = make()
    x._pull(bound, Fuel(64), 3)
    diff = subtract(x, x)
    assert diff.ensure_below(bound, Precision(bound, max_terms=64).fuel()) and not diff.terms_below(bound)
    # a leaf of another field or group never matches: the ambient check raises
    x = make()
    x._pull(bound, Fuel(64), 3)
    first = x._cache[0]
    for other in (SeriesField(field.group, F5), SeriesField(OrderedGroup.lex(len(first.exponent.coords) + 1), F3)):
        coords = first.exponent.coords + (0,) * (other.group.rank - field.group.rank)
        y = other.from_terms([(GroupElement(other.group, coords), first.coefficient.rep)])
        for op in (subtract, add):
            with pytest.raises(MismatchedAmbient):
                op(x, y)


def test_pull_through_a_long_multiply_chain():
    # (1 + t)^LINKS / (1 - t): the coefficient of t^k is sum_{j <= k} C(LINKS, j)
    one_plus_t = L3.from_terms([(0, 1), (1, 1)])
    chain = geometric(L3)
    for _ in range(LINKS):
        chain = multiply(chain, one_plus_t)
    assert chain.ensure_below(Z.element(3), Fuel(64))
    expected = [(Z.element(k), F3.element(sum(math.comb(LINKS, j) for j in range(k + 1))))
                for k in range(3)]
    assert [(t.exponent, t.coefficient) for t in chain.terms_below(Z.element(3))] == [
        (e, c) for e, c in expected if not c.is_zero()
    ]


# the exponent of a power stream's i-th term along each axis, written out per group
POWER_AXES = {
    "Z": (Z, -1, Z.element),
    "Q": (Q, -1, Q.element),
    "Z^2_lex axis 0": (LEX, 0, lambda e: LEX.element(e, 0)),
    "Z^2_lex axis 1": (LEX, 1, lambda e: LEX.element(0, e)),
}


@pytest.mark.parametrize("name", sorted(POWER_AXES))
def test_power_builders_give_explicit_terms(name):
    group, axis, element = POWER_AXES[name]
    field = SeriesField(group, F3)
    ceiling = element(30)
    for s, exponents in (
        (geometric(field, axis), range(30)),
        (artin_schreier(field, 3, axis), [1, 3, 9, 27]),
    ):
        assert s.ensure_below(ceiling, Fuel(64))
        assert [(t.exponent, t.coefficient) for t in s.terms_below(ceiling)] == [
            (element(e), F3.one()) for e in exponents
        ]


def test_not_ca_decision_work_grows_linearly(pushes, monkeypatch):
    # each residual of the chase is a tail of the last, which forwards to the target at
    # once; report serialization (quadratic by nature: the approximants hold about k^2/2
    # terms) is not counted.  About 3 units a step (7 if each step merges a new pair)
    from ultragram import reports, scenarios
    from ultragram.scenarios import apply_precision_overrides, load_scenario, run

    plain_json, plain_expand = reports.series_json, series._Sum._expand

    def uncounted(*args):
        before = pushes[0]
        out = plain_json(*args)
        pushes[0] = before
        return out

    def expand(self, *args):
        pushes[0] += 1  # each visit of a sum node counts too, so chain walks show
        return plain_expand(self, *args)

    for module in (reports, scenarios):
        monkeypatch.setattr(module, "series_json", uncounted)
    monkeypatch.setattr(series._Sum, "_expand", expand)
    scenario = load_scenario("paper:notCA")
    work = {}
    for max_terms in (64, 128, 256):
        pushes[0] = 0
        report = run(apply_precision_overrides(scenario, None, max_terms, None))
        result = report.tasks[0].outcome["result"]
        assert result["kind"] == "unbounded" and len(result["evidence"]) == max_terms
        work[max_terms] = pushes[0]
    assert work[128] <= 2.3 * work[64] and work[256] <= 2.3 * work[128], work
    assert all(work[m] <= 4 * m for m in work), work


def test_verified_telescoping_chase_builds_no_sum_nodes(monkeypatch):
    """t against t^i - t^(i+1) over Q: each step's differences hold two terms, so the
    chase and its verification merge them when built, and the nodes grow with max_terms:
    1,547 at max_terms 128.  Normalize leaves each member as it is and builds no unit for it.
    A chase step scales a member by the unit, which returns the member, and builds its negation
    and two merged leaves; the chain check, per approximant, a leaf of the change and a merged one."""
    from ultragram.scenarios import run, scenario_from_dict
    from ultragram.verify import verify_report

    nodes: dict = {}
    plain_init = series.Series.__init__

    def counted_init(self, *args):
        nodes[type(self).__name__] = nodes.get(type(self).__name__, 0) + 1
        plain_init(self, *args)

    monkeypatch.setattr(series.Series, "__init__", counted_init)
    work = []
    for max_terms in (64, 128):
        nodes.clear()
        scenario = scenario_from_dict({
            "name": f"chase-{max_terms}",
            "ambient": {"group": {"group": "Z"}, "coefficients": {"field": "Q"}},
            "base_field": {"kind": "trivial", "name": "Q"},
            "elements": {"target": [[1, 1]]},
            "tasks": [{"task": "nearest_point", "target": "target",
                       "family": {"family_builder": "telescoping", "start": 1, "count": "auto"}}],
            "precision": {"ceiling": 2 * max_terms + 40, "max_terms": max_terms, "degree_cap": 16},
        })
        report = run(scenario)
        assert report.tasks[0].outcome["kind"] == "unbounded"
        assert all(c["ok"] for c in verify_report(scenario, report))
        assert "_Sum" not in nodes, nodes
        work.append(sum(nodes.values()))
    assert work[1] <= 2.1 * work[0], work
    assert work[1] <= 1547, work


def test_whole_pull_after_a_plain_pull_reaches_the_end():
    # parts that end only at run time: 1/(t + t^50 - t^50) is 1/t once the sum is pulled
    # past t^50, and a stream ends once a pull reaches past its last term
    from ultragram.reports import series_json

    t = L5.monomial
    inverse = add(invert(subtract(add(t(1), t(50)), t(50)), PREC), t(100))
    ended = L5.stream(Z.element(1), lambda: iter([Term(Z.element(1), F5.one()), Term(Z.element(40), F5.one())]))
    stream_sum = add(add(ended, t(100)), t(200))
    for s in (inverse, stream_sum):
        assert s.ensure_below(PREC.ceiling, PREC.fuel())
    assert "complete_below" in series_json(stream_sum, PREC)  # the stream has not shown its end yet
    assert ended.ensure_below(Z.element(64), PREC.fuel()) and ended.exhausted
    assert series_json(inverse, PREC) == {"terms": [[["-1"], 1], [["100"], 1]], "exact": True}
    assert series_json(stream_sum, PREC) == {
        "terms": [[["1"], 1], [["40"], 1], [["100"], 1], [["200"], 1]], "exact": True,
    }


@pytest.mark.parametrize("case", ["inverse over Q", "product over Q", "product over F3"])
def test_whole_pull_to_a_lower_bound_keeps_the_settled_bound(case):
    # the pair-loop inverse and both product paths: a later, lower pull must not forget t^20
    field = SeriesField(Z, ResidueField.rationals() if case.endswith("Q") else F3)
    if case.startswith("inverse"):
        s = invert(field.from_terms([(0, 1), (1, -1)]), PREC)
    else:
        s = multiply(add(geometric(field), field.monomial(3)), add(geometric(field), field.monomial(2)))
    assert s.ensure_below(Z.element(20), Fuel(10_000))
    s.ensure_below(Z.element(5), Fuel(10_000), whole=True)
    assert s.complete_for(Z.element(20))


def _lazy_zero(field):
    """g - g' for two equal streams: zero, which no pull sees at once."""
    return subtract(geometric(field), geometric(field))


def test_a_pull_without_fuel_certifies_nothing():
    # no stream takes a term: the map and the product know no bound, and no product slot settles
    for s in (negate(geometric(L5)), multiply(geometric(L5), artin_schreier(L5, 2))):
        assert not s.ensure_below(Z.element(5), Fuel(0)) and not s.witnessed_terms()
    # fuel for x's six terms below 5 and none for y's: the product stops, as y cannot go on
    x, y = geometric(L5), geometric(L5)
    product = multiply(x, y)
    assert not product.ensure_below(Z.element(5), Fuel(6))
    assert len(x.witnessed_terms()) == 6 and not y.witnessed_terms() and not product.witnessed_terms()


def test_a_product_waits_for_its_lazy_factor_beside_an_exhausted_one():
    # the leaf 1 + t has no term more to give: each round asks the stream alone for one
    assert valuation(multiply(geometric(L5), L5.from_terms([(0, 1), (1, 1)])), PREC).value == Z.element(0)
    # a lazily zero factor settles no product slot, so the product is zero up to the ceiling
    assert valuation(multiply(geometric(L5), _lazy_zero(L5)), PREC).describe() == {"zero_up_to": ["32"]}


def test_the_inverse_of_a_lead_beside_a_lazy_zero_is_the_lead_inverse():
    inverse = invert(add(L5.one(), _lazy_zero(L5)), PREC)
    assert inverse.ensure_below(Z.element(10), PREC.fuel())
    assert inverse.terms_below(Z.element(10)) == [Term(Z.element(0), F5.one())]


def test_a_whole_pull_expands_a_shared_node_once():
    # twice the same lazy zero: the whole pull reaches it a second time after expanding it
    d = _lazy_zero(L5)
    assert valuation(sum_series(L5, [d, d]), PREC).describe() == {"zero_up_to": ["32"]}


def test_a_sum_pulls_only_the_children_below_its_next_key():
    # the lazy zero knows itself zero past t^5 once pulled, so while g - g' cancels up to t^5
    # only g and -g' are pulled again; the sum's lead is the monomial's
    parts = [geometric(L5), negate(geometric(L5)), _lazy_zero(L5), L5.monomial(5)]
    assert valuation(sum_series(L5, parts), PREC).value == Z.element(5)


def test_a_stream_floor_is_an_element_of_the_group():
    assert L5.stream(0, lambda: iter([])).floor == Z.element(0)
    with pytest.raises(TypeError):
        L5.stream(None, lambda: iter([]))
    with pytest.raises(MismatchedGroups):
        L5.stream(OrderedGroup.rationals().element(0), lambda: iter([]))


def test_a_sum_skips_only_the_forwarding_sums_it_has_read_past():
    # d merged its leaf's three terms and then came to forward to its stream; c and s each
    # merged one monomial and then came to forward to the sum below.  s's first forwarding
    # pull starts before c's own terms end, so it reads c; its second skips past c to d,
    # but starts before d's own terms end, so it reads d
    d = add(custom_powers(L5, lambda i: i + 5), L5.from_terms([(0, 1), (1, 1), (2, 1)]))
    assert d.ensure_below(Z.element(10), Fuel(100))
    c = add(d, L5.monomial(-1))
    s = add(c, L5.monomial(-2))
    assert valuation(c, PREC).value == Z.element(-1) and valuation(s, PREC).value == Z.element(-2)
    assert s.ensure_below(Z.element(1), Fuel(100)) and s.ensure_below(Z.element(20), Fuel(100))
    assert s.children == [d]
    assert [t.exponent.coords[0] for t in s.terms_below(Z.element(20))] == [-2, -1, 0, 1, 2] + list(range(5, 20))


@pytest.mark.parametrize("coefficients", [F5, ResidueField.rationals()], ids=["block", "pair loop"])
def test_an_inverse_stops_where_its_fuel_does(coefficients):
    # 1/(1 - t) is 1 + t + t^2 + ...: a unit of fuel per term, from the second term on
    field = SeriesField(Z, coefficients)
    for fuel in (0, 6):
        inverse = invert(field.from_terms([(0, 1), (1, -1)]), PREC)
        assert not inverse.ensure_below(Z.element(100), Fuel(fuel))
        assert [t.exponent.coords[0] for t in inverse.witnessed_terms()] == list(range(fuel + 1))
