import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ultragram.residues import (
    DivisionByZero,
    FieldElement,
    MismatchedFields,
    ResidueField,
    embed_from_subfield,
    linear_rank,
    rank_over_subfield,
    restrict_to_subfield,
    solve_in_span,
    solve_over_subfield,
    subfield_vectorize,
)
from ultragram.scenarios import run, scenario_from_dict
from ultragram.verify import verify_report

F3 = ResidueField.prime(3)
F5 = ResidueField.prime(5)
Q = ResidueField.rationals()
F5s = ResidueField.rational_functions(5)


def test_field_ops_examples():
    assert F3.element(2).invert() == F3.element(2)  # 2*2 = 4 = 1 mod 3
    sp1 = F5s.element(1) + F5s.generator()
    assert sp1 * sp1.invert() == F5s.one()
    assert Q.element("1/2") + Q.element("1/3") == Q.element("5/6")


def test_invert_zero_raises():
    with pytest.raises(DivisionByZero):
        F3.zero().invert()
    with pytest.raises(DivisionByZero):
        F5s.zero().invert()


def test_function_field_canonical_form():
    # (s^2 - 1)/(s - 1) reduces to s + 1; denominators stay monic
    num = [4, 0, 1]  # s^2 - 1 over F5
    den = [4, 1]     # s - 1
    assert F5s.fraction(num, den) == F5s.fraction([1, 1], [1])
    # 2/(2s) reduces with a monic denominator
    assert F5s.fraction([2], [0, 2]) == F5s.fraction([1], [0, 1])
    assert repr(F5s.zero()) == "0" and repr(F5s.fraction([1], [0, 1])) == "(1)/(s)"
    assert repr(F5s.fraction([3, 2, 4], [1])) == "3+2*s+4*s^2" and repr(F5.element(7)) == "2"
    assert repr(F5s.fraction([0, 1, 1], [1])) == "s+s^2"  # a unit coefficient is not printed
    assert repr(Q.element(Fraction(-3, 4))) == "-3/4"
    # a (numerator, denominator) pair coerces as fraction() reads it
    assert F5s.element(([2], [0, 1])) == F5s.fraction([2], [0, 1])


def test_field_input_guards():
    with pytest.raises(ValueError, match="unsupported field kind 'R'"):
        ResidueField("R")
    with pytest.raises(MismatchedFields):
        F5.element(F3.one())
    with pytest.raises(MismatchedFields):
        F5.one() + F3.one()
    with pytest.raises(DivisionByZero, match="denominator vanishes mod p"):
        F5.element(Fraction(1, 10))
    with pytest.raises(DivisionByZero, match="zero denominator"):
        F5s.fraction([1], [0, 5])  # 5 s is zero over F5
    with pytest.raises(TypeError, match="cannot coerce"):
        F5s.element(([1], [1], [1]))
    with pytest.raises(TypeError, match="cannot coerce"):
        F5s.element(Fraction(1, 2))  # F5(s) takes ints and (num, den) pairs
    with pytest.raises(ValueError, match="p must be prime, got None"):
        ResidueField("Fp")
    with pytest.raises(MismatchedFields, match=r"fraction\(\) is for Fp\(s\)"):
        F5.fraction([1], [1])
    with pytest.raises(MismatchedFields, match=r"generator\(\) is for Fp\(s\)"):
        Q.generator()


def test_an_element_of_an_equal_field_is_taken_as_it_is():
    from ultragram.groups import OrderedGroup
    from ultragram.series import SeriesField

    twin = ResidueField.prime(5)
    x = twin.element(3)
    assert twin is not F5 and F5.element(x) is x
    leaf = SeriesField(OrderedGroup.integers(), F5).from_terms([(0, x)])
    assert [t.coefficient for t in leaf.witnessed_terms()] == [F5.element(3)]


@pytest.mark.parametrize("field", [F3, Q, F5s], ids=["F3", "Q", "F5(s)"])
def test_elements_reject_floats(field):
    # F3 would truncate 2.7 to 2 and Q would take the binary expansion of 0.1
    for value in (2.7, 0.1, 1.0):
        with pytest.raises(TypeError):
            field.element(value)
    assert field.element(1) == field.one()


@pytest.mark.parametrize("field", [F3, Q, F5s], ids=["F3", "Q", "F5(s)"])
def test_fields_and_elements_survive_pickling(field):
    x = field.element(2) if field is not F5s else F5s.generator() + F5s.element(2)
    back = pickle.loads(pickle.dumps(x))
    assert back == x and back.field == field
    assert back * back.invert() == field.one() and (back - x).is_zero()


def test_prime_requires_prime():
    # 561 is a Carmichael number, 2047 a strong pseudoprime to base 2 and
    # 3215031751 one to the bases 2, 3, 5 and 7
    for n in (6, 561, 2047, 3215031751, 2**64 + 13):
        with pytest.raises(ValueError):
            ResidueField.prime(n)


def test_prime_check_matches_trial_division():
    for n in range(5000):
        is_prime = n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))
        try:
            ResidueField.prime(n)
        except ValueError:
            assert not is_prime, n
        else:
            assert is_prime, n
    # the largest prime below 2**64, and the first prime above 10**18
    for p in (2**64 - 59, 10**18 + 3):
        assert ResidueField.rational_functions(p).p == p


def test_linear_rank_examples():
    rank, kernel = linear_rank([[F3.one(), F3.zero()], [F3.zero(), F3.one()]], F3)
    assert rank == 2 and kernel == []
    assert linear_rank([], F3) == (0, [])
    rows = [[F5.element(1), F5.element(2)], [F5.element(2), F5.element(4)]]
    rank, kernel = linear_rank(rows, F5)
    assert rank == 1 and len(kernel) == 1
    k = kernel[0]
    for col in range(2):
        acc = k[0] * rows[0][col] + k[1] * rows[1][col]
        assert acc.is_zero()
    with pytest.raises(ValueError, match="ragged row system"):
        linear_rank([[F3.one()], [F3.one(), F3.one()]], F3)


def test_rank_over_subfield_one_and_s():
    rank, kernel = rank_over_subfield([F5s.one(), F5s.generator()], F5, F5s)
    assert rank == 2 and kernel == []


@st.composite
def subfield_cases(draw):
    """F_p scalars, or F_p(s) scalars as (numerator, denominator) coefficient lists, lowest degree first."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    if draw(st.booleans()):
        return p, draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=4))
    coefficients = st.lists(st.integers(0, p - 1), max_size=4)
    return p, draw(st.lists(st.tuples(coefficients, coefficients.filter(any)), min_size=1, max_size=4))


@settings(max_examples=150, deadline=None)
@given(subfield_cases())
def test_rank_over_subfield_matches_sympy(case):
    """The rank over F_p, against sympy's rank over GF(p) of the scalars (F_p inside F_p)
    or of their numerator coefficients over a common denominator (F_p inside F_p(s))."""
    sympy = pytest.importorskip("sympy")
    domain_matrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix
    p, values = case
    gf, s = sympy.GF(p), sympy.Symbol("s")
    if isinstance(values[0], int):
        ambient = ResidueField.prime(p)
        elements = [ambient.element(c) for c in values]
        rows = [[c] for c in values]
    else:
        ambient = ResidueField.rational_functions(p)
        elements = [ambient.fraction(num, den) for num, den in values]
        nums, dens = ([sympy.Poly(c[::-1] or [0], s, modulus=p) for c in part] for part in zip(*values))
        common = dens[0]
        for d in dens[1:]:
            common = common.lcm(d)
        cleared = [(n * common.exquo(d)).all_coeffs()[::-1] for n, d in zip(nums, dens)]
        width = max(map(len, cleared))
        rows = [c + [0] * (width - len(c)) for c in cleared]
    expected = domain_matrix([[gf(c) for c in row] for row in rows], (len(rows), len(rows[0])), gf).rank()
    rank, kernel = rank_over_subfield(elements, ResidueField.prime(p), ambient)
    assert rank == expected and len(kernel) == len(elements) - rank


def test_solve_over_subfield_against_one_zero_element():
    # c * 0 = target: no c for a nonzero target, any c (zero here) for zero
    assert solve_over_subfield(F5s.generator(), [F5s.zero()], F5, F5s) is None
    assert solve_over_subfield(F5s.zero(), [F5s.zero()], F5, F5s) == [F5.zero()]
    assert (F5s.generator() * F5s.zero()).is_zero()
    assert restrict_to_subfield(F5s.zero(), F5, F5s) == F5.zero()
    assert rank_over_subfield([F5.one()], ResidueField.prime(5), F5) == (1, [])  # an equal field is no subfield


def test_solve_in_span_examples():
    basis = [[F3.one(), F3.element(2)]]
    sol = solve_in_span([F3.one(), F3.element(2)], basis, F3)
    assert sol == [F3.one()]
    assert solve_in_span([F3.zero(), F3.zero()], basis, F3) == [F3.zero()]
    # over F3 with basis {(1,1)}: (1,2) is not a multiple (oracle: 3 multiples)
    assert solve_in_span([F3.one(), F3.element(2)], [[F3.one(), F3.one()]], F3) is None
    with pytest.raises(ValueError, match="dimension mismatch"):
        solve_in_span([F3.one()], basis, F3)


def test_solve_over_subfield():
    sinv = F5s.generator().invert()
    assert solve_over_subfield(F5s.one(), [sinv], F5, F5s) is None
    sol = solve_over_subfield(sinv + sinv, [sinv], F5, F5s)
    assert sol == [F5.element(2)]


def test_restrict_and_embed():
    assert restrict_to_subfield(F5s.element(3), F5, F5s) == F5.element(3)
    assert restrict_to_subfield(F5s.generator(), F5, F5s) is None
    assert embed_from_subfield(F5.element(3), F5s) == F5s.element(3)


@pytest.mark.parametrize("sub", [F5, Q], ids=["F5", "Q"])
def test_unsupported_subfield_of_f3s_raises(sub):
    F3s = ResidueField.rational_functions(3)
    with pytest.raises(MismatchedFields):
        subfield_vectorize([F3s.one()], sub, F3s)
    with pytest.raises(MismatchedFields):
        restrict_to_subfield(F3s.one(), sub, F3s)
    with pytest.raises(MismatchedFields):
        embed_from_subfield(sub.one(), F3s)


def _random_rows(rng, field, n, m):
    return [[field.element(rng.randrange(field.p)) for _ in range(m)] for _ in range(n)]


def test_rank_invariant_under_permutation_and_scaling():
    rng = random.Random(7)
    for _ in range(60):
        rows = _random_rows(rng, F5, rng.randint(1, 4), rng.randint(1, 4))
        rank, _ = linear_rank(rows, F5)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        scaled = []
        for row in shuffled:
            c = F5.element(rng.randrange(1, 5))
            scaled.append([c * x for x in row])
        assert linear_rank(shuffled, F5)[0] == rank
        assert linear_rank(scaled, F5)[0] == rank


def test_solution_reconstructs_target():
    rng = random.Random(11)
    for _ in range(60):
        m, width = rng.randint(1, 3), rng.randint(1, 4)
        basis = _random_rows(rng, F5, m, width)
        coeffs = [F5.element(rng.randrange(5)) for _ in range(m)]
        target = [F5.zero()] * width
        for c, row in zip(coeffs, basis):
            target = [t + c * x for t, x in zip(target, row)]
        sol = solve_in_span(target, basis, F5)
        assert sol is not None
        rebuilt = [F5.zero()] * width
        for c, row in zip(sol, basis):
            rebuilt = [t + c * x for t, x in zip(rebuilt, row)]
        assert rebuilt == target


def test_appending_span_element_keeps_rank_and_yields_witness():
    rng = random.Random(13)
    for _ in range(40):
        m, width = rng.randint(1, 3), rng.randint(2, 4)
        basis = _random_rows(rng, F5, m, width)
        rank, _ = linear_rank(basis, F5)
        coeffs = [F5.element(rng.randrange(5)) for _ in range(m)]
        extra = [F5.zero()] * width
        for c, row in zip(coeffs, basis):
            extra = [t + c * x for t, x in zip(extra, row)]
        rank2, kernel = linear_rank(basis + [extra], F5)
        assert rank2 == rank
        if any(not c.is_zero() for c in extra) or rank == len(basis):
            assert kernel or rank < len(basis) + 1


@given(st.integers(0, 4), st.integers(0, 4), st.integers(1, 4))
def test_fp_field_axioms(a, b, c):
    x, y, z = F5.element(a), F5.element(b), F5.element(c)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert (z * z.invert()) == F5.one()


def _combine(coeffs, rows, width):
    """sum_i coeffs[i] * rows[i] over F3, as field elements."""
    out = [F3.zero()] * width
    for c, row in zip(coeffs, rows):
        out = [acc + c * x for acc, x in zip(out, row)]
    return out


_F3_VECTOR = st.lists(st.integers(0, 2), min_size=4, max_size=4)


@given(st.lists(_F3_VECTOR, max_size=4), _F3_VECTOR, st.integers(1, 4))
def test_elimination_matches_brute_force_span_over_f3(raw_rows, raw_target, width):
    rows = [[F3.element(x) for x in r[:width]] for r in raw_rows]
    target = [F3.element(x) for x in raw_target[:width]]
    m = len(rows)
    span = {
        tuple(_combine([F3.element(c) for c in cs], rows, width))
        for cs in itertools.product(range(3), repeat=m)
    }
    rank, kernel = linear_rank(rows, F3)
    assert 3**rank == len(span)
    assert len(kernel) == m - rank
    for k in kernel:
        assert all(x.is_zero() for x in _combine(k, rows, width))
    if kernel:
        assert linear_rank(kernel, F3)[0] == m - rank
    solution = solve_in_span(target, rows, F3)
    assert (solution is None) == (tuple(target) not in span)
    if solution is not None:
        assert _combine(solution, rows, width) == target


# shared constants and the one-member solve of nearest_point


@pytest.mark.parametrize("field", [F5, Q, F5s], ids=["Fp", "Q", "Fp(s)"])
def test_one_and_zero_are_shared_per_field(field):
    assert field.one() is field.one() and field.zero() is field.zero()
    assert field.one() == field.element(1) and field.zero() == field.element(0)
    # equality, hashing and repr read the fields only, as before the cache
    twin = ResidueField(field.kind, field.p)
    assert twin == field and hash(twin) == hash(field) and repr(twin) == repr(field)
    assert {field: 1}[twin] == 1
    assert twin.one() == field.one() and twin.one() is not field.one()
    assert field != ResidueField.prime(7)


def _nonzero(field, draw):
    if field.kind == "Fp":
        return field.element(draw(st.integers(1, field.p - 1)))
    if field.kind == "Q":
        return field.element(draw(st.fractions(max_denominator=6).filter(bool)))
    num = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3).filter(any))
    den = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3).filter(any))
    return field.fraction(num, den)


F3s = ResidueField.rational_functions(3)


@given(pair=st.sampled_from([(F3, F3), (Q, Q), (F3, F3s)]), data=st.data())
def test_one_element_solve_matches_elimination(pair, data):
    """c * b = target over the subfield: the one-division shortcut against the
    general elimination on the vectorized system."""
    sub, ambient = pair
    b = _nonzero(ambient, data.draw)
    target = ambient.zero() if data.draw(st.booleans()) else _nonzero(ambient, data.draw)
    if data.draw(st.booleans()):
        target = b * ambient.element(data.draw(st.integers(1, 2)))  # a solution in F_3
    rows = subfield_vectorize([b, target], sub, ambient)
    assert solve_over_subfield(target, [b], sub, ambient) == solve_in_span(rows[-1], rows[:-1], sub)


_Q_VALUES = st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=50))


def _agrees(element, oracle: Fraction) -> None:
    """A Q element has the oracle's value, as an int exactly when the value is integral."""
    assert (type(element.rep) is int) is (oracle.denominator == 1)
    twin = FieldElement(Q, oracle)  # the same value with a Fraction rep
    assert element == twin and hash(element) == hash(twin)
    assert element.describe() == str(oracle) and repr(element) == str(oracle)


@given(_Q_VALUES, _Q_VALUES)
def test_q_ops_match_the_fraction_oracle(a, b):
    x, y, fa, fb = Q.element(a), Q.element(b), Fraction(a), Fraction(b)
    _agrees(x, fa)
    for element, oracle in ((x + y, fa + fb), (x - y, fa - fb), (x * y, fa * fb), (-x, -fa)):
        _agrees(element, oracle)
    assert x - y == x + (-y)
    if fb:
        _agrees(x / y, fa / fb)
        _agrees(y.invert(), 1 / fb)


def test_q_reps_stay_int_through_unit_inverses():
    assert type(Q.element(-1).invert().rep) is int and Q.element(-1).invert() == Q.element(-1)
    assert Q.element(Fraction(6, 3)).rep == 2 and type(Q.element(Fraction(6, 3)).rep) is int
    assert type((Q.element(Fraction(1, 2)) * Q.element(2)).rep) is int
    assert Q.element(Fraction(-1, 3)).invert().rep == -3


def test_verified_q_chase_builds_no_fraction(monkeypatch):
    """t^5 against the telescoping family over Q, parsed, run and re-checked in ints.

    Arithmetic on Fractions starts from some Fraction, so counting the
    constructor counts every Fraction the run could build (CPython 3.12 on
    makes arithmetic results without calling it).
    """
    built = [0]
    plain_new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        built[0] += 1
        return plain_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    scenario = scenario_from_dict({
        "ambient": {"group": {"group": "Z"}, "coefficients": {"field": "Q"}},
        "base_field": {"kind": "trivial", "name": "Q"},
        "elements": {"target": [[5, 1]]},
        "tasks": [{"task": "nearest_point", "target": "target",
                   "family": {"family_builder": "telescoping", "start": 5, "count": "auto"}}],
        "precision": {"ceiling": 296, "max_terms": 128, "degree_cap": 16},
    })
    report = run(scenario)
    checks = verify_report(scenario, report)
    assert report.tasks[0].outcome["kind"] == "unbounded" and checks and all(c["ok"] for c in checks)
    assert built[0] == 0


@pytest.mark.parametrize("field", [F5, Q], ids=["Fp", "Q"])
@pytest.mark.parametrize("text, value", [("3", 3), ("-1/2", Fraction(-1, 2)), ("+4", 4), ("4/2", 2)])
def test_element_parses_number_strings(field, text, value):
    assert field.element(text) == field.element(value)


@pytest.mark.parametrize("field", [F5, Q], ids=["Fp", "Q"])
@pytest.mark.parametrize("text", ["1e2", " 3 ", "1.5", "1e300000", "\u0663", "", "1/2/3"])
def test_element_rejects_other_strings(field, text):
    """The strict number grammar of scenario input, not ``int`` or ``Fraction`` parsing."""
    with pytest.raises(ValueError):
        field.element(text)
