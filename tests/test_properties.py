"""Seed-fixed randomized property suites for the independence machinery.

Each property runs at least 200 cases.  Families are drawn over
F_5(t) inside F_5(s)((t^Q)) unless the property needs a different setting;
coefficients are drawn from the presentation's closure sampler.
"""

import random
from fractions import Fraction

from ultragram.groups import OrderedGroup, Subgroup
from ultragram.residues import ResidueField
from ultragram.series import (
    Precision,
    SeriesField,
    add,
    equal_up_to,
    leading_term,
    multiply,
    sum_series,
    valuation,
)
from ultragram.presentations import (
    SubfieldPresentation,
    completion_presentation,
    laurent_presentation,
    trivial_presentation,
)
from ultragram.spaces import (
    NearestKind,
    VerdictKind,
    ZeroElementInFamily,
    check_normalized,
    is_valuation_independent,
    make_family,
    nearest_point,
    normalize,
    orthogonalize,
)
from ultragram.verify import _residue_ranks

Z = OrderedGroup.integers()
Q = OrderedGroup.rationals()
F3 = ResidueField.prime(3)
F5 = ResidueField.prime(5)
F5s = ResidueField.rational_functions(5)

AMBIENT = SeriesField(Q, F5s)
K = laurent_presentation(AMBIENT, Q.element(1), residue_field=F5, name="F5(t)")
PREC = Precision(Q.element(24), max_terms=8)

CASES = 200


def _random_element(rng: random.Random):
    """A random nonzero series mixing value cosets and residue directions."""
    s = F5s.generator()
    pool = [F5s.element(i) for i in range(1, 5)] + [s, s + F5s.one(), s * s]
    count = rng.randint(1, 3)
    exponents = sorted(rng.sample([Fraction(k, 2) for k in range(-4, 10)], count))
    return AMBIENT.from_terms([(Q.element(e), rng.choice(pool)) for e in exponents])


def _random_family(rng: random.Random, max_size=3):
    return [_random_element(rng) for _ in range(rng.randint(1, max_size))]


def _value_of(x, prec=PREC):
    lead = leading_term(x, prec)
    assert lead is not None
    return lead.exponent


def _min_equality_holds(family, coefficients, prec=PREC) -> bool:
    parts = []
    summand_values = []
    for c, b in zip(coefficients, family):
        if c.exhausted and not c.witnessed_terms():
            continue
        parts.append(multiply(c, b))
        summand_values.append(_value_of(c, prec) + _value_of(b, prec))
    if not parts:
        return True
    total = sum_series(AMBIENT, parts)
    expected = min(summand_values)
    val = valuation(total, prec)
    return val.is_value and val.value == expected


def test_min_equality_soundness_of_independent_verdicts():
    rng = random.Random(101)
    accepted = 0
    attempts = 0
    while accepted < CASES:
        attempts += 1
        assert attempts < 40 * CASES, "generator failed to find independent families"
        family = _random_family(rng)
        verdict = is_valuation_independent(make_family(K, family), PREC)
        if verdict.kind is not VerdictKind.INDEPENDENT:
            continue
        coefficients = [K.sample_element(rng, 3) for _ in family]
        assert _min_equality_holds(family, coefficients)
        accepted += 1


def test_residue_criterion_fails_wherever_a_sampled_combination_breaks_min_equality():
    """The verifier's residue criterion rejects every family that 20 sampled finite
    combinations can catch breaking minimum equality, and agrees with the decision procedure."""
    rng = random.Random(107)
    caught = 0
    for _ in range(CASES):
        family = _random_family(rng)
        failure = _residue_ranks([leading_term(b, PREC) for b in family], K)
        verdict = is_valuation_independent(make_family(K, family), PREC)
        assert (failure is None) == (verdict.kind is VerdictKind.INDEPENDENT)
        if any(not _min_equality_holds(family, [K.sample_element(rng, 2) for _ in family]) for _ in range(20)):
            assert failure is not None
            caught += 1
    assert caught >= 10  # not vacuous: at this seed 20 samples catch 12 of the 46 families the criterion rejects


def test_dependent_witnesses_reproduce_strict_inequality():
    rng = random.Random(103)
    seen = 0
    attempts = 0
    while seen < CASES:
        attempts += 1
        assert attempts < 60 * CASES
        family = _random_family(rng)
        verdict = is_valuation_independent(make_family(K, family), PREC)
        if verdict.kind is not VerdictKind.DEPENDENT:
            continue
        w = verdict.witness
        parts = [
            multiply(c, b)
            for c, b in zip(w.coefficients, family)
            if not (c.exhausted and not c.witnessed_terms())
        ]
        total = sum_series(AMBIENT, parts)
        val = valuation(total, PREC)
        assert (val.is_value and w.min_value < val.value) or (
            not val.is_value and (val.exhausted or w.min_value < val.up_to)
        )
        seen += 1


def test_independence_implies_linear_independence():
    # brute force small exact linear relations against independent verdicts
    rng = random.Random(105)
    accepted = 0
    attempts = 0
    while accepted < CASES:
        attempts += 1
        assert attempts < 40 * CASES
        family = _random_family(rng, max_size=2)
        verdict = is_valuation_independent(make_family(K, family), PREC)
        if verdict.kind is not VerdictKind.INDEPENDENT:
            continue
        coefficients = [K.sample_element(rng, 2) for _ in family]
        total = sum_series(AMBIENT, [multiply(c, b) for c, b in zip(coefficients, family)])
        val = valuation(total, PREC)
        assert val.is_value  # a nonzero combination cannot vanish
        accepted += 1


def test_scaling_invariance():
    rng = random.Random(107)
    for _ in range(CASES):
        family = _random_family(rng)
        verdict = is_valuation_independent(make_family(K, family), PREC).kind
        scaled = [multiply(K.sample_element(rng, 2), b) for b in family]
        scaled_verdict = is_valuation_independent(make_family(K, scaled), PREC).kind
        assert verdict == scaled_verdict


def test_transitivity():
    rng = random.Random(109)
    checked = 0
    attempts = 0
    while checked < CASES:
        attempts += 1
        assert attempts < 60 * CASES
        w_elements = _random_family(rng, max_size=2)
        w_family = make_family(K, w_elements)
        if is_valuation_independent(w_family, PREC).kind is not VerdictKind.INDEPENDENT:
            continue
        b1 = _random_family(rng, max_size=2)
        b2 = _random_family(rng, max_size=2)
        lhs = is_valuation_independent(make_family(K, b1 + b2, relative_to=w_family), PREC).kind
        first = is_valuation_independent(make_family(K, b1, relative_to=w_family), PREC).kind
        if first is VerdictKind.INDEPENDENT:
            extended = make_family(K, w_elements + b1)
            is_valuation_independent(extended, PREC)
            second = is_valuation_independent(make_family(K, b2, relative_to=extended), PREC).kind
            expected = (
                VerdictKind.INDEPENDENT
                if second is VerdictKind.INDEPENDENT
                else VerdictKind.DEPENDENT
            )
        else:
            expected = VerdictKind.DEPENDENT
        assert lhs == expected
        checked += 1


def test_normalize_idempotent_and_compliant():
    rng = random.Random(111)
    accepted = 0
    attempts = 0
    while accepted < CASES:
        attempts += 1
        assert attempts < 40 * CASES
        family = _random_family(rng)
        fam = make_family(K, family)
        if is_valuation_independent(fam, PREC).kind is not VerdictKind.INDEPENDENT:
            continue
        normalized = normalize(fam, PREC)
        assert check_normalized(normalized, PREC).ok
        # elementwise K-multiple of the input
        for out, scaling, original in zip(normalized.elements, normalized.scalings, family):
            assert equal_up_to(out, multiply(scaling, original), PREC.ceiling, PREC)
        # idempotence: renormalizing scales by units only
        again = normalize(normalized, PREC)
        for s in again.scalings:
            lead = leading_term(s, PREC)
            assert lead.exponent == Q.element(0)
            assert lead.coefficient == AMBIENT.coeff.one()
        accepted += 1


def test_perturbation_stability():
    # normalized independent family stays normalized independent under
    # strictly-higher-value perturbations
    rng = random.Random(113)
    accepted = 0
    attempts = 0
    while accepted < CASES:
        attempts += 1
        assert attempts < 40 * CASES
        family = _random_family(rng)
        fam = make_family(K, family)
        if is_valuation_independent(fam, PREC).kind is not VerdictKind.INDEPENDENT:
            continue
        normalized = normalize(fam, PREC)
        s = F5s.generator()
        pool = [F5s.element(i) for i in range(1, 5)] + [s, s + F5s.one()]
        perturbed = []
        for u in normalized.elements:
            v = _value_of(u)
            bump = Q.element(Fraction(rng.randint(1, 4), 2))
            h = AMBIENT.from_terms([(v + bump, rng.choice(pool))])
            perturbed.append(add(u, h))
        pfam = make_family(K, perturbed)
        assert check_normalized(pfam, PREC).ok
        assert is_valuation_independent(pfam, PREC).kind is VerdictKind.INDEPENDENT
        accepted += 1


def test_value_set_identity():
    rng = random.Random(115)
    vk = K.value_subgroup
    accepted = 0
    attempts = 0
    while accepted < CASES:
        attempts += 1
        assert attempts < 40 * CASES
        family = _random_family(rng)
        fam = make_family(K, family)
        if is_valuation_independent(fam, PREC).kind is not VerdictKind.INDEPENDENT:
            continue
        basis_values = [_value_of(b) for b in family]
        # sampled direction: v(sum c_i b_i) lands in v(K) + v(B)
        coefficients = [K.sample_element(rng, 2) for b in family]
        total = sum_series(AMBIENT, [multiply(c, b) for c, b in zip(coefficients, family)])
        val = valuation(total, PREC)
        assert val.is_value
        assert any(vk.contains(val.value - bv) for bv in basis_values)
        # realization direction: each value delta + v(b_i) is achieved
        delta = Q.element(rng.randint(-2, 2))
        index = rng.randrange(len(family))
        realized = multiply(K.monomial_section(delta), family[index])
        assert _value_of(realized) == delta + basis_values[index]
        accepted += 1


def _poly_from(series, bound=40):
    fuel = Precision(Z.element(bound), max_terms=64).fuel()
    fuel.steps = 10_000
    assert series.ensure_below(Z.element(bound), fuel)
    return {int(t.exponent.coords[0]): t.coefficient for t in series.terms_below(Z.element(bound))}


def test_nearest_point_matches_exhaustive_oracle():
    # trivially valued F_3 scalars, exponent range at most 6: the oracle
    # enumerates every coefficient tuple, so the maximum is exact
    ambient = SeriesField(Z, F3)
    k_triv = trivial_presentation(ambient, name="F3")
    prec = Precision(Z.element(24), max_terms=8)
    rng = random.Random(117)
    accepted = 0
    attempts = 0
    while accepted < CASES:
        attempts += 1
        assert attempts < 60 * CASES

        def random_poly():
            support = sorted(rng.sample(range(0, 7), rng.randint(1, 3)))
            return ambient.from_terms([(e, rng.randrange(1, 3)) for e in support])

        size = rng.randint(1, 3)
        elements = [random_poly() for _ in range(size)]
        fam = make_family(k_triv, elements)
        try:
            verdict = is_valuation_independent(fam, prec)
        except ZeroElementInFamily:
            continue
        if verdict.kind is not VerdictKind.INDEPENDENT:
            continue
        basis = normalize(fam, prec)
        target = random_poly()
        result = nearest_point(target, basis, prec)

        target_poly = _poly_from(target)
        basis_polys = [_poly_from(b) for b in basis.elements]
        best = None
        tuples = [[]]
        for _ in basis_polys:
            tuples = [t + [c] for t in tuples for c in range(3)]
        for combo in tuples:
            diff = dict(target_poly)
            for c, poly in zip(combo, basis_polys):
                if c == 0:
                    continue
                fc = F3.element(c)
                for e, coeff in poly.items():
                    acc = diff.get(e, F3.zero()) + fc * coeff
                    diff[e] = acc
            support = [e for e, coeff in diff.items() if not coeff.is_zero()]
            val = min(support) if support else None  # None encodes infinity
            if best is None or (val is None) or (best is not None and val is not None and val > best):
                if val is None:
                    best = None
                    break
                best = val if best is None or val > best else best
        if best is None:
            assert result.kind is NearestKind.EXACT_MEMBER
        else:
            assert result.kind is NearestKind.VALUE
            assert int(result.value.coords[0]) == best
        accepted += 1


def test_immediate_extension_transfer():
    # standard K-independent families stay independent over the completion,
    # sampled with completion-side coefficients
    ambient = SeriesField(Q, F5s)
    k_small = laurent_presentation(ambient, Q.element(1), residue_field=F5, name="F5(t)")
    m_hat = completion_presentation(ambient, Q.element(1), residue_field=F5, name="F5((t))")
    prec = Precision(Q.element(24), max_terms=8)
    rng = random.Random(119)
    s = F5s.generator()
    x_pool = [ambient.one(), ambient.monomial("1/2"), ambient.monomial("1/3", 2)]
    y_pool = [ambient.one(), ambient.from_terms([(0, s)]), ambient.from_terms([(0, s * s)])]
    for _ in range(CASES):
        xs = rng.sample(x_pool, rng.randint(1, 2))
        ys = rng.sample(y_pool, rng.randint(1, 2))
        family = [multiply(x, y) for x in xs for y in ys]
        verdict_k = is_valuation_independent(make_family(k_small, family), prec)
        assert verdict_k.kind is VerdictKind.INDEPENDENT
        verdict_m = is_valuation_independent(make_family(m_hat, family), prec)
        assert verdict_m.kind is VerdictKind.INDEPENDENT
        coefficients = [m_hat.sample_element(rng, 3) for _ in family]
        parts = [multiply(c, b) for c, b in zip(coefficients, family)]
        total = sum_series(ambient, parts)
        expected = min(
            _value_of(c, prec) + _value_of(b, prec)
            for c, b in zip(coefficients, family)
        )
        val = valuation(total, prec)
        assert val.is_value and val.value == expected


def test_baur_sampling_over_completion():
    # over the maximal field presentation every sampled family has a basis
    ambient = SeriesField(Z, F3)
    khat = completion_presentation(ambient, Z.element(1), name="F3((t))")
    assert khat.full_field
    prec = Precision(Z.element(32), max_terms=8)
    rng = random.Random(121)
    for _ in range(100):
        count = rng.randint(1, 3)
        generators = [khat.sample_element(rng, 5) for _ in range(count)]
        result = orthogonalize(generators, khat, prec)
        assert result.ok, "obstruction over a maximal field"
        for g in generators:
            reduction = nearest_point(g, result.basis, prec)
            assert reduction.kind is NearestKind.EXACT_MEMBER


def test_orthogonalize_preserves_span_and_dimension():
    rng = random.Random(123)
    accepted = 0
    attempts = 0
    while accepted < CASES:
        attempts += 1
        assert attempts < 40 * CASES
        generators = _random_family(rng, max_size=3)
        result = orthogonalize(generators, K, PREC)
        if not result.ok:
            continue
        basis = result.basis
        assert len(basis) <= len(generators)
        for g in generators:
            reduction = nearest_point(g, basis, PREC)
            assert reduction.kind is NearestKind.EXACT_MEMBER
        accepted += 1


# the first 20 samples of each base from random.Random(seed), seeds 1..4; no digest
# or golden sees a changed draw (every baur-sampling outcome is the same)
SAMPLE_DRAWS = {
    "F3(t)": ['1:1', '-3:2 0:2', '-3:2 -2:1 0:2', '-3:2 1:2', '-2:1 1:2 3:1', '-3:1', '-2:2 2:1',
              '-2:1 0:2 2:1', '-2:1 -1:2 0:1', '2:2', '2:2', '0:1 1:2 2:2', '0:1 1:2 3:1', '0:1 2:2 3:2',
              '0:1', '1:2', '0:1 2:2', '-1:2', '-2:1 1:1 3:1', '-2:2 1:2 3:2'],
    "F3((t))": ['-3:1', '-2:2 3:2', '-3:1 -2:2 1:2', '-1:2 1:2 3:1', '-1:2', '0:1 3:1', '-2:1', '-1:1', '1:2',
                '-2:2 1:2 2:2', '-1:1 0:2 3:2', '-2:2 0:2 1:2', '-1:2 0:2 3:1', '2:1 3:2', '-1:2 3:2',
                '-2:2 0:1 1:2', '-3:1 -2:1 3:2', '-3:1 -2:2 2:1', '-3:2', '-3:2 2:2 3:1'],
    "Q": ['0:1/2', '0:2', '0:3', '0:2/3', '0:-1', '0:1', '0:2/3', '0:-2', '0:1/2', '0:1/2', '0:2/3', '0:2/3',
          '0:-1/2', '0:2', '0:1/2', '0:2', '0:-1/2', '0:1', '0:-1', '0:2'],
    "F3(t^(1/2))": ['-1/2:[1]/[1]', '-1:[1]/[1] 0:[1]/[1] 3/2:[1]/[1]', '-1/2:[1]/[1] 1/2:[1]/[1]',
                    '-1/2:[1]/[1] 1/2:[1]/[1] 1:[2]/[1]', '-3/2:[2]/[1]', '-1:[2]/[1] 3/2:[2]/[1]',
                    '-1/2:[1]/[1] 1:[2]/[1] 3/2:[2]/[1]', '-1:[2]/[1] 1:[2]/[1] 3/2:[1]/[1]',
                    '-3/2:[2]/[1] -1/2:[2]/[1] 3/2:[1]/[1]', '0:[2]/[1] 1/2:[2]/[1]', '-1:[2]/[1] 3/2:[2]/[1]',
                    '-3/2:[1]/[1]', '-1/2:[2]/[1] 1:[2]/[1]', '1:[1]/[1]', '0:[1]/[1]',
                    '-1/2:[1]/[1] 0:[2]/[1] 1:[2]/[1]', '-1/2:[1]/[1] 1/2:[2]/[1] 3/2:[1]/[1]', '1:[1]/[1]',
                    '1/2:[1]/[1] 3/2:[1]/[1]', '-1:[2]/[1] -1/2:[1]/[1]'],
}


def _term_text(series) -> str:
    out = []
    for t in series.witnessed_terms():
        c = t.coefficient.describe()
        if isinstance(c, dict):  # Fp(s): numerator and denominator coefficient lists
            c = f"{c['num']}/{c['den']}"
        out.append(f"{','.join(map(str, t.exponent.coords))}:{c}")
    return " ".join(out)


def test_sample_element_draws_are_pinned():
    F3s = ResidueField.rational_functions(3)
    bases = [
        laurent_presentation(SeriesField(Z, F3), Z.element(1), name="F3(t)"),
        completion_presentation(SeriesField(Z, F3), Z.element(1), name="F3((t))"),
        trivial_presentation(SeriesField(Z, ResidueField.rationals()), name="Q"),
        laurent_presentation(SeriesField(Q, F3s), Q.element(Fraction(1, 2)), residue_field=F3, name="F3(t^(1/2))"),
    ]
    for seed, K in enumerate(bases, 1):
        rng = random.Random(seed)
        samples = [K.sample_element(rng, 3) for _ in range(20)]
        assert all(s.exhausted for s in samples)
        assert [_term_text(s) for s in samples] == SAMPLE_DRAWS[K.name], K.name


def test_the_residue_memo_keeps_only_the_residues_drawn(monkeypatch):
    """A drawn pool residue is embedded once, on its first draw: the memo is never a table of p - 1,
    and the pool itself is built once."""
    Fp = ResidueField.prime(2**61 - 1)
    K = laurent_presentation(SeriesField(Z, Fp), Z.element(1), name="Fp(t)")
    rng = random.Random(5)
    draws = [K._nonzero_residue(rng) for _ in range(1000)]
    assert len(K._residues) <= len({r.rep for r, _ in draws})
    assert all(e.field is K.ambient.coeff for _, e in draws)
    small = laurent_presentation(SeriesField(Z, F3), Z.element(1), name="F3(t)")
    again = [small._nonzero_residue(rng) for _ in range(20)]
    assert len(small._residues) == 2 and len({id(d) for d in again}) == 2
    rationals = trivial_presentation(SeriesField(Z, ResidueField.rationals()), name="Q")
    coerced, plain = [], ResidueField.element
    monkeypatch.setattr(ResidueField, "element", lambda self, value: coerced.append(value) or plain(self, value))
    for _ in range(50):
        rationals._nonzero_residue(rng)
    assert len(coerced) <= 16  # the 8 extras of the pool, once, and each one's embedding on its first draw


def test_a_trivially_valued_subfield_samples_through_residue_section(monkeypatch):
    """Kv = F3 inside F3(s) with vK = {0}: every window is {0}, so each sample is a residue
    section, which takes a residue of Kv; an embedded one would raise MismatchedFields."""
    F3s = ResidueField.rational_functions(3)
    K = SubfieldPresentation(SeriesField(Z, F3s), "F3", Subgroup.trivial(Z), F3)
    fields, plain = [], SubfieldPresentation.residue_section

    def recorded(self, residue):
        fields.append(residue.field)
        return plain(self, residue)

    monkeypatch.setattr(SubfieldPresentation, "residue_section", recorded)
    rng = random.Random(3)
    samples = [K.sample_element(rng, 4) for _ in range(20)]
    assert len(fields) == 20 and all(f is F3 for f in fields)
    assert {_term_text(s) for s in samples} == {"0:[1]/[1]", "0:[2]/[1]"}
