"""Valuation independence, normalization and ultrametric orthogonalization.

The decision core: families of series over a subfield presentation are
partitioned by the coset of their values modulo vK, scaled to a common
value per class, and tested for Kv-linear independence of the residue
profile.  The same class/residue machinery drives the greedy nearest-point
reduction, whose residuals feed the orthogonalization loop.

A family keeps its class pass (``classify``: witnessed leads, coset-keyed
classes, classes known Kv-independent, the N1 to N4 check once made) for reuse
on the same object under an equal Precision.  Independence is read off that
record: a family is independent exactly when no class has a Kv-kernel, and N1
and N2 imply it.  One-member classes need no elimination and no N1 scan.  A
scaling keeps each coset and class rank, and N1 to N4 are per class or member,
so ``normalize`` keeps unit-scaled elements with their leads and hands the
family it returns the class record, and ``adjoin`` grows a basis in place: it
appends the scaled residual to the elements and to the class record, and
ranks and checks only its class.

Verdicts are three-valued.  Statements quantified over an infinite
subspace can only be refuted or evidenced at finite precision, so
unbounded reductions return strictly increasing value chains as evidence,
never as proof.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field
from enum import Enum
from functools import cached_property
from typing import Callable, Optional, Sequence

from .groups import GroupElement
from .presentations import SubfieldPresentation
from .residues import rank_over_subfield, solve_over_subfield
from .series import (
    Precision,
    Series,
    Term,
    Valuation,
    add,
    invert,
    leading_term,
    multiply,
    scaled,
    subtract,
    sum_series,
    valuation,
)


class ZeroElementInFamily(ValueError):
    pass


class UncertifiedSubspace(ValueError):
    pass


class NotNormalized(ValueError):
    pass


class NotIndependent(ValueError):
    pass


class ProbeInK(ValueError):
    pass


@dataclass
class Classification:
    """A family's class pass under one Precision, with the keys of its Kv-independent classes."""

    precision: Precision
    leads: list
    classes: dict
    independent: set = dataclass_field(default_factory=set)
    normalized: Optional["NormalizationCheck"] = None  # the N1 to N4 check, once made


@dataclass
class VectorFamily:
    """A finite ordered family of nonzero series over a presentation.

    ``relative_to`` names an independent subspace W to consider it over.  The
    ``classify`` record holds the only precision a family keeps.
    """

    elements: list
    over: SubfieldPresentation
    relative_to: Optional["VectorFamily"] = None
    scalings: Optional[tuple] = None
    classification: Optional[Classification] = dataclass_field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.elements)


def make_family(over: SubfieldPresentation, elements: Sequence[Series], relative_to=None) -> VectorFamily:
    return VectorFamily(list(elements), over, relative_to)


class VerdictKind(Enum):
    INDEPENDENT = "independent"
    DEPENDENT = "dependent"
    INCONCLUSIVE = "inconclusive"


@dataclass
class DependenceWitness:
    """Coefficients certifying v(sum c_i b_i + a) > min_i v(c_i b_i).

    Coefficient series are finite K-elements; re-evaluating the combination
    must reproduce the strict inequality.
    """

    coefficients: list
    min_value: GroupElement
    achieved: Valuation
    shift: Optional[Series] = None


@dataclass
class IndependenceVerdict:
    kind: VerdictKind
    scalings: Optional[list] = None    # the N1 K-scalars, for Independent verdicts
    witness: Optional[DependenceWitness] = None
    precision_note: Optional[str] = None


def classify(family: VectorFamily, prec: Precision) -> Classification:
    """Witnessed leading terms, and element indices grouped by the coset key
    of their value modulo vK, classes in order of first index.  The record
    is kept on the family and reused under an equal Precision."""
    record = family.classification
    if record is not None and record.precision == prec:
        return record
    vk = family.over.value_subgroup
    leads = []
    classes: dict[tuple, list[int]] = {}
    for i, x in enumerate(family.elements):
        t = _lead(x, i, prec)
        leads.append(t)
        classes.setdefault(vk.coset_key(t.exponent), []).append(i)
    family.classification = Classification(prec, leads, classes)
    return family.classification


def _lead(x: Series, index: int, prec: Precision) -> Term:
    t = leading_term(x, prec)
    if t is None:
        raise ZeroElementInFamily(f"element {index} has no witnessed term below {prec.ceiling}")
    return t


def _independent(family: VectorFamily, prec: Precision) -> bool:
    """Whether the family is independent: for a plain one, no class of its record has a Kv-kernel."""
    if family.relative_to is not None:
        return is_valuation_independent(family, prec).kind is VerdictKind.INDEPENDENT
    record = classify(family, prec)
    return all(_class_kernel(family.over, record, key) is None for key in record.classes)


def _class_kernel(K: SubfieldPresentation, record: Classification, key: tuple) -> Optional[list]:
    """A Kv-kernel vector of the class's residue profile res(a_i/a_first), None when
    it is Kv-independent (kept in the record); a one-member profile is [1]."""
    cls, leads = record.classes[key], record.leads
    if key in record.independent or len(cls) == 1:
        return None
    profile = [leads[i].coefficient / leads[cls[0]].coefficient for i in cls]
    rank, kernel = rank_over_subfield(profile, K.residue_field, K.ambient.coeff)
    if rank == len(cls):
        record.independent.add(key)
    return kernel[0] if rank < len(cls) else None


def _combination(K: SubfieldPresentation, coefficients: Sequence[Series], elements: Sequence[Series]) -> Series:
    """sum c_i e_i over the nonzero c_i."""
    return sum_series(K.ambient, [
        multiply(c, e) for c, e in zip(coefficients, elements) if not _is_zero_coefficient(c)
    ])


def is_valuation_independent(family: VectorFamily, prec: Precision) -> IndependenceVerdict:
    """Decide valuation independence of the family, over ``family.relative_to``
    when it is set.

    Per value-coset class, scale to a common value through the monomial
    section and test the residue profile for Kv-linear independence.  A
    kernel vector lifts to a dependence witness with a strict-inequality
    certificate; over W, the witness carries the W-part as its shift.
    """
    if family.relative_to is not None:
        return _independent_over(family, prec)
    K = family.over
    record = classify(family, prec)
    leads = record.leads
    scalings: list = [None] * len(leads)
    for key, cls in record.classes.items():
        gamma_ref = leads[cls[0]].exponent
        for i in cls:
            scalings[i] = K.monomial_section(gamma_ref - leads[i].exponent)
        kappa = _class_kernel(K, record, key)
        if kappa is None:
            continue
        coefficients = [K.ambient.zero()] * len(leads)
        for pos, i in enumerate(cls):
            if not kappa[pos].is_zero():
                coefficients[i] = K.ambient.monomial(gamma_ref - leads[i].exponent, K.embed_residue(kappa[pos]))
        achieved = valuation(_combination(K, coefficients, family.elements), prec)
        if not _strictly_above(achieved, gamma_ref):
            above, fuel = json.dumps(gamma_ref.describe(), separators=(",", ":")), prec.fuel().steps
            note = f"kernel witness not re-evaluated above {above}: the fuel of one valuation, {fuel} units, ran out"
            return IndependenceVerdict(VerdictKind.INCONCLUSIVE, precision_note=note)
        witness = DependenceWitness(coefficients, gamma_ref, achieved)
        return IndependenceVerdict(VerdictKind.DEPENDENT, witness=witness)
    return IndependenceVerdict(VerdictKind.INDEPENDENT, scalings=scalings)


def _strictly_above(achieved: Valuation, floor_value: GroupElement) -> bool:
    if achieved.is_value:
        return floor_value < achieved.value
    if achieved.exhausted:
        return True
    return achieved.up_to is not None and floor_value < achieved.up_to


def _is_zero_coefficient(c: Series) -> bool:
    return c.exhausted and not c.witnessed_terms()


def _independent_over(family: VectorFamily, prec: Precision) -> IndependenceVerdict:
    """Independence over the independent W = ``family.relative_to``: the plain check of W, then the family."""
    w_basis = family.relative_to
    if w_basis.over != family.over:
        raise UncertifiedSubspace("family and subspace use different presentations")
    if not _independent(w_basis, prec):
        raise UncertifiedSubspace("the subspace family is not valuation independent")
    m = len(w_basis.elements)
    combined = make_family(family.over, w_basis.elements + family.elements)
    verdict = is_valuation_independent(combined, prec)
    if verdict.kind is VerdictKind.INDEPENDENT:
        return IndependenceVerdict(VerdictKind.INDEPENDENT, verdict.scalings[m:])
    if verdict.kind is VerdictKind.DEPENDENT:
        w = verdict.witness
        body = w.coefficients[m:]
        shift = _combination(family.over, w.coefficients[:m], w_basis.elements)
        witness = DependenceWitness(body, w.min_value, w.achieved, shift)
        return IndependenceVerdict(VerdictKind.DEPENDENT, witness=witness)
    return verdict


# normalization: conditions N1 to N4


@dataclass
class NormalizationCheck:
    ok: bool
    condition: Optional[str] = None
    witness: Optional[dict] = None


def check_normalized(family: VectorFamily, prec: Precision) -> NormalizationCheck:
    """N1 to N4 over the whole family, made once per class pass and kept in its record."""
    record = classify(family, prec)
    if record.normalized is None:
        record.normalized = _normalization(family.over, record, record.classes, range(len(record.leads)))
    return record.normalized


def _normalization(K: SubfieldPresentation, record: Classification, keys, members) -> NormalizationCheck:
    """N1 and N2 over the classes of ``keys``, then N3 and N4 over ``members``."""
    leads, classes = record.leads, record.classes
    # the first class holding two values starts with the least index i of any
    # N1 pair (i, j), so it names the pair the pairwise scan finds first
    for key in keys:
        cls = classes[key]  # a one-member class holds one value: nothing to scan
        j = len(cls) > 1 and next((j for j in cls if leads[j].exponent != leads[cls[0]].exponent), None)
        if j:  # False, None or an index after cls[0], which is not 0
            return NormalizationCheck(False, "N1", {"indices": [cls[0], j]})
    for key in keys:
        kappa = _class_kernel(K, record, key)
        if kappa is not None:
            witness = {"indices": classes[key], "kernel": [c.describe() for c in kappa]}
            return NormalizationCheck(False, "N2", witness)
    zero = K.ambient.group.zero()
    in_vk = [i for key, cls in classes.items() if not any(key) for i in cls if i in members]  # vK's key is all 0
    for i in in_vk:
        if leads[i].exponent != zero:
            return NormalizationCheck(False, "N3", {"index": i})
    one = K.residue_field.one()
    for i in in_vk:  # each valued 0 now
        res = K.restrict_residue(leads[i].coefficient)
        if res is not None and res != one:
            return NormalizationCheck(False, "N4", {"index": i})
    return NormalizationCheck(True)


def normalize(family: VectorFamily, prec: Precision) -> VectorFamily:
    """Scale each element by a K-scalar so the family satisfies N1 to N4.

    Follows the constructive recipe: one common value per coset class (the
    trivial class is pulled to value 0), then residues lying in Kv are
    divided away.  Raises NotIndependent when the family is not valuation
    independent, read off its record.  Returns a plain family, handed its class
    record: N1 to N4 are conditions on the family alone.
    """
    if not _independent(family, prec):
        raise NotIndependent(f"cannot normalize a {is_valuation_independent(family, prec).kind.value} family")
    K = family.over
    record = classify(family, prec)
    leads, elements, unit = record.leads, family.elements, K.ambient.one()  # one unit for the members kept
    scalings, out, out_leads = [None] * len(leads), list(elements), list(leads)
    for cls in record.classes.values():
        for i in cls:  # a member kept as it is keeps its lead
            scalings[i], out[i] = _scale_member(K, elements[i], leads[i], leads[cls[0]].exponent, unit)
            out_leads[i] = leads[i] if out[i] is elements[i] else _lead(out[i], i, prec)
    # scaling by K-monomials and Kv-scalars keeps each value coset and the Kv-rank of its residues
    classes = {key: list(cls) for key, cls in record.classes.items()}  # copied, as adjoin grows them
    handed = Classification(prec, out_leads, classes, set(record.independent))
    return VectorFamily(out, K, scalings=tuple(scalings), classification=handed)


def _scale_member(K: SubfieldPresentation, x: Series, lead: Term, first: GroupElement, unit=None) -> tuple:
    """(s, s*x) for the K-scalar s scaling x into a class whose first value is ``first``:
    one monomial section to that value, or to 0 with the Kv residue divided away when
    it lies in vK.  (``unit`` or a new unit, x) when s is the unit."""
    zero, in_vk = K.ambient.group.zero(), K.value_in_subgroup(first)
    if lead.exponent is first and not in_vk:  # the class's first member: s is the unit
        return unit or K.ambient.one(), x
    delta = (zero if in_vk else first) - lead.exponent
    res = K.restrict_residue(lead.coefficient) if in_vk else None
    if res is None or res == K.residue_field.one():
        if delta == zero:
            return unit or K.ambient.one(), x
        scaling = K.monomial_section(delta)
    else:  # the check monomial_section makes, and one monomial with the residue divided away
        K.require_value(delta)
        scaling = K.ambient.monomial(delta, K.embed_residue(res.invert()))
    return scaling, multiply(scaling, x)


# nearest point reduction


class NearestKind(Enum):
    VALUE = "value"
    EXACT_MEMBER = "exact_member"
    UNBOUNDED = "unbounded"
    PRECISION_EXHAUSTED = "precision_exhausted"


@dataclass
class NearestPointResult:
    """A reduction's outcome.  Its ``coefficients``, K-elements c_i with sum c_i b_i = ``best``,
    are built by ``build_coefficients`` on their first read, once; ``adjoin`` reads none."""

    kind: NearestKind
    best: Series
    build_coefficients: Callable[[], list] = dataclass_field(repr=False, compare=False)
    value: Optional[GroupElement] = None
    evidence: list = dataclass_field(default_factory=list)
    initial_value: Optional[GroupElement] = None
    approximants: list = dataclass_field(default_factory=list)
    steps: list = dataclass_field(default_factory=list)

    @cached_property
    def coefficients(self) -> list:
        return self.build_coefficients()

    @property
    def full_evidence(self) -> list:
        """Witnessed elements of v(b - W) including the trivial approximant."""
        head = [self.initial_value] if self.initial_value is not None else []
        return head + list(self.evidence)


def nearest_point(b: Series, w_basis: VectorFamily, prec: Precision) -> NearestPointResult:
    """Greedy ultrametric reduction of b against a normalized basis of W.

    Each successful step strictly increases v(r); a failed coset or residue
    solve certifies the current value as max v(b - W).  Caps: a strictly
    increasing trace of max_terms values is reported as unboundedness
    evidence, while running out of witnessed terms below the ceiling is a
    precision verdict.  N1 and N2 make the basis independent.  The coefficients
    (b/b_1 for an exact member of a full field) are built when the result's are read.
    """
    K = w_basis.over
    check = check_normalized(w_basis, prec)
    if not check.ok:
        raise NotNormalized(f"basis violates {check.condition}")
    n = len(w_basis.elements)
    initial = current = valuation(b, prec)
    if K.full_field and n >= 1 and initial.is_value:
        w = w_basis.elements[0]
        return NearestPointResult(
            NearestKind.EXACT_MEMBER, b, lambda: [multiply(b, invert(w, prec))] + [K.ambient.zero()] * (n - 1),
            initial_value=initial.value,
        )

    r, best = b, K.ambient.zero()
    coeff_terms: dict = {}  # member index -> its terms, for the members a step touched
    evidence, approximants, steps = [], [], []

    def coefficients() -> list:
        out = [K.ambient.zero()] * n  # one zero, shared by the members no step touched
        for i, ts in coeff_terms.items():
            out[i] = K.ambient.from_terms(ts)
        return out

    def done(kind: NearestKind, value: Optional[GroupElement] = None) -> NearestPointResult:
        return NearestPointResult(
            kind, best, coefficients, value=value,
            evidence=evidence, initial_value=initial.value,
            approximants=approximants, steps=steps,
        )

    # N1 holds, so every class shares one value
    vk = K.value_subgroup
    record = classify(w_basis, prec)
    leads, table = record.leads, record.classes
    while current.is_value:
        gamma = current.value
        cls = table.get(vk.coset_key(gamma))
        if cls is None:
            return done(NearestKind.VALUE, gamma)
        common = leads[cls[0]].exponent
        delta = gamma - common
        K.require_value(delta)
        solution = solve_over_subfield(
            r._cache[0].coefficient, [leads[i].coefficient for i in cls],  # current is a value: r's lead
            K.residue_field, K.ambient.coeff,
        )
        if solution is None:
            return done(NearestKind.VALUE, gamma)
        kappa_used = [(i, c) for i, c in zip(cls, solution) if not c.is_zero()]
        lifts = [(i, K.embed_residue(c)) for i, c in kappa_used]
        for i, c in lifts:
            coeff_terms.setdefault(i, []).append((delta, c))
        # sum c * t^delta * b_i over the lifts: each b_i scaled as multiply scales by a monomial
        subtracted = sum_series(K.ambient, [scaled(w_basis.elements[i], delta, c) for i, c in lifts])
        best = add(best, subtracted)
        r = subtract(r, subtracted)
        steps.append({"value_killed": gamma, "class_value": common, "kappa": kappa_used})
        current = valuation(r, prec)
        if current.is_value:
            evidence.append(current.value)
            approximants.append(best)
            if len(evidence) >= prec.max_terms:
                return done(NearestKind.UNBOUNDED)
    if current.exhausted:
        return done(NearestKind.EXACT_MEMBER)
    return done(NearestKind.PRECISION_EXHAUSTED, current.up_to)


# orthogonalization


@dataclass
class OrthogonalizeResult:
    basis: Optional[VectorFamily] = None
    obstruction_index: Optional[int] = None
    obstruction: Optional[NearestPointResult] = None

    @property
    def ok(self) -> bool:
        return self.basis is not None


def adjoin(basis: VectorFamily, g: Series, prec: Precision) -> Optional[NearestPointResult]:
    """Reduce g against a normalized basis and adjoin the residual, in place.

    When the reduction ends at a value, the residual, scaled into its class
    as ``normalize`` scales a member, is appended to the basis's elements and
    to its class record; only the residual's class is ranked again and only
    its member checked for N1 to N4.  An exact member leaves the basis as it
    is, and an Unbounded or PrecisionExhausted reduction is returned as the
    obstruction.  A NotIndependent (an incomplete reduction) leaves the basis
    grown, with its record naming the N2 failure.  The ``scalings`` of a
    family ``normalize`` built still name only the members it scaled.
    """
    reduction = nearest_point(g, basis, prec)
    if reduction.kind is not NearestKind.VALUE:
        return None if reduction.kind is NearestKind.EXACT_MEMBER else reduction
    # a reduction that took no step leaves g itself; subtracting zero adds nodes
    residual = subtract(g, reduction.best) if reduction.steps else g
    K, n, record = basis.over, len(basis), classify(basis, prec)
    lead = _lead(residual, n, prec)
    key = K.value_subgroup.coset_key(lead.exponent)
    cls = record.classes.get(key, [])
    _, scaled = _scale_member(K, residual, lead, record.leads[cls[0]].exponent if cls else lead.exponent)
    record.leads.append(_lead(scaled, n, prec))  # the last step that can raise before the basis grows
    basis.elements.append(scaled)
    record.classes.setdefault(key, cls).append(n)
    record.independent.discard(key)
    record.normalized = _normalization(K, record, [key], [n])
    if record.normalized.condition == "N2":
        raise NotIndependent("residual failed the independence check; reduction was incomplete")
    return None


def orthogonalize(
    generators: Sequence[Series], K: SubfieldPresentation, prec: Precision
) -> OrthogonalizeResult:
    """Build a normalized valuation basis of the span, generator by generator.

    Starting from the empty basis, each generator is adjoined through
    ``adjoin``, which grows that one basis; an Unbounded or PrecisionExhausted
    reduction is returned as an obstruction for that generator.
    """
    basis = make_family(K, [])
    for index, g in enumerate(generators, start=1):
        if leading_term(g, prec) is None:
            raise ZeroElementInFamily(f"generator {index} has no witnessed term")
        obstruction = adjoin(basis, g, prec)
        if obstruction is not None:
            return OrthogonalizeResult(obstruction_index=index, obstruction=obstruction)
    return OrthogonalizeResult(basis=basis)


# immediacy evidence


def immediacy_evidence(
    K: SubfieldPresentation, probe: Series, prec: Precision
) -> NearestPointResult:
    """Chase v(probe - K) by reducing the probe against the basis {1} of K.

    K(probe)/K is immediate exactly when v(probe - K) has no maximum: a chase
    that ends at a value shows it is not, and its ``best`` is the maximizing
    a; any other chase's strictly increasing values are immediacy evidence.
    """
    reduction = nearest_point(probe, make_family(K, [K.ambient.one()]), prec)
    if reduction.kind is NearestKind.EXACT_MEMBER:
        raise ProbeInK("the probe reduces exactly into K")
    return reduction
