"""Finite-extension diagnostics at a fixed embedding.

Dimension by power-product orthogonalization, ramification index and
residue degree read off a normalized basis, the defect index n/(e*f), and
the cofinal completion-approximation that replaces completion-side basis
coefficients by finite truncations without losing independence.

The verdict is embedding-relative: a failed equality n = e*f is reported
as obstructed or inconclusive with evidence, never classified as genuine
defect versus a split of the valuation, which would require henselization
machinery that is out of scope here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .groups import GroupElement, Subgroup, is_cofinal, subgroup_index
from .presentations import SubfieldPresentation
from .series import (
    Precision,
    PrecisionExhausted,
    Series,
    Valuation,
    leading_term,
    multiply,
    subtract,
    valuation,
)
from .spaces import (
    NearestKind,
    NearestPointResult,
    NotIndependent,
    NotNormalized,
    OrthogonalizeResult,
    VectorFamily,
    VerdictKind,
    ZeroElementInFamily,
    _combination,
    _independent,
    _strictly_above,
    adjoin,
    check_normalized,
    classify,
    is_valuation_independent,
    make_family,
    nearest_point,
    orthogonalize,
)


class NotFieldClosed(ValueError):
    pass


class NotCofinal(ValueError):
    pass


@dataclass
class ClosureResult(OrthogonalizeResult):
    partial_dimension: Optional[int] = None  # set when the span outgrew prec.degree_cap


def span_closure_basis(
    generators: Sequence[Series],
    K: SubfieldPresentation,
    prec: Precision,
) -> ClosureResult:
    """Orthogonalize power products of the generators until the span closes.

    Seeds with 1 (obstruction indices count it first), then repeatedly
    adjoins basis*generator products; the span is closed when a full pass
    adjoins nothing.  Each basis element is multiplied by each generator
    once: a product already adjoined lies in the span, so a pass takes, per
    generator, only the elements added since that generator's last pass.
    The seed's first member, 1 itself, is skipped: 1*g is g, which the seed
    adjoined, and reducing it again need not end when g is infinite.
    Exceeding ``prec.degree_cap`` reports the partial dimension instead of a basis.
    """
    try:
        seed = orthogonalize([K.ambient.one()] + list(generators), K, prec)
    except ZeroElementInFamily:  # its index counts the seed 1: name the generator among the generators
        index = next(i for i, g in enumerate(generators, start=1) if leading_term(g, prec) is None)
        raise ZeroElementInFamily(f"generator {index} has no witnessed term") from None
    if not seed.ok:
        return ClosureResult(obstruction_index=seed.obstruction_index, obstruction=seed.obstruction)
    basis = seed.basis
    multiplied = [1] * len(generators)  # per generator, the basis prefix it has multiplied
    while len(basis) <= prec.degree_cap:
        size = len(basis)
        for k, g in enumerate(generators):
            fresh, multiplied[k] = basis.elements[multiplied[k]:], len(basis)
            for b in fresh:
                obstruction = adjoin(basis, multiply(b, g), prec)
                if obstruction is not None:
                    return ClosureResult(obstruction_index=len(basis) + 1, obstruction=obstruction)
                if len(basis) > prec.degree_cap:
                    return ClosureResult(partial_dimension=len(basis))
        if len(basis) == size:
            return ClosureResult(basis=basis)
    return ClosureResult(partial_dimension=len(basis))


@dataclass
class RamificationData:
    e: int
    f: int
    x_part: list          # coset representatives, 1 first when present
    y_part: list          # residue-basis lifts of the value-zero class


def _value_span(K: SubfieldPresentation, values: Sequence[GroupElement]) -> Subgroup:
    """The subgroup generated by vK and the nonzero values."""
    return Subgroup.spanned_by(
        K.ambient.group, list(K.value_subgroup.generators) + [v for v in values if not v.is_zero()]
    )


def ramification_and_residue(basis: VectorFamily, prec: Precision) -> RamificationData:
    """Read e and f off a normalized basis over its presentation ``basis.over``.

    X takes one element per value coset; Y takes the value-zero class,
    whose residues are a witnessed Kv-basis of the residue extension.  The
    coset count is cross-checked against the exact subgroup index of vK in
    the group generated by vK and the basis values.
    """
    K = basis.over
    check = check_normalized(basis, prec)
    if not check.ok:
        raise NotNormalized(f"ramification data needs a normalized basis ({check.condition})")
    record = classify(basis, prec)  # the record check_normalized just read
    leads, classes = record.leads, record.classes
    values = [t.exponent for t in leads]
    zero = K.ambient.group.zero()
    one_kv = K.residue_field.one()

    def prefer_unit(indices: list[int]) -> list[int]:
        def not_unit(i: int) -> bool:
            return values[i] != zero or K.restrict_residue(leads[i].coefficient) != one_kv
        return sorted(indices, key=not_unit)

    x_indices = []
    y_indices: list[int] = []
    for cls in classes.values():
        ordered = prefer_unit(cls)
        x_indices.append(ordered[0])
        if values[cls[0]] == zero:
            y_indices = ordered
    e = len(classes)
    # cross-check against the exact index of vK in the generated value group:
    # always an upper bound for the witnessed coset count, an equality when
    # the value cosets are closed under addition (field-closed spans)
    span_all = _value_span(K, values)
    index = subgroup_index(K.value_subgroup, span_all)
    if index is not None and e > index:
        raise ArithmeticError(f"coset count {e} exceeds the exact subgroup index {index}")
    # a nonempty finite set of cosets is closed under addition iff each span row maps it into itself
    reps = [values[cls[0]] for cls in classes.values()]
    rows = span_all.lattice_basis()
    coset_closed = bool(classes) and all(K.value_subgroup.coset_key(a + b) in classes for a in reps for b in rows)
    if coset_closed and index != e:
        raise ArithmeticError(f"coset count {e} disagrees with the exact subgroup index {index}")
    return RamificationData(
        e=e,
        f=len(y_indices),
        x_part=[basis.elements[i] for i in x_indices],
        y_part=[basis.elements[i] for i in y_indices],
    )


@dataclass
class StandardBasis:
    x_part: list
    y_part: list
    products: list                # the x*y, valuation independent over the basis's presentation


def standard_basis(basis: VectorFamily, prec: Precision, data: RamificationData) -> StandardBasis:
    """The product family {x*y} as a standard valuation basis over ``basis.over``.

    Requires the span to be field-closed for these products: every product
    must reduce back into the span and the product count must equal the
    basis size.  ``data`` is the basis's ``ramification_and_residue``.
    """
    if data.f == 0:
        raise NotFieldClosed("no value-zero class: the span does not contain units")
    products = []
    for x in data.x_part:
        for y in data.y_part:
            candidate = multiply(x, y)
            reduction = nearest_point(candidate, basis, prec)
            if reduction.kind is not NearestKind.EXACT_MEMBER:
                raise NotFieldClosed(
                    f"a coset-representative product escapes the span ({reduction.kind.value})"
                )
            products.append(candidate)
    if len(products) != len(basis):
        raise NotFieldClosed(
            f"product count {len(products)} differs from the dimension {len(basis)}"
        )
    if not _independent(make_family(basis.over, products), prec):
        raise NotFieldClosed("products failed the independence certificate")
    return StandardBasis(data.x_part, data.y_part, products)


@dataclass
class ExtensionReport:
    n: Optional[int]
    e: Optional[int]
    f: Optional[int]
    defect_index: Optional[Fraction]
    verdict: str                      # vs_defectless | obstructed | inconclusive
    standard: Optional[StandardBasis] = None
    obstruction: Optional[NearestPointResult] = None
    obstruction_index: Optional[int] = None
    note: Optional[str] = None


def analyze_extension(
    generators: Sequence[Series],
    K: SubfieldPresentation,
    prec: Precision,
    span_mode: str = "closure",
) -> ExtensionReport:
    """Dimension, ramification, residue degree and defect index of the span.

    ``closure`` mode grows the span to its multiplicative closure (the
    extension field K(generators) when it is finite); ``direct`` treats the
    generators as spanning a fixed vector space.
    """
    if span_mode == "closure":
        result = span_closure_basis(generators, K, prec)
        if result.partial_dimension is not None:
            return ExtensionReport(
                result.partial_dimension, None, None, None, "inconclusive",
                note=f"degree cap reached at dimension {result.partial_dimension}",
            )
    elif span_mode == "direct":
        result = orthogonalize(generators, K, prec)
    else:
        raise ValueError(f"unknown span mode {span_mode!r}")
    if not result.ok:
        return ExtensionReport(
            None, None, None, None, "obstructed",
            obstruction=result.obstruction,
            obstruction_index=result.obstruction_index,
            note="nearest-point reduction found no maximal value",
        )
    basis = result.basis
    data = ramification_and_residue(basis, prec)
    n = len(basis)
    ef = data.e * data.f
    defect = Fraction(n, ef) if ef else None
    if ef and n == ef:
        return ExtensionReport(
            n, data.e, data.f, defect, "vs_defectless", standard=standard_basis(basis, prec, data)
        )
    return ExtensionReport(
        n, data.e, data.f, defect, "inconclusive",
        note=(
            "the span has a valuation basis but is not standard-decomposable; "
            "it is not multiplicatively closed"
        ),
    )


@dataclass
class ApproximationPair:
    row: int
    col: int
    cutoff: GroupElement
    difference_value: Valuation
    required_above: GroupElement


@dataclass
class ApproximationResult:
    family: VectorFamily
    coefficients: list            # truncated K-coefficient matrix, as finite series
    pairs: list
    completion_values: list       # v(b_i') on the completion side
    output_values: list           # v(b_i*) of the output family


def complete_and_approximate(
    u_family: VectorFamily,
    hat_coefficients: Sequence[Sequence[Series]],
    khat: SubfieldPresentation,
    prec: Precision,
) -> ApproximationResult:
    """Replace completion-side basis coefficients by finite K-truncations.

    For b_i' = sum_j c_ij u_j certified independent over the completion,
    each c_ij is truncated strictly above v(b_i') - v(u_j), so that
    min_j v((c_ij^trunc - c_ij) u_j) > v(b_i').  The truncated family is
    independent over K (read off its class record) and keeps the value multiset.
    """
    K = u_family.over
    if K.ambient != khat.ambient:
        raise NotCofinal("presentations live in different ambient fields")
    u = list(u_family.elements)
    n = len(u)
    rows = [list(r) for r in hat_coefficients]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("coefficient matrix must be square of the family size")

    u_leads = [leading_term(x, prec) for x in u]
    if any(t is None for t in u_leads):
        raise NotIndependent("family elements need witnessed valuations")

    hat_rows = [_combination(K, row, u) for row in rows]
    hat_verdict = is_valuation_independent(make_family(khat, hat_rows), prec)
    if hat_verdict.kind is not VerdictKind.INDEPENDENT:
        raise NotIndependent(
            f"completion-side family is {hat_verdict.kind.value}, not independent"
        )
    hat_vals = [leading_term(row, prec).exponent for row in hat_rows]

    witnessed = _value_span(K, hat_vals + [t.exponent for t in u_leads])
    if not is_cofinal(K.value_subgroup, witnessed):
        raise NotCofinal("vK is not cofinal in the witnessed value span")

    step = K.ambient.group.unit()
    pairs = []
    truncated_rows: list[list[Series]] = []
    for i in range(n):
        out_row = []
        for j in range(n):
            c = rows[i][j]
            required = hat_vals[i] - u_leads[j].exponent
            cutoff = required + step
            if not c.ensure_below(cutoff, prec.fuel(), whole=True):
                raise PrecisionExhausted(
                    f"could not enumerate coefficient ({i},{j}) below {cutoff}"
                )
            # an exhausted c is already a finite K-element: keep it whole
            terms = c.witnessed_terms() if c.exhausted else c.terms_below(cutoff)
            finite = K.ambient.from_terms([(t.exponent, t.coefficient) for t in terms])
            diff_val = valuation(
                multiply(subtract(finite, c), u[j]), prec
            )
            if not _strictly_above(diff_val, hat_vals[i]):
                raise PrecisionExhausted(
                    f"truncation at ({i},{j}) misses the strict inequality"
                )
            pairs.append(ApproximationPair(i, j, cutoff, diff_val, hat_vals[i]))
            out_row.append(finite)
        truncated_rows.append(out_row)

    out_elements = [_combination(K, row, u) for row in truncated_rows]
    out_family = make_family(K, out_elements)
    if not _independent(out_family, prec):
        raise NotIndependent("truncated family lost independence")
    out_vals = [leading_term(x, prec).exponent for x in out_elements]
    if sorted(v.coords for v in out_vals) != sorted(v.coords for v in hat_vals):
        raise ArithmeticError("value multiset changed under truncation")
    return ApproximationResult(out_family, truncated_rows, pairs, hat_vals, out_vals)
