"""Exact valuation independence over concrete valued fields.

Generalized power series with lazy exact arithmetic, decision of valuation
independence, normalization, nearest-point maximization of v(b - W),
ultrametric orthogonalization, immediacy evidence and finite-extension
defect diagnostics, plus a scenario-driven CLI.
"""

from .groups import (
    GroupElement,
    GroupKind,
    OrderedGroup,
    Subgroup,
    is_cofinal,
    subgroup_index,
)
from .residues import FieldElement, ResidueField, linear_rank, solve_in_span
from .series import (
    Precision,
    Series,
    SeriesField,
    Term,
    Valuation,
    add,
    artin_schreier,
    custom_powers,
    geometric,
    invert,
    leading_term,
    multiply,
    negate,
    subtract,
    sum_series,
    valuation,
)
from .presentations import (
    SubfieldPresentation,
    completion_presentation,
    laurent_presentation,
    trivial_presentation,
)
from .spaces import (
    IndependenceVerdict,
    NearestKind,
    NearestPointResult,
    VectorFamily,
    VerdictKind,
    check_normalized,
    immediacy_evidence,
    is_valuation_independent,
    make_family,
    nearest_point,
    normalize,
    orthogonalize,
)
from .extensions import (
    ExtensionReport,
    StandardBasis,
    analyze_extension,
    complete_and_approximate,
    ramification_and_residue,
    span_closure_basis,
    standard_basis,
)

__version__ = "0.1.0"
