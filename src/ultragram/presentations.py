"""Computable presentations of a valued subfield K inside the series field L.

Algorithms downstream never see K as a set.  They consume exactly four
capabilities: coset tests against the value subgroup vK, monomial sections
(an element of K of prescribed value), residue sections (an element of the
valuation ring of K with prescribed residue), and linear algebra over the
residue subfield Kv inside the ambient residue field Lv.  The coefficient
closure adds sampling and enumeration of K-elements for evidence
procedures and property tests.

A presentation may declare itself *full*: its closure is the entire
ambient field (the completion presentations of the series field itself).
Membership questions against a full presentation are answered by exact
division.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .groups import GroupElement, Subgroup
from .residues import (
    FieldElement,
    ResidueField,
    embed_from_subfield,
    restrict_to_subfield,
)
from .series import Series, SeriesField, Term


class ValueNotInSubgroup(ValueError):
    """monomial_section was asked for a value outside vK."""


@dataclass(frozen=True)
class SubfieldPresentation:
    ambient: SeriesField
    name: str
    value_subgroup: Subgroup
    residue_field: ResidueField
    # one single-term K-element per value-subgroup generator
    base_monomials: tuple = ()
    full_field: bool = False
    closure_kind: str = "laurent"  # laurent | constants | truncated
    closure_window: int = 3

    def __post_init__(self) -> None:
        if len(self.base_monomials) != len(self.value_subgroup.generators):
            raise ValueError("one base monomial per value-subgroup generator")
        for term, gen in zip(self.base_monomials, self.value_subgroup.generators):
            if term.exponent != gen:
                raise ValueError("base monomial exponent must match its generator")

    # sections

    def monomial_section(self, delta: GroupElement) -> Series:
        """A single-term element of K with valuation exactly ``delta``."""
        coeffs = self.value_subgroup.solve(delta)
        if coeffs is None:
            raise ValueNotInSubgroup(f"{delta} is not in v{self.name}")
        coefficient = self.ambient.coeff.one()
        for k, base in zip(coeffs, self.base_monomials):
            c = base.coefficient if k >= 0 else base.coefficient.invert()
            k = abs(k)
            # square-and-multiply: k reaches 3^i along the Artin-Schreier chain
            while k:
                if k & 1:
                    coefficient = coefficient * c
                k >>= 1
                if k:
                    c = c * c
        return self.ambient.monomial(delta, coefficient)

    def monomial_term(self, delta: GroupElement) -> Term:
        series = self.monomial_section(delta)
        return series.witnessed_terms()[0]

    def residue_section(self, residue: FieldElement) -> Series:
        """A constant element of O_K with the given nonzero residue."""
        r = self.residue_field.element(residue)
        if r.is_zero():
            raise ValueError("residue sections are for nonzero residues")
        return self.ambient.monomial(self.ambient.group.zero(), self.embed_residue(r))

    def embed_residue(self, residue: FieldElement) -> FieldElement:
        return embed_from_subfield(self.residue_field.element(residue), self.ambient.coeff)

    def restrict_residue(self, value: FieldElement) -> Optional[FieldElement]:
        return restrict_to_subfield(value, self.residue_field, self.ambient.coeff)

    def value_in_subgroup(self, gamma: GroupElement) -> bool:
        return self.value_subgroup.contains(gamma)

    # coefficient closure: finite K-elements for sampling and filtration

    def _residue_pool(self) -> list[FieldElement]:
        kv = self.residue_field
        if kv.kind == "Fp":
            return [kv.element(i) for i in range(kv.p)]
        if kv.kind == "Q":
            values = [0, 1, -1, 2, Fraction(1, 2), -2, 3, Fraction(-1, 2), Fraction(2, 3)]
            return [kv.element(v) for v in values]
        pool = [kv.element(i) for i in range(kv.p)]
        pool.append(kv.generator())
        pool.append(kv.generator() + kv.one())
        return pool

    def _exponent_window(self, support: int) -> list[GroupElement]:
        gens = [g for g in self.value_subgroup.generators if not g.is_zero()]
        if not gens:
            return [self.ambient.group.zero()]
        primary = gens[0]
        return [primary.scale(k) for k in range(-support, support + 1)]

    def enumerate_elements(self, support: int) -> Iterator[Series]:
        """All closure elements with the given support bound, zero excluded.

        Deterministic order: increasing support bound, then lexicographic on
        the coefficient tuples.  Only usable when the residue pool is the
        whole of Kv (finite Kv); for infinite Kv it enumerates the pool span.
        """
        pool = self._residue_pool()
        for bound in range(support + 1):
            window = self._exponent_window(bound)
            seen_smaller = self._exponent_window(bound - 1) if bound else []
            tuples = [[]]
            for _ in window:
                tuples = [t + [c] for t in tuples for c in range(len(pool))]
            for combo in tuples:
                if all(c == 0 for c in combo):
                    continue
                if bound and not any(
                    c != 0 and exp not in seen_smaller
                    for c, exp in zip(combo, window)
                ):
                    continue  # already yielded at a smaller bound
                terms = [
                    (exp, self.embed_residue(pool[c]))
                    for c, exp in zip(combo, window)
                    if c != 0 and not pool[c].is_zero()
                ]
                if not terms:
                    continue
                yield self.ambient.from_terms(terms)

    def sample_element(self, rng: random.Random, support: Optional[int] = None) -> Series:
        """A random nonzero closure element with bounded support."""
        support = self.closure_window if support is None else support
        pool = [c for c in self._residue_pool() if not c.is_zero()]
        window = self._exponent_window(support)
        if self.closure_kind == "constants" or len(window) == 1:
            return self.residue_section(rng.choice(pool))
        count = rng.randint(1, min(3, len(window)))
        exponents = rng.sample(range(len(window)), count)
        terms = [(window[i], self.embed_residue(rng.choice(pool))) for i in sorted(exponents)]
        return self.ambient.from_terms(terms)

    def describe(self) -> dict:
        return {
            "name": self.name,
            "value_subgroup": [[str(c) for c in g.coords] for g in self.value_subgroup.generators],
            "residue_field": self.residue_field.describe(),
            "full_field": self.full_field,
        }


def laurent_presentation(
    ambient: SeriesField,
    t_value: GroupElement,
    residue_field: Optional[ResidueField] = None,
    name: str = "K",
) -> SubfieldPresentation:
    """K = k(t) with one uniformizer t of the given value, k = residue field."""
    kv = residue_field if residue_field is not None else ambient.coeff
    vk = Subgroup.spanned_by(ambient.group, [t_value])
    base = Term(t_value, ambient.coeff.one())
    return SubfieldPresentation(ambient, name, vk, kv, (base,))


def trivial_presentation(ambient: SeriesField, name: str = "K") -> SubfieldPresentation:
    """A trivially valued coefficient field: vK = {0}, residue section onto K."""
    vk = Subgroup.trivial(ambient.group)
    return SubfieldPresentation(
        ambient, name, vk, ambient.coeff, (), closure_kind="constants"
    )


def completion_presentation(
    ambient: SeriesField,
    t_value: GroupElement,
    residue_field: Optional[ResidueField] = None,
    name: str = "Khat",
    closure_window: int = 6,
) -> SubfieldPresentation:
    """The completion of k(t): closure elements are truncated series.

    When the residue field is the whole coefficient field and the value
    subgroup spans the ambient exponent group, the presentation is the
    entire series field, which is maximal; membership then reduces to exact
    division.
    """
    kv = residue_field if residue_field is not None else ambient.coeff
    vk = Subgroup.spanned_by(ambient.group, [t_value])
    base = Term(t_value, ambient.coeff.one())
    full = kv == ambient.coeff and _spans_group(vk)
    return SubfieldPresentation(
        ambient, name, vk, kv, (base,),
        full_field=full, closure_kind="truncated", closure_window=closure_window,
    )


def _spans_group(sub: Subgroup) -> bool:
    ambient = sub.ambient
    if ambient.kind.value == "Z":
        return sub.contains(ambient.element(1))
    if ambient.kind.value == "Q":
        return False  # no finitely generated subgroup spans Q
    return all(sub.contains(ambient.unit(axis)) for axis in range(ambient.rank))
