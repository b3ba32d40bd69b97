"""Computable presentations of a valued subfield K inside the series field L.

Algorithms downstream never see K as a set.  They consume exactly four
capabilities: coset tests against the value subgroup vK, monomial sections
(an element of K of prescribed value), residue sections (an element of the
valuation ring of K with prescribed residue), and linear algebra over the
residue subfield Kv inside the ambient residue field Lv.  The coefficient
closure adds sampling of K-elements for evidence procedures and property
tests.

A presentation may declare itself *full*: its closure is the entire
ambient field (the completion presentations of the series field itself).
Membership questions against a full presentation are answered by exact
division.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .groups import GroupElement, GroupKind, Subgroup
from .residues import (
    FieldElement,
    ResidueField,
    embed_from_subfield,
    restrict_to_subfield,
)
from .series import Series, SeriesField, Term


class ValueNotInSubgroup(ValueError):
    """A section was asked for a value outside vK."""


@dataclass(frozen=True)
class SubfieldPresentation:
    ambient: SeriesField
    name: str
    value_subgroup: Subgroup
    residue_field: ResidueField
    full_field: bool = False
    # support -> its exponent window; the residue memo: pool index -> (that residue of Kv,
    # its embedding in the ambient coefficients).  Both filled on demand, per object
    _windows: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _residues: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # sections

    def require_value(self, delta: GroupElement) -> None:
        """Raise ValueNotInSubgroup unless ``delta`` lies in vK."""
        if not self.value_in_subgroup(delta):
            raise ValueNotInSubgroup(f"{delta} is not in v{self.name}")

    def monomial_section(self, delta: GroupElement) -> Series:
        """The monomial t^delta of K: coefficient one, valuation exactly ``delta``."""
        self.require_value(delta)
        return self.ambient.monomial(delta)

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

    # coefficient closure: finite K-elements for sampling

    @cached_property
    def _residue_pool(self) -> tuple[int, list[FieldElement]]:
        """The residues sampled from: the constants 0, 1, ..., n - 1 of Kv, then
        the nonzero ``extra``, built once.  Sampling indexes the constants and the
        residue memo keeps only the indices drawn, so any p is cheap."""
        kv = self.residue_field
        if kv.kind == "Q":
            values = [1, -1, 2, Fraction(1, 2), -2, 3, Fraction(-1, 2), Fraction(2, 3)]
            return 1, [kv.element(v) for v in values]
        if kv.kind == "Fp":
            return kv.p, []
        return kv.p, [kv.generator(), kv.fraction([1, 1], [1])]

    def _exponent_window(self, support: int) -> list[GroupElement]:
        """The multiples -support..support of the first generator of vK, sorted."""
        window = self._windows.get(support)
        if window is None:
            gens = [g for g in self.value_subgroup.generators if not g.is_zero()]
            if not gens:
                return [self.ambient.group.zero()]
            window = self._windows[support] = sorted(gens[0].scale(k) for k in range(-support, support + 1))
        return window

    def sample_element(self, rng: random.Random, support: int) -> Series:
        """A random nonzero closure element with bounded support."""
        window = self._exponent_window(support)
        if len(window) == 1:
            return self.residue_section(self._nonzero_residue(rng)[0])
        count = rng.randint(1, min(3, len(window)))
        exponents = rng.sample(range(len(window)), count)
        return self.ambient.from_terms((window[i], self._nonzero_residue(rng)[1]) for i in sorted(exponents))

    def _nonzero_residue(self, rng: random.Random) -> tuple[FieldElement, FieldElement]:
        """A uniform draw from the nonzero pool residues, constants 1..n-1 then extra:
        the residue of Kv and its embedding, from the residue memo after its first draw."""
        n, extra = self._residue_pool
        k = rng.randrange(n - 1 + len(extra))
        if k not in self._residues:
            r = self.residue_field.element(k + 1) if k < n - 1 else extra[k - n + 1]
            self._residues[k] = (r, self.embed_residue(r))
        return self._residues[k]


def laurent_presentation(
    ambient: SeriesField,
    t_value: GroupElement,
    residue_field: Optional[ResidueField] = None,
    name: str = "K",
) -> SubfieldPresentation:
    """K = k(t) with one uniformizer t of the given value, k = residue field."""
    kv = residue_field if residue_field is not None else ambient.coeff
    vk = Subgroup.spanned_by(ambient.group, [t_value])
    return SubfieldPresentation(ambient, name, vk, kv)


def trivial_presentation(ambient: SeriesField, name: str = "K") -> SubfieldPresentation:
    """A trivially valued coefficient field: vK = {0}, residue section onto K."""
    vk = Subgroup.trivial(ambient.group)
    return SubfieldPresentation(ambient, name, vk, ambient.coeff)


def completion_presentation(
    ambient: SeriesField,
    t_value: GroupElement,
    residue_field: Optional[ResidueField] = None,
    name: str = "Khat",
) -> SubfieldPresentation:
    """The completion of k(t): the Laurent presentation, flagged when it is full.

    When the residue field is the whole coefficient field and the value
    subgroup spans the ambient exponent group, the presentation is the
    entire series field, which is maximal; membership then reduces to exact
    division.
    """
    K = laurent_presentation(ambient, t_value, residue_field, name)
    full = K.residue_field == ambient.coeff and _spans_group(K.value_subgroup)
    return replace(K, full_field=full)


def _spans_group(sub: Subgroup) -> bool:
    ambient = sub.ambient
    # no finitely generated subgroup spans Q
    return ambient.kind is not GroupKind.RATIONAL_LINE and all(
        sub.contains(ambient.unit(axis)) for axis in range(ambient.rank)
    )
