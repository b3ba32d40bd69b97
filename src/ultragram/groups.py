"""Exact ordered abelian groups used as value groups.

Three kinds are supported: the integer line Z, the rational line Q, and
lexicographic products Z^n (most significant coordinate first).  Elements
of Z and Z^n carry plain ``int`` coordinates and elements of Q carry
``Fraction`` ones; there is no floating point anywhere.  Series exponents
are group elements, so their keys compare as int tuples in C on Z and Z^n.
An ``int`` has ``numerator`` and ``denominator`` like a ``Fraction``, and
``3 == Fraction(3)`` with equal hashes, so the key and reduction code below
serves both, and an element built directly with integral ``Fraction``
coordinates still equals its int twin.

A finitely generated subgroup H lies in (1/D)Z^n, where D clears the
denominators of its generators.  Each ``Subgroup`` brings D*H to Hermite
normal form once and caches it (H. Cohen, *A Course in Computational
Algebraic Number Theory*, GTM 138, section 2.4): an echelon basis, pivot
columns increasing from the most significant coordinate, positive pivots,
entries above a pivot reduced modulo it.  Reducing D*g top-down against
the rows, leaving each pivot entry in [0, pivot), gives the coset key of g:
two elements lie in the same coset of H exactly when their keys are equal,
and g lies in H exactly when its key is zero.  Membership, coset tests, the
basis, the index (a product of pivot ratios) and cofinality (the first pivot
column) all read off that one basis; integer solving builds the transform to
the generators when it is called.

A subgroup keeps the coset key of each element of its ambient group object
in a dict keyed by coordinate tuple, so a value is reduced once however
often it is tested; an element of any other group object is reduced, and
its group checked, every time.  A group holds one zero element.  Neither
cache takes a lock: a race can only compute the same value twice.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from operator import add as _plus, attrgetter, sub as _minus
from typing import Iterable, Optional, Sequence, Union


class MismatchedGroups(ValueError):
    """Raised when elements of different ordered groups are combined."""


class NotASubgroup(ValueError):
    """Raised when a claimed subgroup inclusion fails on a generator."""


class GroupKind(Enum):
    INTEGER_LINE = "Z"
    RATIONAL_LINE = "Q"
    LEX_PRODUCT = "Z^n_lex"


Coordinate = Union[int, Fraction, str]


def parse_rational(text: str) -> Union[int, Fraction]:
    """An ``int`` for "n", a ``Fraction`` for "n/d": an optional sign, ASCII digits and an
    optional "/digits".  Anything else (spaces, exponent notation, a decimal point) is a
    ValueError, so no string takes long to parse."""
    if not re.fullmatch(r"[+-]?[0-9]+(?:/[0-9]+)?", text):
        raise ValueError(f"expected an integer or 'p/q', got {text!r}")
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den)) if den else int(num)


@dataclass(frozen=True)
class OrderedGroup:
    kind: GroupKind
    rank: int = 1

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if self.kind is not GroupKind.LEX_PRODUCT and self.rank != 1:
            raise ValueError(f"{self.kind.value} has rank 1")
        # one zero per group object, not a dataclass field (equality, hashing and repr ignore it)
        object.__setattr__(self, "_zero", GroupElement(self, (self._coordinate(0),) * self.rank))

    @staticmethod
    def integers() -> "OrderedGroup":
        return OrderedGroup(GroupKind.INTEGER_LINE)

    @staticmethod
    def rationals() -> "OrderedGroup":
        return OrderedGroup(GroupKind.RATIONAL_LINE)

    @staticmethod
    def lex(rank: int) -> "OrderedGroup":
        return OrderedGroup(GroupKind.LEX_PRODUCT, rank)

    def element(self, *coords: Coordinate) -> "GroupElement":
        """Build an element from rank-many coordinates (ints, Fractions or 'n' and 'p/q' strings)."""
        if len(coords) == 1:
            if self.rank == 1 and self.kind is not GroupKind.RATIONAL_LINE:  # on Z and Z^1: an int as given
                if type(coords[0]) is int:
                    return GroupElement(self, coords)
                if type(coords[0]) is str and coords[0].isascii() and coords[0].isdigit():  # "n"
                    return GroupElement(self, (int(coords[0]),))
            if isinstance(coords[0], GroupElement):  # as given; one of another group raises MismatchedGroups
                self._zero._check(coords[0])
                return coords[0]
            if isinstance(coords[0], (tuple, list)):
                coords = tuple(coords[0])
        if len(coords) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(coords)}")
        if self.kind is not GroupKind.RATIONAL_LINE and all(type(c) is int for c in coords):
            return GroupElement(self, coords)
        if any(isinstance(c, float) for c in coords):
            raise TypeError(f"exact groups take no floats, got {coords!r}")
        exact = tuple(parse_rational(c) if isinstance(c, str) else Fraction(c) for c in coords)
        if self.kind is GroupKind.RATIONAL_LINE:
            return GroupElement(self, tuple(map(Fraction, exact)))
        for c in exact:
            if c.denominator != 1:
                raise ValueError(f"{self.kind.value} requires integer coordinates, got {c}")
        return GroupElement(self, tuple(int(c) for c in exact))

    def _coordinate(self, n: int) -> Union[int, Fraction]:
        return Fraction(n) if self.kind is GroupKind.RATIONAL_LINE else n

    def zero(self) -> "GroupElement":
        return self._zero

    def unit(self, axis: int = -1) -> "GroupElement":
        """The standard generator along ``axis`` (least significant by default)."""
        coords = [self._coordinate(0)] * self.rank
        coords[axis] = self._coordinate(1)
        return GroupElement(self, tuple(coords))

    def describe(self) -> dict:
        if self.kind is GroupKind.LEX_PRODUCT:
            return {"group": "Z^n_lex", "n": self.rank}
        return {"group": self.kind.value}


class Frozen:
    """An immutable value of the hot loops: a subclass names its fields in ``__slots__`` and
    sets them in ``__init__`` through :func:`frozen_setters`, at half the cost of a frozen
    dataclass.  Assigning or deleting a field raises ``FrozenInstanceError``; equality,
    hashing, repr and pickling run over the fields in order, as a frozen dataclass's do."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = attrgetter(*cls.__slots__)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._fields(self) == self._fields(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __reduce__(self):
        return self.__class__, self._fields(self)

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__slots__)})"


def frozen_setters(cls: type) -> list:
    """The ``__set__`` of each slot of a :class:`Frozen` subclass, in order."""
    return [vars(cls)[name].__set__ for name in cls.__slots__]


class GroupElement(Frozen):
    __slots__ = ("group", "coords")  # set once through frozen_setters: every sum and coset key builds one

    def __init__(self, group: OrderedGroup, coords: tuple):
        _set_group(self, group)
        _set_coords(self, coords)

    def _check(self, other: "GroupElement") -> None:
        if self.group is not other.group and self.group != other.group:
            raise MismatchedGroups(f"{self.group.describe()} vs {other.group.describe()}")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        a, b = self.coords, other.coords
        return GroupElement(self.group, (a[0] + b[0],) if len(a) == 1 else tuple(map(_plus, a, b)))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        a, b = self.coords, other.coords
        return GroupElement(self.group, (a[0] - b[0],) if len(a) == 1 else tuple(map(_minus, a, b)))

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.group, tuple(-a for a in self.coords))

    def scale(self, n: int) -> "GroupElement":
        a = self.coords
        return GroupElement(self.group, (a[0] * n,) if len(a) == 1 else tuple(c * n for c in a))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def describe(self) -> list:
        """The report form of an exponent: one "n" or "p/q" string per coordinate."""
        return [str(c) for c in self.coords]

    def __lt__(self, other: "GroupElement") -> bool:
        self._check(other)
        return self.coords < other.coords

    def __le__(self, other: "GroupElement") -> bool:
        self._check(other)
        return self.coords <= other.coords

    def __gt__(self, other: "GroupElement") -> bool:
        return other < self

    def __ge__(self, other: "GroupElement") -> bool:
        return other <= self

    def __repr__(self) -> str:
        if self.group.rank == 1:
            return f"g({self.coords[0]})"
        return "g(" + ", ".join(str(c) for c in self.coords) + ")"


_set_group, _set_coords = frozen_setters(GroupElement)


def _hermite(vectors: Sequence[Sequence[int]]) -> list[list[int]]:
    """Row Hermite normal form of the integer matrix A whose rows are ``vectors``.

    Returns the nonzero rows of H = U A for a unimodular U, with pivot columns
    strictly increasing, positive pivots and entries above each pivot in [0, pivot).
    """
    m = len(vectors)
    width = len(vectors[0]) if m else 0
    work = [list(v) for v in vectors]
    top = 0
    for col in range(width):
        # Euclid down the column until at most one row from ``top`` on is nonzero in it
        while True:
            live = [i for i in range(top, m) if work[i][col]]
            if len(live) <= 1:
                break
            p = min(live, key=lambda i: abs(work[i][col]))
            for i in live:
                if i != p:
                    q = work[i][col] // work[p][col]
                    work[i] = [a - q * b for a, b in zip(work[i], work[p])]
        if not live:
            continue
        work[top], work[live[0]] = work[live[0]], work[top]
        if work[top][col] < 0:
            work[top] = [-a for a in work[top]]
        pivot = work[top]
        for i in range(top):
            q = work[i][col] // pivot[col]
            work[i] = [a - q * b for a, b in zip(work[i], pivot)]
        top += 1
    return work[:top]


@dataclass(frozen=True)
class Subgroup:
    """Finitely generated subgroup of an ordered group, e.g. vK inside Gamma."""

    ambient: OrderedGroup
    generators: tuple

    def __post_init__(self) -> None:
        seen = set()
        for g in self.generators:
            if g.group != self.ambient:
                raise MismatchedGroups("generator outside ambient group")
            if g.coords in seen:
                raise ValueError("duplicate generator")
            seen.add(g.coords)
        # coordinate tuple -> coset key, for elements of the ambient group object itself
        object.__setattr__(self, "_keys", {})

    @staticmethod
    def spanned_by(ambient: OrderedGroup, gens: Iterable[GroupElement]) -> "Subgroup":
        unique = []
        seen = set()
        for g in gens:
            if g.coords not in seen:
                seen.add(g.coords)
                unique.append(g)
        return Subgroup(ambient, tuple(unique))

    @staticmethod
    def trivial(ambient: OrderedGroup) -> "Subgroup":
        return Subgroup(ambient, ())

    @cached_property
    def _basis(self) -> tuple[int, list[list[int]], list[int]]:
        """(D, Hermite rows of D*H, their pivot columns)."""
        scale = lcm(*(c.denominator for g in self.generators for c in g.coords))
        rows = _hermite([[int(c * scale) for c in g.coords] for g in self.generators])
        pivots = [next(j for j, c in enumerate(row) if c) for row in rows]
        return scale, rows, pivots

    def _reduce(self, g: GroupElement) -> list:
        """The remainder of D*g reduced top-down against the basis rows: its pivot entries lie in [0, pivot)."""
        if g.group != self.ambient:
            raise MismatchedGroups("element outside ambient group")
        scale, rows, pivots = self._basis
        if not rows:  # the trivial subgroup: every coordinate is its own key
            return list(g.coords)
        # D*c is an integer unless c's denominator does not divide D (then g is not in H)
        rest = [
            c.numerator * (scale // c.denominator) if scale % c.denominator == 0 else c * scale
            for c in g.coords
        ]
        for row, p in zip(rows, pivots):
            q = rest[p] // row[p]
            if q:
                rest = [a - q * b for a, b in zip(rest, row)]
        return rest

    def coset_key(self, g: GroupElement) -> tuple:
        """A hashable key of g + H: equal for two elements iff they are congruent
        (kept per coordinate tuple for elements of the ambient group object)."""
        if g.group is not self.ambient:
            return tuple(self._reduce(g))
        key = self._keys.get(g.coords)
        if key is None:
            key = self._keys[g.coords] = tuple(self._reduce(g))
        return key

    def solve(self, g: GroupElement) -> Optional[list[int]]:
        """Integer coefficients over the generators expressing ``g``, or None.

        The Hermite rows of [D*generators | I] start with the basis rows, each followed by
        its coefficients; reducing [D*g | 0] against them leaves minus the coefficients of g."""
        if any(self._reduce(g)):
            return None
        scale, _, pivots = self._basis
        m = len(self.generators)
        rest = [int(c * scale) for c in g.coords] + [0] * m
        augmented = _hermite([[int(c * scale) for c in h.coords] + [int(i == j) for j in range(m)]
                              for i, h in enumerate(self.generators)])
        for row, p in zip(augmented, pivots):
            q = rest[p] // row[p]
            rest = [a - q * b for a, b in zip(rest, row)]
        return [-c for c in rest[self.ambient.rank:]]

    def contains(self, g: GroupElement) -> bool:
        return not any(self.coset_key(g))

    def lattice_basis(self) -> list[GroupElement]:
        """The Hermite basis of the subgroup, most significant pivot first."""
        scale, rows, _ = self._basis
        return [self.ambient.element([Fraction(c, scale) for c in row]) for row in rows]


INFINITE = None


def _require_inside(sub: Subgroup, group: Subgroup) -> None:
    for g in sub.generators:
        if not group.contains(g):
            raise NotASubgroup(f"generator {g} of the subgroup is not in the ambient span")


def subgroup_index(sub: Subgroup, group: Subgroup) -> Optional[int]:
    """Exact index (group : sub); None encodes an infinite index.

    Requires sub to be contained in group.  Equal ranks give equal pivot
    columns, and the index is the product of the pivot ratios; a smaller
    rank gives an infinite index.
    """
    _require_inside(sub, group)
    sub_scale, sub_rows, pivots = sub._basis
    group_scale, group_rows, _ = group._basis
    if len(sub_rows) != len(group_rows):
        return INFINITE
    index = prod(
        Fraction(a[p] * group_scale, b[p] * sub_scale)
        for a, b, p in zip(sub_rows, group_rows, pivots)
    )
    return int(index)


def is_cofinal(sub: Subgroup, group: Subgroup) -> bool:
    """True iff the subgroup is cofinal in the group.

    For the supported kinds this reduces to agreement of the first pivot
    column, the most significant coordinate either subgroup reaches: some
    element of sub then exceeds any given element of the group.
    """
    _require_inside(sub, group)
    return sub._basis[2][:1] == group._basis[2][:1]
