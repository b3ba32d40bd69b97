"""Exact residue field arithmetic and small-scale linear algebra.

Covers the three coefficient/residue fields the toolkit needs: prime fields
F_p, the rationals, and rational function fields F_p(s).  Elements are kept
in canonical form (reduced, monic denominator) so equality is syntactic.  A
rational is an ``int`` while integral and a ``Fraction`` otherwise; ``3`` and
``Fraction(3)`` agree on ``==``, ``hash`` and ``str``, so no report changes.
Row reduction and span solving are exact; a subfield layer decides
Kv-linear independence of scalars living in a larger residue field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from operator import add as _plus, mul as _times, neg as _neg
from typing import Optional, Sequence

from .groups import Frozen, frozen_setters, parse_rational


class DivisionByZero(ZeroDivisionError):
    pass


class MismatchedFields(ValueError):
    pass


# polynomial helpers over F_p: coefficient tuples, low degree first, trimmed


def _poly_trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    last = -1
    for i, c in enumerate(coeffs):
        if c != 0:
            last = i
    return tuple(coeffs[: last + 1])


def _poly_add(a, b, p):
    return _poly_trim([(x + y) % p for x, y in zip_longest(a, b, fillvalue=0)])


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return _poly_trim(out)


def _poly_divmod(a, b, p):
    if not b:
        raise DivisionByZero("polynomial division by zero")
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = pow(b[-1], -1, p)
    for i in range(len(a) - len(b), -1, -1):
        c = (a[i + len(b) - 1] * inv_lead) % p
        if c == 0:
            continue
        q[i] = c
        for j, cb in enumerate(b):
            a[i + j] = (a[i + j] - c * cb) % p
    return _poly_trim(q), _poly_trim(a)


def _poly_gcd(a, b, p):
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = tuple((c * inv) % p for c in a)
    return a


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: the prime bases up to 37 decide every n < 2**64."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _ratfunc_ops(p: int):
    """Ops of F_p(s) on (num, den) pairs: cross-multiplied sums and products, reduced by ``canon``."""
    def plus(a, b):
        (n1, d1), (n2, d2) = a, b
        return _poly_add(_poly_mul(n1, d2, p), _poly_mul(n2, d1, p), p), _poly_mul(d1, d2, p)

    def times(a, b):
        return _poly_mul(a[0], b[0], p), _poly_mul(a[1], b[1], p)

    def neg(a):
        return tuple(-c % p for c in a[0]), a[1]

    def canon(r):  # num/den reduced, with a monic denominator
        n = _poly_trim([c % p for c in r[0]])
        d = _poly_trim([c % p for c in r[1]])
        if not d:
            raise DivisionByZero("zero denominator")
        if not n:
            return (), (1,)
        g = _poly_gcd(n, d, p)
        if g != (1,):
            n = _poly_divmod(n, g, p)[0]
            d = _poly_divmod(d, g, p)[0]
        inv_lead = pow(d[-1], -1, p)
        return tuple((c * inv_lead) % p for c in n), tuple((c * inv_lead) % p for c in d)

    return plus, times, canon, neg


@dataclass(frozen=True)
class ResidueField:
    """Field descriptor: 'Fp', 'Q' or 'Fp(s)'."""

    kind: str
    p: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("Fp", "Q", "Fp(s)"):
            raise ValueError(f"unsupported field kind {self.kind!r}")
        if self.kind in ("Fp", "Fp(s)"):
            if self.p is not None and self.p >= 1 << 64:
                raise ValueError(f"p must be below 2**64, got {self.p}")
            if self.p is None or not _is_prime(self.p):
                raise ValueError(f"p must be prime, got {self.p}")
        # the op table (plus, times, canon, neg) on reps, picked once: canon makes any chain
        # of plus and times canonical again (on Q it turns an integral Fraction into an int).
        # It, the rep of zero and the shared zero and one are not dataclass fields, so equality,
        # hashing and repr ignore them; they are set here and not through __dict__, which on CPython
        # 3.11 slows every later attribute load on the field (`a + b` by 20-40 % in a timeit loop)
        p, zero = self.p, 0
        if self.kind == "Fp":
            ops = _plus, _times, lambda r: r % p, lambda r: -r % p
        elif self.kind == "Q":
            ops = _plus, _times, lambda r: r if type(r) is int or r.denominator > 1 else r.numerator, _neg
        else:
            ops, zero = _ratfunc_ops(p), ((), (1,))
        object.__setattr__(self, "_ops", ops)
        object.__setattr__(self, "_zero_rep", zero)
        object.__setattr__(self, "_zero", self.element(0))
        object.__setattr__(self, "_one", self.element(1))

    def __reduce__(self):  # the op table holds closures: pickle rebuilds the field instead
        return ResidueField, (self.kind, self.p)

    @staticmethod
    def prime(p: int) -> "ResidueField":
        return ResidueField("Fp", p)

    @staticmethod
    def rationals() -> "ResidueField":
        return ResidueField("Q")

    @staticmethod
    def rational_functions(p: int) -> "ResidueField":
        return ResidueField("Fp(s)", p)

    def describe(self) -> dict:
        return {"field": "Q"} if self.kind == "Q" else {"field": self.kind, "p": self.p}

    # element constructors

    def element(self, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.field is self or value.field == self:
                return value
            raise MismatchedFields(f"{value.field.describe()} vs {self.describe()}")
        if isinstance(value, float):
            raise TypeError(f"exact fields take no floats, got {value!r}")
        if isinstance(value, str):  # "n" or "p/q" only, as in scenario input
            value = parse_rational(value)
        if self.kind == "Fp":
            if isinstance(value, Fraction):
                if value.denominator % self.p == 0:
                    raise DivisionByZero("denominator vanishes mod p")
                value = value.numerator * pow(value.denominator, -1, self.p)
            return FieldElement(self, int(value) % self.p)
        if self.kind == "Q":
            return FieldElement(self, value if type(value) is int else self._ops[2](Fraction(value)))
        # Fp(s): ints embed as constants, tuples as (num, den) coefficient lists
        if isinstance(value, int):
            return FieldElement(self, (_poly_trim([value % self.p]), (1,)))
        if isinstance(value, tuple) and len(value) == 2:
            return self.fraction(value[0], value[1])
        raise TypeError(f"cannot coerce {value!r} into {self.describe()}")

    def fraction(self, num: Sequence[int], den: Sequence[int]) -> "FieldElement":
        """Reduced rational function num/den with monic denominator."""
        if self.kind != "Fp(s)":
            raise MismatchedFields("fraction() is for Fp(s)")
        if not all(isinstance(c, int) for c in (*num, *den)):
            raise TypeError(f"Fp(s) coefficients are integers, got {num!r} / {den!r}")
        return FieldElement(self, self._ops[2]((num, den)))

    def generator(self) -> "FieldElement":
        """The transcendental s of Fp(s)."""
        if self.kind != "Fp(s)":
            raise MismatchedFields("generator() is for Fp(s)")
        return FieldElement(self, ((0, 1), (1,)))

    def zero(self) -> "FieldElement":
        return self._zero

    def one(self) -> "FieldElement":
        return self._one


class FieldElement(Frozen):
    __slots__ = ("field", "rep")  # set once through frozen_setters: every field op builds one

    def __init__(self, field: ResidueField, rep):
        _set_field(self, field)
        _set_rep(self, rep)

    def _check(self, other: "FieldElement") -> None:
        if self.field is not other.field and self.field != other.field:
            raise MismatchedFields(f"{self.field.describe()} vs {other.field.describe()}")

    def is_zero(self) -> bool:
        return self.rep == self.field._zero_rep

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        plus, _, canon, _ = self.field._ops
        return FieldElement(self.field, canon(plus(self.rep, other.rep)))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, self.field._ops[3](self.rep))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + (-other)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        _, times, canon, _ = self.field._ops
        return FieldElement(self.field, canon(times(self.rep, other.rep)))

    def invert(self) -> "FieldElement":
        if self.is_zero():
            raise DivisionByZero("inverting zero")
        k = self.field.kind
        if k == "Fp":
            return FieldElement(self.field, pow(self.rep, -1, self.field.p))
        if k == "Q":  # d/n, never 1/int (a float); an int exactly when n is a unit
            n, d = self.rep.numerator, self.rep.denominator
            return FieldElement(self.field, d * n if n in (1, -1) else Fraction(d, n))
        n, d = self.rep
        return FieldElement(self.field, self.field._ops[2]((d, n)))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.invert()

    def describe(self):
        k = self.field.kind
        if k == "Fp":
            return self.rep
        if k == "Q":
            return str(self.rep)  # "n" or "n/d", as int and Fraction print it
        n, d = self.rep
        return {"num": list(n), "den": list(d)}

    def __repr__(self) -> str:
        k = self.field.kind
        if k in ("Fp", "Q"):
            return str(self.rep)
        n, d = self.rep

        def side(coeffs):
            if not coeffs:
                return "0"
            parts = []
            for i, c in enumerate(coeffs):
                if c == 0:
                    continue
                if i == 0:
                    parts.append(str(c))
                elif i == 1:
                    parts.append(f"{c}*s" if c != 1 else "s")
                else:
                    parts.append(f"{c}*s^{i}" if c != 1 else f"s^{i}")
            return "+".join(parts)

        return side(n) if d == (1,) else f"({side(n)})/({side(d)})"


_set_field, _set_rep = frozen_setters(FieldElement)


def _gauss_jordan(rows: list, ncols: int) -> list[int]:
    """Reduce ``rows`` in place to reduced row echelon form on the first ``ncols`` columns.

    Each pivot is the first nonzero entry at or below the current rank, and
    later columns only carry along.  Returns the pivot columns; the i-th
    heads row i.
    """
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(rows):
            break
        pivot = next((i for i in range(rank, len(rows)) if not rows[i][col].is_zero()), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].invert()
        head = rows[rank] = [x * inv for x in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and not row[col].is_zero():
                factor = row[col]
                rows[i] = [a - factor * b for a, b in zip(row, head)]
        pivots.append(col)
    return pivots


def linear_rank(rows: Sequence[Sequence[FieldElement]], field: ResidueField):
    """Exact rank of the row system plus a kernel basis of row-combinations.

    Each kernel vector c satisfies sum_i c_i * rows[i] = 0; kernel basis is
    empty exactly when the rows are linearly independent.
    """
    m = len(rows)
    if m == 0:
        return 0, []
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged row system")
    # augment with identity to track row operations
    work = [list(r) + [field.one() if i == j else field.zero() for j in range(m)]
            for i, r in enumerate(rows)]
    rank = len(_gauss_jordan(work, width))
    # the rows past the rank vanish on the first width columns
    return rank, [row[width:] for row in work[rank:]]


def solve_in_span(
    target: Sequence[FieldElement],
    basis_rows: Sequence[Sequence[FieldElement]],
    field: ResidueField,
) -> Optional[list[FieldElement]]:
    """Coefficients expressing target in the row span, or None.

    Coefficients of basis rows that carry no pivot are zero.
    """
    m = len(basis_rows)
    width = len(target)
    if any(len(r) != width for r in basis_rows):
        raise ValueError("dimension mismatch")
    # equations indexed by coordinate: sum_i c_i rows[i][j] = target[j]
    mat = [[r[j] for r in basis_rows] + [target[j]] for j in range(width)]
    pivots = _gauss_jordan(mat, m)
    if any(not row[m].is_zero() for row in mat[len(pivots):]):
        return None
    coeffs = [field.zero()] * m
    for row, var in zip(mat, pivots):
        coeffs[var] = row[m]
    return coeffs


# Kv-linear algebra on scalars living inside a larger residue field


def check_subfield(sub: ResidueField, ambient: ResidueField) -> bool:
    """Whether ``sub`` is a proper subfield of ``ambient``.

    The supported pairs are Kv = Lv (False) and F_p inside F_p(s) with the
    same p (True); any other pair raises MismatchedFields.
    """
    if sub is ambient or sub == ambient:
        return False
    if sub.kind == "Fp" and ambient.kind == "Fp(s)" and sub.p == ambient.p:
        return True
    raise MismatchedFields(f"{sub.describe()} does not embed in {ambient.describe()}")


def subfield_vectorize(
    elements: Sequence[FieldElement],
    sub: ResidueField,
    ambient: ResidueField,
) -> list[list[FieldElement]]:
    """Coordinates of ambient scalars as vectors over the subfield.

    Same field: one coordinate.  Fp inside Fp(s): clear denominators and read
    off polynomial coefficients, so sub-linear combinations match exactly.
    """
    if not check_subfield(sub, ambient):
        return [[e] for e in elements]
    p = sub.p
    den = (1,)
    for e in elements:
        den = _poly_mul(den, e.rep[1], p)
    cleared = []
    for e in elements:
        n, d = e.rep
        q, r = _poly_divmod(_poly_mul(n, den, p), d, p)
        if r:
            raise ArithmeticError("denominator clearing failed")
        cleared.append(q)
    width = max((len(c) for c in cleared), default=1)
    return [[sub.element(c[i] if i < len(c) else 0) for i in range(width)] for c in cleared]


def rank_over_subfield(elements, sub, ambient):
    """(rank, kernel) of ambient scalars viewed as vectors over the subfield."""
    rows = subfield_vectorize(elements, sub, ambient)
    return linear_rank(rows, sub)


def solve_over_subfield(target, basis_elements, sub, ambient):
    """Subfield coefficients with sum_i c_i basis[i] = target, or None."""
    if len(basis_elements) == 1 and not basis_elements[0].is_zero():
        # c * b = target has the one candidate target / b, a solution when it lies in the subfield
        c = restrict_to_subfield(target / basis_elements[0], sub, ambient)
        return None if c is None else [c]
    rows = subfield_vectorize(list(basis_elements) + [target], sub, ambient)
    return solve_in_span(rows[-1], rows[:-1], sub)


def restrict_to_subfield(element, sub, ambient) -> Optional[FieldElement]:
    """The element as a subfield member, or None when it lies outside."""
    if not check_subfield(sub, ambient):
        return element
    n, d = element.rep
    if d == (1,) and len(n) <= 1:
        return sub.element(n[0] if n else 0)
    return None


def embed_from_subfield(element: FieldElement, ambient: ResidueField) -> FieldElement:
    """Canonical embedding of a subfield scalar into the ambient field."""
    if not check_subfield(element.field, ambient):
        return element
    return ambient.element(element.rep)
