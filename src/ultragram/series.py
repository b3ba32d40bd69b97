"""Lazily evaluated generalized power series with exact arithmetic.

A :class:`Series` is a mathematical value, not a consumable stream: every
node memoizes the strictly increasing prefix of terms it has produced, and
re-enumeration reproduces the identical prefix.  Enumeration is bounded in
two ways, by an exponent ceiling and by a work budget (:class:`Fuel`),
because equality of lazy series is undecidable in general; all verdicts
built on top of this module carry the bound they were computed under.

Completeness bookkeeping: each node tracks ``_known`` (a strict exponent
bound below which the cache is provably complete), an ``_exhausted`` flag
(the cache holds every term of the series), and a static ``floor`` (a lower
bound for any exponent the series can produce, with ``None`` meaning the
series is identically zero).  The floor is what makes lazy multiplication
and inversion well-founded.

Caches fill lazily and without locks, so a series, and a family built from
series, must not be used from several threads at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .groups import GroupElement, OrderedGroup
from .residues import FieldElement, ResidueField


class MismatchedAmbient(ValueError):
    pass


class LeadingTermUnknown(RuntimeError):
    """Inversion (or residue extraction) asked for an unwitnessed leading term."""


class ValuationMismatch(ValueError):
    pass


class PrecisionExhausted(RuntimeError):
    """A comparison could not be decided within the precision budget."""


@dataclass(frozen=True)
class Term:
    exponent: GroupElement
    coefficient: FieldElement

    def __post_init__(self) -> None:
        if self.coefficient.is_zero():
            raise ValueError("terms carry nonzero coefficients")


@dataclass(frozen=True)
class SeriesField:
    """The ambient field of generalized power series coeff((t^group))."""

    group: OrderedGroup
    coeff: ResidueField

    def from_terms(self, pairs: Iterable[tuple]) -> "Series":
        terms = []
        for exp, c in pairs:
            coeff = self.coeff.element(c)
            if coeff.is_zero():
                continue
            if not isinstance(exp, GroupElement):
                exp = self.group.element(exp)
            terms.append(Term(exp, coeff))
        terms.sort(key=lambda t: t.exponent.coords)
        merged: list[Term] = []
        for t in terms:
            if merged and merged[-1].exponent == t.exponent:
                s = merged[-1].coefficient + t.coefficient
                merged.pop()
                if not s.is_zero():
                    merged.append(Term(t.exponent, s))
            else:
                merged.append(t)
        return _Leaf(self, tuple(merged))

    def zero(self) -> "Series":
        return _Leaf(self, ())

    def one(self) -> "Series":
        return self.monomial(self.group.zero(), 1)

    def monomial(self, exponent, coefficient=1) -> "Series":
        if not isinstance(exponent, GroupElement):
            exponent = self.group.element(exponent)
        c = self.coeff.element(coefficient)
        if c.is_zero():
            return self.zero()
        return _Leaf(self, (Term(exponent, c),))

    def stream(self, floor: GroupElement, factory: Callable[[], Iterator[Term]]) -> "Series":
        return _Stream(self, floor, factory)


# completeness bounds: GroupElement, _INF (everything known) or None (nothing)

class _InfBound:
    def __repr__(self) -> str:
        return "INF"


_INF = _InfBound()


def _bound_min(*bounds):
    out = _INF
    for b in bounds:
        if b is None:
            return None
        if b is _INF:
            continue
        if out is _INF or b < out:
            out = b
    return out


def _bound_add(a, b):
    if a is None or b is None:
        return None
    if a is _INF or b is _INF:
        return _INF
    return a + b


def _bound_covers(bound, target) -> bool:
    if bound is _INF:
        return True
    if bound is None:
        return False
    return target <= bound


class Fuel:
    """Mutable work budget; spent on stream pulls and power activations."""

    def __init__(self, steps: int):
        self.steps = steps

    def spend(self, n: int = 1) -> bool:
        if self.steps < n:
            self.steps = 0
            return False
        self.steps -= n
        return True

    @property
    def exhausted(self) -> bool:
        return self.steps <= 0


@dataclass(frozen=True)
class Precision:
    """Enumeration bounds: exponent ceiling, term budget, extension degree cap."""

    ceiling: GroupElement
    max_terms: int = 8
    degree_cap: int = 16

    def __post_init__(self) -> None:
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")
        if self.degree_cap < 1:
            raise ValueError("degree_cap must be at least 1")

    def fuel(self) -> Fuel:
        return Fuel(256 + 64 * self.max_terms)

    def describe(self) -> dict:
        return {
            "ceiling": [str(c) for c in self.ceiling.coords],
            "max_terms": self.max_terms,
            "degree_cap": self.degree_cap,
        }


class Series:
    """Base node: memoized prefix plus completeness bookkeeping."""

    def __init__(self, field: SeriesField, floor: Optional[GroupElement]):
        self.field = field
        self.floor = floor
        self._cache: list[Term] = []
        self._known: Optional[GroupElement] = None
        self._exhausted = False

    # node-specific production
    def _expand(self, bound: GroupElement, fuel: Fuel) -> None:
        raise NotImplementedError

    def ensure_below(self, bound: GroupElement, fuel: Fuel) -> bool:
        """Try to certify the cache complete below ``bound``; report success."""
        if self.complete_for(bound):
            return True
        if self.floor is None:
            self._exhausted = True
            return True
        self._expand(bound, fuel)
        return self.complete_for(bound)

    def complete_for(self, bound: GroupElement) -> bool:
        return self._exhausted or (self._known is not None and bound <= self._known)

    def known_bound(self):
        return _INF if self._exhausted else self._known

    def terms_below(self, bound: GroupElement) -> list[Term]:
        return [t for t in self._cache if t.exponent < bound]

    def first_exponent_bound(self):
        """A certified lower bound for the first exponent (exact if witnessed)."""
        if self._cache:
            return self._cache[0].exponent
        if self._exhausted:
            return _INF
        if self._known is not None:
            return self._known
        return self.floor if self.floor is not None else _INF

    @property
    def exhausted(self) -> bool:
        return self._exhausted

    def witnessed_terms(self) -> list[Term]:
        return list(self._cache)

    def _check(self, other: "Series") -> None:
        if self.field != other.field:
            raise MismatchedAmbient(
                f"{self.field.group.describe()}/{self.field.coeff.describe()} vs "
                f"{other.field.group.describe()}/{other.field.coeff.describe()}"
            )


class _Leaf(Series):
    def __init__(self, field: SeriesField, terms: tuple):
        first = terms[0].exponent if terms else None
        super().__init__(field, first)
        self._cache = list(terms)
        self._exhausted = True

    def _expand(self, bound, fuel) -> None:  # pragma: no cover - exhausted at birth
        pass


class _Stream(Series):
    """Restartable generator node; pulls are charged against the fuel."""

    def __init__(self, field: SeriesField, floor: GroupElement, factory):
        super().__init__(field, floor)
        self._factory = factory
        self._iter: Optional[Iterator[Term]] = None

    def _expand(self, bound, fuel) -> None:
        if self._iter is None:
            self._iter = self._factory()
        cache = list(self._cache)
        while not self._exhausted:
            if cache and cache[-1].exponent >= bound:
                break
            if not fuel.spend():
                break
            try:
                term = next(self._iter)
            except StopIteration:
                self._exhausted = True
                break
            if term.coefficient.is_zero():
                raise ValueError("stream produced a zero coefficient")
            if cache and term.exponent <= cache[-1].exponent:
                raise ValueError("stream exponents must strictly increase")
            if not cache and term.exponent < self.floor:
                raise ValueError("stream violated its declared floor")
            cache.append(term)
        self._cache = cache
        if cache:
            last = cache[-1].exponent
            if self._known is None or self._known < last:
                self._known = last


class _Map(Series):
    """Coefficient scaling combined with an exponent shift."""

    def __init__(self, child: Series, shift: GroupElement, scale: FieldElement):
        if scale.is_zero():
            raise ValueError("scale must be nonzero")
        floor = None if child.floor is None else child.floor + shift
        super().__init__(child.field, floor)
        self.child = child
        self.shift = shift
        self.scale = scale

    def _expand(self, bound, fuel) -> None:
        self.child.ensure_below(bound - self.shift, fuel)
        kb = _bound_add(self.child.known_bound(), self.shift)
        self._cache = [
            Term(t.exponent + self.shift, t.coefficient * self.scale)
            for t in self.child._cache
        ]
        self._exhausted = self.child.exhausted
        self._known = None if kb is None or kb is _INF else kb


class _Add(Series):
    def __init__(self, x: Series, y: Series):
        x._check(y)
        if x.floor is None:
            floor = y.floor
        elif y.floor is None:
            floor = x.floor
        else:
            floor = min(x.floor, y.floor)
        super().__init__(x.field, floor)
        self.x = x
        self.y = y

    def _expand(self, bound, fuel) -> None:
        self.x.ensure_below(bound, fuel)
        self.y.ensure_below(bound, fuel)
        w = _bound_min(bound, self.x.known_bound(), self.y.known_bound())
        self._exhausted = self.x.exhausted and self.y.exhausted
        if self._exhausted:
            terms = _merge(self.x._cache, self.y._cache, None)
            self._cache = terms
            return
        if w is None:
            return
        self._cache = _merge(self.x._cache, self.y._cache, w)
        self._known = w


def _merge(xs: list[Term], ys: list[Term], strict_bound) -> list[Term]:
    out: list[Term] = []
    i = j = 0
    while i < len(xs) or j < len(ys):
        if j >= len(ys) or (i < len(xs) and xs[i].exponent < ys[j].exponent):
            t = xs[i]
            i += 1
        elif i >= len(xs) or ys[j].exponent < xs[i].exponent:
            t = ys[j]
            j += 1
        else:
            s = xs[i].coefficient + ys[j].coefficient
            e = xs[i].exponent
            i += 1
            j += 1
            if s.is_zero():
                continue
            t = Term(e, s)
        if strict_bound is not None and not t.exponent < strict_bound:
            break
        out.append(t)
    return out


class _Mul(Series):
    def __init__(self, x: Series, y: Series):
        x._check(y)
        floor = None
        if x.floor is not None and y.floor is not None:
            floor = x.floor + y.floor
        super().__init__(x.field, floor)
        self.x = x
        self.y = y

    def _expand(self, bound, fuel) -> None:
        if self.x.floor is None or self.y.floor is None:
            self._exhausted = True
            return
        self.x.ensure_below(bound - self.y.floor, fuel)
        self.y.ensure_below(bound - self.x.floor, fuel)
        fx = self.x.first_exponent_bound()
        fy = self.y.first_exponent_bound()
        w = _bound_min(
            bound,
            _bound_add(self.x.known_bound(), fy),
            _bound_add(self.y.known_bound(), fx),
        )
        self._exhausted = self.x.exhausted and self.y.exhausted
        strict = None if self._exhausted else w
        if strict is None and not self._exhausted:
            return
        acc: dict[tuple, tuple[GroupElement, FieldElement]] = {}
        for tx in self.x._cache:
            for ty in self.y._cache:
                e = tx.exponent + ty.exponent
                if strict is not None and not e < strict:
                    continue
                c = tx.coefficient * ty.coefficient
                key = e.coords
                if key in acc:
                    c = acc[key][1] + c
                acc[key] = (e, c)
        terms = [Term(e, c) for e, c in acc.values() if not c.is_zero()]
        terms.sort(key=lambda t: t.exponent.coords)
        self._cache = terms
        if not self._exhausted:
            self._known = w


class _Truncate(Series):
    def __init__(self, child: Series, cut: GroupElement):
        floor = child.floor
        if floor is not None and not floor < cut:
            floor = None
        super().__init__(child.field, floor)
        self.child = child
        self.cut = cut

    def _expand(self, bound, fuel) -> None:
        target = min(bound, self.cut)
        self.child.ensure_below(target, fuel)
        kb = self.child.known_bound()
        if self.child.exhausted or _bound_covers(kb, self.cut):
            self._cache = [t for t in self.child._cache if t.exponent < self.cut]
            self._exhausted = True
            return
        if kb is None:
            return
        w = _bound_min(bound, kb)
        self._cache = [t for t in self.child._cache if t.exponent < min(w, self.cut)]
        self._known = w


class _Invert(Series):
    """Geometric expansion 1/x = c0^-1 t^-g0 * sum_k (-u)^k with v(u) > 0."""

    def __init__(self, x: Series, lead: Term):
        super().__init__(x.field, -lead.exponent)
        self.x = x
        self.lead = lead
        inv_coeff = lead.coefficient.invert()
        # u = x / (c0 t^g0) - 1; exponents of u are strictly positive
        normalized = _Map(x, -lead.exponent, inv_coeff)
        self.u = _Add(normalized, _Leaf(x.field, (Term(x.field.group.zero(), -x.field.coeff.one()),)))
        self.inv_scale = inv_coeff
        self._neg_u: Optional[Series] = None
        self._powers: list[Series] = []

    def _expand(self, bound, fuel) -> None:
        g0 = self.lead.exponent
        target = bound + g0  # bound for the geometric sum
        self.u.ensure_below(target, fuel)
        if not self.u._cache:
            mono = Term(-g0, self.inv_scale)
            if self.u.exhausted:
                # x is exactly its leading monomial
                self._cache = [mono]
                self._exhausted = True
                return
            kb = self.u.known_bound()
            if kb is None:
                return
            self._cache = [mono]
            self._known = _bound_min(bound, kb - g0)
            return
        delta = self.u._cache[0].exponent
        if not self.field.group.zero() < delta:
            raise LeadingTermUnknown("inverse correction has non-positive valuation")
        if self._neg_u is None:
            self._neg_u = _Map(self.u, self.field.group.zero(), -self.field.coeff.one())
        # activate powers (-u)^k while k*delta stays below the target;
        # binary splitting keeps the node depth logarithmic
        tail_floor = delta.scale(len(self._powers) + 1)
        while tail_floor < target:
            if not fuel.spend(4):
                break
            k = len(self._powers) + 1
            if k == 1:
                self._powers.append(self._neg_u)
            else:
                a, b = k // 2, k - k // 2
                self._powers.append(_Mul(self._powers[a - 1], self._powers[b - 1]))
            tail_floor = delta.scale(len(self._powers) + 1)
        acc = _balanced_sum(self.field, [self.field.one()] + list(self._powers))
        acc.ensure_below(target, fuel)
        w = _bound_min(target, acc.known_bound(), tail_floor)
        if w is None:
            return
        known = w - g0
        # the sum tree is rebuilt per call: never regress recorded knowledge
        if self._known is not None and not self._known < known:
            return
        self._cache = [
            Term(t.exponent - g0, t.coefficient * self.inv_scale)
            for t in acc._cache
            if t.exponent < w
        ]
        self._known = known


def _balanced_sum(field: SeriesField, nodes: list) -> Series:
    if not nodes:
        return field.zero()
    while len(nodes) > 1:
        nodes = [
            _Add(nodes[i], nodes[i + 1]) if i + 1 < len(nodes) else nodes[i]
            for i in range(0, len(nodes), 2)
        ]
    return nodes[0]


def add(x: Series, y: Series) -> Series:
    return _Add(x, y)


def sum_series(field: SeriesField, terms: Iterable[Series]) -> Series:
    return _balanced_sum(field, list(terms))


def negate(x: Series) -> Series:
    return _Map(x, x.field.group.zero(), -x.field.coeff.one())


def subtract(x: Series, y: Series) -> Series:
    return _Add(x, negate(y))


def multiply(x: Series, y: Series) -> Series:
    # single-term factors become cheap shift nodes
    for a, b in ((x, y), (y, x)):
        if isinstance(a, _Leaf) and len(a._cache) == 1:
            t = a._cache[0]
            return _Map(b, t.exponent, t.coefficient)
        if isinstance(a, _Leaf) and not a._cache:
            return a.field.zero()
    return _Mul(x, y)


def scale(x: Series, coefficient) -> Series:
    c = x.field.coeff.element(coefficient)
    if c.is_zero():
        return x.field.zero()
    return _Map(x, x.field.group.zero(), c)


def truncate(x: Series, cut: GroupElement) -> Series:
    return _Truncate(x, cut)


@dataclass(frozen=True)
class Valuation:
    """Witnessed valuation: either Value(gamma) or ZeroUpTo(bound)."""

    value: Optional[GroupElement]
    up_to: Optional[GroupElement]
    exhausted: bool

    @property
    def is_value(self) -> bool:
        return self.value is not None

    def describe(self) -> dict:
        if self.is_value:
            return {"value": [str(c) for c in self.value.coords]}
        out: dict = {"zero_up_to": None if self.up_to is None else [str(c) for c in self.up_to.coords]}
        if self.exhausted:
            out["exact_zero"] = True
        return out


def valuation(x: Series, prec: Precision) -> Valuation:
    """Leading exponent below the ceiling, or how far the series is known zero.

    Only the first term is needed, so the expansion budget is escalated in
    stages; memoization makes the retries incremental.
    """
    for budget in (8, 64):
        x.ensure_below(prec.ceiling, Fuel(budget))
        if x._cache or x.complete_for(prec.ceiling):
            break
    else:
        x.ensure_below(prec.ceiling, prec.fuel())
    first = x.first_exponent_bound()
    if isinstance(first, GroupElement) and x._cache and first < prec.ceiling:
        return Valuation(first, None, False)
    if x.exhausted and not x._cache:
        return Valuation(None, prec.ceiling, True)
    if x._cache:
        # the true first term is witnessed at or above the ceiling
        return Valuation(None, prec.ceiling, False)
    kb = x.known_bound()
    if kb is _INF:
        return Valuation(None, prec.ceiling, False)
    return Valuation(None, _bound_min(prec.ceiling, kb) if kb is not None else None, False)


def leading_term(x: Series, prec: Precision) -> Optional[Term]:
    v = valuation(x, prec)
    if not v.is_value:
        return None
    return x._cache[0]


def invert(x: Series, prec: Precision) -> Series:
    lead = leading_term(x, prec)
    if lead is None:
        raise LeadingTermUnknown(
            f"no leading term witnessed below the ceiling {prec.ceiling}"
        )
    return _Invert(x, lead)


def residue_ratio(a: Series, b: Series, prec: Precision) -> FieldElement:
    """res(a/b) for series with equal witnessed valuations.

    Under the precondition v(a) = v(b) the quotient has valuation 0 and its
    residue is exactly the ratio of leading coefficients.
    """
    ta = leading_term(a, prec)
    tb = leading_term(b, prec)
    if ta is None or tb is None:
        raise LeadingTermUnknown("residue ratio needs both leading terms")
    if ta.exponent != tb.exponent:
        raise ValuationMismatch(f"v(a)={ta.exponent} differs from v(b)={tb.exponent}")
    return ta.coefficient / tb.coefficient


def equal_up_to(x: Series, y: Series, cut: GroupElement, prec: Precision) -> bool:
    """Termwise equality of the truncations below ``cut``."""
    diff = subtract(x, y)
    fuel = prec.fuel()
    complete = diff.ensure_below(cut, fuel)
    witnessed = diff.terms_below(cut)
    if witnessed:
        return False
    if not complete:
        raise PrecisionExhausted(
            f"equality below {cut} undecided within the precision budget"
        )
    return True


# named builders for infinite families


def geometric(field: SeriesField, axis: int = -1) -> Series:
    """1 + t + t^2 + ... along the given exponent axis."""
    unit = field.group.unit(axis)
    one = field.coeff.one()

    def gen() -> Iterator[Term]:
        current = field.group.zero()
        while True:
            yield Term(current, one)
            current = current + unit

    return field.stream(field.group.zero(), gen)


def artin_schreier(field: SeriesField, p: int, axis: int = -1) -> Series:
    """sum_i t^(p^i): the classic immediate-extension generator."""
    unit = field.group.unit(axis)
    one = field.coeff.one()

    def gen() -> Iterator[Term]:
        power = p
        yield Term(unit, one)
        while True:
            yield Term(unit.scale(power), one)
            power *= p

    return field.stream(unit, gen)


def custom_powers(field: SeriesField, exponent_of: Callable[[int], int], axis: int = -1) -> Series:
    """sum_i t^(f(i)) for a strictly increasing integer formula f."""
    unit = field.group.unit(axis)
    one = field.coeff.one()
    first = exponent_of(0)

    def gen() -> Iterator[Term]:
        i = 0
        last = None
        while True:
            e = exponent_of(i)
            if last is not None and e <= last:
                raise ValueError("exponent formula must strictly increase")
            last = e
            yield Term(unit.scale(e), one)
            i += 1

    return field.stream(unit.scale(first), gen)
