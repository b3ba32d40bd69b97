"""Lazily evaluated generalized power series with exact arithmetic.

A :class:`Series` is a mathematical value, not a consumable stream: every
node memoizes the strictly increasing prefix of terms it has produced, and
re-enumeration reproduces the identical prefix, so sharing a node is safe
and scaling by the unit returns its argument.  Enumeration is bounded in two
ways, by an exponent ceiling and by a work budget (:class:`Fuel`), because
equality of lazy series is undecidable in general; all verdicts built on top
of this module carry the bound they were computed under.

Completeness bookkeeping: each node has one field ``_known``, an exponent
key (the coordinate tuple the heaps compare) below which the cache is
provably complete: ``()`` lies below every key and means nothing is known
yet, and ``_TOP`` lies above every key and means the cache holds every term
(the series is exhausted).  So ``min`` and ``<=`` on tuples combine and test
bounds, and a group element becomes a bound only as its ``coords``.  Each
node also has a static ``floor``, a lower bound for any exponent the series
can produce.  A floor of ``None`` means the series is identically zero, and
such a node is exhausted when it is built.  The floor is what makes lazy
multiplication and inversion well-founded.

The nodes are online (J. van der Hoeven, "Relax, but don't be too lazy",
J. Symbolic Comput. 34(6), 2002): caches are append-only, a node appends
only settled terms, and each pull resumes from cursors saved by the last.
A pull asks for the terms below a bound or for the first ``need`` terms,
whichever comes first, so a node makes only what its consumer needs:
:func:`valuation` pulls lead-first (need 1) and answers from a cached term
without pulling, as :func:`leading_term` does without building a valuation
record.  A map maps only new child terms.  A sum keeps a heap of
its children's next terms between pulls, pulls an idle child only when it
holds up the next exponent, and merges only below the bound.  Once every
child but one is exhausted and merged, the sum forwards its demand to that
child and copies its new terms, skipping to the child's own source when the
child forwards too (tail sharing).  x less a leaf of the first terms x has
cached (:func:`subtract`, or :func:`add` of their negations) is such a sum
over x, forwarding when built, with x's floor: a chase r_k = r_{k-1} - c*t^d
against {1} builds one node and no negation per step, and costs O(1) per new
term, however deep the chain.  A finite series is a leaf, its terms
sorted on coordinate keys, equal exponents added and zeros dropped by one
normalizer, and its floor is its first exponent, the tightest lower bound
it has.  Short finite sums are not lazy: :func:`add`, :func:`subtract` and
:func:`sum_series` hand adjacent leaves with at most ``_FOLD`` terms between
them to the normalizer when they are built, as :meth:`SeriesField.from_terms`
hands it its terms; longer sums stay lazy and keep their shared tails.  A
whole pull (the need ``_WHOLE``) expands each node it reaches once even when
complete below the bound, so a node whose parts end, when built or at run
time, is pulled to its end and a report prints an exact series exactly.  A
product keeps one cursor per left term into the right cache and forms only
pairs below the bound; a lead pull asks its factors for one more term per
round.  Its pair loop works on raw exponent keys (coordinates summed as
numbers) and coefficient reps (the field's op table) and builds one element
per settled exponent.  The inverse of x with lead c*t^g is the fixed point
y = m + u*y, m = c^-1 t^-g, u = -m*(x - c*t^g): v(u) > 0, so each term of
u*y lies above the terms of y it uses and the product's right cursors run
over y's own prefix.

A product over Z and F_p uses Kronecker substitution instead (D. Harvey,
J. Symbolic Comput. 44, 2009): each factor's prefix is one int, a byte slot
per exponent, wide enough that no product slot overflows (else both
repack).  A pull adds only the new L-shaped strip (new left slots times all
right slots, old left times new right) to an accumulator and reads the
settled slots mod p.  A strip with more than ``_SPARSE`` slots per new term
(say, sum t^(3^i)) moves the product to the pair loop for good, its cursors
bisected past the settled bound.  An inverse over Z and F_p settles windows
of packed ints: with y settled below offset n, the slots [n, n+s), s <= n,
are lead*A*y[:s] mod t^s, A the slots there of u*y[:n] (the accumulator of
the pairs that the settled prefix makes), as 1/(1-u) = lead*y.  The windows
double up to a long pull's bound, and a short pull settles one window.  Once
the prefixes of u and y span more than ``_SPARSE`` slots per term, the
inverse moves to the pair loop in the same way.

A pull is one explicit-stack loop in :meth:`Series._pull`: a node's
``_expand`` is a generator that yields each child with the bound and need
it has of it, and the loop expands that child first when its cache falls
short.  No pull recurses, so the depth of a chain of nodes is bounded only
by the inputs.

Fuel: a stream spends one unit per pulled term and an inverse one per
exponent it settles that a pair of u*y meets (a block window one per nonzero
term it settles, never more).  No other node makes terms its children do not
bound, so every pull ends; one that runs out of fuel leaves a consistent
prefix, and the next pull resumes it.

Caches fill lazily and without locks, so a series, and a family built from
series, must not be used from several threads at once.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count
from operator import add as _coord_add, attrgetter
from typing import Callable, Iterable, Iterator, Optional

from .groups import Frozen, GroupElement, GroupKind, OrderedGroup, frozen_setters
from .residues import FieldElement, ResidueField


class MismatchedAmbient(ValueError):
    pass


class LeadingTermUnknown(RuntimeError):
    """Inversion asked for an unwitnessed leading term."""


class PrecisionExhausted(RuntimeError):
    """A comparison could not be decided within the precision budget."""


class Term(Frozen):
    __slots__ = ("exponent", "coefficient")

    def __init__(self, exponent: GroupElement, coefficient: FieldElement):
        if coefficient.is_zero():
            raise ValueError("terms carry nonzero coefficients")
        _set_exponent(self, exponent)
        _set_coefficient(self, coefficient)


_set_exponent, _set_coefficient = frozen_setters(Term)


@dataclass(frozen=True)
class SeriesField:
    """The ambient field of generalized power series coeff((t^group))."""

    group: OrderedGroup
    coeff: ResidueField

    def from_terms(self, pairs: Iterable[tuple]) -> "Series":
        terms, group, coeff = [], self.group, self.coeff
        for exp, c in pairs:  # an element of this field or group is kept as it is, anything else checked
            exp = exp if type(exp) is GroupElement and exp.group is group else group.element(exp)
            c = c if type(c) is FieldElement and c.field is coeff else coeff.element(c)
            if not c.is_zero():
                terms.append(Term(exp, c))
        return _normalized(self, terms)

    def zero(self) -> "Series":
        return _Leaf(self, [])

    def one(self) -> "Series":
        return self.monomial(self.group.zero(), 1)

    def monomial(self, exponent, coefficient=1) -> "Series":
        return self.from_terms([(exponent, coefficient)])

    def stream(self, floor: GroupElement, factory: Callable[[], Iterator[Term]]) -> "Series":
        return _Stream(self, self.group.element(floor), factory)  # a floor of another group, or None, raises


# the needs of a pull beside a term count: every term below the bound, and
# for a finite node every term (the same for a node that may be infinite)
_ALL, _WHOLE = float("inf"), float("inf")
_TOP = (_ALL,)  # an exponent key above every other: an exhausted node's bound


def _shift(known: tuple, by: tuple) -> tuple:
    """The bound ``known`` moved by the coordinates ``by``; () and _TOP stay themselves."""
    return known if known is _TOP or not known else tuple(map(_coord_add, known, by))


class Fuel:
    """Mutable work budget; spent on stream pulls and inverse terms."""

    def __init__(self, steps: int):
        self.steps = steps

    def spend(self, n: int = 1) -> bool:
        if self.steps < n:
            self.steps = 0
            return False
        self.steps -= n
        return True


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
        return {"ceiling": self.ceiling.describe(), "max_terms": self.max_terms, "degree_cap": self.degree_cap}


class Series:
    """Base node: memoized prefix plus completeness bookkeeping."""

    def __init__(self, field: SeriesField, floor: Optional[GroupElement]):
        self.field = field
        self.floor = floor
        self._cache: list[Term] = []
        self._known = () if floor is not None else _TOP

    def ensure_below(self, bound: GroupElement, fuel: Fuel, whole: bool = False) -> bool:
        """Try to certify the cache complete below ``bound``; report success.

        With ``whole``, a finite series is pulled to its end, so it shows exhausted."""
        self._pull(bound, fuel, _WHOLE if whole else _ALL)
        return self.complete_for(bound)

    def _pull(self, bound: GroupElement, fuel: Fuel, need) -> None:
        """Pull until the cache holds ``need`` terms or is complete below ``bound``
        (exhausted, for a finite node and the need ``_WHOLE``).

        A whole pull expands each node it reaches once, complete or not, so a node
        made of nodes that end, when built or at run time, is pulled to its end."""
        stack = [iter([(self, bound, need)])]
        whole = set() if need is _WHOLE else None  # ids of the nodes a whole pull expanded
        while stack:
            for child, below, n in stack[-1]:
                if not (len(child._cache) >= n or child.complete_for(below) and (
                        n is not _WHOLE or child._known is _TOP or id(child) in whole)):
                    if n is _WHOLE:
                        whole.add(id(child))
                    stack.append(child._expand(below, fuel, n))
                    break
            else:
                stack.pop()

    def complete_for(self, bound: GroupElement) -> bool:
        return bound.coords <= self._known

    def terms_below(self, bound: GroupElement) -> list[Term]:
        return [t for t in self._cache if t.exponent < bound]

    def first_exponent_bound(self) -> tuple:
        """The key of a certified lower bound for the first exponent (exact if witnessed)."""
        if self._cache:
            return self._cache[0].exponent.coords
        return self._known or self.floor.coords

    @property
    def exhausted(self) -> bool:
        return self._known is _TOP

    def witnessed_terms(self) -> list[Term]:
        return list(self._cache)

    def _check(self, other: "Series") -> None:
        if self.field is not other.field and self.field != other.field:
            raise MismatchedAmbient(
                f"{self.field.group.describe()}/{self.field.coeff.describe()} vs "
                f"{other.field.group.describe()}/{other.field.coeff.describe()}"
            )


class _Leaf(Series):
    """A finite series, exhausted when built: terms of its field sorted on coordinate
    keys, no two exponents equal.  Its floor is its first exponent, None when empty."""

    def __init__(self, field: SeriesField, terms: list):
        super().__init__(field, terms[0].exponent if terms else None)
        self._cache = terms
        self._known = _TOP


def _normalized(field: SeriesField, terms: list) -> _Leaf:
    """The leaf of the nonzero ``terms``: sorted on coordinate keys, equal exponents added, zeros dropped."""
    if len(terms) < 2:
        return _Leaf(field, terms)
    terms.sort(key=_exponent_key)  # two sorted runs, as a fold passes them, merge in one pass
    merged: list[Term] = []
    for t in terms:
        if merged and merged[-1].exponent.coords == t.exponent.coords:
            s = merged.pop().coefficient + t.coefficient
            if not s.is_zero():
                merged.append(Term(t.exponent, s))
        else:
            merged.append(t)
    return _Leaf(field, merged)


class _Stream(Series):
    """Restartable generator node; pulls are charged against the fuel."""

    def __init__(self, field: SeriesField, floor: GroupElement, factory):
        super().__init__(field, floor)
        self._factory = factory
        self._iter: Optional[Iterator[Term]] = None

    def _expand(self, bound, fuel, need):
        yield from ()  # no children to pull
        if self._iter is None:
            self._iter = self._factory()
        floor = self.floor
        floor._check(bound)  # the group checks that comparing group elements made, kept for the keys below
        cache, room, stop = self._cache, need - len(self._cache), bound.coords
        last = cache[-1].exponent.coords if cache else ()  # the last key; () lies below every key
        while room > 0 and last < stop and fuel.spend():
            try:
                term = next(self._iter)
            except StopIteration:
                self._known = _TOP
                return
            if term.coefficient.is_zero():
                raise ValueError("stream produced a zero coefficient")
            if term.exponent.group is not floor.group:
                floor._check(term.exponent)
            if term.exponent.coords <= last:
                raise ValueError("stream exponents must strictly increase")
            if not last and term.exponent.coords < floor.coords:
                raise ValueError("stream violated its declared floor")
            cache.append(term)
            last = term.exponent.coords
            room -= 1
        if last:
            self._known = last


class _Map(Series):
    """Coefficient scaling combined with an exponent shift."""

    def __init__(self, child: Series, shift: GroupElement, scale: FieldElement):
        super().__init__(child.field, child.floor + shift)
        self.child = child
        self.shift = shift
        self.scale = scale

    def _expand(self, bound, fuel, need):
        child = self.child
        yield child, bound - self.shift, need
        # term i of this cache is term i of the child's: map only the new ones
        self._cache += [
            Term(t.exponent + self.shift, t.coefficient * self.scale)
            for t in child._cache[len(self._cache):]
        ]
        self._known = _shift(child._known, self.shift.coords)


_coords, _exponent_key = attrgetter("coords"), attrgetter("exponent.coords")


class _Sum(Series):
    """n-ary sum: a heap merge with one cursor per child cache, kept between pulls.

    A child with a term at its cursor waits in the heap, keyed by that term's
    exponent; the others are idle until they grow, and an exhausted one leaves
    once merged.  With one child left the sum forwards: it passes its demand
    on and copies the child's new terms, and skips to that child's own source
    when the child forwards too (tail sharing).
    """

    def __init__(self, children: list):  # checked by _sum
        floors = [c.floor for c in children if c.floor is not None]  # of one group: _check saw to it
        super().__init__(children[0].field, min(floors, key=_coords))  # only an empty leaf has none; _sum folds two side by side
        self.children = children
        self._cursors = [0] * len(children)
        self._heap: list = []  # (exponent key, child index)
        self._idle = list(range(len(children)))

    _lag = None  # forwarding: from index _shared on, _cache[i] is children[0]._cache[i - _lag]
    _shared = 0

    def _expand(self, bound, fuel, need):
        cache, cursors = self._cache, self._cursors
        if self._lag is not None:
            child, k = self.children[0], cursors[0]
            while type(child) is _Sum and child._lag is not None and k >= child._shared:
                k, child = k - child._lag, child.children[0]
                self.children[0], self._shared, self._lag = child, len(cache), len(cache) - k
            yield child, bound, need if need == _ALL else k + need - len(cache)
            src = child._cache
            end = min(len(src) if need is _WHOLE and child.exhausted else
                      bisect_left(src, bound.coords, k, key=_exponent_key), k + need - len(cache))
            cache += src[k:end]
            cursors[0], self._known = end, child._known if end == len(src) else src[end].exponent.coords
            return
        children, heap, idle = self.children, self._heap, self._idle
        if need == _ALL:  # a pull to the bound needs every child complete below it
            for c in children:
                yield c, bound, need
        # a whole pull merges exhausted children past the bound, to the end
        stop = _TOP if need is _WHOLE and all(c.exhausted for c in children) else bound.coords
        stalled = False
        while True:
            lim = stop  # keys below it merge: below the stop and each idle child's known
            for n in idle[:]:  # grown children rejoin the heap, exhausted ones leave
                c, k = children[n], cursors[n]
                if k < len(c._cache):
                    idle.remove(n)
                    heappush(heap, (c._cache[k].exponent.coords, n))
                elif c.exhausted:
                    idle.remove(n)
                else:
                    lim = min(lim, c._known)
            room = need - len(cache)
            while room > 0 and heap and heap[0][0] < lim:
                key, n = heappop(heap)
                first = total = None
                while True:
                    src, k = children[n]._cache, cursors[n]
                    t = src[k]
                    cursors[n] = k = k + 1
                    if k < len(src):
                        heappush(heap, (src[k].exponent.coords, n))
                    elif not children[n].exhausted:
                        idle.append(n)
                        lim = min(lim, children[n]._known)
                    if first is None:
                        first = t
                    else:  # equal exponents: add the coefficients
                        total = (first.coefficient if total is None else total) + t.coefficient
                    if not heap or heap[0][0] != key:
                        break
                    n = heappop(heap)[1]
                if total is None:
                    cache.append(first)
                    room -= 1
                elif not total.is_zero():
                    cache.append(Term(first.exponent, total))
                    room -= 1
            if stalled or room <= 0 or not (heap or idle):
                break
            # pull the idle children that block the next key below the stop, or the stop itself
            head = heap[0][0] if heap and heap[0][0] < stop else None
            blocking = [n for n in idle if (
                children[n]._known <= head if head is not None else children[n]._known < stop)]
            if not blocking:
                break
            for n in blocking:
                c, more = children[n], need if need == _ALL else cursors[n] + 1
                yield c, bound, more
                if not (len(c._cache) >= more or c.complete_for(bound)):
                    stalled = True  # out of fuel: merge what came, then stop
                    break
        if not (heap or idle):
            self._known = _TOP
            return
        n = heap[0][1] if heap else idle[0]
        self._known = min([key for key, _ in heap[:1]] + [children[i]._known for i in idle])
        if len(heap) + len(idle) == 1:  # one child left: forward to it from now on
            self.children, self._cursors = [children[n]], [cursors[n]]
            self._shared, self._lag = len(cache), len(cache) - cursors[n]


class _Pairs:
    """State of an online product: one cursor per left term into the right terms.

    Each left term's next pair waits in a heap keyed by its raw exponent (the
    one coordinate on rank 1, else the coordinate tuple); left term i+1 joins
    once the pair (i, 0) is settled, as none of its pairs is smaller.  A cursor
    at the end of the right cache waits in ``stuck`` until that cache grows;
    all stuck cursors share one right index.
    """

    def __init__(self, field: SeriesField):
        self.field = field
        self.cursors: list[int] = []
        self.heap: list = []  # (exponent key, left index)
        self.stuck: list[int] = []
        self.due = True  # left term len(cursors) may join

    def skip_below(self, left: list, right: list, bound: tuple) -> None:
        """Start with every left term, each cursor at its first pair not below the key ``bound`` (rank 1)."""
        keys = [t.exponent.coords[0] for t in right]
        self.cursors = [bisect_left(keys, bound[0] - t.exponent.coords[0]) for t in left]
        self.stuck = list(range(len(left) - 1, -1, -1))  # least cursor first: one ready() pass
        self.due = self.cursors[-1] > 0

    def settle(self, left: list, right: list, out: list, stop: tuple, fuel: Optional[Fuel] = None) -> tuple:
        """Append to ``out`` the product terms below the key ``stop`` (every term at ``_TOP``).

        ``right`` may be ``out`` itself, provided each product term lies
        strictly above the right terms it is made of.  With ``fuel``, each
        settled exponent costs one unit.  Returns the key below which the
        product is settled.
        """
        cursors, heap, stuck = self.cursors, self.heap, self.stuck
        group, coeff = self.field.group, self.field.coeff
        plus, times, canon, _ = coeff._ops
        rank1 = group.rank == 1  # one number per key costs a fifth of a tuple made by map()
        key_of = (lambda a, b: a[0] + b[0]) if rank1 else (lambda a, b: tuple(map(_coord_add, a, b)))
        elem = (lambda k: GroupElement(group, (k,))) if rank1 else (lambda k: GroupElement(group, k))
        stop_key = stop[0] if rank1 else stop  # inf at _TOP, above every key

        def ready(i: int) -> None:
            j = cursors[i]
            if j < len(right):
                heappush(heap, (key_of(left[i].exponent.coords, right[j].exponent.coords), i))
            else:
                stuck.append(i)

        while True:
            if self.due and len(cursors) < len(left):
                cursors.append(0)
                self.due = False
                ready(len(cursors) - 1)
            if stuck and cursors[stuck[0]] < len(right):
                waiting = stuck[:]
                stuck.clear()
                for i in waiting:
                    ready(i)
            if not heap or not heap[0][0] < stop_key:
                return stop
            if fuel is not None and not fuel.spend():
                return (heap[0][0],) if rank1 else heap[0][0]
            key = heap[0][0]
            total = None
            while heap and heap[0][0] == key:
                i = heappop(heap)[1]
                j = cursors[i]
                c = times(left[i].coefficient.rep, right[j].coefficient.rep)
                total = c if total is None else plus(total, c)
                cursors[i] = j + 1
                self.due = self.due or j == 0
                ready(i)
            total = canon(total)
            if total != coeff._zero_rep:
                out.append(Term(elem(key), FieldElement(coeff, total)))


_SPARSE = 8  # a block strip (an inverse's prefix) with more slots than this per term goes to _Pairs


# slot widths that a memoryview reads and writes as native unsigned ints, on a
# little-endian host, where they are the little-endian slots of the packed ints
_CAST = {memoryview(bytes(8)).cast(c).itemsize: c for c in "BHIQ"} if sys.byteorder == "little" else {}


def _pack(terms: list, origin: int, nbytes: int) -> int:
    """The reps of ``terms`` (F_p over rank 1) as one int, exponent e in slot e - origin."""
    buf = bytearray(nbytes * (terms[-1].exponent.coords[0] - origin + 1))
    if nbytes in _CAST:
        slots = memoryview(buf).cast(_CAST[nbytes])
        for t in terms:
            slots[t.exponent.coords[0] - origin] = t.coefficient.rep
    else:
        for t in terms:
            k = nbytes * (t.exponent.coords[0] - origin)
            buf[k:k + nbytes] = t.coefficient.rep.to_bytes(nbytes, "little")
    return int.from_bytes(buf, "little")


def _unpack(value: int, slots: int, nbytes: int, p: int) -> list:
    """The lowest ``slots`` slots of ``value``, ``nbytes`` bytes each, reduced mod p."""
    data = (value & ((1 << 8 * nbytes * slots) - 1)).to_bytes(nbytes * slots, "little")
    if nbytes in _CAST:
        return [v % p for v in memoryview(data).cast(_CAST[nbytes])]
    return [int.from_bytes(data[k:k + nbytes], "little") % p for k in range(0, len(data), nbytes)]


class _Block:
    """State of a Kronecker product over Z and F_p, or of an inverse's u*y (module docstring)."""

    def __init__(self, field: SeriesField):
        self.field, self.nbytes = field, 0  # bytes per slot
        self.sizes = self.spans = self.ints = (0, 0)  # per factor: terms, slots, packed int
        self.acc = self.done = 0  # the product slots from ``done`` on

    def _grow(self, left: list, nleft: int, right: list, origins: tuple, most: int) -> None:
        """Add to ``acc`` each pair of ``left[:nleft]`` and ``right`` with a new term, a
        factor's exponent e in slot e - origin, in slots that hold ``most``."""
        (nx, ny), (X, Y), (x0, y0), done = self.sizes, self.ints, origins, self.done
        nbytes = (most.bit_length() + 7) // 8
        if nbytes > self.nbytes:  # a product slot could overflow: repack both prefixes
            self.nbytes = nbytes
            X, Y = _pack(left[:nleft], x0, nbytes), _pack(right, y0, nbytes)
            self.acc = X * Y >> 8 * nbytes * done
        else:
            nbytes, bits = self.nbytes, 8 * self.nbytes
            if ny < len(right):  # old left slots times new right slots
                lo = right[ny].exponent.coords[0] - y0
                new = _pack(right[ny:], y0 + lo, nbytes)
                self.acc, Y = self.acc + (X * new << bits * (lo - done)), Y + (new << bits * lo)
            if nx < nleft:  # new left slots times every right slot
                lo = left[nx].exponent.coords[0] - x0
                new = _pack(left[nx:nleft], x0 + lo, nbytes)
                self.acc, X = self.acc + (new * Y << bits * (lo - done)), X + (new << bits * lo)
        self.sizes, self.ints = (nleft, len(right)), (X, Y)

    def _emit(self, slots: list, first: int, out: list) -> None:
        """Append a term for each nonzero rep in ``slots``, the first at exponent ``first``."""
        group, coeff = self.field.group, self.field.coeff
        for k, v in enumerate(slots, first):
            if v:
                out.append(Term(GroupElement(group, (k,)), FieldElement(coeff, v)))

    def settle(self, left: list, right: list, out: list, stop: tuple) -> Optional[tuple]:
        """As :meth:`_Pairs.settle` without fuel, or None (settling nothing) on a sparse strip."""
        if not (left and right):
            return stop
        x0, y0 = left[0].exponent.coords[0], right[0].exponent.coords[0]
        (nx, ny), (ax, ay) = self.sizes, self.spans
        bx, by = left[-1].exponent.coords[0] - x0 + 1, right[-1].exponent.coords[0] - y0 + 1
        if bx + by - ax - ay > _SPARSE * (len(left) + len(right) - nx - ny):
            return None
        p, done = self.field.coeff.p, self.done
        self._grow(left, len(left), right, (x0, y0), min(bx, by) * (p - 1) ** 2)
        self.spans = bx, by
        end = bx + by - 1  # the slots the packed prefixes fill
        top = end if stop is _TOP else stop[0] - x0 - y0  # the slots settled after this pull
        if top > done:
            self._emit(_unpack(self.acc, max(min(top, end) - done, 0), self.nbytes, p), x0 + y0 + done, out)
            self.acc, self.done = self.acc >> 8 * self.nbytes * (top - done), top
        return stop

    def invert(self, u: list, y: list, known: tuple, stop: tuple, fuel: Fuel, lead: int) -> tuple:
        """Settle y = m + u*y below the key ``stop``, one unit of fuel per nonzero term, y
        complete below ``known`` (or just y[0] = m) and u's exponents at least 1.  Returns
        the key below which y is settled, short of ``stop`` with fuel left on a sparse prefix.

        Window [n, n+s), s <= n, is A/(1-u) = lead*A*y[:s] mod t^s, A its slots of u*y[:n]."""
        p, y0 = self.field.coeff.p, y[0].exponent.coords[0]
        n, end = known[0] - y0 if known else 1, stop[0] - y0
        if not self.sizes[0]:  # y is m up to u's first exponent: no window below it
            n = max(n, min(u[0].exponent.coords[0] if u else end, end))
        while n < end and fuel.steps:
            s = min(n, end - n, fuel.steps)
            k = bisect_left(u, (n + s,), self.sizes[0], key=_exponent_key)  # the u terms the window reads
            # the rule of a product's strip, over the whole prefix: the windows are short
            bx, by = u[k - 1].exponent.coords[0] + 1, y[-1].exponent.coords[0] - y0 + 1
            if bx + by > _SPARSE * (k + len(y)):
                break
            # a slot of lead*A*y[:s] stays below (bx p^2)^2, as A has at most bx nonzero slots
            reach = min(u[-1].exponent.coords[0] + 1, end) * (p - 1) ** 2  # bx p^2, any bx of this pull
            self._grow(u, k, y, (0, y0), reach * reach)
            bits = 8 * self.nbytes
            self.acc, self.done, mask = self.acc >> bits * (n - self.done), n, (1 << bits * s) - 1
            slots = _unpack((self.acc & mask) * lead * (self.ints[1] & mask), s, self.nbytes, p)
            self._emit(slots, y0 + n, y)
            fuel.spend(s - slots.count(0))  # per term: a pair of u*y meets each, so the pair loop spends as much
            n += s
        return (y0 + n,)


def _block_for(field: SeriesField) -> Optional[_Block]:
    """Block state for a product or inverse over Z and F_p; None elsewhere (the pair loop)."""
    return _Block(field) if field.group.kind is GroupKind.INTEGER_LINE and field.coeff.kind == "Fp" else None


class _Mul(Series):
    """Online product: each pull settles only the products below the new bound."""

    def __init__(self, x: Series, y: Series):
        x._check(y)
        super().__init__(x.field, x.floor + y.floor)
        self.x = x
        self.y = y
        self._pairs = _Pairs(self.field)
        self._block = _block_for(self.field)

    def _expand(self, bound, fuel, need):
        x, y = self.x, self.y
        bx, by = bound - y.floor, bound - x.floor
        while True:  # a lead pull asks each factor for one more term per round
            nx, ny = (need, need) if need == _ALL else (len(x._cache) + 1, len(y._cache) + 1)
            yield x, bx, nx
            yield y, by, ny
            # the key below which the product is settled; () when nothing is
            w = _TOP if x.exhausted and y.exhausted else min(
                bound.coords, _shift(x._known, y.first_exponent_bound()), _shift(y._known, x.first_exponent_bound()))
            if w and self._block is not None:
                known = self._block.settle(x._cache, y._cache, self._cache, w)
                if known is None:  # a sparse strip: the pair loop from here on
                    self._block = None
                    if self._known:
                        self._pairs.skip_below(x._cache, y._cache, self._known)
                else:  # a whole pull to a lower bound keeps the settled one
                    self._known = max(self._known, known)
            if w and self._block is None:
                self._known = max(self._known, self._pairs.settle(x._cache, y._cache, self._cache, w))
            if len(self._cache) >= need or self.complete_for(bound) or not (
                    (len(x._cache) >= nx or x.complete_for(bx)) and (len(y._cache) >= ny or y.complete_for(by))):
                return


class _Invert(Series):
    """1/x as the fixed point y = m + u*y over its own prefix (module docstring)."""

    def __init__(self, x: Series):
        lead = x._cache[0]
        super().__init__(x.field, -lead.exponent)
        self.x = x
        inverse = lead.coefficient.invert()
        self._scale = -inverse  # u_i = -x_i / c, shifted by -g
        self._back = self.floor + self.floor  # x below b + 2g gives u*y below b
        self._u: list[Term] = []
        self._pairs = _Pairs(self.field)
        self._block = _block_for(self.field)
        self._lead = lead.coefficient.rep
        self._cache.append(Term(self.floor, inverse))

    def _expand(self, bound, fuel, need):  # the lead is cached: any demand settles to the bound
        x = self.x
        yield x, bound - self._back, _WHOLE if need is _WHOLE else _ALL
        if x.exhausted and len(x._cache) == 1:
            self._known = _TOP  # x is exactly its leading monomial
            return
        stop = min(bound.coords, _shift(x._known, self._back.coords))
        self._u.extend(
            Term(t.exponent + self.floor, t.coefficient * self._scale)
            for t in x._cache[len(self._u) + 1:]
        )
        if self._block is not None:
            self._known = self._block.invert(self._u, self._cache, self._known, stop, fuel, self._lead)
            if self._known < stop and fuel.steps:  # a sparse prefix: the pair loop from here on
                self._block = None
                self._pairs.skip_below(self._u, self._cache, self._known)
        if self._block is None:
            self._known = max(self._known, self._pairs.settle(self._u, self._cache, self._cache, stop, fuel))


def scaled(x: Series, shift: GroupElement, scale: FieldElement) -> Series:
    """x * scale * t^shift: x itself for the unit; a leaf is mapped at once, as a map pulls all of it anyway."""
    F = x.field  # t^0 * 1 of F's own group and field; any other group or field is checked below
    if not any(shift.coords) and scale.rep == F.coeff.one().rep and shift.group is F.group and scale.field is F.coeff:
        return x
    if type(x) is _Leaf:
        return _Leaf(x.field, [Term(t.exponent + shift, t.coefficient * scale) for t in x._cache])
    return _Map(x, shift, scale)


_FOLD = 16  # adjacent leaves with at most this many terms between them are added when built


def _sum(parts: list) -> Series:
    """The sum of ``parts`` (at least one): runs of short leaves merged, the rest a lazy _Sum."""
    out = parts[:1]
    for c in parts[1:]:
        parts[0]._check(c)
        last = out[-1]
        if type(last) is _Leaf and type(c) is _Leaf and len(last._cache) + len(c._cache) <= _FOLD:
            out[-1] = _normalized(last.field, last._cache + c._cache)
        else:
            out.append(c)
    return out[0] if len(out) == 1 else _Sum(out)


def _tail(x: Series, y: Series, negated: bool) -> Optional[Series]:
    """x less its first j terms when x has cached them and the leaf y holds them (negated):
    a sum over [x] that forwards from its first pull, with x's floor; else None."""
    j = len(y._cache)
    if type(y) is not _Leaf or not 0 < j <= len(x._cache):
        return None
    for a, b in zip(x._cache, y._cache):  # equal terms are of one group and field
        if a.exponent != b.exponent or a.coefficient != (-b.coefficient if negated else b.coefficient):
            return None
    tail = _Sum([x])
    tail._cursors[0], tail._lag = j, -j  # the state of a sum whose other children are merged
    return tail


def add(x: Series, y: Series) -> Series:
    """x + y; a tail of x when y negates the first terms x has cached, unless x is exhausted (a leaf always is)."""
    return x._known is not _TOP and _tail(x, y, True) or _sum([x, y])


def sum_series(field: SeriesField, terms: Iterable[Series]) -> Series:
    parts = list(terms)
    return _sum(parts) if parts else field.zero()


def negate(x: Series) -> Series:
    if type(x) is not _Leaf:
        return _Map(x, x.field.group.zero(), -x.field.coeff.one())
    return _Leaf(x.field, [Term(t.exponent, -t.coefficient) for t in x._cache])  # each exponent kept


def subtract(x: Series, y: Series) -> Series:
    """x - y; a tail of x when y holds the first terms x has cached, unless x is exhausted (a leaf always is)."""
    return x._known is not _TOP and _tail(x, y, False) or _sum([x, negate(y)])


def multiply(x: Series, y: Series) -> Series:
    for a, b in ((x, y), (y, x)):  # a single-term factor scales the other, a zero one is the product
        if type(a) is _Leaf and len(a._cache) < 2:
            return scaled(b, a._cache[0].exponent, a._cache[0].coefficient) if a._cache else a.field.zero()
    return _Mul(x, y)


class Valuation(Frozen):
    """Witnessed valuation: either Value(gamma) or ZeroUpTo(bound)."""

    __slots__ = ("value", "up_to", "exhausted")

    def __init__(self, value: Optional[GroupElement], up_to: Optional[GroupElement], exhausted: bool):
        _set_value(self, value)
        _set_up_to(self, up_to)
        _set_exhausted(self, exhausted)

    @property
    def is_value(self) -> bool:
        return self.value is not None

    def describe(self) -> dict:
        if self.is_value:
            return {"value": self.value.describe()}
        out: dict = {"zero_up_to": None if self.up_to is None else self.up_to.describe()}
        if self.exhausted:
            out["exact_zero"] = True
        return out


_set_value, _set_up_to, _set_exhausted = frozen_setters(Valuation)


def valuation(x: Series, prec: Precision) -> Valuation:
    """Leading exponent below the ceiling, or how far the series is known zero.

    The pull is lead-first: it stops once the first term is certified, and a
    cached first term answers without pulling (every cached term is settled).
    """
    if not x._cache:
        fuel = prec.fuel()
        x._pull(prec.ceiling, fuel, 1)
        if not x._cache:  # none below the ceiling: a finite x is pulled whole, to show an exact zero
            x._pull(prec.ceiling, fuel, _WHOLE)
    if x._cache:
        first = x._cache[0].exponent
        if first < prec.ceiling:
            return Valuation(first, None, False)
        return Valuation(None, prec.ceiling, False)  # the first term lies at or above it
    if x.exhausted:
        return Valuation(None, prec.ceiling, True)
    known = x._known  # the one place a bound becomes a group element again
    return Valuation(None, min(prec.ceiling, GroupElement(x.field.group, known)) if known else None, False)


def leading_term(x: Series, prec: Precision) -> Optional[Term]:
    if not x._cache:  # else the cached first term is settled, as ``valuation`` reads it
        valuation(x, prec)
    return x._cache[0] if x._cache and x._cache[0].exponent < prec.ceiling else None


def invert(x: Series, prec: Precision) -> Series:
    if leading_term(x, prec) is None:
        raise LeadingTermUnknown(f"no leading term witnessed below the ceiling {prec.ceiling}")
    return _Invert(x)


# named builders for infinite families


def geometric(field: SeriesField, axis: int = -1) -> Series:
    """1 + t + t^2 + ... along the given exponent axis."""
    return custom_powers(field, lambda i: i, axis)


def artin_schreier(field: SeriesField, p: int, axis: int = -1) -> Series:
    """sum_i t^(p^i): the classic immediate-extension generator."""
    return custom_powers(field, lambda i: p**i, axis)


def custom_powers(field: SeriesField, exponent_of: Callable[[int], int], axis: int = -1) -> Series:
    """sum_i t^(f(i)) for a strictly increasing integer formula f, whose order the stream checks."""
    unit = field.group.unit(axis)
    one = field.coeff.one()

    def gen() -> Iterator[Term]:
        for i in count():
            yield Term(unit.scale(exponent_of(i)), one)

    return field.stream(unit.scale(exponent_of(0)), gen)
