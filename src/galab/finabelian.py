"""Exact arithmetic of finite abelian groups.

Groups are kept in canonical primary form: a map from each prime l to the
descending list of exponents e of its cyclic factors Z/l^e.  Two values
compare equal exactly when the groups are isomorphic, so isomorphism tests,
deduplication and report keys all reduce to plain equality.

Everything here is integer-exact.  `quotient` reduces G / <generators> one
prime at a time, pivoting on an entry of least valuation modulo the largest
prime power of G, so no general integer Smith normal form is needed.

A `GroupElement` is a plain record of (group, coords), one residue per
cyclic factor in the order of `factor_orders`; it carries no arithmetic.
It names witnesses, counterexamples and the generators passed to `quotient`.

Subgroups are searched one prime at a time, by one routine: `l_subgroups`
yields each copy of a given l-group type lazily, in canonical order, named
by its canonical generators.  It runs on bare coordinate tuples, which
compare in that order; callers wrap them in `GroupElement` records.  A
subgroup of composite order is the sum of its l-parts.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from math import gcd, prod
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .arith import factorint


@lru_cache(maxsize=1024)
def _factor(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(factorint(n).items())


class _Record:
    """Base of galab's immutable value types; the fields are the `__slots__`, in order.

    Fields are passed by position, keyword or both; a missing, unknown, twice-given
    or extra field raises TypeError.  A subclass that validates or has defaults ends
    its own `__init__` with `super().__init__(...)`.  Two records are equal, and hash
    alike, exactly when they are of the same class with equal fields; assigning a
    field raises AttributeError.
    """

    __slots__ = ()

    def __init__(self, /, *args: object, **kwargs: object) -> None:
        fields = self.__slots__
        if len(args) != len(fields) or kwargs:
            cls, names = type(self).__qualname__, ", ".join(fields)
            if len(args) > len(fields):
                raise TypeError(f"{cls} takes {len(fields)} fields ({names}), got {len(args)}")
            given = dict(zip(fields, args))
            for key, value in kwargs.items():
                if key not in fields:
                    raise TypeError(f"{cls} has no field {key!r}; its fields are {names}")
                if key in given:
                    raise TypeError(f"{cls} got field {key!r} twice")
                given[key] = value
            missing = [f for f in fields if f not in given]
            if missing:
                raise TypeError(f"{cls} is missing field(s) {', '.join(missing)}")
            args = [given[f] for f in fields]
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuild through __init__: the default sets each slot by setattr, which is refused
        return type(self), self._values()


# ---------------------------------------------------------------------------
# Canonical finite abelian groups


class FiniteAbelianGroup:
    """A finite abelian group in canonical primary decomposition.

    Construct from cyclic orders: ``FiniteAbelianGroup(2, 4, 3)`` is
    Z/2 + Z/4 + Z/3 and ``FiniteAbelianGroup()`` is the trivial group.
    Composite orders are split by the Chinese remainder theorem, so
    ``FiniteAbelianGroup(6) == FiniteAbelianGroup(2, 3)``.  Like the
    records, a group is immutable: assigning or deleting an attribute raises
    AttributeError.
    """

    __slots__ = ("_primary", "_factor_orders")

    def __init__(self, *orders: int):
        collected: dict[int, list[int]] = {}
        for d in orders:
            d = operator.index(d)
            if d <= 0:
                raise ValueError(f"cyclic order must be positive, got {d}")
            if d == 1:
                continue
            for p, e in _factor(d):
                collected.setdefault(p, []).append(e)
        self._init_from(collected)

    def _init_from(self, primary: Mapping[int, Iterable[int]]) -> None:
        data = []
        for p in sorted(primary):
            exps = tuple(sorted(map(operator.index, primary[p]), reverse=True))
            if any(e <= 0 for e in exps):
                raise ValueError("exponents must be positive")
            if exps:
                data.append((operator.index(p), exps))
        object.__setattr__(self, "_primary", tuple(data))
        object.__setattr__(
            self,
            "_factor_orders",
            tuple(p ** e for p, exps in data for e in exps),
        )

    @classmethod
    def _from_primary(cls, primary: Mapping[int, Iterable[int]]) -> FiniteAbelianGroup:
        g = cls.__new__(cls)
        g._init_from(primary)
        return g

    @classmethod
    def from_prime_exponents(cls, prime: int, exponents: Iterable[int]) -> FiniteAbelianGroup:
        """Build an l-group directly from cyclic exponents, skipping factorization.

        Zero exponents are dropped; a negative one raises ValueError.
        """
        exps = [e for e in map(operator.index, exponents) if e]
        return cls._from_primary({prime: exps} if exps else {})

    # -- canonical data ----------------------------------------------------

    @property
    def primary(self) -> dict[int, tuple[int, ...]]:
        return dict(self._primary)

    @property
    def factor_orders(self) -> tuple[int, ...]:
        """Cyclic factor orders in the fixed canonical ordering.

        Primes ascending, exponents descending within each prime; element
        coordinates follow this ordering.
        """
        return self._factor_orders

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self._primary)

    def exponents_at(self, prime: int) -> tuple[int, ...]:
        for p, exps in self._primary:
            if p == prime:
                return exps
        return ()

    @property
    def order(self) -> int:
        return prod(self._factor_orders)

    @property
    def exponent(self) -> int:
        return prod(p ** exps[0] for p, exps in self._primary)

    @property
    def is_trivial(self) -> bool:
        return not self._primary

    def sort_key(self) -> tuple:
        return (self.order, self._primary)

    # -- structural helpers -------------------------------------------------

    def without_prime(self, prime: int) -> FiniteAbelianGroup:
        return FiniteAbelianGroup._from_primary(
            {p: exps for p, exps in self._primary if p != prime}
        )

    # -- dunder --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteAbelianGroup):
            return NotImplemented
        return self._primary == other._primary

    def __hash__(self) -> int:
        return hash(self._primary)

    def __repr__(self) -> str:
        orders = ", ".join(str(d) for d in sorted(self._factor_orders))
        return f"FiniteAbelianGroup({orders})"

    def __str__(self) -> str:
        return group_literal(self)

    __setattr__ = _Record.__setattr__
    __delattr__ = _Record.__delattr__

    def __reduce__(self):
        # rebuild from the primary data: the default sets each slot by setattr, which is refused
        return FiniteAbelianGroup._from_primary, (dict(self._primary),)


def parse_group_literal(text: str) -> FiniteAbelianGroup:
    """Parse the group literal syntax: comma-separated cyclic orders.

    "2,4" is Z/2 + Z/4; "1" or the empty string is the trivial group.
    """
    s = text.strip()
    if s in ("", "1"):
        return FiniteAbelianGroup()
    orders = []
    for part in s.split(","):
        part = part.strip()
        if not part:
            raise ValueError(f"empty entry in group literal {text!r}")
        try:
            d = int(part)
        except ValueError:
            raise ValueError(f"bad cyclic order {part!r} in group literal") from None
        if d <= 0:
            raise ValueError(f"cyclic order must be positive, got {d}")
        orders.append(d)
    return FiniteAbelianGroup(*orders)


def group_literal(g: FiniteAbelianGroup) -> str:
    """Render a group as its literal: ascending prime-power orders, "1" if trivial."""
    if g.is_trivial:
        return "1"
    return ",".join(str(d) for d in sorted(g.factor_orders))


class GroupElement(_Record):
    """An element of a FiniteAbelianGroup: one residue per cyclic factor, and no arithmetic."""

    __slots__ = ("group", "coords")

    def __init__(self, group: FiniteAbelianGroup, coords: Sequence[int]) -> None:
        coords = tuple(coords)
        orders = group.factor_orders
        if len(coords) != len(orders):
            raise ValueError("coordinate count does not match factor count")
        if any(not 0 <= c < d for c, d in zip(coords, orders)):
            raise ValueError("coordinates out of range")
        super().__init__(group, coords)


# ---------------------------------------------------------------------------
# Hom groups, duals, multiplication kernels and images


def hom_group(g: FiniteAbelianGroup, h: FiniteAbelianGroup) -> FiniteAbelianGroup:
    """The group Hom(G, H) under pointwise addition.

    Cyclic pairs contribute Z/gcd, so only shared primes matter.
    """
    primary: dict[int, list[int]] = {}
    for p in set(g.primes) & set(h.primes):
        exps = [min(e1, e2) for e1 in g.exponents_at(p) for e2 in h.exponents_at(p)]
        primary[p] = exps
    return FiniteAbelianGroup._from_primary(primary)


def dual_finite(g: FiniteAbelianGroup) -> FiniteAbelianGroup:
    """The character group Hom(G, Z/exp(G)), isomorphic to G; exp(G) is read off G's primary form."""
    return hom_group(g, FiniteAbelianGroup._from_primary({p: e[:1] for p, e in g._primary}))


def power_and_socle(g: FiniteAbelianGroup, n: int) -> tuple[FiniteAbelianGroup, FiniteAbelianGroup]:
    """Return (nG, G[n]): the image and kernel of multiplication by n."""
    if n < 1:
        raise ValueError("n must be positive")
    image: dict[int, list[int]] = {}
    kernel: dict[int, list[int]] = {}
    for p, exps in g.primary.items():
        # on the p-part, p^v acts like p^min(v, e) for e the largest exponent
        v = 0
        m = n
        while v < exps[0] and m % p == 0:
            m //= p
            v += 1
        image[p] = [e - v for e in exps if e > v]
        kernel[p] = [min(e, v) for e in exps if min(e, v) > 0]
    return (
        FiniteAbelianGroup._from_primary(image),
        FiniteAbelianGroup._from_primary(kernel),
    )


# ---------------------------------------------------------------------------
# Subgroup enumeration and quotients

# an element as the subgroup search carries it: one residue per factor of `factor_orders`
Coords = tuple[int, ...]


def _extend_span(
    current: frozenset[Coords], g: Coords, step: int, add: Callable[[Coords, Coords], Coords]
) -> frozenset[Coords] | None:
    """The span of a subgroup `current` and g, whose order modulo `current` is `step`.

    None when the span has an element below g outside `current`: then g is
    not the least element outside `current` of any subgroup containing both.
    """
    seen = set(current)
    coset = current
    for _ in range(step - 1):
        coset = [add(x, g) for x in coset]
        if min(coset) < g:
            return None
        seen.update(coset)
    return frozenset(seen)


def l_subgroups(
    g: FiniteAbelianGroup, prime: int, exponents: Sequence[int]
) -> Iterator[tuple[Coords, ...]]:
    """Each subgroup of the l-part of G of type `exponents`, once, lazily, in canonical order.

    Yields each subgroup S as its canonical generator tuple, in ascending
    order of the sorted element tuples.  S is reached through its greedy
    sequence g_1 = min(S - 0), g_(j+1) = min(S - <g_1..g_j>): a child
    <T, x> of T = <g_1..g_j> is kept only when x > g_j and every element of
    <T, x> below x lies in T.  Of two subgroups of equal order, the one with
    the smaller greedy sequence has the smaller element tuple, and children
    are tried in ascending order, so the subgroups come out sorted.
    Candidates are the l^e-torsion of G, e the largest exponent; a child is
    pruned when it outgrows |S| or its type no longer fits in the target
    type.

    The generators are named greedily: for each target exponent e, in
    descending order, the least x in S of order l^e whose l^(e-1) multiple
    lies outside the span T of the earlier picks, so that <x> meets T only
    in 0.  Such an x always exists and never has to be undone: T is a
    direct summand of S, x has the largest order in S/T, and an element of
    largest order spans a cyclic direct summand (Macdonald, Symmetric
    Functions and Hall Polynomials, ch. II).  So the tuple is the
    lexicographically first one of elements of orders l^e, e descending,
    that spans S as a direct sum; its equal-exponent entries ascend.
    An exponent below 1 raises ValueError.
    """
    if any(e < 1 for e in exponents):
        raise ValueError(f"subgroup exponents must be >= 1, got {min(exponents)}")
    orders = g.factor_orders
    want = sorted(exponents, reverse=True)
    top = want[0] if want else 0
    depth = sum(want)  # |S| = l^depth
    if not embeds_in(FiniteAbelianGroup.from_prime_exponents(prime, want), g):
        return

    def add(x: Coords, y: Coords) -> Coords:
        return tuple(map(operator.mod, map(operator.add, x, y), orders))

    # the l^top-torsion as coordinate tuples, ascending, zero first
    zero, *candidates = itertools.product(*(range(0, d, d // gcd(d, prime ** top)) for d in orders))
    times_l = {x: tuple([prime * c % d for c, d in zip(x, orders)]) for x in candidates}
    level = {zero: 0}  # x has order l^level[x]
    bottom = {}  # l^(level[x] - 1) x, which spans the order-l subgroup of <x>
    for x in candidates:
        bottom[x], y, level[x] = x, times_l[x], 1
        while y != zero:
            bottom[x], y, level[x] = y, times_l[y], level[x] + 1
    # roots[k][y]: the candidates x with l^k x = y, ascending.  A child x of T
    # with |<T, x>| <= l^depth has l^k x in T for k = depth - log_l |T|.
    roots: list[dict[Coords, list[Coords]]] = [{} for _ in range(depth + 1)]
    for x in candidates:
        y = x
        for k in range(1, depth + 1):
            y = times_l.get(y, zero)
            roots[k].setdefault(y, []).append(x)
    # cap[n] = l^(number of target parts >= n) bounds |T[l^n]| / |T[l^(n-1)]|
    cap = [prime ** sum(1 for e in want if e >= n) for n in range(top + 1)]

    def fits(span: frozenset[Coords]) -> bool:
        """Whether the type of span fits in the target type."""
        counts = [0] * (top + 1)
        for x in span:
            counts[level[x]] += 1
        below = 1
        for n in range(1, top + 1):
            if below + counts[n] > below * cap[n]:
                return False
            below += counts[n]
        return True

    def grow(span: frozenset[Coords], last: Coords, k: int) -> Iterator[frozenset[Coords]]:
        children = sorted(x for t in span for x in roots[k].get(t, ()) if x > last and x not in span)
        for x in children:
            # l^j is the order of x modulo T
            j, y = 1, times_l[x]
            while y not in span:
                j, y = j + 1, times_l[y]
            bigger = _extend_span(span, x, prime ** j, add)
            if bigger is None or not fits(bigger):
                continue
            if j == k:
                yield bigger
            else:
                yield from grow(bigger, x, k - j)

    def generators(span: frozenset[Coords]) -> tuple[Coords, ...]:
        picks, spanned = [], {zero}
        for e in want:
            x = min(x for x in span if level[x] == e and bottom[x] not in spanned)
            multiples, y = [zero], x
            while y != zero:
                multiples.append(y)
                y = add(y, x)
            spanned = {add(s, m) for s in spanned for m in multiples}
            picks.append(x)
        return tuple(picks)

    yield from map(generators, grow(frozenset({zero}), zero, depth) if depth else [frozenset({zero})])


def quotient(
    g: FiniteAbelianGroup, generators: Sequence[GroupElement]
) -> FiniteAbelianGroup:
    """Canonical form of G / <generators>, one prime at a time.

    With E the largest exponent at p, the p-part is (Z/p^E)^k modulo the rows
    diag(p^e_i) and the generators' p-coordinates.  Over Z/p^E an entry of
    least valuation v divides every other, so it clears its column in one
    pass and splits off Z/p^v (Macdonald, Symmetric Functions and Hall
    Polynomials, II.1); a column left with no non-zero entry gives Z/p^E.
    """
    coords = []
    for s in generators:
        if s.group != g:
            raise ValueError("generator does not lie in the given group")
        coords.append(s.coords)
    primary: dict[int, list[int]] = {}
    start = 0
    for p, exps in g._primary:
        q, k = p ** exps[0], len(exps)
        rows = [[p ** e % q if j == i else 0 for j in range(k)] for i, e in enumerate(exps)]
        rows += [[x % q for x in c[start:start + k]] for c in coords]
        start += k
        primary[p] = found = []
        while k:
            entries = ((gcd(x, q), i, j) for i, r in enumerate(rows) for j, x in enumerate(r) if x)
            pivot = min(entries, default=None)
            if pivot is None:
                found += [exps[0]] * k
                break
            d, i, j = pivot
            top = rows.pop(i)
            inverse = pow(top[j] // d, -1, q)
            for r in rows:
                if r[j]:
                    f = r[j] // d * inverse
                    r[:] = [(x - f * y) % q for x, y in zip(r, top)]
                del r[j]
            k -= 1
            v = 0
            while d > 1:
                d, v = d // p, v + 1
            if v:
                found.append(v)
    return FiniteAbelianGroup._from_primary(primary)


# ---------------------------------------------------------------------------
# Enumeration and embedding helpers


def partitions_desc(
    n: int, max_part: int | None = None, inside: tuple[int, ...] = ()
) -> Iterator[tuple[int, ...]]:
    """All partitions of n as descending tuples, in descending-lex order.

    With `inside`, a partition, only those lam containing it (lam_i >=
    inside_i for every i) are yielded, in the same order: each part starts at
    its floor, and stops low enough to leave room for the rest of `inside`.
    """
    if n == 0:
        if not inside:
            yield ()
        return
    top = min(n - sum(inside[1:]), n if max_part is None else max_part)
    for first in range(top, (inside[0] if inside else 1) - 1, -1):
        for rest in partitions_desc(n - first, first, inside[1:]):
            yield (first,) + rest


def embeds_in(a: FiniteAbelianGroup, g: FiniteAbelianGroup) -> bool:
    """True iff A is isomorphic to a subgroup of G.

    Per prime this is coordinatewise dominance of the descending exponent
    lists, equivalently divisibility of invariant factors.
    """
    for p in a.primes:
        ae = a.exponents_at(p)
        ge = g.exponents_at(p)
        if len(ae) > len(ge):
            return False
        if any(x > y for x, y in zip(ae, ge)):
            return False
    return True

