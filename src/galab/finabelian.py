"""Exact arithmetic of finite abelian groups.

Groups are kept in canonical primary form: a map from each prime l to the
descending list of exponents e of its cyclic factors Z/l^e.  Two values
compare equal exactly when the groups are isomorphic, so isomorphism tests,
deduplication and report keys all reduce to plain equality.

Everything here is integer-exact; matrices use arbitrary-precision ints and
the Smith normal form uses minimal-absolute-value pivoting, which is plenty
at the desk scale this library targets (group orders up to ~2**10).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm, prod
from typing import Iterable, Iterator, Mapping, Sequence

from .arith import factorint
from .errors import InfiniteQuotient


@lru_cache(maxsize=None)
def _factor(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(factorint(n).items())


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) = a*x + b*y and g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


# ---------------------------------------------------------------------------
# Integer matrices and Smith normal form


@dataclass(frozen=True)
class IntegerMatrix:
    """Immutable integer matrix with row-major entries."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> IntegerMatrix:
        rows = [list(r) for r in rows]
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        else:
            ncols = 0 if cols is None else cols
        if cols is not None and rows and ncols != cols:
            raise ValueError(f"expected {cols} columns, got {ncols}")
        flat = tuple(x for r in rows for x in r)
        return cls(len(rows), ncols, flat)

    @classmethod
    def identity(cls, n: int) -> IntegerMatrix:
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row_lists(self) -> list[list[int]]:
        return [list(self.entries[i * self.cols:(i + 1) * self.cols]) for i in range(self.rows)]

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.at(i, i) for i in range(min(self.rows, self.cols)))

    def __matmul__(self, other: IntegerMatrix) -> IntegerMatrix:
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        a, b = self.row_lists(), other.row_lists()
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                out.append(sum(a[i][k] * b[k][j] for k in range(self.cols)))
        return IntegerMatrix(self.rows, other.cols, tuple(out))

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.row_lists())


def _coerce_matrix(m: IntegerMatrix | Sequence[Sequence[int]], cols: int | None = None) -> IntegerMatrix:
    if isinstance(m, IntegerMatrix):
        if cols is not None and m.cols != cols and m.rows > 0:
            raise ValueError(f"expected {cols} columns, got {m.cols}")
        return m
    return IntegerMatrix.from_rows(m, cols=cols)


def smith_normal_form(
    m: IntegerMatrix | Sequence[Sequence[int]],
) -> tuple[IntegerMatrix, IntegerMatrix, IntegerMatrix]:
    """Diagonalize an integer matrix: returns (S, U, V) with S = U @ M @ V.

    U and V are unimodular and S is diagonal with non-negative entries
    satisfying the divisibility chain d1 | d2 | ...  Pivots are chosen with
    minimal absolute value, which keeps coefficients small at this scale.
    """
    mat = _coerce_matrix(m)
    nr, nc = mat.rows, mat.cols
    a = mat.row_lists()
    u = IntegerMatrix.identity(nr).row_lists()
    v = IntegerMatrix.identity(nc).row_lists()

    def swap_rows(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def row_sub(i: int, j: int, q: int) -> None:
        # row i -= q * row j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_sub(i: int, j: int, q: int) -> None:
        # col i -= q * col j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def negate_row(i: int) -> None:
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def min_pivot(t: int) -> tuple[int, int] | None:
        best = None
        best_abs = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = a[i][j]
                if x and (best_abs is None or abs(x) < best_abs):
                    best, best_abs = (i, j), abs(x)
                    if best_abs == 1:
                        return best
        return best

    t = 0
    while t < min(nr, nc):
        piv = min_pivot(t)
        if piv is None:
            break
        while True:
            pi, pj = piv
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            # clear the pivot cross; leftover remainders become smaller pivots
            while True:
                p = a[t][t]
                for i in range(t + 1, nr):
                    if a[i][t]:
                        row_sub(i, t, a[i][t] // p)
                for j in range(t + 1, nc):
                    if a[t][j]:
                        col_sub(j, t, a[t][j] // p)
                leftover = None
                for i in range(t + 1, nr):
                    if a[i][t]:
                        leftover = (i, t)
                        break
                if leftover is None:
                    for j in range(t + 1, nc):
                        if a[t][j]:
                            leftover = (t, j)
                            break
                if leftover is None:
                    break
                if leftover[0] != t:
                    swap_rows(t, leftover[0])
                else:
                    swap_cols(t, leftover[1])
            # pivot must divide the remaining block for the divisor chain
            p = a[t][t]
            bad = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_sub(t, bad, -1)
            piv = min_pivot(t)
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    s = IntegerMatrix.from_rows(a, cols=nc)
    return s, IntegerMatrix.from_rows(u, cols=nr), IntegerMatrix.from_rows(v, cols=nc)


# ---------------------------------------------------------------------------
# Canonical finite abelian groups


class FiniteAbelianGroup:
    """A finite abelian group in canonical primary decomposition.

    Construct from cyclic orders: ``FiniteAbelianGroup(2, 4, 3)`` is
    Z/2 + Z/4 + Z/3 and ``FiniteAbelianGroup()`` is the trivial group.
    Composite orders are split by the Chinese remainder theorem, so
    ``FiniteAbelianGroup(6) == FiniteAbelianGroup(2, 3)``.
    """

    __slots__ = ("_primary", "_factor_orders")

    def __init__(self, *orders: int):
        collected: dict[int, list[int]] = {}
        for d in orders:
            d = int(d)
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
            exps = tuple(sorted((int(e) for e in primary[p]), reverse=True))
            if any(e <= 0 for e in exps):
                raise ValueError("exponents must be positive")
            if exps:
                data.append((int(p), exps))
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
        """Build an l-group directly from cyclic exponents, skipping factorization."""
        exps = [e for e in exponents if e > 0]
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
    def rank(self) -> int:
        """Minimal number of generators (max factor count over primes)."""
        return max((len(exps) for _, exps in self._primary), default=0)

    @property
    def is_trivial(self) -> bool:
        return not self._primary

    def sort_key(self) -> tuple:
        return (self.order, self._primary)

    # -- structural helpers -------------------------------------------------

    def primary_part(self, prime: int) -> FiniteAbelianGroup:
        return FiniteAbelianGroup.from_prime_exponents(prime, self.exponents_at(prime))

    def without_prime(self, prime: int) -> FiniteAbelianGroup:
        return FiniteAbelianGroup._from_primary(
            {p: exps for p, exps in self._primary if p != prime}
        )

    # -- elements ------------------------------------------------------------

    def zero(self) -> GroupElement:
        return GroupElement(self, (0,) * len(self._factor_orders))

    def element(self, coords: Sequence[int]) -> GroupElement:
        orders = self._factor_orders
        return GroupElement(self, tuple(c % d for c, d in zip(coords, orders)))

    def elements(self) -> Iterator[GroupElement]:
        for coords in itertools.product(*(range(d) for d in self._factor_orders)):
            yield GroupElement(self, coords)

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


@dataclass(frozen=True)
class GroupElement:
    """An element of a FiniteAbelianGroup, one residue per cyclic factor."""

    group: FiniteAbelianGroup
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        orders = self.group.factor_orders
        if len(self.coords) != len(orders):
            raise ValueError("coordinate count does not match factor count")
        if any(not 0 <= c < d for c, d in zip(self.coords, orders)):
            raise ValueError("coordinates out of range")

    def _check(self, other: GroupElement) -> None:
        if self.group != other.group:
            raise ValueError("elements of different groups")

    def __add__(self, other: GroupElement) -> GroupElement:
        self._check(other)
        orders = self.group.factor_orders
        return GroupElement(
            self.group,
            tuple((a + b) % d for a, b, d in zip(self.coords, other.coords, orders)),
        )

    def __neg__(self) -> GroupElement:
        orders = self.group.factor_orders
        return GroupElement(self.group, tuple((-a) % d for a, d in zip(self.coords, orders)))

    def __sub__(self, other: GroupElement) -> GroupElement:
        return self + (-other)

    def __mul__(self, n: int) -> GroupElement:
        orders = self.group.factor_orders
        return GroupElement(self.group, tuple((a * n) % d for a, d in zip(self.coords, orders)))

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    @property
    def order(self) -> int:
        return _element_order(self.coords, self.group.factor_orders)


def from_relations(
    num_generators: int, relations: IntegerMatrix | Sequence[Sequence[int]]
) -> FiniteAbelianGroup:
    """Quotient of Z^g by the row lattice of `relations`, in canonical form.

    Raises InfiniteQuotient when the quotient has positive free rank.
    """
    group, _ = from_relations_with_map(num_generators, relations)
    return group


def from_relations_with_map(
    num_generators: int, relations: IntegerMatrix | Sequence[Sequence[int]]
) -> tuple[FiniteAbelianGroup, tuple[tuple[int, ...], ...]]:
    """Like from_relations, also returning the images of the g standard generators.

    The j-th image is the coordinate tuple of e_j in the canonical factor
    ordering of the quotient.
    """
    g = num_generators
    mat = _coerce_matrix(relations, cols=g)
    s, _, v = smith_normal_form(mat)
    k = min(mat.rows, mat.cols)
    divisors = [s.at(i, i) for i in range(k)] + [0] * (g - k)
    if any(d == 0 for d in divisors):
        free = sum(1 for d in divisors if d == 0)
        raise InfiniteQuotient(f"quotient has free rank {free}")
    slots = []  # (prime, exponent, SNF diagonal index)
    for i, d in enumerate(divisors):
        if d > 1:
            for p, e in _factor(d):
                slots.append((p, e, i))
    slots.sort(key=lambda t: (t[0], -t[1], t[2]))
    primary: dict[int, list[int]] = {}
    for p, e, _ in slots:
        primary.setdefault(p, []).append(e)
    group = FiniteAbelianGroup._from_primary(primary)
    vr = v.row_lists()
    images = tuple(
        tuple(vr[j][i] % (p ** e) for (p, e, i) in slots) for j in range(g)
    )
    return group, images


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
    """The character group Hom(G, Z/exp(G)); isomorphic to G itself."""
    return hom_group(g, FiniteAbelianGroup(g.exponent) if not g.is_trivial else g)


def power_and_socle(g: FiniteAbelianGroup, n: int) -> tuple[FiniteAbelianGroup, FiniteAbelianGroup]:
    """Return (nG, G[n]): the image and kernel of multiplication by n."""
    if n < 1:
        raise ValueError("n must be positive")
    image: dict[int, list[int]] = {}
    kernel: dict[int, list[int]] = {}
    for p, exps in g.primary.items():
        v = 0
        m = n
        while m % p == 0:
            m //= p
            v += 1
        image[p] = [e - v for e in exps if e > v]
        kernel[p] = [min(e, v) for e in exps if min(e, v) > 0]
    return (
        FiniteAbelianGroup._from_primary(image),
        FiniteAbelianGroup._from_primary(kernel),
    )


# ---------------------------------------------------------------------------
# Raw coordinate helpers (hot paths run on plain tuples)


def _add(a: tuple[int, ...], b: tuple[int, ...], orders: tuple[int, ...]) -> tuple[int, ...]:
    return tuple((x + y) % d for x, y, d in zip(a, b, orders))


def _element_order(coords: tuple[int, ...], orders: tuple[int, ...]) -> int:
    o = 1
    for c, d in zip(coords, orders):
        o = lcm(o, d // gcd(c, d))
    return o


def _extend_span(
    current: frozenset[tuple[int, ...]], g: tuple[int, ...], orders: tuple[int, ...]
) -> frozenset[tuple[int, ...]]:
    """The span of a subgroup `current` and one more element g."""
    seen = set(current)
    stack = list(current)
    while stack:
        x = stack.pop()
        y = _add(x, g, orders)
        if y not in seen:
            seen.add(y)
            stack.append(y)
    return frozenset(seen)


# ---------------------------------------------------------------------------
# Subgroup enumeration and quotients


def subgroups_isomorphic_to(
    g: FiniteAbelianGroup,
    a: FiniteAbelianGroup,
) -> list[list[GroupElement]]:
    """All subgroups of G isomorphic to A, each as a generating set.

    The list is duplicate-free (by element set) and deterministically ordered.
    """
    if a.is_trivial:
        return [[]]
    if g.order % a.order != 0:
        return []
    orders = g.factor_orders
    per_prime: list[list[tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]]] = []
    for p in a.primes:
        found = _l_subgroups(g, p, a.exponents_at(p))
        if not found:
            return []
        per_prime.append(found)
    results = []
    for combo in itertools.product(*per_prime):
        gens: list[tuple[int, ...]] = []
        els: set[tuple[int, ...]] = {(0,) * len(orders)}
        for part_els, part_gens in combo:
            gens.extend(part_gens)
            els = {_add(x, y, orders) for x in els for y in part_els}
        key = tuple(sorted(els))
        results.append((key, gens))
    results.sort(key=lambda t: t[0])
    return [[GroupElement(g, c) for c in gens] for _, gens in results]


def _l_subgroups(
    g: FiniteAbelianGroup,
    prime: int,
    target_exps: tuple[int, ...],
) -> list[tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]]:
    """Subgroups of the l-part of G isomorphic to the l-group with `target_exps`.

    Returns (sorted element tuple, generator tuple) pairs, deduplicated and
    deterministically ordered.
    """
    orders = g.factor_orders
    k = len(orders)
    l_idx = [i for i, d in enumerate(orders) if d % prime == 0]
    # all elements of l-power order have support on the l-block
    candidates: dict[int, list[tuple[int, ...]]] = {f: [] for f in set(target_exps)}
    ranges = [range(orders[i]) for i in l_idx]
    needed = set(target_exps)
    for block in itertools.product(*ranges):
        coords = [0] * k
        for i, c in zip(l_idx, block):
            coords[i] = c
        coords = tuple(coords)
        o = _element_order(coords, orders)
        f = 0
        while o > 1:
            o //= prime
            f += 1
        if f in needed:
            candidates[f].append(coords)
    for f in candidates:
        candidates[f].sort()
    found: dict[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]] = {}
    exps = list(target_exps)

    def rec(pos: int, chosen: list[tuple[int, ...]], spanned: frozenset, start: int) -> None:
        if pos == len(exps):
            key = tuple(sorted(spanned))
            found.setdefault(key, tuple(chosen))
            return
        f = exps[pos]
        pool = candidates[f]
        begin = start if pos > 0 and exps[pos - 1] == f else 0
        for idx in range(begin, len(pool)):
            x = pool[idx]
            if x in spanned:
                continue
            bigger = _extend_span(spanned, x, orders)
            if len(bigger) != len(spanned) * prime ** f:
                continue
            chosen.append(x)
            rec(pos + 1, chosen, bigger, idx + 1)
            chosen.pop()

    rec(0, [], frozenset({(0,) * k}), 0)
    return sorted(found.items())


def quotient(
    g: FiniteAbelianGroup, generators: Sequence[GroupElement]
) -> FiniteAbelianGroup:
    """Canonical form of G / <generators>."""
    orders = g.factor_orders
    k = len(orders)
    rows = [[orders[i] if j == i else 0 for j in range(k)] for i in range(k)]
    for s in generators:
        if s.group != g:
            raise ValueError("generator does not lie in the given group")
        rows.append(list(s.coords))
    return from_relations(k, rows)


# ---------------------------------------------------------------------------
# Enumeration and embedding helpers


def partitions_desc(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n as descending tuples, in descending-lex order."""
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(n, max_part)
    for first in range(top, 0, -1):
        for rest in partitions_desc(n - first, first):
            yield (first,) + rest


def abelian_groups_of_order(n: int) -> list[FiniteAbelianGroup]:
    """All abelian groups of order n, via partitions per prime power."""
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return [FiniteAbelianGroup()]
    per_prime = []
    for p, e in _factor(n):
        per_prime.append([(p, part) for part in partitions_desc(e)])
    groups = []
    for combo in itertools.product(*per_prime):
        groups.append(FiniteAbelianGroup._from_primary({p: list(part) for p, part in combo}))
    groups.sort(key=FiniteAbelianGroup.sort_key)
    return groups


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

