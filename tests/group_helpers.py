"""Group enumeration helpers that build test inputs and oracles.

`abelian_groups_of_order` lists every abelian group of an order;
`subgroup_copies` lists every copy of a group inside another through the
library's one subgroup search, `l_subgroups`; `span_set` spans a subgroup
from generators by brute force.
`elements`, `multiple` and `element_order` do element arithmetic on
coordinate tuples, one residue per factor of `factor_orders`.
`smith_normal_form` and `from_relations` read a presentation Z^g / (rows)
off a general integer Smith normal form: the oracle for `quotient`.
`form_power` and `form_inverse` do class arithmetic on forms, (a, b, c)
triples of discriminant d, through the library's `_compose`, `_reduce` and
`_principal`; `is_reduced` tests a triple by the definition alone.
`fundamental_discriminants` lists the fields the class-group tests sweep.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm
from typing import Iterator, Sequence

from galab.arith import factorint
from galab.finabelian import (
    FiniteAbelianGroup,
    GroupElement,
    l_subgroups,
    partitions_desc,
)
from galab.quadfields import Triple, _compose, _principal, _reduce, is_fundamental


def abelian_groups_of_order(n: int) -> list[FiniteAbelianGroup]:
    """All abelian groups of order n, via partitions per prime power, by sort key."""
    per_prime = [[(p, part) for part in partitions_desc(e)] for p, e in factorint(n).items()]
    groups = [
        FiniteAbelianGroup(*(p ** e for p, part in combo for e in part))
        for combo in itertools.product(*per_prime)
    ]
    return sorted(groups, key=FiniteAbelianGroup.sort_key)


def subgroup_copies(g: FiniteAbelianGroup, a: FiniteAbelianGroup) -> list[list[GroupElement]]:
    """Every subgroup of G isomorphic to A, each as a generator list.

    Each l-part comes from `l_subgroups`, in its canonical order, with its
    canonical generators; a copy of composite order lists the generators of
    its l-parts one prime after another.
    """
    per_prime = [list(l_subgroups(g, p, a.exponents_at(p))) for p in a.primes]
    return [[GroupElement(g, c) for c in itertools.chain(*gens)] for gens in itertools.product(*per_prime)]


def elements(g: FiniteAbelianGroup) -> Iterator[tuple[int, ...]]:
    """Every element of G, in ascending coordinate-tuple order."""
    return itertools.product(*(range(d) for d in g.factor_orders))


def multiple(g: FiniteAbelianGroup, k: int, x: Sequence[int]) -> tuple[int, ...]:
    """k x in G, for any integer coordinates x."""
    return tuple(k * c % d for c, d in zip(x, g.factor_orders))


def element_order(g: FiniteAbelianGroup, x: Sequence[int]) -> int:
    """The order of x in G: the lcm of its orders in the cyclic factors."""
    return lcm(*(d // gcd(c, d) for c, d in zip(x, g.factor_orders)))


def span_set(gens, g: FiniteAbelianGroup) -> frozenset[tuple[int, ...]]:
    """Coordinate set of the subgroup of G generated by gens: all their sums."""
    els = {(0,) * len(g.factor_orders)}
    for x in gens:
        multiples = [multiple(g, k, x.coords) for k in range(element_order(g, x.coords))]
        els = {multiple(g, 1, [a + b for a, b in zip(y, m)]) for y in els for m in multiples}
    return frozenset(els)


def smith_normal_form(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The diagonal of the Smith normal form of an integer matrix, given by its rows.

    It has min(rows, columns) non-negative entries in the divisibility chain
    d1 | d2 | ..., zeros last.  Pivots are chosen with minimal absolute
    value, which keeps coefficients small.
    """
    a = [list(r) for r in rows]
    nr, nc = len(a), len(a[0]) if a else 0
    if any(len(r) != nc for r in a):
        raise ValueError("ragged rows")

    def swap_cols(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]

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
            a[t], a[pi] = a[pi], a[t]
            if pj != t:
                swap_cols(t, pj)
            # clear the pivot cross; leftover remainders become smaller pivots
            while True:
                p = a[t][t]
                for i in range(t + 1, nr):
                    if a[i][t]:
                        q = a[i][t] // p
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                for j in range(t + 1, nc):
                    if a[t][j]:
                        q = a[t][j] // p
                        for row in a:
                            row[j] -= q * row[t]
                below = next((i for i in range(t + 1, nr) if a[i][t]), None)
                if below is not None:
                    a[t], a[below] = a[below], a[t]
                    continue
                right = next((j for j in range(t + 1, nc) if a[t][j]), None)
                if right is None:
                    break
                swap_cols(t, right)
            # pivot must divide the remaining block for the divisor chain
            p = a[t][t]
            bad = next((i for i in range(t + 1, nr) if any(x % p for x in a[i][t + 1:])), None)
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
            piv = min_pivot(t)
        t += 1
    return tuple(abs(a[i][i]) for i in range(min(nr, nc)))


def from_relations(num_generators: int, relations: Sequence[Sequence[int]]) -> FiniteAbelianGroup:
    """Quotient of Z^g by the row lattice of `relations`, in canonical form.

    Raises ValueError when a row does not have g entries or when the
    quotient has positive free rank.
    """
    if any(len(r) != num_generators for r in relations):
        raise ValueError(f"every relation must have {num_generators} entries")
    diagonal = smith_normal_form(relations)
    free = num_generators - sum(1 for d in diagonal if d)
    if free:
        raise ValueError(f"quotient has free rank {free}")
    return FiniteAbelianGroup(*diagonal)


def form_power(f: Triple, k: int, d: int) -> Triple:
    """The reduced form of the class f^k, k >= 0, by square and multiply."""
    result, base = _principal(d), _reduce(*f, d)
    while k:
        if k & 1:
            result = _compose(result, base, d)
        base, k = _compose(base, base, d), k >> 1
    return result


def form_inverse(f: Triple, d: int) -> Triple:
    """The reduced form of the inverse class of f: (a, -b, c), reduced."""
    a, b, c = f
    return _reduce(a, -b, c, d)


def is_reduced(f: Triple) -> bool:
    """|b| <= a <= c, and b >= 0 when |b| = a or a = c."""
    a, b, c = f
    return abs(b) <= a <= c and (b >= 0 or (abs(b) != a and a != c))


def fundamental_discriminants(bound: int) -> list[int]:
    """All fundamental discriminants D with -bound < D < 0, descending from -3."""
    return [d for d in range(-3, -bound, -1) if is_fundamental(d)]
