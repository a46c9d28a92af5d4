"""Group enumeration helpers that build test inputs and oracles.

`abelian_groups_of_order` lists every abelian group of an order;
`subgroup_copies` lists every copy of a group inside another through the
library's one subgroup search, `l_subgroups` with `subgroup_generators`.
`smith_normal_form` and `from_relations` read a presentation Z^g / (rows)
off a general integer Smith normal form: the oracle for `quotient`.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from galab.arith import factorint
from galab.finabelian import (
    FiniteAbelianGroup,
    GroupElement,
    l_subgroups,
    partitions_desc,
    subgroup_generators,
)


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

    Each l-part comes from `l_subgroups`, in its canonical order, with the
    generators of `subgroup_generators`; a copy of composite order lists the
    generators of its l-parts one prime after another.
    """
    per_prime = [
        [subgroup_generators(g, p, a.exponents_at(p), els) for els, _ in l_subgroups(g, p, a.exponents_at(p))]
        for p in a.primes
    ]
    return [[GroupElement(g, c) for c in itertools.chain(*gens)] for gens in itertools.product(*per_prime)]


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

