"""Group enumeration helpers that build test inputs and oracles.

`abelian_groups_of_order` lists every abelian group of an order;
`subgroup_copies` lists every copy of a group inside another through the
library's one subgroup search, `l_subgroups` with `subgroup_generators`.
"""

from __future__ import annotations

import itertools

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
