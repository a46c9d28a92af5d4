"""Tests for exact finite abelian group arithmetic."""

from __future__ import annotations

import itertools
import random
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galab.finabelian import (
    FiniteAbelianGroup,
    GroupElement,
    dual_finite,
    embeds_in,
    group_literal,
    hom_group,
    l_subgroups,
    parse_group_literal,
    partitions_desc,
    power_and_socle,
    quotient,
    subgroup_generators,
)
from group_helpers import (
    abelian_groups_of_order,
    from_relations,
    smith_normal_form,
    subgroup_copies,
)

G = FiniteAbelianGroup


# -- independent oracles -----------------------------------------------------


def _minor_det(rows, row_idx, col_idx):
    sub = [[rows[i][j] for j in col_idx] for i in row_idx]
    n = len(sub)
    if n == 0:
        return 1
    if n == 1:
        return sub[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in sub[1:]]
        total += (-1) ** j * sub[0][j] * _minor_det(
            minor, range(n - 1), range(n - 1)
        )
    return total


def snf_diagonal_oracle(rows):
    """Determinant-divisor oracle: d_k = gcd of all k x k minors, s_k = d_k/d_{k-1}."""
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    diag = []
    prev = 1
    for k in range(1, min(nr, nc) + 1):
        dk = 0
        for ri in itertools.combinations(range(nr), k):
            for ci in itertools.combinations(range(nc), k):
                dk = gcd(dk, _minor_det(rows, ri, ci))
        if dk == 0:
            break
        diag.append(dk // prev)
        prev = dk
    diag += [0] * (min(nr, nc) - len(diag))
    return tuple(diag)


def span_set(gens, g: FiniteAbelianGroup) -> frozenset[tuple[int, ...]]:
    """Coordinate set of the subgroup of G generated by gens: all their sums."""
    els = {g.zero().coords}
    for x in gens:
        multiples = [(x * k).coords for k in range(x.order)]
        els = {g.element([a + b for a, b in zip(y, m)]).coords for y in els for m in multiples}
    return frozenset(els)


def hom_order_oracle(g: FiniteAbelianGroup, h: FiniteAbelianGroup) -> int:
    """Count generator-image assignments directly: one killed image set per factor."""
    count = 1
    for o in g.factor_orders:
        count *= sum(1 for x in h.elements() if (x * o).is_zero)
    return count


# -- Smith normal form (the test oracle in group_helpers) -------------------


def _check_snf(rows):
    d = smith_normal_form(rows)
    assert len(d) == min(len(rows), len(rows[0]) if rows else 0)
    assert all(x >= 0 for x in d)
    for a, b in zip(d, d[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return d


def test_snf_frozen_examples():
    assert _check_snf([[2, 0], [0, 3]]) == (1, 6)
    assert _check_snf([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == (1, 1, 1)
    assert _check_snf([[2, 4], [6, 8]]) == (2, 4)


def test_snf_matches_minor_oracle():
    cases = [
        [[2, 0], [0, 3]],
        [[2, 4], [6, 8]],
        [[4, 6, 10], [2, 2, 2]],
        [[0, 0], [0, 0]],
        [[5]],
        [[12, 8], [20, 16], [4, 4]],
    ]
    for rows in cases:
        assert _check_snf(rows) == snf_diagonal_oracle(rows)


def test_snf_empty_and_degenerate():
    assert smith_normal_form([]) == ()
    assert smith_normal_form([[], [], []]) == ()
    assert smith_normal_form([[0, 0, 0]]) == (0,)
    with pytest.raises(ValueError, match="ragged"):
        smith_normal_form([[1, 2], [3]])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.data(),
)
def test_snf_property_random(nr, nc, data):
    rows = [
        [data.draw(st.integers(-50, 50)) for _ in range(nc)] for _ in range(nr)
    ]
    d = _check_snf(rows)
    assert d == snf_diagonal_oracle(rows)


# -- presentations -----------------------------------------------------------


def test_from_relations_examples():
    assert from_relations(2, [[2, 0], [0, 3]]) == G(2, 3)
    assert from_relations(2, [[2, 0], [0, 3]]) == G(6)
    assert from_relations(1, [[5]]) == G(5)
    assert from_relations(2, [[2, 1], [1, 2]]) == G(3)
    # a ragged row, and rows of the wrong width
    with pytest.raises(ValueError):
        from_relations(2, [[2, 0], [0]])
    with pytest.raises(ValueError):
        from_relations(2, [[2, 0, 0], [0, 3, 0]])


def test_from_relations_infinite_quotient():
    with pytest.raises(ValueError, match="free rank 1"):
        from_relations(2, [[2, 0]])
    with pytest.raises(ValueError, match="free rank 1"):
        from_relations(3, [[1, 0, 0], [0, 1, 0]])
    assert from_relations(0, []) == G()


@settings(max_examples=60, deadline=None)
@given(st.permutations(range(4)), st.integers(-3, 3), st.data())
def test_from_relations_row_invariance(perm, mult, data):
    rows = [[data.draw(st.integers(-9, 9)) for _ in range(3)] for _ in range(4)]
    rows = [r if any(r) else [1, 0, 0] for r in rows]
    try:
        base = from_relations(3, rows)
    except ValueError:  # positive free rank
        return
    permuted = [rows[i] for i in perm]
    assert from_relations(3, permuted) == base
    # unimodular row operation: add mult * row1 to row0
    mixed = [list(r) for r in rows]
    mixed[0] = [a + mult * b for a, b in zip(mixed[0], mixed[1])]
    assert from_relations(3, mixed) == base


# -- canonical form and isomorphism ------------------------------------------


def test_isomorphism_examples():
    assert G(6) == G(2, 3)
    assert G(4) != G(2, 2)
    assert G(12, 2) == G(6, 4)


def test_canonical_accessors():
    g = G(12, 2)
    assert g.primary == {2: (2, 1), 3: (1,)}
    assert g.factor_orders == (4, 2, 3)
    assert g.order == 24
    assert g.exponent == 12
    assert g.rank == 2
    assert G().is_trivial and G(1).is_trivial


def test_group_literals():
    assert parse_group_literal("2,4") == G(2, 4)
    assert parse_group_literal("") == G()
    assert parse_group_literal("1") == G()
    assert group_literal(G(4, 2, 3)) == "2,3,4"
    assert group_literal(G()) == "1"
    assert parse_group_literal(group_literal(G(8, 9, 5))) == G(8, 9, 5)
    with pytest.raises(ValueError):
        parse_group_literal("0")
    with pytest.raises(ValueError):
        parse_group_literal("2,,4")


# -- hom groups and duality ---------------------------------------------------


def test_hom_examples():
    assert hom_group(G(4), G(6)) == G(2)
    assert hom_group(G(), G(17, 4)) == G()
    assert hom_group(G(2, 2), G(2)) == G(2, 2)


def test_hom_order_against_counting_oracle():
    pairs = [
        (G(4), G(6)),
        (G(2, 4), G(8)),
        (G(12), G(18)),
        (G(2, 2), G(4, 3)),
        (G(), G(5)),
    ]
    for a, b in pairs:
        assert hom_group(a, b).order == hom_order_oracle(a, b)


def test_hom_bilinearity_property():
    for a in abelian_groups_of_order(16) + abelian_groups_of_order(12):
        for b in abelian_groups_of_order(8):
            expected = prod(
                gcd(x, y) for x in a.factor_orders for y in b.factor_orders
            )
            assert hom_group(a, b).order == expected


def test_dual_examples():
    assert dual_finite(G(8)) == G(8)
    assert dual_finite(G()) == G()
    assert dual_finite(G(2, 4)) == G(2, 4)


def test_dual_involution_small():
    for n in (1, 12, 16, 36):
        for g in abelian_groups_of_order(n):
            assert dual_finite(g) == g
            assert dual_finite(dual_finite(g)) == g


# -- multiplication image and kernel ------------------------------------------


def test_power_and_socle_examples():
    assert power_and_socle(G(8), 2) == (G(4), G(2))
    assert power_and_socle(G(2, 8), 4) == (G(2), G(2, 4))
    # beyond the largest exponent l^n acts like l^e: no division per factor of l
    assert power_and_socle(G(2, 8), 2 ** 10 ** 5) == (G(), G(2, 8))
    for g in (G(6), G(8, 9), G(2, 2)):
        assert power_and_socle(g, g.exponent) == (G(), g)


def test_power_and_socle_order_bookkeeping():
    for n in (8, 12, 16, 24):
        for g in abelian_groups_of_order(n):
            for k in (1, 2, 3, 4, 6):
                ng, torsion = power_and_socle(g, k)
                assert ng.order * torsion.order == g.order


def test_power_and_socle_requires_positive():
    with pytest.raises(ValueError):
        power_and_socle(G(4), 0)


# -- elements ------------------------------------------------------------------


def test_element_arithmetic():
    g = G(2, 4)
    assert g.factor_orders == (4, 2)
    x = g.element((3, 1))
    y = g.element((1, 1))
    assert (x + y).coords == (0, 0)
    assert (-x).coords == (1, 1)
    assert (x * 4).is_zero
    assert x.order == 4
    assert g.zero().order == 1
    with pytest.raises(ValueError):
        GroupElement(g, (4, 0))
    with pytest.raises(ValueError):
        x + G(8).element((1,))


def test_element_enumeration():
    g = G(2, 4)
    els = list(g.elements())
    assert len(els) == 8
    assert len({e.coords for e in els}) == 8


# -- subgroups and quotients ----------------------------------------------------


def test_subgroups_examples():
    g = G(2, 4)
    subs = subgroup_copies(g, G(2))
    assert len(subs) == 3
    assert len(subgroup_copies(G(4), G(2))) == 1
    doubles = {(x * 2).coords for x in g.elements()}
    constrained = [gens for gens in subs if all(x.coords in doubles for x in gens)]
    assert len(constrained) == 1
    (gen,) = constrained[0]
    # 2G = {(0,0), (0,2)}; the only order-2 element there is (0,2)
    assert gen.order == 2
    assert (gen.coords in {(0, 2), (2, 0)}) and gen.coords[g.factor_orders.index(4)] == 2


def test_subgroups_exhaustive_order_counts():
    # number of order-2 subgroups equals number of order-2 elements
    for g in abelian_groups_of_order(16):
        n2 = sum(1 for x in g.elements() if x.order == 2)
        assert len(subgroup_copies(g, G(2))) == n2


def test_subgroups_klein_count_oracle():
    # (Z/2)^3 has (8-1)(8-2)/((4-1)(4-2)) = 7 Klein subgroups
    assert len(subgroup_copies(G(2, 2, 2), G(2, 2))) == 7
    # Z/4 + Z/2 has exactly one Klein subgroup (its socle)
    assert len(subgroup_copies(G(4, 2), G(2, 2))) == 1


def test_subgroups_trivial_and_impossible():
    assert subgroup_copies(G(4), G()) == [[]]
    assert subgroup_copies(G(4), G(2, 2)) == []
    assert subgroup_copies(G(4), G(3)) == []


def test_subgroups_multi_prime():
    g = G(2, 3)
    subs = subgroup_copies(g, G(6))
    assert len(subs) == 1
    els = span_set(subs[0], g)
    assert len(els) == 6


def test_subgroups_multi_prime_with_constraint():
    g = G(4, 9)
    # 6G = 2(Z/4) x 3(Z/9) is the unique copy of Z/6 inside it
    sixfold = {(x * 6).coords for x in g.elements()}
    subs = [gens for gens in subgroup_copies(g, G(6)) if all(x.coords in sixfold for x in gens)]
    assert len(subs) == 1
    els = span_set(subs[0], g)
    assert els == span_set([g.element((2, 0)), g.element((0, 3))], g)


def test_cyclic_subgroup_counts_match_totient_oracle():
    # number of cyclic subgroups of order q = (elements of order q) / phi(q)
    from sympy import totient

    for g in abelian_groups_of_order(16) + abelian_groups_of_order(48):
        for q in (2, 4, 8, 3):
            if g.order % q:
                continue
            n_elements = sum(1 for x in g.elements() if x.order == q)
            expected = n_elements // int(totient(q))
            assert len(subgroup_copies(g, G(q))) == expected


def tuple_dfs_subgroups(g: FiniteAbelianGroup, prime: int, exps: tuple[int, ...]):
    """Oracle: subgroups of the l-group G of type exps by a generator-tuple search.

    Tries every tuple of one element of order l^e per exponent e (exponents
    descending, equal exponents in ascending order), each meeting the span of
    those before it only in 0, in lexicographic order.  A subgroup is reached
    once per such tuple and keeps the first.  Returns (sorted element tuple,
    first generator tuple) pairs in ascending order.
    """
    orders = g.factor_orders
    pools = {f: sorted(x.coords for x in g.elements() if x.order == prime ** f) for f in set(exps)}
    found = {}

    def rec(pos, chosen, spanned, start):
        if pos == len(exps):
            found.setdefault(tuple(sorted(spanned)), tuple(chosen))
            return
        f = exps[pos]
        pool = pools[f]
        for idx in range(start if pos and exps[pos - 1] == f else 0, len(pool)):
            x = pool[idx]
            multiples = [tuple(c * k % d for c, d in zip(x, orders)) for k in range(prime ** f)]
            bigger = {tuple((a + b) % d for a, b, d in zip(s, m, orders)) for s in spanned for m in multiples}
            if len(bigger) == len(spanned) * prime ** f:
                rec(pos + 1, chosen + [x], bigger, idx + 1)

    rec(0, [], {(0,) * len(orders)}, 0)
    return sorted(found.items())


def _l_group_pairs(bounds):
    """(prime, B, type of A) for every l-group B and sub type A within the size bounds."""
    for prime, b_top, a_top in bounds:
        for b_size in range(b_top + 1):
            for lam in partitions_desc(b_size):
                for a_size in range(min(a_top, b_size) + 1):
                    for mu in partitions_desc(a_size):
                        yield prime, G.from_prime_exponents(prime, lam), mu


def test_subgroup_search_matches_tuple_dfs_oracle():
    # every l-group B with |B| <= 2^6, 3^4, 5^3 and every sub A with |A| <= 2^3, 3^2, 5^2;
    # equal generator tuples in equal order give equal element sets in equal order
    pairs = subgroups = 0
    for prime, b, mu in _l_group_pairs(((2, 6, 3), (3, 4, 2), (5, 3, 2))):
        found = subgroup_copies(b, G.from_prime_exponents(prime, mu))
        want = tuple_dfs_subgroups(b, prime, mu)
        assert [tuple(x.coords for x in gens) for gens in found] == [t for _, t in want], (b, mu)
        pairs += 1
        subgroups += len(found)
    assert (pairs, subgroups) == (259, 4192)


def test_l_subgroups_span_by_greedy_sequences():
    # each spanning entry is the least element outside the span of those before it
    for prime, b, mu in _l_group_pairs(((2, 5, 3), (3, 3, 2), (5, 2, 2))):
        found = list(l_subgroups(b, prime, mu))
        assert [els for els, _ in found] == sorted(els for els, _ in found)
        for els, spanning in found:
            assert len(els) == prime ** sum(mu)
            for j, x in enumerate(spanning):
                below = span_set([b.element(y) for y in spanning[:j]], b)
                assert x == min(set(els) - below), (b, mu, spanning)
            assert span_set([b.element(y) for y in spanning], b) == set(els)


def test_subgroup_generators_examples():
    g = G(2, 4)  # coordinates (mod 4, mod 2)
    cyclic = [(0, 0), (1, 0), (2, 0), (3, 0)]
    assert subgroup_generators(g, 2, (2,), cyclic) == ((1, 0),)
    socle = [(0, 0), (0, 1), (2, 0), (2, 1)]
    assert subgroup_generators(g, 2, (1, 1), socle) == ((0, 1), (2, 0))
    for exps in ((2,), (1,)):
        with pytest.raises(ValueError):
            subgroup_generators(g, 2, exps, socle)
    with pytest.raises(ValueError):
        subgroup_generators(g, 2, (1,), [(0, 0), (0, 3)])


def test_quotient_examples():
    g = G(2, 4)
    idx4 = g.factor_orders.index(4)
    coords = [0, 0]
    coords[idx4] = 2
    s = [g.element(coords)]
    assert quotient(g, s) == G(2, 2)
    full = [g.element((1, 0)), g.element((0, 1))]
    assert quotient(g, full) == G()
    z8 = G(8)
    assert quotient(z8, [z8.element((4,))]) == G(4)


def test_quotient_rejects_foreign_generator():
    g = G(2, 4)
    with pytest.raises(ValueError):
        quotient(g, [G(8).element((1,))])
    # same rank, so the coordinates alone would pass for relations of G
    with pytest.raises(ValueError):
        quotient(g, [g.element((1, 0)), G(8, 2).element((5, 1))])


def test_quotient_exactness_for_enumerated_subgroups():
    # |l^n (G/S)| = |l^n G| / |l^n G meet S| for every l and n fixes the type of G/S
    checked = 0
    for g in abelian_groups_of_order(16) + abelian_groups_of_order(24):
        k = len(g.factor_orders)
        units = [g.element([int(i == j) for j in range(k)]) for i in range(k)]
        for a in (G(2), G(4), G(2, 2)):
            if g.order % max(a.order, 1):
                continue
            for gens in subgroup_copies(g, a):
                els = span_set(gens, g)
                assert len(els) == a.order
                q = quotient(g, list(gens))
                assert q.order == g.order // a.order
                for l in g.primes:
                    for n in range(1, g.exponents_at(l)[0] + 1):
                        power = span_set([x * l ** n for x in units], g)
                        expected = len(power) // len(power & els)
                        assert power_and_socle(q, l ** n)[0].order == expected, (g, gens, l, n)
                checked += 1
    assert checked == 108


def _quotient_by_smith_form(g: FiniteAbelianGroup, rows: list[list[int]]) -> FiniteAbelianGroup:
    orders = g.factor_orders
    diagonal = [[d if j == i else 0 for j in range(len(orders))] for i, d in enumerate(orders)]
    return from_relations(len(orders), diagonal + rows)


def test_quotient_matches_smith_form_oracle():
    rng = random.Random(20240514)
    groups = [
        G(),
        G(7),
        G(6, 12, 10),
        G(8, 4, 4, 2),
        G(9, 27, 3),
        G(36, 90, 5),
        G(2**70, 2**65, 2**3),
        G(3**45, 3**2, 5**30),
        G(2**64 + 13, 2**66 * 3),
    ]
    checked = 0
    for g in groups:
        orders = g.factor_orders
        # no generators, and the zero element alone
        assert quotient(g, []) == g == _quotient_by_smith_form(g, [])
        assert quotient(g, [g.zero()]) == g
        for _ in range(40):
            rows = []
            for _ in range(rng.randint(1, 4)):
                kind = rng.random()
                if kind < 0.2 or not orders:  # zero coordinates
                    row = [0 if rng.random() < 0.7 else rng.randrange(d) for d in orders]
                elif kind < 0.4:  # outside [0, d): negative or past the order
                    row = [rng.randrange(-3 * d, 3 * d) for d in orders]
                elif kind < 0.6:  # a multiple of a factor order's prime, only at one prime
                    p = rng.choice(g.primes)
                    row = [rng.randrange(d) * p if d % p == 0 else 0 for d in orders]
                else:
                    row = [rng.randrange(d) for d in orders]
                rows.append(row)
                if rng.random() < 0.3:  # a repeated generator
                    rows.append(list(row))
            assert quotient(g, [g.element(r) for r in rows]) == _quotient_by_smith_form(g, rows), (g, rows)
            checked += 1
    assert checked == 40 * len(groups)


# -- enumeration helpers -----------------------------------------------------------


def test_partitions():
    assert list(partitions_desc(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list(partitions_desc(0)) == [()]


def test_abelian_groups_of_order():
    assert len(abelian_groups_of_order(16)) == 5
    assert len(abelian_groups_of_order(64)) == 11
    assert abelian_groups_of_order(6) == [G(6)]
    assert len(abelian_groups_of_order(36)) == 4


def test_embeds_in():
    assert embeds_in(G(2), G(4))
    assert not embeds_in(G(2, 2), G(4))
    assert embeds_in(G(2, 2), G(8, 2))
    assert not embeds_in(G(4), G(2, 2, 2))
    assert embeds_in(G(), G(5))
    assert embeds_in(G(4, 4, 2), G(8, 4, 4))

