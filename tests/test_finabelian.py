"""Tests for exact finite abelian group arithmetic."""

from __future__ import annotations

import itertools
from math import gcd, prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from galab.errors import InfiniteQuotient
from galab.finabelian import (
    FiniteAbelianGroup,
    GroupElement,
    Homomorphism,
    IntegerMatrix,
    abelian_groups_of_order,
    dual_finite,
    embeds_in,
    from_relations,
    from_relations_with_map,
    group_literal,
    hom_group,
    is_direct_summand_of,
    parse_group_literal,
    partitions_desc,
    power_and_socle,
    quotient,
    quotient_map,
    smith_normal_form,
    span_elements,
    subgroups_isomorphic_to,
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


def det(m: IntegerMatrix) -> int:
    return int(sympy.Matrix(m.row_lists()).det()) if m.rows else 1


def image_elements(f: Homomorphism) -> frozenset[tuple[int, ...]]:
    return span_elements((GroupElement(f.target, c) for c in f.images), f.target)


def kernel_elements(f: Homomorphism) -> frozenset[tuple[int, ...]]:
    return frozenset(x.coords for x in f.source.elements() if f(x).is_zero)


def hom_order_oracle(g: FiniteAbelianGroup, h: FiniteAbelianGroup) -> int:
    """Count generator-image assignments directly: one killed image set per factor."""
    count = 1
    for o in g.factor_orders:
        count *= sum(1 for x in h.elements() if (x * o).is_zero)
    return count


# -- Smith normal form -------------------------------------------------------


def _check_snf(rows):
    m = IntegerMatrix.from_rows(rows)
    s, u, v = smith_normal_form(m)
    assert (u @ m) @ v == s
    assert det(u) in (-1, 1)
    assert det(v) in (-1, 1)
    d = s.diagonal()
    assert all(x >= 0 for x in d)
    for a, b in zip(d, d[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    # off-diagonal entries vanish
    for i in range(s.rows):
        for j in range(s.cols):
            if i != j:
                assert s.at(i, j) == 0
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
    for shape in [(0, 0), (0, 3), (3, 0)]:
        m = IntegerMatrix(shape[0], shape[1], ())
        s, u, v = smith_normal_form(m)
        assert (s.rows, s.cols) == shape
        assert u == IntegerMatrix.identity(shape[0])
        assert v == IntegerMatrix.identity(shape[1])


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


def test_from_relations_infinite_quotient():
    with pytest.raises(InfiniteQuotient):
        from_relations(2, [[2, 0]])
    with pytest.raises(InfiniteQuotient):
        from_relations(3, [[1, 0, 0], [0, 1, 0]])
    assert from_relations(0, []) == G()


def test_from_relations_generator_map():
    grp, images = from_relations_with_map(1, [[5]])
    assert grp == G(5)
    gen = GroupElement(grp, images[0])
    assert gen.order == 5
    # map respects relations: 5 * image = 0
    assert (gen * 5).is_zero


@settings(max_examples=60, deadline=None)
@given(st.permutations(range(4)), st.integers(-3, 3), st.data())
def test_from_relations_row_invariance(perm, mult, data):
    rows = [[data.draw(st.integers(-9, 9)) for _ in range(3)] for _ in range(4)]
    rows = [r if any(r) else [1, 0, 0] for r in rows]
    try:
        base = from_relations(3, rows)
    except InfiniteQuotient:
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
    assert g.invariant_factors() == (12, 2)
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
    subs = subgroups_isomorphic_to(g, G(2))
    assert len(subs) == 3
    assert len(subgroups_isomorphic_to(G(4), G(2))) == 1
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
        assert len(subgroups_isomorphic_to(g, G(2))) == n2


def test_subgroups_klein_count_oracle():
    # (Z/2)^3 has (8-1)(8-2)/((4-1)(4-2)) = 7 Klein subgroups
    assert len(subgroups_isomorphic_to(G(2, 2, 2), G(2, 2))) == 7
    # Z/4 + Z/2 has exactly one Klein subgroup (its socle)
    assert len(subgroups_isomorphic_to(G(4, 2), G(2, 2))) == 1


def test_subgroups_trivial_and_impossible():
    assert subgroups_isomorphic_to(G(4), G()) == [[]]
    assert subgroups_isomorphic_to(G(4), G(2, 2)) == []
    assert subgroups_isomorphic_to(G(4), G(3)) == []


def test_subgroups_multi_prime():
    g = G(2, 3)
    subs = subgroups_isomorphic_to(g, G(6))
    assert len(subs) == 1
    els = span_elements(subs[0], g)
    assert len(els) == 6


def test_subgroups_multi_prime_with_constraint():
    g = G(4, 9)
    # 6G = 2(Z/4) x 3(Z/9) is the unique copy of Z/6 inside it
    sixfold = {(x * 6).coords for x in g.elements()}
    subs = [gens for gens in subgroups_isomorphic_to(g, G(6)) if all(x.coords in sixfold for x in gens)]
    assert len(subs) == 1
    els = span_elements(subs[0], g)
    assert els == span_elements([g.element((2, 0)), g.element((0, 3))], g)


def test_cyclic_subgroup_counts_match_totient_oracle():
    # number of cyclic subgroups of order q = (elements of order q) / phi(q)
    from sympy import totient

    for g in abelian_groups_of_order(16) + abelian_groups_of_order(48):
        for q in (2, 4, 8, 3):
            if g.order % q:
                continue
            n_elements = sum(1 for x in g.elements() if x.order == q)
            expected = n_elements // int(totient(q))
            assert len(subgroups_isomorphic_to(g, G(q))) == expected


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


def test_quotient_exactness_for_enumerated_subgroups():
    for g in abelian_groups_of_order(16) + abelian_groups_of_order(24):
        for a in (G(2), G(4), G(2, 2)):
            if g.order % max(a.order, 1):
                continue
            for gens in subgroups_isomorphic_to(g, a):
                els = span_elements(gens, g)
                assert len(els) == a.order
                q = quotient(g, list(gens))
                assert q.order == g.order // a.order


# -- homomorphisms ---------------------------------------------------------------


def test_homomorphism_well_definedness():
    g, h = G(4), G(8)
    # Z/4 -> Z/8 must land in the 2-torsion-of-index: 4*img = 0 mod 8
    Homomorphism(g, h, ((2,),))
    with pytest.raises(ValueError):
        Homomorphism(g, h, ((1,),))


def test_homomorphism_apply_and_compose():
    g = G(4)
    h = G(8)
    k = G(2)
    f = Homomorphism(g, h, ((2,),))
    p = Homomorphism(h, k, ((1,),))
    x = g.element((3,))
    assert f(x).coords == (6,)
    comp = p.compose(f)
    assert comp.source == g and comp.target == k
    assert comp(x).coords == (p(f(x))).coords


def test_homomorphism_compose_associative():
    a, b, c, d = G(4), G(8), G(4), G(2)
    f = Homomorphism(a, b, ((2,),))
    g_ = Homomorphism(b, c, ((1,),))
    h = Homomorphism(c, d, ((1,),))
    lhs = h.compose(g_.compose(f))
    rhs = (h.compose(g_)).compose(f)
    assert lhs.images == rhs.images


def test_homomorphism_image_kernel_bookkeeping():
    cases = [
        Homomorphism(G(4), G(8), ((2,),)),
        Homomorphism(G(2, 4), G(4), ((1,), (2,))),
        Homomorphism.zero(G(2, 2), G(4)),
        Homomorphism.identity(G(8, 3)),
    ]
    for f in cases:
        assert len(image_elements(f)) * len(kernel_elements(f)) == f.source.order


def test_quotient_map_kernel_is_span():
    g = G(2, 4)
    idx4 = g.factor_orders.index(4)
    coords = [0, 0]
    coords[idx4] = 2
    s = [g.element(coords)]
    pi = quotient_map(g, s)
    assert kernel_elements(pi) == span_elements(s, g)
    assert pi.target.order * len(span_elements(s, g)) == g.order


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


def test_direct_summand():
    assert is_direct_summand_of(G(2), G(2, 4))
    assert not is_direct_summand_of(G(2), G(4))
    assert is_direct_summand_of(G(), G(9))
