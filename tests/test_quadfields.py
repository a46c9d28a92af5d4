"""Tests for binary quadratic forms and class groups."""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import random
from math import gcd, isqrt

import pytest
from sympy import factorint as sympy_factorint
from sympy import primefactors

from galab import cli, quadfields
from galab.arith import factorint
from galab.errors import BoundExceeded, NotFundamental
from galab.finabelian import FiniteAbelianGroup
from galab.quadfields import (
    ClassGroup,
    Triple,
    _compose,
    _principal,
    _reduce,
    _reduced_triples,
    class_group,
    class_number,
    format_form,
    is_fundamental,
)
from group_helpers import form_inverse, form_power, fundamental_discriminants, is_reduced

G = FiniteAbelianGroup


def brute_force_reduced_forms(d: int) -> set[tuple[int, int, int]]:
    """Independent oracle: scan all (a, b, c) in range for reduced forms of disc d."""
    out = set()
    amax = isqrt(-d // 3)
    for a in range(1, amax + 1):
        for b in range(-a, a + 1):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if (abs(b) == a or a == c) and b < 0:
                continue
            out.add((a, b, c))
    return out


def trial_division_forms(d: int) -> list[Triple]:
    """Oracle: split (b^2 - D)/4 into a*c by trial division, for b = D mod 2 up to sqrt(|D|/3)."""
    out = []
    for b in range(d % 2, isqrt(-d // 3) + 1, 2):
        m = (b * b - d) // 4
        for a in range(max(b, 1), isqrt(m) + 1):
            if m % a:
                continue
            c = m // a
            out.append((a, b, c))
            if 0 < b < a < c:
                out.append((a, -b, c))
    out.sort()
    return out


def counting_class_group(d: int) -> ClassGroup:
    """Oracle: the structure from counting the forms killed by p^k, for every p^k dividing h."""
    forms = trial_division_forms(d)
    h = len(forms)
    identity = _principal(d)
    primary: dict[int, list[int]] = {}
    for p, e_top in factorint(h).items():
        socle_logs = [0]
        for k in range(1, e_top + 1):
            killed = sum(1 for f in forms if form_power(f, p**k, d) == identity)
            log = 0
            while p**log < killed:
                log += 1
            assert p**log == killed
            socle_logs.append(log)
        at_least = [socle_logs[k] - socle_logs[k - 1] for k in range(1, e_top + 1)] + [0]
        exps: list[int] = []
        for k in range(1, e_top + 1):
            exps.extend([k] * (at_least[k - 1] - at_least[k]))
        primary[p] = exps
    return ClassGroup(d, tuple(forms), FiniteAbelianGroup._from_primary(primary))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = a*x + b*y and g >= 0."""
    old_r, r, old_x, x, old_y, y = a, b, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def ideal_product_compose(f: Triple, g: Triple, d: int) -> Triple:
    """Oracle: composition by multiplying ideals.

    A form (a, b, c) of discriminant D corresponds to the ideal
    Z a + Z (omega - t) with omega = (b0 + sqrt(D))/2, b0 = D mod 2 and
    t = (b + b0)/2.  The product of two such ideals is spanned by four
    products, written as rows (x, y) for x + y*omega; its Hermite basis
    [n, p + content*omega] divided by its content is the product form.
    """
    assert all(b * b - 4 * a * c == d for a, b, c in (f, g))
    (a1, b1, _), (a2, b2, _) = f, g
    b0 = d % 2
    n0 = (b0 * b0 - d) // 4
    t1, t2 = (b1 + b0) // 2, (b2 + b0) // 2
    rows = [
        (a1 * a2, 0),
        (-a1 * t2, a1),
        (-a2 * t1, a2),
        (t1 * t2 - n0, b0 - t1 - t2),
    ]
    px, py = 0, 0
    for x, y in rows:
        if y:
            py, s, t = _xgcd(py, y)
            px = s * px + t * x
    n = 0
    for x, y in rows:
        n = gcd(n, x - (y // py) * px)
    p = px % n
    assert n % py == 0 and p % py == 0, "ideal product content mismatch"
    a = n // py
    b = -2 * (p // py) - b0
    return _reduce(a, b, (b * b - d) // (4 * a), d)


# one discriminant per log stratum of 10^7 <= |D| < 10^8, with structures from the counting oracle
LARGE_PANEL = {
    -44747787: G(2, 4, 11, 16),
    -48042147: G(2, 4, 167),
    -82360599: G(2, 2, 2609),
    -15584008: G(2, 5, 8, 11),
    -22747620: G(2, 2, 2, 2, 8, 13),
    -10471831: G(2, 2, 2, 7, 47),
}


# sha256 of `galab classgroup --disc D --json` stdout, recorded before the
# class group moved to (a, b, c) triples
CLASSGROUP_JSON_SHA256 = {
    -44747787: "96abb86d3da30d44109dbfa436a05434989c6d0aa234c4da6deb1f659283f6ef",
    -48042147: "985a7f0d20dee559b136315277abb70ad53e23c600cc46a98c77ed2e1261445b",
    -82360599: "df36696749e16e3f73aee3bd02c54ff4b18806b0b39ecaf5860f1df111e03ddb",
    -15584008: "92a813d770a8dfc3e6440118510a44bae2d0c36be77891c57e3c9c2687f6574c",
    -22747620: "8acf3539cf5e3aeb8701dbf378d8d62c16cf0e42989143306db4ea88878665e0",
    -10471831: "33de15a6171139d2f41750f80bd165ec61d32de8fa6709b8073a1ee5834e1c1b",
}


# -- discriminants ------------------------------------------------------------


def test_is_fundamental_examples():
    assert is_fundamental(-35)
    assert is_fundamental(-4)
    assert not is_fundamental(-12)
    assert is_fundamental(-3)
    assert is_fundamental(-8)
    assert not is_fundamental(-9)
    assert not is_fundamental(-16)
    assert not is_fundamental(-1)
    assert not is_fundamental(5)
    assert not is_fundamental(0)


def test_discriminant_type_validates():
    # every entry point that takes a discriminant accepts a fundamental one
    # and refuses the rest before it enumerates anything
    assert class_group(-23).order == class_number(-23) == len(_reduced_triples(-23)) == 3
    for d in (-12, -16, -1, -6, 0, 5, 8):
        for entry in (class_group, class_number, _reduced_triples):
            with pytest.raises(NotFundamental):
                entry(d)


def test_class_group_checks_discriminant_once(monkeypatch):
    calls = 0
    require = quadfields._require_fundamental

    def counted(d):
        nonlocal calls
        calls += 1
        return require(d)

    monkeypatch.setattr(quadfields, "_require_fundamental", counted)
    assert class_group(-23).order == 3
    assert calls == 1
    with pytest.raises(NotFundamental):
        class_group(-12)


def test_class_group_refuses_a_listing_without_the_principal_form(monkeypatch):
    # a raise, not an assert, so the check survives python -O
    listing = quadfields._reduced_triples
    monkeypatch.setattr(quadfields, "_reduced_triples", lambda d: [f for f in listing(d) if f[0] != 1])
    with pytest.raises(ArithmeticError, match="principal form"):
        class_group(-23)


def test_principal_form_values():
    assert _principal(-4) == (1, 0, 1) and _principal(-3) == (1, 1, 1)
    assert _principal(-12) == (1, 0, 3)  # any D = 0, 1 mod 4, fundamental or not


def test_fundamental_discriminants_listing():
    ds = fundamental_discriminants(25)
    assert ds == [-3, -4, -7, -8, -11, -15, -19, -20, -23, -24]


# -- reduced forms ------------------------------------------------------------


def test_reduced_forms_frozen_examples():
    assert _reduced_triples(-35) == [(1, 1, 9), (3, 1, 3)]
    assert _reduced_triples(-4) == [(1, 0, 1)]
    forms23 = set(_reduced_triples(-23))
    assert forms23 == {(1, 1, 6), (2, 1, 3), (2, -1, 3)}
    assert class_number(-47) == 5


def test_reduced_forms_rejects_non_fundamental():
    with pytest.raises(NotFundamental):
        _reduced_triples(-12)


def test_enumeration_refuses_large_discriminants(monkeypatch):
    monkeypatch.setattr(quadfields, "MAX_ENUMERATED_DISCRIMINANT", 23)
    assert class_group(-23).order == 3
    for enumerate_forms in (class_group, class_number, _reduced_triples):
        with pytest.raises(BoundExceeded, match="24"):
            enumerate_forms(-24)
    # the fundamental check comes first
    with pytest.raises(NotFundamental):
        class_group(-28)


def test_reduced_forms_match_brute_force_oracle():
    for d in (-23, -35, -47, -84, -163, -195):
        if not is_fundamental(d):
            continue
        got = set(_reduced_triples(d))
        assert got == brute_force_reduced_forms(d)


# h: (number of fields, largest |D|) of the complete lists of imaginary quadratic
# fields of class number h: Heegner-Baker-Stark (h = 1), Baker and Stark 1971
# (h = 2), Oesterle 1985 (h = 3) and Watkins 2004, Math. Comp. 73 (h = 5, 7)
PRIME_CLASS_NUMBER_LISTS = {1: (9, 163), 2: (18, 427), 3: (16, 907), 5: (25, 2683), 7: (31, 5923)}


def test_reduced_forms_match_trial_division_oracle():
    # every list above ends below |D| = 20000, so the walk meets each of its fields
    tally: dict[int, list[int]] = {h: [] for h in PRIME_CLASS_NUMBER_LISTS}
    for d in fundamental_discriminants(20000):
        forms = _reduced_triples(d)
        assert forms == trial_division_forms(d), d
        if len(forms) in tally:
            assert class_group(d).order == len(forms), d
            tally[len(forms)].append(-d)
    assert {h: (len(ds), max(ds)) for h, ds in tally.items()} == PRIME_CLASS_NUMBER_LISTS


def test_reduced_forms_match_trial_division_on_a_seeded_sample():
    # with sqrt(|D|/3) from 182 to 577, a reaches odd split p^k with k >= 3 (27, 125,
    # 343) and ramified p with p^2 <= sqrt(|D|/3), whose root 0 lifts to p only
    rng = random.Random(20)
    sample: list[int] = []
    while len(sample) < 20:
        d = -rng.randrange(10**5, 10**6)
        if is_fundamental(d):
            sample.append(d)
    cubes = ramified = 0
    for d in sample:
        forms = _reduced_triples(d)
        assert forms == trial_division_forms(d), d
        amax = isqrt(-d // 3)
        cubes += any(a % p**3 == 0 for a, _, _ in forms for p in (3, 5, 7) if d % p)
        ramified += any(2 < p and p * p <= amax for p in primefactors(-d))
    assert cubes and ramified


def test_two_is_inert_when_d_is_5_mod_8():
    # D = 5 (mod 8) has no square root modulo 8, so no even a carries a form; for
    # D = 1 (mod 8) with |D| >= 15 the form (2, 1, (1 - D)/8) is reduced
    for d in fundamental_discriminants(20000) + [-44747787, -48042147, -82360599]:
        evens = [f for f in _reduced_triples(d) if f[0] % 2 == 0]
        if d % 8 == 5:
            assert not evens, d
        elif d % 8 == 1 and d <= -15:
            assert (2, 1, (1 - d) // 8) in evens, d


def test_reduced_forms_smallest_discriminants():
    assert _reduced_triples(-3) == [(1, 1, 1)]
    assert _reduced_triples(-4) == [(1, 0, 1)]
    assert _reduced_triples(-7) == [(1, 1, 2)]
    assert _reduced_triples(-8) == [(1, 0, 2)]
    for d in (-3, -4, -7, -8):
        assert class_group(d).structure == G()


def test_reduced_forms_at_high_powers_of_two():
    # D = 1 mod 8 has square roots modulo every power of 2, so a = 2^v for
    # every 2^v <= sqrt(|D|/4) carries forms and the 2-adic roots are lifted 11 times
    d = -20000015
    forms = _reduced_triples(d)
    assert {a for a, _, _ in forms if a & (a - 1) == 0} == {2**v for v in range(12)}
    assert forms == trial_division_forms(d)


# -- the class number, counted --------------------------------------------------


def test_class_number_counts_the_listing():
    # oracle: the listing.  The count of the complete prime class number lists comes
    # from class_number; then the large panel, 2-adic depth 11 and the largest |D| allowed
    listing = quadfields._reduced_triples
    tally: dict[int, list[int]] = {h: [] for h in PRIME_CLASS_NUMBER_LISTS}
    for d in fundamental_discriminants(20000):
        h = class_number(d)
        assert h == len(listing(d)), d
        if h in tally:
            tally[h].append(-d)
    assert {h: (len(ds), max(ds)) for h, ds in tally.items()} == PRIME_CLASS_NUMBER_LISTS
    for d in (*LARGE_PANEL, -20000015, -9999999995):
        assert class_number(d) == len(listing(d)), d


def _kronecker(d: int, n: int) -> int:
    """The Kronecker symbol (d/n) for n >= 1, by quadratic reciprocity."""
    result = 1
    while n % 2 == 0:
        n //= 2
        if d % 2 == 0:
            return 0
        if d % 8 in (3, 5):
            result = -result
    a = d % n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def analytic_class_number(d: int) -> float:
    """h(D) for a fundamental D < -4 from its rapidly convergent series.

    h(D) = sum over n >= 1 of (D/n) [erfc(n sqrt(pi/|D|)) + sqrt|D| / (pi n)
    exp(-pi n^2 / |D|)] (Cohen, A Course in Computational Algebraic Number
    Theory, 5.3).  Past n sqrt(pi/|D|) = 7.5 both parts are below 10^-24.
    """
    root, step = math.sqrt(-d), math.sqrt(math.pi / -d)
    terms = []
    n = 1
    while n * step <= 7.5:
        chi = _kronecker(d, n)
        if chi:
            x = n * step
            terms.append(chi * (math.erfc(x) + root / (math.pi * n) * math.exp(-x * x)))
        n += 1
    return math.fsum(terms)


def test_class_number_matches_the_analytic_series():
    # an oracle that shares no code with the count: the large panel, then a seeded
    # sample in [10^8, 10^10), fundamental by sympy's factorization
    rng = random.Random(33)
    sample: list[int] = []
    while len(sample) < 3:
        d = -rng.randrange(10**8, 10**10)
        m = -d if d % 4 == 1 else -d // 4 if d % 16 in (8, 12) else 0
        if m and all(e == 1 for e in sympy_factorint(m).values()):
            sample.append(d)
    for d in (*LARGE_PANEL, *sample):
        h = analytic_class_number(d)
        assert abs(h - round(h)) < 1e-6, d
        assert class_number(d) == round(h), d


def test_class_number_at_the_band_edge():
    # |D| just below 4a^2 puts a in the band, whose roots are read one by one (c = a
    # can occur there); just above, a is counted by rho(a) alone
    sides = {True: 0, False: 0}
    for a in (*range(1, 60), 1000, 5000):
        for n in range(max(3, 4 * a * a - 12), 4 * a * a + 13):
            if is_fundamental(-n):
                assert class_number(-n) == len(quadfields._reduced_triples(-n)), -n
                sides[4 * a * a >= n] += 1
    assert min(sides.values()) > 100, sides


def test_class_number_reads_forms_only_in_the_band(monkeypatch):
    # mechanism: the count never lists, and only an a with 4a^2 >= |D| has its roots
    # checked one by one
    def refused(d):
        raise AssertionError("class_number listed the forms")

    read, seen = quadfields._reduced_from, []

    def counted(roots, dv):
        roots = list(roots)
        seen.extend(a for a, _ in roots)
        return read(roots, dv)

    monkeypatch.setattr(quadfields, "_reduced_triples", refused)
    monkeypatch.setattr(quadfields, "_reduced_from", counted)
    assert class_number(-47) == 5 and seen == []  # sqrt(47/3) < 4, so no a is in the band
    d = -82360599
    assert class_number(d) == LARGE_PANEL[d].order
    assert seen and all(4 * a * a >= -d for a in seen)
    assert len(seen) < isqrt(-d // 3) - isqrt(-d) // 2


def test_small_discriminants_take_their_primes_from_the_table(monkeypatch):
    # mechanism: while sqrt(|D|/3) < 1000 the count and the listing read arith's primes
    # below 1000 and sieve nothing
    def refused(n):
        raise AssertionError("sieved the primes afresh")

    monkeypatch.setattr(quadfields, "_primes_below", refused)
    for d in fundamental_discriminants(3000):
        assert class_number(d) == len(quadfields._reduced_triples(d)), d


@pytest.mark.parametrize("d", sorted(LARGE_PANEL))
def test_large_panel_forms_and_structure(d):
    cg = class_group(d)
    assert list(cg.forms) == trial_division_forms(d)
    assert cg.structure == LARGE_PANEL[d]
    assert cg.structure.order == cg.order


@pytest.mark.parametrize("d", sorted(LARGE_PANEL))
def test_large_panel_classgroup_json_is_pinned(d):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["classgroup", "--disc", str(d), "--json"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == CLASSGROUP_JSON_SHA256[d]


def test_reduction_soundness():
    for d in (-23, -47, -71):
        for f in _reduced_triples(d):
            assert is_reduced(f)
            a, b, c = f
            assert b * b - 4 * a * c == d


def test_reduce_form_normalizes():
    # equivalent to the principal form of -23 after translation and swap
    # (6,7,3) -> translate (6,-5,2) -> swap (2,5,6) -> translate (2,1,3)
    f = (6, 7, 3)
    assert 7 * 7 - 4 * 6 * 3 == -23
    assert _reduce(*f, -23) == (2, 1, 3)
    assert _reduce(1, -1, 6, -23) == (1, 1, 6)
    g = _reduce(9, -17, 9, -35)
    assert g == (1, 1, 9)
    assert format_form(g) == "(1,1,9)"
    # |b| <= a <= c fails, and b < 0 on the boundary |b| = a or a = c
    assert is_reduced(g) and not is_reduced(f)
    assert not is_reduced((2, -2, 3)) and not is_reduced((2, -1, 2))


# -- composition ---------------------------------------------------------------


def test_identity_law():
    for d in (-23, -35, -47):
        e = _principal(d)
        for f in _reduced_triples(d):
            assert _compose(e, f, d) == f
            assert _compose(f, e, d) == f


def test_inverse_pairs_compose_to_identity():
    assert _compose((2, 1, 3), (2, -1, 3), -23) == (1, 1, 6)
    for d in (-23, -47, -71):
        e = _principal(d)
        for h in _reduced_triples(d):
            assert _compose(h, form_inverse(h, d), d) == e


def test_order_two_class_squares_to_identity():
    assert _compose((3, 1, 3), (3, 1, 3), -35) == (1, 1, 9)


def test_composition_refuses_a_product_off_the_discriminant():
    # (2,1,3) has discriminant -23; at -24, b^2 - D is not divisible by 4a
    with pytest.raises(ArithmeticError, match="left the discriminant"):
        _compose((2, 1, 3), (2, 1, 3), -24)


def test_group_axioms_small():
    for d in (-23, -35, -47, -71):
        forms = _reduced_triples(d)
        e = _principal(d)
        table = {
            (f, g): _compose(f, g, d) for f, g in itertools.product(forms, repeat=2)
        }
        # closure + commutativity
        assert all(v in forms for v in table.values())
        assert all(table[(f, g)] == table[(g, f)] for f in forms for g in forms)
        # inverses
        for f in forms:
            assert table[(f, form_inverse(f, d))] == e
        # associativity, exhaustively
        for f, g, h in itertools.product(forms, repeat=3):
            assert table[(table[(f, g)], h)] == table[(f, table[(g, h)])]


def _sl2_move(rng: random.Random, f: Triple) -> Triple:
    """An equivalent form, a few random translations and swaps away from f."""
    a, b, c = f
    for _ in range(rng.randrange(1, 5)):
        k = rng.randrange(-3, 4)
        b, c = b + 2 * k * a, c + k * b + k * k * a
        if rng.random() < 0.5:
            a, b, c = c, -b, a
    return a, b, c


def _primitive_reduced_forms(d: int) -> list[Triple]:
    return [f for f in sorted(brute_force_reduced_forms(d)) if gcd(*f) == 1]


def test_compose_matches_ideal_product_oracle():
    # every ordered pair of reduced forms of each fundamental |D| < 1000
    pairs = 0
    for d in fundamental_discriminants(1000):
        forms = _reduced_triples(d)
        for f, g in itertools.product(forms, repeat=2):
            assert _compose(f, g, d) == ideal_product_compose(f, g, d), (f, g)
        pairs += len(forms) ** 2
    assert pairs == 43097
    rng = random.Random(5447)
    # primitive pairs moved off reduced form, non-fundamental D included
    non_fundamental = 0
    for d in range(-3, -2000, -1):
        if d % 4 in (2, 3) or rng.random() < 0.8:
            continue
        forms = _primitive_reduced_forms(d)
        non_fundamental += not is_fundamental(d)
        for _ in range(10):
            f, g = (_sl2_move(rng, rng.choice(forms)) for _ in range(2))
            assert _compose(f, g, d) == ideal_product_compose(f, g, d), (f, g)
    assert non_fundamental > 50
    # random pairs at the large panel discriminants
    for d in LARGE_PANEL:
        forms = _reduced_triples(d)
        for _ in range(300):
            f, g = rng.choice(forms), rng.choice(forms)
            assert _compose(f, g, d) == ideal_product_compose(f, g, d), (f, g)


def test_form_power():
    f = (2, 1, 3)
    assert form_power(f, 0, -23) == _principal(-23)
    assert form_power(f, 1, -23) == f
    assert form_power(f, 3, -23) == _principal(-23)
    assert form_power(f, 2, -23) == form_inverse(f, -23)


# -- class groups -----------------------------------------------------------------


def test_class_group_structures():
    assert class_group(-35).structure == G(2)
    assert class_group(-23).structure == G(3)
    assert class_group(-4).structure == G()
    assert class_group(-47).structure == G(5)
    assert str(class_group(-35)) == "2 [(1,1,9), (3,1,3)]"


def test_class_group_consistency():
    for d in (-23, -35, -84, -120):
        if not is_fundamental(d):
            continue
        cg = class_group(d)
        assert cg.order == len(_reduced_triples(d))
        assert cg.structure.order == cg.order
        assert cg.forms[0] == _principal(d)


def test_noncyclic_class_group():
    # h(-84) = 4 with structure Z/2 x Z/2 (every genus its own class)
    cg = class_group(-84)
    assert cg.order == 4
    assert cg.structure == G(2, 2)
    e = _principal(-84)
    assert all(form_power(f, 2, -84) == e for f in cg.forms)
    # h(-120) = 4, also (Z/2)^2
    assert class_group(-120).structure == G(2, 2)
    # h(-56) = 4 but cyclic: (3,2,5) has order 4
    assert class_group(-56).structure == G(4)


def test_class_group_matches_counting_oracle():
    for d in fundamental_discriminants(5000):
        assert class_group(d) == counting_class_group(d), d


def _structure_two_ranks(d: int) -> tuple[int, int]:
    """The 2-rank and 4-rank of class_group(d): its 2-part exponents, and those >= 2."""
    exps = class_group(d).structure.exponents_at(2)
    return len(exps), sum(1 for e in exps if e >= 2)


def _residue_bit(a: int, p: int) -> int:
    """1 when the Kronecker symbol (a/p) = -1, else 0, for a prime p not dividing a."""
    if p == 2:  # a = 1 mod 4 here
        return int(a % 8 == 5)
    return int(pow(a, (p - 1) // 2, p) != 1)  # Euler's criterion


def genus_redei_two_ranks(d: int) -> tuple[int, int]:
    """Oracle with no composition: the 2-rank t - 1 by genus theory, the 4-rank by Redei.

    D is the product of t prime discriminants p*: (-1)^((p-1)/2) p for odd
    p | D, and -4, 8 or -8 for p = 2.  Redei's matrix R over F_2 has
    R_ij = 1 exactly when (p_j*/p_i) = -1 (i != j), and the diagonal makes
    each row sum to 0; the 4-rank is t - 1 - rank R (Redei 1934; Stevenhagen,
    Redei matrices and applications, 1995).
    """
    stars = [(p, p if p % 4 == 1 else -p) for p in primefactors(-d) if p > 2]
    two = d
    for _, star in stars:
        two //= star
    if two != 1:
        stars.insert(0, (2, two))
    rows = []
    for i, (p, _) in enumerate(stars):
        bits = [_residue_bit(star, p) if j != i else 0 for j, (_, star) in enumerate(stars)]
        bits[i] = sum(bits) % 2
        rows.append(sum(bit << j for j, bit in enumerate(bits)))
    rank = 0
    while rows:  # Gaussian elimination over F_2, a row being a bit mask
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
    t = len(stars)
    return t - 1, t - 1 - rank


def test_genus_theory_two_rank_of_structure():
    # genus theory and Redei's matrix, independent of composition: the 2-rank is t - 1,
    # t = #{primes dividing D}, and the 4-rank is t - 1 - rank R
    for d in fundamental_discriminants(5000):
        assert _structure_two_ranks(d) == genus_redei_two_ranks(d), d
    rng = random.Random(20261018)
    sample = []
    while len(sample) < 20:
        d = -rng.randrange(10**6, 10**9)
        if is_fundamental(d):
            sample.append(d)
    for d in sample:
        assert _structure_two_ranks(d) == genus_redei_two_ranks(d), d


_RIGHT_COMPOSE = quadfields._compose


def _count_compose_calls(monkeypatch, d: int) -> tuple[int, int]:
    calls = 0

    def counted(f, g, d):
        nonlocal calls
        calls += 1
        return _RIGHT_COMPOSE(f, g, d)

    monkeypatch.setattr(quadfields, "_compose", counted)
    return class_group(d).order, calls


def test_class_group_compose_work(monkeypatch):
    # deterministic work guard, pinned at the counts the Sylow reader makes: the structure
    # costs O(h) compositions, not O(h log h) per p^k
    h, calls = _count_compose_calls(monkeypatch, -21311)
    assert h == 200 and calls <= 64
    h, calls = _count_compose_calls(monkeypatch, -22747620)
    assert h == 1664 and calls <= 229
    # h = 4 * 2609: the Sylow 2609-subgroup is read from one power, not spanned class by class
    h, calls = _count_compose_calls(monkeypatch, -82360599)
    assert h == 10436 and calls <= 74
    # every fundamental |D| < 3000 takes 18 320: a power stops squaring at its top bit,
    # the principal form, whose image is the identity, is never raised to a power, and
    # only the prime forms are raised
    total = sum(_count_compose_calls(monkeypatch, d)[1] for d in fundamental_discriminants(3000))
    assert total <= 18320


def _wrong_identity(f, g, d):
    return quadfields._principal(d)


def _wrong_second(f, g, d):
    return quadfields._reduce(*g, d)


def _wrong_inverse(f, g, d):
    a, b, c = _RIGHT_COMPOSE(f, g, d)
    return quadfields._reduce(a, -b, c, d)


@pytest.mark.parametrize("wrong, d, message", [
    # p exactly divides h: the first image f^(h/p) other than 1 must exist and have order p
    (_wrong_identity, -23, "no class of order 3"),
    (_wrong_identity, -47, "no class of order 5"),
    (_wrong_second, -23, "has g\\^3 != 1"),
    (_wrong_second, -47, "has g\\^5 != 1"),
    # p^e with e >= 2 divides h: the span and the socle counts
    (_wrong_identity, -56, "span falls short"),
    (_wrong_second, -84, "span outgrows"),
    (_wrong_inverse, -3299, "span outgrows"),
    (_wrong_inverse, -1231, "socle count"),
], ids=[
    "h3-no-image", "h5-no-image", "h3-image-order", "h5-image-order",
    "h4-span-short", "h4-span-outgrows", "h27-span-outgrows", "h27-socle",
])
def test_class_group_detects_a_broken_composition(monkeypatch, wrong, d, message):
    assert class_group(d).order > 1
    monkeypatch.setattr(quadfields, "_compose", wrong)
    with pytest.raises(ArithmeticError, match=message):
        class_group(d)


def test_class_group_checks_the_structure_order(monkeypatch):
    assert class_group(-84).structure == G(2, 2)
    monkeypatch.setattr(quadfields, "_p_group_exponents", lambda *args: [1])
    with pytest.raises(ArithmeticError, match="structure order"):
        class_group(-84)


def _cyclic_span(g: Triple, identity: Triple, d: int) -> set[Triple]:
    span, power = {identity}, g
    while power not in span:
        span.add(power)
        power = _compose(power, g, d)
    return span


def test_prime_order_sylow_matches_its_span():
    # oracle for the one-power path: for p exactly dividing h, the images
    # f^(h/p) span exactly p classes under composition
    checked = 0
    for d in fundamental_discriminants(5000):
        forms = _reduced_triples(d)
        h, identity = len(forms), _principal(d)
        for p, e in factorint(h).items():
            if e > 1:
                continue
            images = {form_power(f, h // p, d) for f in forms}
            g = next(x for x in images if x != identity)
            span = _cyclic_span(g, identity, d)
            assert len(span) == p and images == span, (d, p)
            checked += 1
    assert checked > 1000


def test_paper_golden_class_numbers():
    ten = (-35, -51, -91, -115, -123, -187, -235, -267, -403, -427)
    for d in ten:
        assert class_group(d).order == 2


def test_class_number_one_discriminants_are_heegner():
    ones = [d for d in fundamental_discriminants(200) if class_number(d) == 1]
    assert ones == [-3, -4, -7, -8, -11, -19, -43, -67, -163]


def test_genus_theory_two_torsion_counts():
    # classical: the ambiguous classes number 2^(t-1), t = #{primes dividing D}
    for d in fundamental_discriminants(200):
        e = _principal(d)
        ambiguous = sum(1 for f in _reduced_triples(d) if _compose(f, f, d) == e)
        assert ambiguous == 2 ** (len(primefactors(-d)) - 1), d
