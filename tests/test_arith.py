"""Tests for deterministic primality and factoring, with sympy as the oracle."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import galab
from galab.arith import PRIME_LIMIT, _SMALL_PRIMES, _primes_below, factorint, isprime, sqrt_mod
from galab.errors import BoundExceeded

CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 62745]
# least strong pseudoprimes to the first 4, 9 and 12 prime bases (psi_4, psi_9, psi_12)
STRONG_PSEUDOPRIMES = [3215031751, 3825123056546413051, 318665857834031151167461]
PRIMES_NEAR_1E11 = [100000000003, 100000000019, 99999999977]

ADVERSARIAL = (
    CARMICHAEL
    + STRONG_PSEUDOPRIMES
    + [p * p for p in (1009, 65537, 1000003, PRIMES_NEAR_1E11[0])]
    + [p * q for p, q in zip(PRIMES_NEAR_1E11, PRIMES_NEAR_1E11[1:])]
    + [2**61 - 1, 2**100, 3**50 * 7**2]
)


def test_isprime_matches_sympy_below_20000():
    for n in range(-20, 20001):
        assert isprime(n) == sympy.isprime(n), n


def test_factorint_matches_sympy_below_20000():
    for n in range(1, 20001):
        assert factorint(n) == sympy.factorint(n), n


@pytest.mark.parametrize("n", ADVERSARIAL)
def test_adversarial_inputs_match_sympy(n):
    assert isprime(n) == sympy.isprime(n)
    assert factorint(n) == sympy.factorint(n)
    assert list(factorint(n)) == sorted(factorint(n))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**24 - 1))
def test_isprime_property(n):
    assert isprime(n) == sympy.isprime(n)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=10**24 - 1))
def test_factorint_property(n):
    assert factorint(n) == sympy.factorint(n)


@pytest.mark.parametrize("n", [0, -1, -7])
def test_factorint_rejects_non_positive(n):
    with pytest.raises(ValueError):
        factorint(n)


def test_exact_just_below_the_limit():
    p = sympy.prevprime(PRIME_LIMIT)
    assert isprime(p)
    assert factorint(p) == {p: 1}
    # a composite below the limit with no factor under 10^12
    q = sympy.prevprime(1821137154000)
    r = sympy.prevprime(q)
    assert q * r < PRIME_LIMIT
    assert not isprime(q * r)
    assert factorint(q * r) == {r: 1, q: 1}


@pytest.mark.parametrize(
    "n",
    [PRIME_LIMIT, sympy.nextprime(PRIME_LIMIT), sympy.nextprime(10**12) * sympy.nextprime(10**13)],
)
def test_unprovable_inputs_raise_bound_exceeded(n):
    with pytest.raises(BoundExceeded):
        isprime(n)
    with pytest.raises(BoundExceeded):
        factorint(n)


def test_decided_by_trial_division_above_the_limit():
    assert not isprime(PRIME_LIMIT + 1)
    assert not isprime(3 * PRIME_LIMIT)
    assert factorint(2**200 * 997**3) == {2: 200, 997: 3}


def test_sqrt_mod_matches_brute_force_for_small_primes():
    for p in sympy.primerange(3, 500):
        roots: dict[int, list[int]] = {}
        for x in range(p):
            roots.setdefault(x * x % p, []).append(x)
        for n in range(p):
            assert sqrt_mod(n, p) == roots.get(n, []), (n, p)


# p - 1 = 2^s * q with s = 23, 25, 30, 16 and 32: Tonelli-Shanks takes up to s steps
LARGE_TWO_ADIC_PRIMES = [998244353, 167772161, 3 * 2**30 + 1, 65537, 2**64 - 2**32 + 1]


@pytest.mark.parametrize("p", LARGE_TWO_ADIC_PRIMES)
def test_sqrt_mod_large_two_adic_primes(p):
    assert isprime(p)
    for n in list(range(1, 200)) + [p - 1, p - 2, (p - 1) // 2]:
        roots = sqrt_mod(n, p)
        assert len(roots) == (2 if sympy.legendre_symbol(n % p, p) == 1 else 0), n
        assert roots == sorted(roots)
        assert all(x * x % p == n % p for x in roots)


@pytest.mark.parametrize("p,k", [(3, 9), (5, 6), (7, 5), (11, 4), (8191, 3), (998244353, 3)])
def test_sqrt_mod_hensel_lifts(p, k):
    q = p**k
    for n in range(1, 300):
        if n % p == 0:
            continue
        roots = sqrt_mod(n, p, k)
        assert len(roots) == len(sqrt_mod(n, p))
        assert all(0 <= x < q and (x * x - n) % q == 0 for x in roots)
        assert sorted({x % p for x in roots}) == sqrt_mod(n, p)


@pytest.mark.parametrize("p,k", [(3, 2), (3, 5), (7, 3), (11, 2), (19, 2), (43, 2)])
def test_sqrt_mod_primes_3_mod_4_lift_like_brute_force(p, k):
    # p = 3 (mod 4) takes r^((p+1)/4) instead of Tonelli-Shanks, then the shared
    # Hensel lifting; k = 1 is in test_sqrt_mod_matches_brute_force_for_small_primes
    q = p**k
    roots: dict[int, list[int]] = {}
    for x in range(q):
        roots.setdefault(x * x % q, []).append(x)
    for n in range(q):
        if n % p:  # roots of multiples of p are lifted only for k = 1
            assert sqrt_mod(n, p, k) == roots.get(n, []), (n, p, k)


@pytest.mark.parametrize("p", [2**31 - 1, 10**9 + 7, 2**61 - 1])
def test_sqrt_mod_large_primes_3_mod_4(p):
    assert p % 4 == 3 and isprime(p)
    for n in list(range(1, 100)) + [p - 1, p - 2, (p + 1) // 2]:
        residue = sympy.legendre_symbol(n % p, p) == 1
        for k in (1, 2):
            roots = sqrt_mod(n, p, k)
            assert len(roots) == 2 * residue, (n, k)
            assert roots == sorted(roots)
            assert all((x * x - n) % p**k == 0 for x in roots)


def test_sqrt_mod_rejects_unsupported_moduli():
    with pytest.raises(ValueError):
        sqrt_mod(3, 2)
    with pytest.raises(ValueError):
        sqrt_mod(9, 3, 2)
    assert sqrt_mod(9, 3) == [0]


def test_small_primes_are_sieved():
    assert _SMALL_PRIMES == tuple(sympy.primerange(2, 1000))
    for n in (2, 3, 4, 5, 30, 1001):
        assert _primes_below(n) == tuple(sympy.primerange(2, n)), n


def test_package_import_does_not_load_sympy():
    # nor dataclasses and inspect, whose import and code generation cost each CLI call,
    # nor argparse and its gettext, which only --help and usage errors need
    src = Path(galab.__file__).resolve().parents[1]
    names = ("sympy", "dataclasses", "inspect", "argparse", "gettext")
    probe = f"import sys, galab, galab.cli; print(sorted(m for m in {names!r} if m in sys.modules))"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.stdout.strip() == "[]"
