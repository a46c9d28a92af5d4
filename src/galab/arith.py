"""Deterministic primality and integer factorization.

`isprime` is trial division by the primes below 1000, then the strong
probable-prime (Miller-Rabin) test to the first 13 prime bases, which
Sorenson & Webster (2015) prove correct for every n < PRIME_LIMIT.
`factorint` is the same trial division, then Pollard-Brent rho (Brent 1980;
Cohen, A Course in Computational Algebraic Number Theory, §8.5) on the
cofactor, with every factor it returns proven prime by `isprime`.

Neither function guesses: an answer that needs the primality of a number at
or above PRIME_LIMIT with no prime factor below 1000 raises BoundExceeded.

`sqrt_mod` lists the square roots of n modulo an odd prime power: r^((p+1)/4)
or Tonelli-Shanks modulo p, then Hensel lifting to p^k (Cohen, §1.5).
"""

from __future__ import annotations

from itertools import count
from math import gcd, isqrt

from .errors import BoundExceeded

# psi_13, the least strong pseudoprime to all of the bases below.
PRIME_LIMIT = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _primes_below(n: int) -> tuple[int, ...]:
    """The primes p < n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(p for p in range(n) if sieve[p])


_SMALL_PRIMES = _primes_below(1000)


def _strong_probable_prime(n: int, base: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def isprime(n: int) -> bool:
    """True iff n is prime; exact, or BoundExceeded when it cannot be proven."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
        if p * p > n:
            return True
    if n >= PRIME_LIMIT:
        raise BoundExceeded(
            f"cannot prove whether {n} is prime: it has no prime factor below 1000 "
            f"and the deterministic test covers n < {PRIME_LIMIT}"
        )
    return all(_strong_probable_prime(n, a) for a in _BASES)


def _brent_factor(n: int) -> int:
    """A proper divisor of the odd composite n (Pollard rho, Brent's cycle search)."""
    batch = 128
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += batch
            r *= 2
        if g == n:  # the batch overshot: step through it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}, primes ascending."""
    if n < 1:
        raise ValueError(f"factorint needs a positive integer, got {n}")
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            factors[p] = factors.get(p, 0) + 1
    large: dict[int, int] = {}
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if isprime(m):
            large[m] = large.get(m, 0) + 1
        else:
            d = _brent_factor(m)
            pending += [d, m // d]
    for p in sorted(large):
        factors[p] = large[p]
    return factors


def sqrt_mod(n: int, p: int, k: int = 1) -> list[int]:
    """All x in [0, p^k) with x^2 = n (mod p^k), ascending, for an odd prime p.

    Either p does not divide n, or k = 1 (where n = 0 mod p has the root 0).
    """
    if p % 2 == 0 or k < 1:
        raise ValueError(f"sqrt_mod needs an odd prime and k >= 1, got p = {p}, k = {k}")
    r = n % p
    if r == 0:
        if k > 1:
            raise ValueError("sqrt_mod lifts only roots of units")
        return [0]
    if p % 4 == 3:  # x^2 = r * (r | p), so x is a root exactly when r is a residue
        x = pow(r, (p + 1) // 4, p)
        if x * x % p != r:
            return []
    elif pow(r, (p - 1) // 2, p) != 1:
        return []
    else:
        # Tonelli-Shanks: p - 1 = q * 2^s with q odd, z a non-residue
        q, s = p - 1, 0
        while q % 2 == 0:
            q, s = q // 2, s + 1
        z = next(z for z in count(2) if pow(z, (p - 1) // 2, p) == p - 1)
        c, x, t = pow(z, q, p), pow(r, (q + 1) // 2, p), pow(r, q, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2, i = t2 * t2 % p, i + 1
            b = pow(c, 1 << (s - i - 1), p)
            x, c, s = x * b % p, b * b % p, i
            t = t * c % p
    # Hensel: a root modulo p^j lifts uniquely to p^(j+1), since 2x is a unit
    modulus = p
    for _ in range(k - 1):
        modulus *= p
        x = (x - (x * x - n) * pow(2 * x, -1, modulus)) % modulus
    return sorted((x, modulus - x))
