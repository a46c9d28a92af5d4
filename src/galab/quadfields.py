"""Imaginary quadratic field arithmetic via binary quadratic forms.

Reduced positive-definite forms of a fundamental discriminant represent the
ideal classes of the maximal order.  They are listed by a walk over the a
with no inert prime factor, each a's square roots of D modulo 4a joined by
CRT from its parent's (Cohen, A Course in Computational Algebraic Number
Theory, §1.5 and §5.3), so the listing costs about sqrt|D| steps.  The
class number is counted by the same walk with no form kept: while
4a^2 < |D|, each a carries one form per b mod 2a with b^2 = D (mod 4a),
a number that Legendre symbols give (`class_number`).  Classes compose by
Shanks' composition (Cohen, Algorithm 5.4.7) followed by reduction.  The
arithmetic runs on plain (a, b, c) triples;
`BinaryQuadraticForm` objects are built only by the public functions and
`ClassGroup.representatives`. The class group structure is read off each
Sylow p-subgroup, the image of f -> f^(h/p^e) on the prime forms, which
generate the class group (`_prime_forms`).  For p exactly dividing h it is
Z/p, and one image g != 1 with g^p = 1 shows it; for e >= 2 the images span
it, and it holds only p^e classes.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import accumulate, count, pairwise
from math import gcd, isqrt

from .arith import _SMALL_PRIMES, _primes_below, factorint, sqrt_mod
from .errors import BoundExceeded, DiscriminantMismatch, NotFundamental
from .finabelian import FiniteAbelianGroup, _Record

# Largest |D| whose reduced forms are enumerated.  The listing takes about
# sqrt|D| steps, but h, the number of forms held and printed, can reach
# about sqrt|D| log|D|.
MAX_ENUMERATED_DISCRIMINANT = 10 ** 10

# a form (a, b, c) as the arithmetic carries it, with the discriminant passed alongside
Triple = tuple[int, int, int]


def _squarefree(n: int) -> bool:
    return all(e == 1 for e in factorint(abs(n)).values())


def is_fundamental(d: int) -> bool:
    """True iff d is the discriminant of an imaginary quadratic field."""
    if d >= 0:
        return False
    if d % 4 == 1:
        return _squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and _squarefree(m)
    return False


def _require_fundamental(d: int) -> int:
    if not is_fundamental(d):
        raise NotFundamental(f"{d} is not a fundamental imaginary quadratic discriminant")
    return d


class BinaryQuadraticForm(_Record):
    """A positive-definite integral binary quadratic form a x^2 + b xy + c y^2."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int) -> None:
        if a <= 0 or b * b - 4 * a * c >= 0:
            raise ValueError(f"form ({a},{b},{c}) is not positive definite")
        super().__init__(a, b, c)

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not (abs(b) <= a <= c):
            return False
        if (abs(b) == a or a == c) and b < 0:
            return False
        return True

    def __str__(self) -> str:
        return format_form((self.a, self.b, self.c))


def format_form(form: Triple) -> str:
    """A form (a, b, c) as printed: "(a,b,c)"."""
    return "(%d,%d,%d)" % form


def _principal(d: int) -> Triple:
    b0 = d % 2
    return 1, b0, (b0 - d) // 4


def principal_form(d: int) -> BinaryQuadraticForm:
    """The identity class: (1, 0, -D/4) or (1, 1, (1-D)/4)."""
    if d % 4 in (2, 3):
        raise ValueError(f"{d} is not a discriminant: D must be 0 or 1 mod 4")
    return BinaryQuadraticForm(*_principal(d))


def _reduce(a: int, b: int, c: int, d: int) -> Triple:
    while True:
        if -a < b <= a:
            if a < c or (a == c and b >= 0):
                return a, b, c
            a, b, c = c, -b, a
            continue
        # translate b into (-a, a]; c follows from the fixed discriminant
        b = b % (2 * a)
        if b > a:
            b -= 2 * a
        c = (b * b - d) // (4 * a)


def reduce_form(f: BinaryQuadraticForm) -> BinaryQuadraticForm:
    """The unique reduced form equivalent to f."""
    return BinaryQuadraticForm(*_reduce(f.a, f.b, f.c, f.discriminant()))


def _require_enumerable(d: int) -> int:
    """d, once checked to be fundamental and then to be within MAX_ENUMERATED_DISCRIMINANT."""
    dv = _require_fundamental(d)
    if -dv > MAX_ENUMERATED_DISCRIMINANT:
        raise BoundExceeded(
            f"|D| = {-dv} exceeds {MAX_ENUMERATED_DISCRIMINANT}, the largest "
            "discriminant whose reduced forms are enumerated"
        )
    return dv


def _two_adic_roots(dv: int, amax: int) -> list[list[int]]:
    """Entry v: the b mod 2^(v+1) with b^2 = D (mod 2^(v+2)), for each 2^v <= amax that has one.

    The roots are lifted bit by bit: each root mod 2^v gives the candidates
    r and r + 2^v mod 2^(v+1).
    """
    out, roots, v = [], [dv % 2], 0
    while roots and 1 << v <= amax:
        out.append(roots)
        v += 1
        roots = [r for s in roots for r in (s, s + (1 << v)) if (r * r - dv) % (4 << v) == 0]
    return out


def _reduced_from(roots: Iterable[tuple[int, list[int] | None]], dv: int) -> list[Triple]:
    """The reduced forms (a, b, c), for each (a, the b mod 2a with b^2 = D (mod 4a)) in turn.

    The forms of one a come by ascending b.
    """
    out = []
    for a, residues in roots:
        if residues:
            for b in sorted([r if r <= a else r - 2 * a for r in residues]):  # -a < b <= a
                c = (b * b - dv) // (4 * a)
                if c > a or (c == a and b >= 0):
                    out.append((a, b, c))
    return out


def _lift(residues: list[int], modulus: int, q: int, roots: list[int]) -> list[int]:
    """CRT: the x mod modulus * q with x in residues mod modulus and in roots mod q."""
    inv = pow(modulus, -1, q)
    return [r + modulus * ((s - r) * inv % q) for r in residues for s in roots]


def _odd_primes(dv: int, amax: int) -> Iterator[tuple[int, int, list[int]]]:
    """(p, rho(p^k) = 1 + (D/p), the powers p^k <= amax) for each odd p <= amax not inert, ascending."""
    for sieved in (False, True):  # the sieve runs only once the tabled primes below 1000 run out
        for p in _primes_below(amax + 1)[len(_SMALL_PRIMES) :] if sieved else _SMALL_PRIMES[1:]:
            if p > amax:
                return
            ramified = dv % p == 0  # then D has the root 0 mod p, and none mod p^2: D is fundamental
            if ramified or pow(dv, (p - 1) // 2, p) == 1:
                qs = [p]
                while not ramified and qs[-1] * p <= amax:
                    qs.append(qs[-1] * p)
                yield p, 1 if ramified else 2, qs


def _prime_forms(dv: int) -> Iterator[Triple]:
    """The reduced form of (p, b, c), b^2 = D (mod 4p), for each p <= sqrt(|D|/3) not inert, 2 first.

    These classes generate the class group: every class holds a reduced form
    (a, b, c) with a <= sqrt(|D|/3), whose ideal aZ + ((-b + sqrt D)/2)Z is
    primitive of norm a, so a product of prime ideals of degree one above
    the p | a; each is the class of (p, b, c) or of its inverse (p, -b, c)
    (Cohen, A Course in Computational Algebraic Number Theory, §5.2-5.4).
    """
    amax = isqrt(-dv // 3)
    twos = _two_adic_roots(dv, amax)
    if len(twos) > 1:
        b = twos[1][0]
        yield _reduce(2, b, (b * b - dv) // 8, dv)
    for p, _, _ in _odd_primes(dv, amax):
        b = _lift(twos[0], 2, p, sqrt_mod(dv, p, 1))[0]
        yield _reduce(p, b, (b * b - dv) // (4 * p), dv)


def _reduced_triples(d: int) -> list[Triple]:
    """The reduced forms of a fundamental discriminant as sorted triples; see reduced_forms."""
    dv = _require_enumerable(d)
    amax = isqrt(-dv // 3)
    # walk entries (a, the b mod 2a with b^2 = D (mod 4a), index into powers of the next
    # prime); the walk starts at each 2^v
    stack = [(1 << v, roots, 0) for v, roots in enumerate(_two_adic_roots(dv, amax))]
    powers = [  # per odd prime that is not inert, its powers q <= amax with the roots of D mod q
        [(q, sqrt_mod(dv, p, k)) for k, q in enumerate(qs, 1)] for p, _, qs in _odd_primes(dv, amax)
    ]
    slots: list[list[int] | None] = [None] * (amax + 1)  # the walk reaches each a once
    while stack:
        a, residues, i = stack.pop()
        slots[a] = residues
        modulus = 2 * a
        for j in range(i, len(powers)):
            if a * powers[j][0][0] > amax:
                break
            for q, roots in powers[j]:
                if a * q > amax:
                    break
                # `_lift`, inline: a call per node costs the listing about 3 %
                inv = pow(modulus, -1, q)
                children = [r + modulus * ((s - r) * inv % q) for r in residues for s in roots]
                stack.append((a * q, children, j + 1))
    return _reduced_from(enumerate(slots), dv)


def reduced_forms(d: int) -> list[BinaryQuadraticForm]:
    """The complete list of reduced forms of a fundamental discriminant, sorted.

    A reduced form (a, b, c) has a <= sqrt(|D|/3) and -a < b <= a with
    b^2 = D (mod 4a); these b, read mod 2a, exist only if no prime factor of
    a is inert.  A depth-first walk builds just those a = 2^v p1^k1 ... pn^kn
    (odd primes ascending), each from its parent and one prime power q by
    one CRT step with the roots of D mod q, which `sqrt_mod` gives once per
    q (an odd p | D gives the root 0, to the first power only, since D is
    fundamental).  An ascending pass over a keeps (a, b, c), with
    c = (b^2 - D)/4a, when it is reduced, so the list comes out sorted.  The
    work grows like sqrt|D|, the count is the class number.  |D| above
    MAX_ENUMERATED_DISCRIMINANT raises BoundExceeded before any enumeration.
    """
    return [BinaryQuadraticForm(*f) for f in _reduced_triples(d)]


def class_number(d: int) -> int:
    """The class number of a fundamental discriminant: its reduced forms, counted.

    The reduced forms with first coefficient a are the (a, b, c) with
    -a < b <= a, b^2 = D (mod 4a) and c = (b^2 - D)/4a, kept when c > a, or
    c = a and b >= 0.  While 4a^2 < |D|, every such b has c >= |D|/4a > a, so a
    carries exactly rho(a) forms, rho(a) being the number of b mod 2a with
    b^2 = D (mod 4a).  By CRT, rho is multiplicative: rho(2^v) is the number
    of roots `_two_adic_roots` lifts, an odd prime power p^k with p not
    dividing D has rho = 1 + (D/p) by Hensel's lemma, and an odd p | D has
    rho = 1 at k = 1 and 0 above, since D is fundamental.  So the walk of
    `reduced_forms` adds up products of these counts, with one Euler
    criterion per odd prime p <= sqrt(|D|/3) and no roots.  Only the a of
    the band 4a^2 >= |D| get their roots, by CRT from `sqrt_mod`, and are
    counted by the listing's own rule, `_reduced_from`.  NotFundamental, then
    BoundExceeded, are raised as by `reduced_forms`.
    """
    dv = _require_enumerable(d)
    amax = isqrt(-dv // 3)
    band = isqrt(-dv - 1) // 2 + 1  # the least a with 4a^2 >= |D|
    odd = list(_odd_primes(dv, amax))
    twos = _two_adic_roots(dv, amax)
    h = 0
    in_band = []  # (a, the b mod 2a with b^2 = D (mod 4a)) for each a in the band
    # walk entries (a, rho(a), index into odd of the next prime, path to a), a path
    # being (p, k, the parent's path), or v at the start 2^v
    stack = []
    for v, roots in enumerate(twos):
        if 1 << v < band:
            stack.append((1 << v, len(roots), 0, v))
        else:
            in_band.append((1 << v, roots))
    while stack:
        a, rho, i, path = stack.pop()
        h += rho
        residues = None  # a's roots, built for its first child in the band
        for j in range(i, len(odd)):
            p, rho_p, qs = odd[j]
            if a * p > amax:
                break
            for k, q in enumerate(qs, 1):
                child = a * q
                if child > amax:
                    break
                if child >= band:
                    if residues is None:
                        residues = _roots_along(path, twos, dv)
                    in_band.append((child, _lift(residues, 2 * a, q, sqrt_mod(dv, p, k))))
                elif 3 * child > amax:  # no odd prime extends it
                    h += rho * rho_p
                else:
                    stack.append((child, rho * rho_p, j + 1, (p, k, path)))
    return h + len(_reduced_from(in_band, dv))


def _roots_along(path: tuple | int, twos: list[list[int]], dv: int) -> list[int]:
    """The b mod 2a with b^2 = D (mod 4a), for the a that the walk of class_number reached by path."""
    steps = []
    while isinstance(path, tuple):
        p, k, path = path
        steps.append((p, k))
    residues, modulus = twos[path], 2 << path
    for p, k in steps:
        residues = _lift(residues, modulus, p**k, sqrt_mod(dv, p, k))
        modulus *= p**k
    return residues


def _compose(f: Triple, g: Triple, d: int) -> Triple:
    if f[0] > g[0]:
        f, g = g, f
    a1, b1, _ = f
    a2, b2, c2 = g
    s = (b1 + b2) // 2
    n = b2 - s
    m = gcd(a1, a2)  # Cohen's d; y1*a2 = m (mod a1) and x2*s - y2*m = d1 = gcd(s, m)
    y1 = pow(a2 // m, -1, a1 // m)
    d1 = gcd(s, m)
    x2 = pow(s // d1, -1, m // d1)
    y2 = (x2 * s - d1) // m
    v1, v2 = a1 // d1, a2 // d1
    r = (y1 * y2 * n - x2 * c2) % v1
    a = v1 * v2
    b = b2 + 2 * r * v2
    c, rem = divmod(b * b - d, 4 * a)
    if rem:
        raise ArithmeticError("Shanks composition left the discriminant")
    return _reduce(a, b, c, d)


def compose(f: BinaryQuadraticForm, g: BinaryQuadraticForm) -> BinaryQuadraticForm:
    """Gauss composition of classes, as reduced forms.

    Shanks' formula (Cohen, Algorithm 5.4.7), with the form of smaller a
    first.  A product that is not a form of discriminant D raises
    ArithmeticError.
    """
    d = f.discriminant()
    if d != g.discriminant():
        raise DiscriminantMismatch(
            f"cannot compose forms of discriminants {d} and {g.discriminant()}"
        )
    return BinaryQuadraticForm(*_compose((f.a, f.b, f.c), (g.a, g.b, g.c), d))


def _power(f: Triple, k: int, d: int) -> Triple:
    result, base = _principal(d), f
    while k:
        if k & 1:
            result = _compose(result, base, d)
        k >>= 1
        if k:  # the square after the top bit would never be read
            base = _compose(base, base, d)
    return result


# ---------------------------------------------------------------------------
# Class groups


class ClassGroup(_Record):
    """The form class group of a fundamental discriminant.

    `forms` holds the reduced forms as sorted (a, b, c) triples, which
    `representatives` builds as BinaryQuadraticForm objects on access;
    `structure` is a FiniteAbelianGroup.
    """

    __slots__ = ("discriminant", "forms", "structure")

    @property
    def representatives(self) -> tuple[BinaryQuadraticForm, ...]:
        return tuple([BinaryQuadraticForm(*f) for f in self.forms])

    @property
    def order(self) -> int:
        return len(self.forms)

    @property
    def principal(self) -> BinaryQuadraticForm:
        return principal_form(self.discriminant)

    def __str__(self) -> str:
        reps = ", ".join(map(format_form, self.forms))
        return f"{self.structure} [{reps}]"


def class_group(d: int) -> ClassGroup:
    """Class group of a fundamental discriminant, structure included.

    The sorted reduced forms must start with the principal form, each Sylow
    part is read by `_sylow_exponents`, which checks composition, and the
    structure's order must then be h; otherwise ArithmeticError.
    """
    forms = tuple(_reduced_triples(d))
    if forms[:1] != (_principal(d),):  # also for h = 1, which has no Sylow part to read
        raise ArithmeticError("the sorted reduced forms do not start with the principal form")
    return ClassGroup(d, forms, _structure(d, len(forms)))


def _structure(d: int, h: int) -> FiniteAbelianGroup:
    """The class group structure of d, whose class number is h; see class_group."""
    primary = {p: _sylow_exponents(d, h, p, e) for p, e in factorint(h).items()}
    structure = FiniteAbelianGroup._from_primary(primary)
    if structure.order != h:
        raise ArithmeticError("structure order disagrees with the class number")
    return structure


def _sylow_exponents(d: int, h: int, p: int, e: int) -> list[int]:
    """Cyclic exponents, ascending, of the Sylow p-subgroup S of d, p^e exactly dividing h.

    f -> f^(h/p^e) maps the prime forms (`_prime_forms`) onto generators of
    S.  For e = 1, S is Z/p: the first image g != 1 gives it, once g^p = 1 is
    checked, in O(log p) compositions where a span would take p - 1.  For
    e >= 2, `_p_group_exponents` reads S and every p^k S from the images in
    one layer loop.  Composition is checked on the way (an e = 1 image must
    exist and have order p); otherwise ArithmeticError.
    """
    identity = _principal(d)
    images = (_power(f, h // p**e, d) for f in _prime_forms(d))
    if e == 1:
        g = next((g for g in images if g != identity), identity)
        if g == identity:
            raise ArithmeticError(f"no class of order {p} although {p} divides h; composition is broken")
        if _power(g, p, d) != identity:
            raise ArithmeticError(f"the image g = f^(h/{p}) != 1 has g^{p} != 1; composition is broken")
        return [1]
    return _p_group_exponents(images, identity, p, e, d)


def _p_group_exponents(
    gens: Iterable[Triple], identity: Triple, p: int, e: int, d: int
) -> list[int]:
    """Cyclic exponents, ascending, of the p-group S of order p^e that gens generate.

    Layer k is p^k S, spanned coset by coset until it reaches its bound.
    Layer 0 is spanned by gens, taken until it has p^e classes.  Layer k + 1
    is spanned by the p-th powers of the gens that grew layer k, and as a
    proper subgroup has at most a p-th of its classes.  The loop stops at the
    first layer of one class.  r_k = log_p |p^k S / p^(k+1) S| counts the
    cyclic factors of exponent > k, so the exponents are the conjugate of r.
    Composition is checked: no layer may outgrow its bound, layer 0 must
    reach p^e exactly, and every later layer's size must be a power of p;
    otherwise ArithmeticError.  In a group r never rises; a broken r that
    does is replaced by its running minimum, whose conjugate falls short of
    p^e, so `_structure` refuses it.
    """
    logs: list[int] = []  # logs[k] = log_p |p^k S|
    bound = p**e
    while True:
        layer, members, used = [identity], {identity}, []
        for g in gens:
            span, power = layer[:], g
            while power not in members:
                coset = [power] + [_compose(power, x, d) for x in span[1:]]
                layer += coset
                members.update(coset)
                if len(layer) > bound:
                    raise ArithmeticError("span outgrows its group order; composition is broken")
                power = _compose(power, g, d)
            if len(layer) > len(span):
                used.append(g)
            if len(layer) == bound:
                break
        if not logs and len(layer) != bound:
            raise ArithmeticError("Sylow span falls short of its order; composition is broken")
        log = next(k for k in count() if p**k >= len(layer))
        if p**log != len(layer):
            raise ArithmeticError("socle count is not a power of p; composition is broken")
        logs.append(log)
        if not log:
            break
        gens, bound = [_power(g, p, d) for g in used], len(layer) // p
    ranks = list(accumulate((a - b for a, b in pairwise(logs)), min))
    return [sum(r >= i for r in ranks) for i in range(ranks[0], 0, -1)]


def fundamental_discriminants(bound: int) -> list[int]:
    """All fundamental discriminants D with -bound < D < 0, descending from -3."""
    return [d for d in range(-3, -bound, -1) if is_fundamental(d)]
