"""Imaginary quadratic field arithmetic via binary quadratic forms.

Reduced positive-definite forms of a fundamental discriminant represent the
ideal classes of the maximal order; composition is computed by multiplying
the corresponding ideals (an exact 2-column lattice reduction) and reducing
the resulting form.  The class group structure is then read off the
composition table by counting element orders prime by prime.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .arith import factorint
from .errors import BoundExceeded, DiscriminantMismatch, NotFundamental
from .finabelian import FiniteAbelianGroup, _xgcd

# Largest |D| whose reduced forms are enumerated; the work grows like |D|.
MAX_ENUMERATED_DISCRIMINANT = 10 ** 10


def _squarefree(n: int) -> bool:
    if n == 0:
        return False
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


@dataclass(frozen=True)
class Discriminant:
    """A fundamental discriminant of an imaginary quadratic field."""

    value: int

    def __post_init__(self) -> None:
        _require_fundamental(self.value)


def _disc_value(d: int | Discriminant) -> int:
    return d.value if isinstance(d, Discriminant) else int(d)


@dataclass(frozen=True)
class BinaryQuadraticForm:
    """A positive-definite integral binary quadratic form a x^2 + b xy + c y^2."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if self.a <= 0 or self.discriminant() >= 0:
            raise ValueError(f"form ({self.a},{self.b},{self.c}) is not positive definite")

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

    def inverse(self) -> BinaryQuadraticForm:
        """Reduced representative of the inverse class."""
        return reduce_form(BinaryQuadraticForm(self.a, -self.b, self.c))

    def __str__(self) -> str:
        return f"({self.a},{self.b},{self.c})"


def principal_form(d: int | Discriminant) -> BinaryQuadraticForm:
    """The identity class: (1, 0, -D/4) or (1, 1, (1-D)/4)."""
    dv = _disc_value(d)
    b0 = dv % 2
    return BinaryQuadraticForm(1, b0, (b0 * b0 - dv) // 4)


def reduce_form(f: BinaryQuadraticForm) -> BinaryQuadraticForm:
    """The unique reduced form equivalent to f."""
    d = f.discriminant()
    a, b, c = f.a, f.b, f.c
    while True:
        if -a < b <= a:
            if a < c or (a == c and b >= 0):
                break
            a, b, c = c, -b, a
            continue
        # translate b into (-a, a]; c follows from the fixed discriminant
        b = b % (2 * a)
        if b > a:
            b -= 2 * a
        c = (b * b - d) // (4 * a)
    return BinaryQuadraticForm(a, b, c)


def reduced_forms(d: int | Discriminant) -> list[BinaryQuadraticForm]:
    """The complete list of reduced forms of a fundamental discriminant.

    Enumerates b with b = D mod 2 and b^2 <= |D|/3, splits (b^2 - D)/4 into
    a*c with b <= a <= c, and keeps (a, -b, c) only away from the boundary
    edge cases.  The count is the class number.  |D| above
    MAX_ENUMERATED_DISCRIMINANT raises BoundExceeded before any enumeration.
    """
    dv = _require_fundamental(_disc_value(d))
    if -dv > MAX_ENUMERATED_DISCRIMINANT:
        raise BoundExceeded(
            f"|D| = {-dv} exceeds {MAX_ENUMERATED_DISCRIMINANT}, the largest "
            "discriminant whose reduced forms are enumerated"
        )
    out = []
    for b in range(dv % 2, isqrt(-dv // 3) + 1, 2):
        m = (b * b - dv) // 4
        for a in range(max(b, 1), isqrt(m) + 1):
            if m % a:
                continue
            c = m // a
            out.append(BinaryQuadraticForm(a, b, c))
            if 0 < b < a < c:
                out.append(BinaryQuadraticForm(a, -b, c))
    out.sort(key=lambda f: (f.a, f.b, f.c))
    return out


def class_number(d: int | Discriminant) -> int:
    return len(reduced_forms(d))


# ---------------------------------------------------------------------------
# Composition through ideal multiplication
#
# A form (a, b, c) of discriminant D corresponds to the ideal
# Z a + Z (omega - t) with omega = (b0 + sqrt(D))/2, b0 = D mod 2 and
# t = (b + b0)/2.  Multiplying two such ideals gives a sublattice spanned by
# four products; its Hermite basis [n, p + g*omega] has content exactly g,
# and dividing it out returns a form of the product class.


def _hnf_two_columns(rows: list[tuple[int, int]]) -> tuple[int, int, int]:
    """Hermite basis ((n, 0), (p, g)) of the lattice spanned by (x, y) rows."""
    px, py = 0, 0
    for x, y in rows:
        if y == 0:
            continue
        g, s, t = _xgcd(py, y)
        px, py = s * px + t * x, g
    ints = [x for x, y in rows if y == 0]
    for x, y in rows:
        if y:
            q = y // py
            ints.append(x - q * px)
    n = 0
    for x in ints:
        n = gcd(n, x)
    if n == 0 or py == 0:
        raise ValueError("degenerate lattice in ideal product")
    return n, px % n, py


def compose(f: BinaryQuadraticForm, g: BinaryQuadraticForm) -> BinaryQuadraticForm:
    """Gauss composition of classes, as reduced forms."""
    d = f.discriminant()
    if d != g.discriminant():
        raise DiscriminantMismatch(
            f"cannot compose forms of discriminants {d} and {g.discriminant()}"
        )
    b0 = d % 2
    n0 = (b0 * b0 - d) // 4
    t1 = (f.b + b0) // 2
    t2 = (g.b + b0) // 2
    rows = [
        (f.a * g.a, 0),
        (-f.a * t2, f.a),
        (-g.a * t1, g.a),
        (t1 * t2 - n0, b0 - t1 - t2),
    ]
    n, p, content = _hnf_two_columns(rows)
    if n % content or p % content:
        raise ArithmeticError("ideal product content mismatch")
    a = n // content
    t = -(p // content)
    b = 2 * t - b0
    c = (b * b - d) // (4 * a)
    return reduce_form(BinaryQuadraticForm(a, b, c))


def form_power(f: BinaryQuadraticForm, k: int) -> BinaryQuadraticForm:
    """k-th power of a class (k >= 0), square and multiply."""
    if k < 0:
        raise ValueError("negative powers not needed; compose with the inverse instead")
    result = principal_form(f.discriminant())
    base = reduce_form(f)
    while k:
        if k & 1:
            result = compose(result, base)
        base = compose(base, base)
        k >>= 1
    return result


# ---------------------------------------------------------------------------
# Class groups


@dataclass(frozen=True)
class ClassGroup:
    """The form class group of a fundamental discriminant."""

    discriminant: int
    representatives: tuple[BinaryQuadraticForm, ...]
    structure: FiniteAbelianGroup

    @property
    def order(self) -> int:
        return len(self.representatives)

    @property
    def principal(self) -> BinaryQuadraticForm:
        return principal_form(self.discriminant)

    def __str__(self) -> str:
        reps = ", ".join(str(f) for f in self.representatives)
        return f"{self.structure} [{reps}]"


def class_group(d: int | Discriminant) -> ClassGroup:
    """Class group of a fundamental discriminant, structure included.

    The primary structure is recovered from element orders: the number of
    classes killed by p^k determines the socle filtration of the p-part.
    """
    dv = _require_fundamental(_disc_value(d))
    forms = reduced_forms(dv)
    h = len(forms)
    identity = principal_form(dv)
    assert identity in forms, "principal form missing from the reduced list"
    primary: dict[int, list[int]] = {}
    for p, e_top in factorint(h).items():
        socle_logs = [0]
        for k in range(1, e_top + 1):
            killed = sum(1 for f in forms if form_power(f, p ** k) == identity)
            log = 0
            while p ** log < killed:
                log += 1
            if p ** log != killed:
                raise ArithmeticError("socle count is not a prime power; composition is broken")
            socle_logs.append(log)
        # factors with exponent >= k number socle_logs[k] - socle_logs[k-1]
        at_least = [socle_logs[k] - socle_logs[k - 1] for k in range(1, e_top + 1)]
        at_least.append(0)
        exps: list[int] = []
        for k in range(1, e_top + 1):
            exps.extend([k] * (at_least[k - 1] - at_least[k]))
        primary[p] = exps
    structure = FiniteAbelianGroup._from_primary(primary)
    if structure.order != h:
        raise ArithmeticError("structure order disagrees with the class number")
    return ClassGroup(dv, tuple(forms), structure)


def fundamental_discriminants(bound: int) -> list[int]:
    """All fundamental discriminants D with -bound < D < 0, descending from -3."""
    return [d for d in range(-3, -bound, -1) if is_fundamental(d)]
