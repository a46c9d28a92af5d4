"""Extension experiments at finite truncation.

The questions here concern extensions 0 -> A -> B -> C_1 + C_2 + ... -> 0 of
a growing sum of cyclic l-groups by a fixed finite l-group A, where A must
consist of the divisible elements of B.  Infinitely many cyclic summands
cannot be enumerated, so the divisibility condition is replaced by the
parametric constraint "A sits inside l^m B"; the largest m at which any
candidate survives is the saturation level.  Whether an abelian l-group B of
the forced order survives, and up to which level, is decided in closed form
from the types of B, A and the quotient sum (Green's theorem on Hall
polynomials), so the reports are exact.  Only the types that contain the
quotient sum's are visited; every other B fails at level 0.  No level needs
a scan over m: one Littlewood-Richardson test per type decides whether it
survives at all, and its level is read off the first part where it leaves
the quotient sum's type (see `_survival_level`).  The saturation level is
the r-th largest quotient exponent for A of rank r (see `_saturation`).  A
subgroup search runs only for the classes a report returns, to find the
canonical witness copy of A.  A uniqueness sweep reads its counts from the
levels and searches only the survivors at saturation.  A diagram check is
decided from the types as well; it builds elements, and searches a model
for its witness, only to name a failure.
"""

from __future__ import annotations

from itertools import zip_longest
from math import gcd
from typing import Iterable, Iterator, Sequence

from .arith import isprime
from .errors import BoundExceeded
from .finabelian import (
    FiniteAbelianGroup,
    GroupElement,
    _Record,
    group_literal,
    l_subgroups,
    partitions_desc,
    power_and_socle,
    quotient,
)

DEFAULT_ENUMERATION_BOUND = 2 ** 10


class TruncationSpec(_Record):
    """A finite shadow of the extension problem.

    `sub` is the group glued in at the bottom, `quotient_exponents` the
    strictly ascending exponents k of the cyclic summands Z/l^k on top, and
    `div_level` the divisibility constraint m (sub contained in l^m B).
    """

    __slots__ = ("prime", "sub", "quotient_exponents", "div_level")

    def __init__(
        self,
        prime: int,
        sub: FiniteAbelianGroup,
        quotient_exponents: tuple[int, ...],
        div_level: int = 0,
    ) -> None:
        if not isprime(prime):
            raise ValueError(f"{prime} is not prime")
        exps = tuple(quotient_exponents)
        if any(e < 1 for e in exps):
            raise ValueError("quotient exponents must be >= 1")
        if any(a >= b for a, b in zip(exps, exps[1:])):
            raise ValueError("quotient exponents must be strictly ascending")
        if any(p != prime for p in sub.primes):
            raise ValueError(f"sub group must be a {prime}-group")
        if div_level < 0:
            raise ValueError("div_level must be non-negative")
        super().__init__(prime, sub, exps, div_level)

    @property
    def quotient_group(self) -> FiniteAbelianGroup:
        return FiniteAbelianGroup.from_prime_exponents(self.prime, self.quotient_exponents)

    @property
    def total_order(self) -> int:
        return self.sub.order * self.quotient_group.order


class SurvivorClass(_Record):
    """One isomorphism class of surviving extensions, with its witness.

    `sub_generators`, GroupElements, generate a copy of the sub inside `group`
    that is contained in l^max_level * group and has the required quotient;
    `quotient_form` re-records that quotient's canonical FiniteAbelianGroup.
    """

    __slots__ = ("group", "sub_generators", "quotient_form", "max_level")


class ExtensionReport(_Record):
    """A TruncationSpec, a tuple of SurvivorClass and the (level, count) pairs of its survivors."""

    __slots__ = ("spec", "classes", "level_counts")

    @property
    def counts(self) -> dict[int, int]:
        return dict(self.level_counts)

    @property
    def saturation_level(self) -> int:
        """Largest m with a surviving class (-1 if nothing ever survives)."""
        levels = [m for m, c in self.level_counts if c > 0]
        return max(levels, default=-1)

    def survivors_at(self, level: int) -> tuple[SurvivorClass, ...]:
        """The classes surviving at `level`; only those at or above the spec's div_level are kept."""
        if level < self.spec.div_level:
            raise ValueError(f"level {level} is below the spec's div_level {self.spec.div_level}")
        return tuple(c for c in self.classes if c.max_level >= level)

    def to_document(self) -> dict:
        return {
            "spec": {
                "prime": self.spec.prime,
                "sub": group_literal(self.spec.sub),
                "quotient_exponents": list(self.spec.quotient_exponents),
                "div_level": self.spec.div_level,
            },
            "level_counts": {str(m): c for m, c in self.level_counts},
            "saturation_level": self.saturation_level,
            "classes": [
                {
                    "group": group_literal(c.group),
                    "max_level": c.max_level,
                    "sub_generators": [list(g.coords) for g in c.sub_generators],
                    "quotient": group_literal(c.quotient_form),
                }
                for c in self.classes
            ],
        }


def _outside_multiple(
    witness: Sequence[GroupElement], mult: int
) -> tuple[GroupElement, int] | None:
    """A witness generator outside mult*B and a coordinate where it fails, or None.

    Membership in mult*B is coordinatewise (x_i divisible by gcd(mult, d_i)),
    and mult*B is a subgroup, so the sub-copy lies in it iff every generator does.
    """
    for s in witness:
        for i, (c, d) in enumerate(zip(s.coords, s.group.factor_orders)):
            if c % gcd(mult, d):
                return s, i
    return None


def _lr_nonzero(lam: tuple[int, ...], mu: tuple[int, ...], nu: tuple[int, ...]) -> bool:
    """True iff the Littlewood-Richardson coefficient c^lam_{mu,nu} is non-zero.

    Searches for one LR tableau: a filling of the skew shape lam/mu with nu_1
    ones, nu_2 twos, ..., rows weakly increasing, columns strictly increasing,
    whose reverse reading word (rows top to bottom, each read right to left)
    is a lattice word.
    """
    if sum(lam) != sum(mu) + sum(nu) or len(mu) > len(lam):
        return False
    if any(a > b for a, b in zip(mu, lam)):
        return False
    inner = mu + (0,) * (len(lam) - len(mu))
    cells = [(i, j) for i, row in enumerate(lam) for j in range(row - 1, inner[i] - 1, -1)]
    filling: dict[tuple[int, int], int] = {}
    used = [0] * len(nu)

    def place(k: int) -> bool:
        if k == len(cells):
            return True
        i, j = cells[k]
        # the cell to the right is filled before this one; the cell above only if in lam/mu
        top = filling.get((i, j + 1), len(nu) - 1)
        for v in range(filling.get((i - 1, j), -1) + 1, top + 1):
            if used[v] == nu[v] or (v and used[v - 1] == used[v]):
                continue
            filling[i, j] = v
            used[v] += 1
            if place(k + 1):
                return True
            used[v] -= 1
        filling.pop((i, j), None)
        return False

    return place(0)


def _survival_level(
    lam: tuple[int, ...], mu: tuple[int, ...], nu: tuple[int, ...]
) -> int | None:
    """Highest m at which an l-group of type lam survives, in closed form (None if never).

    B of type lam has a subgroup S of type mu inside l^m B with B/S of type nu
    exactly when (i) lam and nu agree once capped at m, and (ii) the
    Littlewood-Richardson coefficient c^{(lam-m)+}_{mu,(nu-m)+} is non-zero,
    (p-m)+ being the positive parts of p less m.  With G = B/S, G/l^m G =
    B/l^m B and l^m G = l^m B / S, and these two determine the type of G; by
    Green's theorem a subgroup of type mu with quotient of type (nu-m)+
    exists in l^m B, of type (lam-m)+, exactly when (ii) holds (Macdonald,
    Symmetric Functions and Hall Polynomials, II.4).

    So one LR test, the one at m = 0, decides every level.  First, (i) at m
    says that wherever lam_i != nu_i both are >= m, so it holds exactly for
    m up to L, the least min(lam_i, nu_i) over the parts where lam and nu
    differ (lam_1 when lam = nu: then l^m B = 0 from m = lam_1 on, and the
    level stops there).  Second, under (i) at m every cell of lam/nu lies in
    a column > m, so (lam-m)+ / (nu-m)+ is the skew diagram lam/nu shifted m
    columns left.  A skew Schur function does not change under translation,
    so c^{(lam-m)+}_{(nu-m)+,mu} = c^lam_{nu,mu}, and (ii) at m is the test
    at m = 0.  LR coefficients are symmetric in their lower indices, and the
    tableau search fills lam/nu, |mu| cells, where lam/mu would have |nu|.
    """
    if not _lr_nonzero(lam, nu, mu):
        return None
    parted = (min(a, b) for a, b in zip_longest(lam, nu, fillvalue=0) if a != b)
    return min(parted, default=lam[0] if lam else 0)


def _survival_levels(spec: TruncationSpec) -> Iterator[tuple[tuple[int, ...], int]]:
    """(type, level) of each l-group of the spec's order that survives at some level.

    A type lam survives at all only if c^lam_{mu,nu} != 0, which needs nu
    inside lam, lam_1 <= mu_1 + nu_1 and len(lam) <= len(mu) + len(nu).
    The partitions are listed from nu up, so no other lam is visited but
    those too long, which the length test drops.  Each candidate costs one
    LR test, and its level is read off where it parts from nu.
    """
    mu = spec.sub.exponents_at(spec.prime)
    nu = spec.quotient_exponents[::-1]
    top = (mu[0] if mu else 0) + (nu[0] if nu else 0)
    for part in partitions_desc(sum(mu) + sum(nu), top, nu):
        if len(part) <= len(mu) + len(nu):
            level = _survival_level(part, mu, nu)
            if level is not None:
                yield part, level


def _saturation(spec: TruncationSpec) -> int:
    """Largest level at which some l-group survives, in closed form.

    Let the sub have type mu of rank r, and let k_1 < ... < k_n be the
    quotient exponents, nu = (k_n, ..., k_1).  The level is k_n for the
    trivial sub (0 when n = 0), k_(n-r+1), the r-th largest exponent, when
    n >= r, and 0 otherwise; never -1.  By the criterion of `_survival_level`:
    necessity, m >= 1: (ii) needs mu inside (lam-m)+, so r <= #{lam_i > m}
    <= #{lam_i >= m}, and by (i) that count is #{nu_i >= m}; nu has distinct
    parts, so m <= k_(n-r+1).  Sufficiency: take alpha = (nu-m)+ and let lam
    be the parts of nu below m, then (alpha+mu)_i + m, then m repeated up to
    #{nu_i >= m} parts.  This lam has the forced size, satisfies (i), and
    c^{alpha+mu}_{alpha,mu} = 1, so it survives at m, and its level is at
    least m.  For the trivial sub (ii) forces lam = nu, which survives up to
    lam_1 = k_n.
    """
    r = len(spec.sub.exponents_at(spec.prime))
    ks = spec.quotient_exponents
    if r == 0:
        return ks[-1] if ks else 0
    return ks[-r] if len(ks) >= r else 0


def _witness(b: FiniteAbelianGroup, spec: TruncationSpec, level: int) -> tuple[GroupElement, ...]:
    """The first copy of the sub, in canonical order, inside l^level B with the right quotient.

    The copies are met lazily, in ascending order of their sorted element
    tuples, in l^level B built as its own group, factors d_i / l^level, and
    mapped back by z -> l^level z.  That map is injective, coordinatewise
    monotone and keeps element orders, so the copies come in the order, and
    get the canonical generators, of a search in B filtered to l^level B.
    Each copy is tested through those generators, and the first copy S with
    B/S isomorphic to the quotient sum is returned.
    """
    l = spec.prime
    scale = l ** level
    mu = spec.sub.exponents_at(l)
    inner = FiniteAbelianGroup.from_prime_exponents(l, [e - level for e in b.exponents_at(l)])
    pad = (0,) * (len(b.factor_orders) - len(inner.factor_orders))
    c_group = spec.quotient_group
    for generators in l_subgroups(inner, l, mu):
        witness = tuple(GroupElement(b, tuple(scale * z for z in c) + pad) for c in generators)
        if quotient(b, witness) == c_group:
            return witness
    raise AssertionError(f"{b} survives at level {level} of {spec} but has no witness there")


def _check_bound(spec: TruncationSpec, bound: int) -> None:
    if bound < 1:
        raise ValueError(f"the enumeration bound must be >= 1, got {bound}")
    # l >= 2, so l^n > bound once n reaches the bit length of bound.  l^n is built, and
    # printed in full, only for n below twice that length; beyond, n alone decides.
    l = spec.prime
    n = sum(spec.sub.exponents_at(l)) + sum(spec.quotient_exponents)
    order = l ** n if n < 2 * bound.bit_length() else None
    if order is None or order > bound:
        raise BoundExceeded(
            f"search space of order {order or f'{l}^{n}'} exceeds the enumeration bound {bound}"
        )


def enumerate_extensions(
    spec: TruncationSpec, bound: int = DEFAULT_ENUMERATION_BOUND
) -> ExtensionReport:
    """Exhaustively classify the extensions admitted by a truncation spec.

    Every abelian l-group of the forced order is decided, most of them by
    the candidate listing alone; a candidate B survives at level m when some subgroup S isomorphic to the sub lies in
    l^m B with B/S isomorphic to the cyclic sum.  `level_counts` holds the
    number of survivors at every level up to saturation, read off the
    closed-form levels; `classes` the survivors at the spec's own div_level,
    and only these are searched for their witnesses.
    """
    _check_bound(spec, bound)
    c_group = spec.quotient_group
    # equal order and prime: ascending types sort as the groups' sort_key does
    survivors = sorted(_survival_levels(spec))
    top = max((level for _, level in survivors), default=-1)
    counts = tuple(
        (m, sum(1 for _, level in survivors if level >= m)) for m in range(top + 1)
    )
    classes = []
    for part, level in survivors:
        if level >= spec.div_level:
            b = FiniteAbelianGroup.from_prime_exponents(spec.prime, part)
            classes.append(SurvivorClass(b, _witness(b, spec, level), c_group, level))
    return ExtensionReport(spec, tuple(classes), counts)


# ---------------------------------------------------------------------------
# Canonical construction


def canonical_extension_with_witness(
    spec: TruncationSpec,
) -> tuple[FiniteAbelianGroup, tuple[GroupElement, ...]]:
    """The canonical glued extension and the embedded copy of the sub.

    Presentation: one generator a_j per cyclic factor of the sub (order
    l^e_j) and one generator x_i per quotient exponent k_i, with relations
    l^e_j a_j = 0 and l^k_i x_i = a_j(i), the x_i assigned to the a_j round
    robin.  Say a_j gets the x_i with exponents k_1 < ... < k_t.  Then
    y_i = x_i - l^(k_t - k_i) x_t has order l^k_i, so that part of the
    presentation is Z/l^(e_j + k_t) on x_t, with a_j = l^k_t x_t, plus
    Z/l^k_i on y_i for each i < t.  An a_j with no x_i stays Z/l^e_j; with a
    trivial sub the x_i stay free cyclic summands.  The witness places each
    a_j in the group's canonical coordinates, exponents descending.
    """
    l = spec.prime
    sub = spec.sub.exponents_at(l)
    if not sub:
        return spec.quotient_group, ()
    summands = []  # (exponent, j): a cyclic summand, carrying a_j when j >= 0
    multiples = []  # a_j = multiples[j] * the generator of its summand
    for j, e in enumerate(sub):
        ks = spec.quotient_exponents[j::len(sub)]
        top = ks[-1] if ks else 0
        summands.append((e + top, j))
        multiples.append(l ** top)
        summands += [(k, -1) for k in ks[:-1]]
    summands.sort(key=lambda t: -t[0])
    group = FiniteAbelianGroup.from_prime_exponents(l, [e for e, _ in summands])
    slot = {j: i for i, (_, j) in enumerate(summands) if j >= 0}
    witness = tuple(
        GroupElement(group, tuple(multiples[j] if i == slot[j] else 0 for i in range(len(summands))))
        for j in range(len(sub))
    )
    return group, witness


def canonical_extension_group(spec: TruncationSpec) -> FiniteAbelianGroup:
    """Canonical form of the glued extension for a truncation spec."""
    return canonical_extension_with_witness(spec)[0]


# ---------------------------------------------------------------------------
# Uniqueness sweeps


class UniquenessCase(_Record):
    """Exponents, (level, count) pairs, saturation level, surviving and canonical groups, verdict."""

    __slots__ = (
        "exponents", "level_counts", "saturation_level", "survivors", "canonical", "passed"
    )

    def to_document(self) -> dict:
        return {
            "exponents": list(self.exponents),
            "level_counts": {str(m): c for m, c in self.level_counts},
            "saturation_level": self.saturation_level,
            "classes_at_saturation": [group_literal(g) for g in self.survivors],
            "canonical": group_literal(self.canonical),
            "passed": self.passed,
        }


class UniquenessReport(_Record):
    """A sweep's prime, sub group and tuple of UniquenessCase."""

    __slots__ = ("prime", "sub", "cases")

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def to_document(self) -> dict:
        return {
            "prime": self.prime,
            "sub": group_literal(self.sub),
            "cases": [c.to_document() for c in self.cases],
            "all_passed": self.all_passed,
        }


def verify_uniqueness(
    prime: int,
    sub: FiniteAbelianGroup,
    exponent_lists: Iterable[Sequence[int]],
    bound: int = DEFAULT_ENUMERATION_BOUND,
) -> UniquenessReport:
    """Sweep the divisibility level for each exponent list and check uniqueness.

    A case passes when exactly one isomorphism class survives at the
    saturation level and it equals the canonical glued extension.  The
    saturation level is read off the exponents (`_saturation`), so each case
    lists the candidate types once, inside `enumerate_extensions` at that
    level, with one LR test each, and only the survivors there are searched
    for witnesses.

    The verdict follows a rule, here proven: a case passes exactly when the
    sub is trivial, or there are no exponents (n = 0), or the sub is
    homocyclic, (Z/l^e)^r, with n >= r.  Let mu be the sub's type, of rank r,
    nu = (k_n, ..., k_1) and s the saturation level.  The canonical B
    survives at s (`verify_diagram` shows its sub-copy lies in l^s B), so a
    case passes exactly when one class survives at s.  By the criterion
    (i), (ii) of `_survival_level`:
    - n >= r >= 1.  s = k_(n-r+1), so nu has exactly r parts >= s, and (i)
      at s makes lam's parts below s those of nu and leaves lam exactly r
      parts >= s.  So lam <-> alpha = (lam - s)+, with len(alpha) <= r, is a
      bijection from the classes at s onto the alpha with c^alpha_{mu,beta}
      != 0, beta = (nu - s)+ (its inverse adds s to r parts of alpha and
      appends nu's parts below s): onto the terms of s_mu * s_beta in r
      variables.  len(beta) <= r - 1, and the k are distinct, so beta_i >= 1
      for i < r.  A homocyclic mu = (e^r) has s_mu(x_1..x_r) = (x_1...x_r)^e,
      so the one term mu + beta.  Any other mu has r >= 2, and besides
      mu + beta the term mu + beta - e_j + e_r, j the number of parts of mu
      above mu_r: with mu' = mu - (mu_r^r), of length j, c^alpha_{mu,beta} =
      c^(alpha - (mu_r^r))_{mu',beta}, and the skew shape
      (mu' + beta - e_j + e_r)/beta has mu'_i cells in row i < j, mu'_j - 1
      in row j and one in row r, in column 1, below beta.  Row i filled with
      i's and the row-r cell with j is semistandard, has content mu' and a
      lattice reverse reading word, mu' being a partition.  Two classes.
    - 1 <= n < r.  s = 0, and c^lam_{mu,nu} = 1 for lam = mu + nu and for
      lam = mu U nu (the parts of both), of r and r + n parts.  Two classes.
    - n = 0, or a trivial sub.  (ii) forces lam = mu, or lam = nu: one class.
    """
    cases = []
    for exps in exponent_lists:
        spec = TruncationSpec(prime, sub, tuple(exps), 0)
        sat = _saturation(spec)
        report = enumerate_extensions(TruncationSpec(prime, sub, spec.quotient_exponents, sat), bound)
        survivors = tuple(s.group for s in report.classes)
        canonical = canonical_extension_group(spec)
        passed = len(survivors) == 1 and survivors[0] == canonical
        cases.append(
            UniquenessCase(
                tuple(exps), report.level_counts, sat, survivors, canonical, passed
            )
        )
    return UniquenessReport(prime, sub, tuple(cases))


# ---------------------------------------------------------------------------
# Diagram checks on the dual model


class DiagramCheck(_Record):
    __slots__ = ("passed", "reason", "counterexample")

    def __init__(
        self, passed: bool, reason: str | None = None, counterexample: GroupElement | None = None
    ) -> None:
        super().__init__(passed, reason, counterexample)

    def __bool__(self) -> bool:
        return self.passed


def _fail(reason: str, witness: GroupElement | None = None) -> DiagramCheck:
    return DiagramCheck(False, reason, witness)


def verify_diagram(
    prime: int,
    sub: FiniteAbelianGroup,
    spec: TruncationSpec,
    n: int,
    model: FiniteAbelianGroup | None = None,
    bound: int = DEFAULT_ENUMERATION_BOUND,
) -> DiagramCheck:
    """Check the multiplication-by-l^n identities on the truncated dual model.

    B is the canonical glued extension (or `model` with its best witness) and
    S the sub-copy; its dual D = Hom(B, Q/Z) carries the annihilator T of S
    (the dual of the cyclic-sum quotient) with D/T isomorphic to the sub.
    Checks: every element of S is divisible by l^m in B for all m up to the
    saturation level of the spec's enumeration, the l^n-socles of D and T
    have equal size, and the composite from D's socle to the sub is zero.
    Under the perfect pairing D[l^n] is the annihilator of l^n B, and
    T[l^n] is contained in D[l^n], so the last two hold exactly when S lies
    in l^n B; the socle sizes are read off the invariants of B and of the
    quotient.  On failure the offending element is reported: an element of
    S outside l^m B, or a character in D[l^n] that is non-zero on S.

    Whether the check passes is decided from the types alone, by one rule,
    and elements are built only to name a failure.  Let s be the saturation
    level (`_saturation`) and L the level of B: s for the canonical B, and
    for a model its `_survival_level` (a model with none fails at once).
    The check passes exactly when the sub is trivial, or L = s and n <= s.
    Proof: the witness lies in l^L B and not in l^(L+1) B.  For a model,
    else B would survive at L + 1.  For the canonical B, a_j is l^top_j
    times the generator of a Z/l^(e_j+top_j) summand, so it lies in l^m B
    exactly when m <= top_j; the round robin tops each a_j with one of the
    r largest quotient exponents, or 0 if there are fewer, so min_j top_j =
    k_(n-r+1) = s.  So the divisibility checks up to s first fail at L + 1
    when L < s, and all hold when L = s, when S lies in l^n B exactly for
    n <= s.  B's exponent exceeds L: past s, S is not in l^min(n, exp B) B.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if prime != spec.prime or sub != spec.sub:
        raise ValueError("spec is inconsistent with the given prime and sub group")
    _check_bound(spec, bound)
    saturation = level = _saturation(spec)
    if model is not None:
        level = None
        if model.order == spec.total_order:
            mu, nu = sub.exponents_at(prime), spec.quotient_exponents[::-1]
            level = _survival_level(model.exponents_at(prime), mu, nu)
        if level is None:
            return _fail("model admits no sub-copy with the required quotient")
    if sub.is_trivial or (level == saturation and n <= saturation):
        return DiagramCheck(True)
    if model is None:
        b, witness = canonical_extension_with_witness(spec)
    else:
        b, witness = model, _witness(model, spec, level)

    # for L < s the check at m = L + 1 fails first; else every answer is the one at
    # depth min(n, e), e = exp B: past e, l^n B = 0, B[l^n] = B and C's exponents are <= e
    mult = prime ** (level + 1 if level < saturation else min(n, b.exponents_at(prime)[0]))
    hit = _outside_multiple(witness, mult)
    if hit is None:
        raise AssertionError(f"the types fail {spec} at {prime}^{n} on {b}, but the witness passes")
    if level < saturation:
        return _fail(f"sub element not divisible by {prime}^{level + 1} in the model", hit[0])
    # characters of B are coordinate vectors under <c, x> = sum (e/d_i) c_i x_i mod e;
    # (d_i / gcd(d_i, l^n)) e_i is killed by l^n and pairs non-trivially with s
    s, i = hit
    d = b.factor_orders[i]
    chi = tuple(d // gcd(d, mult) if j == i else 0 for j in range(len(s.coords)))
    dual_size = power_and_socle(b, mult)[1].order
    tower_size = power_and_socle(spec.quotient_group, mult)[1].order
    return _fail(
        f"socle sizes differ at {prime}^{n}: dual has {dual_size}, tower has {tower_size}",
        GroupElement(b, chi),
    )
