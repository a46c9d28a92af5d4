"""Finite descriptors for profinite and discrete torsion abelian groups.

A descriptor records multiplicities of the building blocks that occur in
this corner of the theory: cyclic groups Z/l^k, the l-adic integers and the
profinite integers on the compact side; Pruefer groups Z(l^infinity) and
Q/Z on the discrete side.  Pontryagin duality swaps the two kinds while
preserving every multiplicity, so it is a computable relabelling here.

The product of all finite cyclic groups (the closure of torsion in the
groups being classified) needs infinitely many factors at every prime; it
is carried by a dedicated "tower" pattern rather than an explicit map:
``full_tower_descriptor()`` marks every prime, ``prime_tower_descriptor(l)``
one prime, both with multiplicity aleph-null at every exponent.
"""

from __future__ import annotations

import json
from typing import Mapping, Union

from .arith import isprime
from .errors import BoundExceeded, FormatError, KindMismatch
from .finabelian import FiniteAbelianGroup, _Record


class Aleph0:
    """The countably infinite multiplicity; absorbing under addition.

    It orders itself above every int and equal to itself, so builtin `min`
    and `max` accept a mix of cardinals.
    """

    _instance: "Aleph0 | None" = None
    __slots__ = ()

    def __new__(cls) -> "Aleph0":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ALEPH0"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Aleph0)

    def __hash__(self) -> int:
        return hash("aleph0")

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __lt__(self, other) -> bool:
        return False

    def __le__(self, other) -> bool:
        return isinstance(other, Aleph0)

    def __gt__(self, other) -> bool:
        return not isinstance(other, Aleph0)

    def __ge__(self, other) -> bool:
        return True


ALEPH0 = Aleph0()

Card = Union[int, Aleph0]

# Largest number of cyclic factors `truncate` will build.
MAX_TRUNCATION_FACTORS = 100_000
# Most decimal digits a factor order l^k of a finite model may have: Python's
# default limit for converting an int to text, which group literals need.
MAX_ORDER_DIGITS = 4300


def _card_ok(c: Card) -> bool:
    return isinstance(c, Aleph0) or (isinstance(c, int) and c >= 0)


def _card_to_json(c: Card):
    return "aleph0" if isinstance(c, Aleph0) else c


def _is_json_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _card_from_json(v) -> Card:
    if v == "aleph0":
        return ALEPH0
    if _is_json_int(v) and v >= 0:
        return v
    raise FormatError(f"bad multiplicity {v!r}: expected a non-negative integer or \"aleph0\"")


def _int_from_json(v, key: str) -> int:
    if _is_json_int(v):
        return v
    raise FormatError(f"bad {key} {v!r}: expected an integer")


def _bool_from_json(v, key: str) -> bool:
    if isinstance(v, bool):
        return v
    raise FormatError(f"bad {key} {v!r}: expected true or false")


class LocalFactors(_Record):
    """Per-prime factor multiplicities of a descriptor.

    `free_rank` counts Z_l factors on the profinite side and Pruefer factors
    on the discrete side.  `cyclic` maps exponent k to the multiplicity of
    Z/l^k.  `full_tower` means multiplicity aleph-null at every k >= 1; the
    cyclic map is then absorbed.
    """

    __slots__ = ("prime", "free_rank", "cyclic", "full_tower")

    def __init__(
        self,
        prime: int,
        free_rank: Card = 0,
        cyclic: tuple[tuple[int, Card], ...] = (),
        full_tower: bool = False,
    ) -> None:
        if not isprime(prime):
            raise ValueError(f"{prime} is not prime")
        if not _card_ok(free_rank):
            raise ValueError("free rank must be a non-negative cardinal")
        if full_tower:
            super().__init__(prime, free_rank, (), full_tower)
            return
        cleaned = []
        seen = set()
        for k, mult in cyclic:
            if k < 1:
                raise ValueError("cyclic exponents must be >= 1")
            if k in seen:
                raise ValueError(f"duplicate exponent {k}")
            seen.add(k)
            if not _card_ok(mult):
                raise ValueError("multiplicity must be a non-negative cardinal")
            if mult != 0:
                cleaned.append((k, mult))
        super().__init__(prime, free_rank, tuple(sorted(cleaned)), full_tower)

    @classmethod
    def make(
        cls,
        prime: int,
        free_rank: Card = 0,
        cyclic: Mapping[int, Card] | None = None,
        full_tower: bool = False,
    ) -> LocalFactors:
        items = tuple(sorted((cyclic or {}).items()))
        return cls(prime, free_rank, items, full_tower)

    @property
    def is_empty(self) -> bool:
        return self.free_rank == 0 and not self.cyclic and not self.full_tower

    def multiplicity(self, exponent: int) -> Card:
        if self.full_tower:
            return ALEPH0
        for k, mult in self.cyclic:
            if k == exponent:
                return mult
        return 0


class _GroupDescriptor(_Record):
    """Shared structure of the two descriptor kinds; canonicalized on build.

    Each kind declares the fields itself: the record methods read the
    `__slots__` of the instance's own class.
    """

    __slots__ = ()

    def __init__(
        self,
        free_rank: Card = 0,
        local_factors: tuple[LocalFactors, ...] = (),
        all_primes_tower: bool = False,
    ) -> None:
        if not _card_ok(free_rank):
            raise ValueError("free rank must be a non-negative cardinal")
        seen = set()
        cleaned = []
        for rec in local_factors:
            if rec.prime in seen:
                raise ValueError(f"duplicate prime {rec.prime}")
            seen.add(rec.prime)
            if all_primes_tower:
                # the tower pattern absorbs any cyclic data at every prime
                rec = LocalFactors(rec.prime, rec.free_rank, (), False)
            if not rec.is_empty:
                cleaned.append(rec)
        super().__init__(free_rank, tuple(sorted(cleaned, key=lambda r: r.prime)), all_primes_tower)

    def local_at(self, prime: int) -> LocalFactors:
        """Effective per-prime record, materializing the tower pattern."""
        for rec in self.local_factors:
            if rec.prime == prime:
                if self.all_primes_tower:
                    return LocalFactors(prime, rec.free_rank, (), True)
                return rec
        if self.all_primes_tower:
            return LocalFactors(prime, 0, (), True)
        return LocalFactors(prime, 0, (), False)


class ProfiniteDescriptor(_GroupDescriptor):
    """Direct product of Z-hat (free_rank), Z_l and cyclic factors."""

    __slots__ = ("free_rank", "local_factors", "all_primes_tower")
    kind = "profinite"


class DiscreteTorsionDescriptor(_GroupDescriptor):
    """Direct sum of Q/Z (free_rank), Pruefer and cyclic factors."""

    __slots__ = ("free_rank", "local_factors", "all_primes_tower")
    kind = "discrete"


Descriptor = Union[ProfiniteDescriptor, DiscreteTorsionDescriptor]


def full_tower_descriptor() -> ProfiniteDescriptor:
    """The product over all n >= 1 of Z/nZ: every prime, every exponent, aleph-null."""
    return ProfiniteDescriptor(0, (), True)


def prime_tower_descriptor(prime: int) -> ProfiniteDescriptor:
    """The l-primary part of the full tower: product over k of (Z/l^k)^aleph0."""
    return ProfiniteDescriptor(0, (LocalFactors(prime, 0, (), True),), False)


def dual_profinite(d: ProfiniteDescriptor) -> DiscreteTorsionDescriptor:
    """Pontryagin dual: products become sums, Z_l becomes Pruefer, Z-hat becomes Q/Z.

    Cyclic factors are self-dual, so every multiplicity is carried over.
    """
    if not isinstance(d, ProfiniteDescriptor):
        raise KindMismatch("dual_profinite expects a profinite descriptor")
    return DiscreteTorsionDescriptor(*d._values())


def dual_discrete(d: DiscreteTorsionDescriptor) -> ProfiniteDescriptor:
    """Inverse relabelling; dual_discrete(dual_profinite(d)) == d exactly."""
    if not isinstance(d, DiscreteTorsionDescriptor):
        raise KindMismatch("dual_discrete expects a discrete torsion descriptor")
    return ProfiniteDescriptor(*d._values())


def truncate(
    d: Descriptor,
    prime: int,
    max_exp: int,
    mult_cap: int,
    free_level: int,
) -> FiniteAbelianGroup:
    """Finite model of the prime-l data of a descriptor.

    Each cyclic Z/l^k with k <= max_exp contributes min(mult, mult_cap)
    factors; each free unit (Z-hat, Q/Z, Z_l or Pruefer) contributes one
    factor Z/l^free_level.  Infinite free ranks saturate at mult_cap.
    A model of more than MAX_TRUNCATION_FACTORS factors, or with a factor
    order of more than MAX_ORDER_DIGITS digits, raises BoundExceeded before
    anything is built.
    """
    if max_exp < 0 or mult_cap < 0 or free_level < 0:
        raise ValueError("truncation parameters must be non-negative")
    rec = d.local_at(prime)
    units: Card = d.free_rank + rec.free_rank
    if free_level == 0:
        unit_count = 0
    else:
        unit_count = mult_cap if isinstance(units, Aleph0) else units
    # Size the model before building it: the tower puts mult_cap factors at
    # every exponent up to max_exp, however large either is.
    if rec.full_tower:
        blocks = ((k, mult_cap) for k in range(1, max_exp + 1 if mult_cap else 1))
        size = max_exp * mult_cap
        top = max_exp if mult_cap else 0
    else:
        blocks = [(k, min(m, mult_cap)) for k, m in rec.cyclic if k <= max_exp]
        size = sum(count for _, count in blocks)
        top = max((k for k, count in blocks if count), default=0)
    size += unit_count
    if unit_count:
        top = max(top, free_level)
    if size > MAX_TRUNCATION_FACTORS:
        raise BoundExceeded(
            f"the finite model would have {size} cyclic factors; "
            f"the limit is {MAX_TRUNCATION_FACTORS}"
        )
    # l^top has more than MAX_ORDER_DIGITS digits iff l^top >= 10^MAX_ORDER_DIGITS;
    # l^top >= 2^(top * (bits - 1)) settles large exponents without the power
    bits = prime.bit_length()
    if top * (bits - 1) > 4 * MAX_ORDER_DIGITS or prime ** top >= 10 ** MAX_ORDER_DIGITS:
        raise BoundExceeded(
            f"the finite model's largest factor {prime}^{top} would have more than "
            f"{MAX_ORDER_DIGITS} digits"
        )
    exps = [k for k, count in blocks for _ in range(count)]
    exps.extend([free_level] * unit_count)
    return FiniteAbelianGroup.from_prime_exponents(prime, exps)


# ---------------------------------------------------------------------------
# Serialization: a canonical JSON document that round-trips bit-exactly


def descriptor_to_document(d: Descriptor) -> dict:
    return {
        "kind": d.kind,
        "free_rank": _card_to_json(d.free_rank),
        "all_primes_T": d.all_primes_tower,
        "locals": [
            {
                "prime": rec.prime,
                "local_free_rank": _card_to_json(rec.free_rank),
                "full_tower": rec.full_tower,
                "cyclic": [
                    {"exp": k, "mult": _card_to_json(m)} for k, m in rec.cyclic
                ],
            }
            for rec in d.local_factors
        ],
    }


def descriptor_from_document(doc: Mapping) -> Descriptor:
    try:
        kind = doc["kind"]
        if kind == "profinite":
            cls: type = ProfiniteDescriptor
        elif kind == "discrete":
            cls = DiscreteTorsionDescriptor
        else:
            raise FormatError(f"unknown descriptor kind {kind!r}")
        free = _card_from_json(doc["free_rank"])
        recs = []
        for entry in doc.get("locals", []):
            cyclic = tuple(
                (_int_from_json(c["exp"], "exp"), _card_from_json(c["mult"]))
                for c in entry.get("cyclic", [])
            )
            recs.append(
                LocalFactors(
                    _int_from_json(entry["prime"], "prime"),
                    _card_from_json(entry.get("local_free_rank", 0)),
                    cyclic,
                    _bool_from_json(entry.get("full_tower", False), "full_tower"),
                )
            )
        all_primes = _bool_from_json(doc.get("all_primes_T", False), "all_primes_T")
        return cls(free, tuple(recs), all_primes)
    except FormatError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed descriptor document: {exc}") from exc


def descriptor_to_text(d: Descriptor) -> str:
    return json.dumps(descriptor_to_document(d), sort_keys=True, separators=(",", ":")) + "\n"


def descriptor_from_text(text: str) -> Descriptor:
    # JSONDecodeError is a ValueError, as is an integer past Python's digit limit;
    # deep nesting exhausts the decoder's recursion
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"descriptor document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("descriptor document must be a JSON object")
    return descriptor_from_document(doc)
