"""Classification of abelianized absolute Galois groups by their split invariant.

For an imaginary quadratic field (discriminants -4 and -8 excluded) the
isomorphism type decomposes as a free profinite part of rank two, the fixed
torsion tower, and a factor determined uniquely by a finite subgroup of the
class group here called the split group.  Deciding that subgroup in general
is outside this library's scope: it is resolved from data instead, with a
builtin table covering the ten class-number-two discriminants known to have
split group Z/2, a forced-trivial rule for class number one, and optional
user-supplied entries.  A resolved group must embed into the class group,
and that is decided from the class number h where it can be: a p-part Z/p
embeds when p divides h (Cauchy's theorem), a p-part of order above the
p-part of h never does, and only the remaining cases read one Sylow
p-subgroup by composition.  No path lists the reduced forms: h is counted
(`quadfields.class_number`) and a Sylow part, or the structure that a
ContainmentError words, is read from prime forms.  A field of prime class
number p, whose type is 1 or Z/p, is thus classified with no composition.

Global function fields are compared through the analogous invariant triple:
characteristic, the prime-to-p part of the constant field exponent, and the
prime-to-p part of the degree-zero class group.
"""

from __future__ import annotations

import enum
from typing import Iterable, Mapping

from .arith import isprime
from .errors import (
    ContainmentError,
    ExcludedField,
    GalabError,
    InvalidCharacteristic,
    SplitDataUnavailable,
    exit_code_for,
)
from .finabelian import FiniteAbelianGroup, _Record, embeds_in, group_literal
from .quadfields import _structure, _sylow_exponents, class_number

EXCLUDED_DISCRIMINANTS = (-4, -8)

#: Discriminants known to have class number 2 and non-trivial split group.
SPLIT_TABLE_DISCRIMINANTS = (
    -35, -51, -91, -115, -123, -187, -235, -267, -403, -427,
)


_BUILTIN_SPLIT_TABLE = {d: FiniteAbelianGroup(2) for d in SPLIT_TABLE_DISCRIMINANTS}


class SplitSource(enum.Enum):
    BUILTIN_TABLE = "builtin_table"
    USER_SUPPLIED = "user_supplied"
    FORCED_TRIVIAL = "forced_trivial"


class SplitData(_Record):
    """A resolved split group (a FiniteAbelianGroup) and its SplitSource."""

    __slots__ = ("source", "group")


class SplitTable(_Record):
    """User split-group entries layered over the builtin table."""

    __slots__ = ("user",)

    def __init__(self, user: Mapping[int, FiniteAbelianGroup] | None = None) -> None:
        super().__init__({} if user is None else user)

    def lookup(self, discriminant: int) -> SplitData | None:
        if discriminant in self.user:
            return SplitData(SplitSource.USER_SUPPLIED, self.user[discriminant])
        if discriminant in _BUILTIN_SPLIT_TABLE:
            return SplitData(SplitSource.BUILTIN_TABLE, _BUILTIN_SPLIT_TABLE[discriminant])
        return None


def resolve_split_data(
    discriminant: int, h: int, table: SplitTable | None = None
) -> SplitData:
    """Resolve the split group: forced-trivial, then user entry, then builtin.

    `h` is the class number of the discriminant.  A resolved group S must
    embed into the class group, otherwise ContainmentError.  That is decided
    prime by prime of S, with p^v exactly dividing h:
    - a p-part S_p of order above p^v does not embed (nor, so, does any
      S_p with p not dividing h);
    - S_p = Z/p embeds whenever p divides h (Cauchy's theorem);
    - any other S_p embeds when the exponents of the class group's Sylow
      p-subgroup, read by composition, dominate its own.
    No path lists the reduced forms (see `quadfields._prime_forms`), and a
    field of prime class number needs no composition for the split groups 1
    and Z/p.
    """
    if h == 1:
        return SplitData(SplitSource.FORCED_TRIVIAL, FiniteAbelianGroup())
    data = (table or SplitTable()).lookup(discriminant)
    if data is None:
        raise SplitDataUnavailable(
            f"no split data for discriminant {discriminant}; "
            "supply a table entry or use a discriminant with class number 1"
        )
    _require_embedding(data.group, h, discriminant)
    return data


def _require_embedding(split: FiniteAbelianGroup, h: int, d: int) -> None:
    """Raise ContainmentError unless split embeds into the class group of d; see resolve_split_data."""
    for p, exps in split.primary.items():
        v = 0
        while h % p ** (v + 1) == 0:
            v += 1
        if sum(exps) > v:  # |S_p| > p^v, also when p does not divide h
            break
        if exps != (1,) and not embeds_in(
            FiniteAbelianGroup.from_prime_exponents(p, exps),
            FiniteAbelianGroup.from_prime_exponents(p, _sylow_exponents(d, h, p, v)),
        ):
            break
    else:
        return
    raise ContainmentError(
        f"split group {group_literal(split)} does not embed into the "
        f"class group {group_literal(_structure(d, h))} of {d}"
    )


class GaloisAbelianType(_Record):
    """Isomorphism-type invariant of the abelianized absolute Galois group.

    The free rank (two) and the torsion tower ("T" in documents) are
    field-independent constants; two types agree exactly when their split
    groups (FiniteAbelianGroup) do.
    """

    __slots__ = ("split_group",)

    @property
    def free_rank(self) -> int:
        return 2

    def to_document(self) -> dict:
        return {
            "free_rank": self.free_rank,
            "torsion_closure": "T",
            "split": group_literal(self.split_group),
        }


class FieldClassification(_Record):
    """A field's discriminant and class number (ints), its SplitData and its GaloisAbelianType."""

    __slots__ = ("discriminant", "class_number", "split", "abelian_type")

    def to_document(self) -> dict:
        return {
            "discriminant": self.discriminant,
            "class_number": self.class_number,
            "split_source": self.split.source.value,
            "type": self.abelian_type.to_document(),
        }


def classify_field(
    discriminant: int, table: SplitTable | None = None
) -> FieldClassification:
    """Full classification record of one imaginary quadratic field."""
    if discriminant in EXCLUDED_DISCRIMINANTS:
        raise ExcludedField(
            f"discriminant {discriminant} is excluded: no type is assigned to "
            "the Gaussian and 2-adic-ramified quadratic fields"
        )
    h = class_number(discriminant)
    split = resolve_split_data(discriminant, h, table)
    return FieldClassification(discriminant, h, split, GaloisAbelianType(split.group))


def types_isomorphic(t1: GaloisAbelianType, t2: GaloisAbelianType) -> bool:
    """Types agree exactly when their split groups, a type's one field, are isomorphic."""
    return t1 == t2


class BatchError(_Record):
    """A batch item that failed: its discriminant, the error's class name, message and exit code."""

    __slots__ = ("discriminant", "error", "message", "exit_code")

    @classmethod
    def from_exception(cls, discriminant: int, exc: GalabError) -> BatchError:
        return cls(discriminant, type(exc).__name__, str(exc), exit_code_for(exc))

    def to_document(self) -> dict:
        return {
            "discriminant": self.discriminant,
            "error": self.error,
            "message": self.message,
        }


class BatchCell(_Record):
    """One isomorphism class of a batch: its split group and a tuple of discriminants."""

    __slots__ = ("split_group", "discriminants")

    def to_document(self) -> dict:
        return {
            "split": group_literal(self.split_group),
            "discriminants": list(self.discriminants),
        }


class BatchPartition(_Record):
    """A batch's tuple of BatchCell and tuple of BatchError."""

    __slots__ = ("cells", "errors")

    def to_document(self) -> dict:
        return {
            "cells": [c.to_document() for c in self.cells],
            "errors": [e.to_document() for e in self.errors],
        }


def classify_batch(
    discriminants: Iterable[int], table: SplitTable | None = None
) -> BatchPartition:
    """Partition fields into isomorphism classes of their Galois abelian type.

    Items share a cell exactly when their types are isomorphic.  Failing
    items are excluded from the partition and reported in input order; cells
    are ordered by the smallest |D| they contain, discriminants within a
    cell likewise.  A repeated discriminant is classified once per
    occurrence and listed once in its cell, but a failing one is reported
    once per occurrence: [-35, -35, -23, -23] gives the cell (-35,) and two
    -23 errors.
    """
    classified: list[FieldClassification] = []
    errors: list[BatchError] = []
    for d in discriminants:
        try:
            classified.append(classify_field(d, table))
        except GalabError as exc:
            errors.append(BatchError.from_exception(d, exc))
    by_split: dict[FiniteAbelianGroup, list[int]] = {}
    for fc in classified:
        by_split.setdefault(fc.abelian_type.split_group, []).append(fc.discriminant)
    cells = []
    for split, discs in by_split.items():
        discs = sorted(set(discs), key=abs)
        cells.append(BatchCell(split, tuple(discs)))
    cells.sort(key=lambda c: abs(c.discriminants[0]))
    return BatchPartition(tuple(cells), tuple(errors))


# ---------------------------------------------------------------------------
# Global function fields


class FunctionFieldInput(_Record):
    """Invariants of a global function field with exact constant field of size p^n."""

    __slots__ = ("characteristic", "constant_exponent", "class_group_deg0")

    def __init__(
        self, characteristic: int, constant_exponent: int, class_group_deg0: FiniteAbelianGroup
    ) -> None:
        if not isprime(characteristic):
            raise InvalidCharacteristic(f"{characteristic} is not prime")
        if constant_exponent < 1:
            raise ValueError("constant field exponent must be >= 1")
        super().__init__(characteristic, constant_exponent, class_group_deg0)

    @property
    def prime_to_p_exponent(self) -> int:
        n = self.constant_exponent
        while n % self.characteristic == 0:
            n //= self.characteristic
        return n


class FunctionFieldType(_Record):
    """The complete isomorphism invariant of a function field's Galois abelian type."""

    __slots__ = ("characteristic", "prime_to_p_exponent", "nonp_class")

    def __init__(
        self, characteristic: int, prime_to_p_exponent: int, nonp_class: FiniteAbelianGroup
    ) -> None:
        if not isprime(characteristic):
            raise InvalidCharacteristic(f"{characteristic} is not prime")
        if prime_to_p_exponent % characteristic == 0:
            raise ValueError("exponent invariant must be prime to the characteristic")
        if characteristic in nonp_class.primes:
            raise ValueError("class-group invariant must have no p-part")
        super().__init__(characteristic, prime_to_p_exponent, nonp_class)

    def to_document(self) -> dict:
        return {
            "characteristic": self.characteristic,
            "dk": self.prime_to_p_exponent,
            "nonp_class": group_literal(self.nonp_class),
            "descriptor": {
                "free_rank": 1,
                "local_free": {"prime": self.characteristic, "rank": "aleph0"},
                "tower_extension": {"split": group_literal(self.nonp_class)},
            },
        }


def function_field_type(inp: FunctionFieldInput) -> FunctionFieldType:
    """Strip the p-parts: d_K from the exponent, the p-primary part from CL0."""
    return FunctionFieldType(
        inp.characteristic,
        inp.prime_to_p_exponent,
        inp.class_group_deg0.without_prime(inp.characteristic),
    )


def function_field_isomorphic(a: FunctionFieldType, b: FunctionFieldType) -> bool:
    """The three-condition test, on a type's three fields: same p, same d_K, same non-p class."""
    return a == b
