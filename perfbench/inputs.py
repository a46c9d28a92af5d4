"""Seeded inputs for the galab benchmark, and the small oracles that check them.

Nothing here imports galab: the discriminant sampler, the reduced-form count
and the group-literal arithmetic are independent re-implementations, so the
benchmark can check galab's answers against them.  Every generator takes a
``random.Random`` and is deterministic for a given seed.
"""

from __future__ import annotations

import json
import random
from math import gcd, isqrt
from pathlib import Path

#: Builtin split table of galab (class number 2, split group Z/2).
BUILTIN_SPLIT = (-35, -51, -91, -115, -123, -187, -235, -267, -403, -427)
#: Fields that have no type assigned (exit code 2 when classified).
EXCLUDED = (-4, -8)

SMALL_BAND = (3, 3000)  # classgroup-small: 3 <= |D| < 3000
LARGE_BAND = (10 ** 7, 10 ** 8)  # classgroup-large
LARGE_STRATA = 6  # log-uniform strata of LARGE_BAND, one op each per round


# ---------------------------------------------------------------------------
# Integer helpers


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (n < 10^10 here)."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_squarefree(n: int) -> bool:
    return all(e == 1 for e in factorize(abs(n)).values())


def is_fundamental(d: int) -> bool:
    """d is the discriminant of an imaginary quadratic field."""
    if d >= 0:
        return False
    if d % 4 == 1:
        return is_squarefree(d)
    if d % 4 == 0:
        return (d // 4) % 4 in (2, 3) and is_squarefree(d // 4)
    return False


def fundamental_discriminants(lo: int, hi: int) -> list[int]:
    """Fundamental D with lo <= |D| < hi, ordered by |D|."""
    return [d for d in range(-lo, -hi, -1) if is_fundamental(d)]


def sample_fundamental(rng: random.Random, lo: int, hi: int, taken: set[int]) -> int:
    """A fundamental D with lo <= |D| < hi that is not in `taken` (added to it)."""
    while True:
        d = -rng.randrange(lo, hi)
        if d not in taken and is_fundamental(d):
            taken.add(d)
            return d


def large_band_round(rng: random.Random, taken: set[int]) -> list[int]:
    """One round of classgroup-large inputs: one distinct D per log-uniform stratum.

    Stratifying by |D| keeps every round's size mix the same, so the latency
    percentiles of two seeds compare like with like.
    """
    lo, hi = LARGE_BAND
    ratio = (hi / lo) ** (1 / LARGE_STRATA)
    edges = [round(lo * ratio ** i) for i in range(LARGE_STRATA)] + [hi]
    discs = [sample_fundamental(rng, edges[i], edges[i + 1], taken) for i in range(LARGE_STRATA)]
    rng.shuffle(discs)
    return discs


# ---------------------------------------------------------------------------
# Reduced forms and group literals


def reduced_forms(d: int) -> list[tuple[int, int, int]]:
    """Reduced forms of discriminant d, enumerated by a (cost about |d|/6)."""
    out = []
    for a in range(1, isqrt(-d // 3) + 1):
        for b in range(-a + 1, a + 1):
            if (b - d) % 2 or (b * b - d) % (4 * a):
                continue
            c = (b * b - d) // (4 * a)
            if c < a or (c == a and b < 0) or gcd(gcd(a, b), c) != 1:
                continue
            out.append((a, b, c))
    out.sort()
    return out


def is_reduced(a: int, b: int, c: int) -> bool:
    if not (abs(b) <= a <= c):
        return False
    return not ((abs(b) == a or a == c) and b < 0)


def prime_powers(orders) -> list[int]:
    """Ascending prime-power factors of a direct sum of cyclic groups."""
    out = []
    for n in orders:
        out.extend(p ** e for p, e in factorize(n).items())
    return sorted(out)


def literal(orders) -> str:
    """Canonical group literal: ascending prime-power orders, "1" if trivial."""
    pp = prime_powers(orders)
    return ",".join(map(str, pp)) if pp else "1"


def literal_orders(text: str) -> list[int]:
    return [] if text in ("", "1") else [int(x) for x in text.split(",")]


def without_prime(orders, p: int) -> list[int]:
    return [q for q in prime_powers(orders) if q % p]


def order_of(text: str) -> int:
    n = 1
    for q in literal_orders(text):
        n *= q
    return n


# ---------------------------------------------------------------------------
# Split tables and expected batch documents


def split_table(rng: random.Random, class_numbers: dict[int, int]) -> dict[int, str]:
    """User split entries for about half of the non-builtin discriminants.

    Each entry is Z/p for a prime p dividing h, or the trivial group, so it
    always embeds into the class group.  A few class-number-one fields get an
    entry too; the forced-trivial rule must win over it.
    """
    table = {}
    for d, h in class_numbers.items():
        if d in BUILTIN_SPLIT or rng.random() >= 0.5:
            continue
        if h == 1:
            if rng.random() < 0.5:
                table[d] = "1"
            continue
        primes = sorted(factorize(h))
        table[d] = str(rng.choice(primes + [1]))
    return table


def write_split_table(path: Path, table: dict[int, str]) -> None:
    lines = ["# generated split table"] + [f"{d}: {g}" for d, g in sorted(table.items())]
    path.write_text("\n".join(lines) + "\n")


def split_source(d: int, h: int, table: dict[int, str]) -> tuple[str, str] | None:
    """(source, split literal) as galab resolves it, or None when unavailable."""
    if h == 1:
        return "forced_trivial", "1"
    if d in table:
        return "user_supplied", literal(literal_orders(table[d]))
    if d in BUILTIN_SPLIT:
        return "builtin_table", "2"
    return None


def expected_batch(discs: list[int], class_numbers: dict[int, int], table: dict[int, str]):
    """(cells, error discriminants, exit code) that `galab batch --json` must report."""
    by_split: dict[str, list[int]] = {}
    errors = []
    for d in discs:
        resolved = split_source(d, class_numbers[d], table)
        if resolved is None:
            errors.append(d)
        else:
            by_split.setdefault(resolved[1], []).append(d)
    cells = [
        {"split": s, "discriminants": sorted(set(ds), key=abs)} for s, ds in by_split.items()
    ]
    cells.sort(key=lambda c: abs(c["discriminants"][0]))
    return cells, errors, 3 if errors else 0


# ---------------------------------------------------------------------------
# Descriptor documents


def descriptor(rng: random.Random) -> dict:
    """A random descriptor document, already in galab's canonical form."""
    def card(top: int):
        return "aleph0" if rng.random() < 0.2 else rng.randrange(top)

    locals_ = []
    for p in sorted(rng.sample([2, 3, 5, 7], rng.randrange(1, 4))):
        tower = rng.random() < 0.25
        cyclic = []
        if not tower:
            for k in sorted(rng.sample(range(1, 6), rng.randrange(0, 4))):
                cyclic.append({"exp": k, "mult": card(3) or 1})
        rec = {"prime": p, "local_free_rank": card(3), "full_tower": tower, "cyclic": cyclic}
        if rec["local_free_rank"] or tower or cyclic:
            locals_.append(rec)
    return {
        "kind": rng.choice(["profinite", "discrete"]),
        "free_rank": card(4),
        "all_primes_T": False,
        "locals": locals_,
    }


def truncation(doc: dict, prime: int, max_exp: int, cap: int, free_level: int) -> str:
    """Group literal of the finite model `galab truncate` must print."""
    rec = next((r for r in doc["locals"] if r["prime"] == prime), None)
    if doc["all_primes_T"]:
        rec = {"local_free_rank": rec["local_free_rank"] if rec else 0, "full_tower": True, "cyclic": []}
    elif rec is None:
        rec = {"local_free_rank": 0, "full_tower": False, "cyclic": []}
    mults = {c["exp"]: c["mult"] for c in rec["cyclic"]}
    exps = []
    for k in range(1, max_exp + 1):
        m = "aleph0" if rec["full_tower"] else mults.get(k, 0)
        exps.extend([k] * (cap if m == "aleph0" else min(m, cap)))
    units = [doc["free_rank"], rec["local_free_rank"]]
    count = cap if "aleph0" in units else sum(units)
    if free_level > 0:
        exps.extend([free_level] * count)
    return literal([prime ** e for e in exps])


def write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")
