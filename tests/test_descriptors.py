"""Tests for profinite/discrete descriptors, duality and truncation."""

from __future__ import annotations

import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galab.descriptors import (
    ALEPH0,
    MAX_ORDER_DIGITS,
    MAX_TRUNCATION_FACTORS,
    Aleph0,
    DiscreteTorsionDescriptor,
    LocalFactors,
    ProfiniteDescriptor,
    card_min,
    descriptor_from_document,
    descriptor_from_text,
    descriptor_to_document,
    descriptor_to_text,
    dual_discrete,
    dual_profinite,
    full_tower_descriptor,
    prime_tower_descriptor,
    truncate,
)
from galab.errors import BoundExceeded, FormatError, KindMismatch
from galab.finabelian import FiniteAbelianGroup, dual_finite

G = FiniteAbelianGroup


def is_direct_summand_of(a: FiniteAbelianGroup, g: FiniteAbelianGroup) -> bool:
    """True iff G = A + (something): multiset containment of primary factors."""
    return all(not Counter(a.exponents_at(p)) - Counter(g.exponents_at(p)) for p in a.primes)


# -- cardinal arithmetic -------------------------------------------------------


def test_aleph0_semantics():
    assert Aleph0() is ALEPH0
    assert ALEPH0 + 5 == ALEPH0
    assert 5 + ALEPH0 == ALEPH0
    assert ALEPH0 > 10 ** 9
    assert not ALEPH0 < 3
    assert ALEPH0 >= ALEPH0 and ALEPH0 <= ALEPH0
    assert card_min(ALEPH0, 4) == 4
    assert card_min(3, ALEPH0) == 3
    assert card_min(ALEPH0, ALEPH0) == ALEPH0
    assert card_min(2, 7) == 2
    assert repr(ALEPH0) == "ALEPH0"


# -- tower descriptors -----------------------------------------------------------


def test_full_tower_multiplicities():
    t = full_tower_descriptor()
    # every exponent at every prime occurs with infinite multiplicity
    assert t.local_at(2).multiplicity(3) == ALEPH0
    assert t.local_at(97).multiplicity(1) == ALEPH0
    assert t.free_rank == 0
    assert t.local_at(3) == prime_tower_descriptor(3).local_at(3)
    # a local record under the tower keeps its free rank and takes the tower
    towered = ProfiniteDescriptor(0, (LocalFactors.make(5, 2, {1: 3}),), True)
    assert towered.local_at(5) == LocalFactors(5, 2, (), True)
    # off the tower a multiplicity is read from the cyclic map, 0 where absent
    finite = LocalFactors.make(5, 0, {1: 3, 4: ALEPH0})
    assert [finite.multiplicity(k) for k in (1, 2, 4)] == [3, 0, ALEPH0]


def test_prime_tower_restriction():
    t3 = prime_tower_descriptor(3)
    assert t3.local_at(3).full_tower
    assert t3.local_at(2).is_empty
    assert t3 != full_tower_descriptor()
    with pytest.raises(ValueError):
        prime_tower_descriptor(4)
    # the records refuse what no group has
    for bad, message in (
        (lambda: LocalFactors(2, -1), "free rank"),
        (lambda: LocalFactors(2, 0, ((0, 1),)), "exponents must be >= 1"),
        (lambda: LocalFactors(2, 0, ((1, 1), (1, 2))), "duplicate exponent 1"),
        (lambda: LocalFactors(2, 0, ((1, -1),)), "multiplicity"),
        (lambda: ProfiniteDescriptor(-1), "free rank"),
        (lambda: ProfiniteDescriptor(0, (LocalFactors(3, 1), LocalFactors(3, 2))), "duplicate prime 3"),
    ):
        with pytest.raises(ValueError, match=message):
            bad()


# -- duality ----------------------------------------------------------------------


def test_dual_rule_table():
    zhat = ProfiniteDescriptor(free_rank=1)
    d = dual_profinite(zhat)
    assert isinstance(d, DiscreteTorsionDescriptor)
    assert d.free_rank == 1

    t2 = prime_tower_descriptor(2)
    dt2 = dual_profinite(t2)
    assert dt2.local_at(2).multiplicity(5) == ALEPH0

    two_adic = ProfiniteDescriptor(0, (LocalFactors(2, 2),))
    assert dual_profinite(two_adic).local_at(2).free_rank == 2


def test_dual_discrete_rule_table():
    qz = DiscreteTorsionDescriptor(free_rank=1)
    assert dual_discrete(qz).free_rank == 1
    tower3 = DiscreteTorsionDescriptor(
        0, (LocalFactors.make(3, cyclic={1: 1, 2: 1, 3: 1}),)
    )
    back = dual_discrete(tower3)
    assert back.local_at(3).cyclic == ((1, 1), (2, 1), (3, 1))
    pruefer = DiscreteTorsionDescriptor(0, (LocalFactors(7, 5),))
    assert dual_discrete(pruefer).local_at(7).free_rank == 5


def test_dual_kind_guard():
    with pytest.raises(KindMismatch):
        dual_profinite(DiscreteTorsionDescriptor())
    with pytest.raises(KindMismatch):
        dual_discrete(ProfiniteDescriptor())


def random_profinite(rng: random.Random) -> ProfiniteDescriptor:
    def card():
        return ALEPH0 if rng.random() < 0.2 else rng.randrange(0, 5)

    primes = rng.sample([2, 3, 5, 7, 11], k=rng.randrange(0, 4))
    recs = []
    for p in primes:
        cyclic = {k: card() for k in rng.sample(range(1, 7), k=rng.randrange(0, 4))}
        recs.append(
            LocalFactors.make(
                p,
                free_rank=card(),
                cyclic=cyclic,
                full_tower=rng.random() < 0.15,
            )
        )
    return ProfiniteDescriptor(card(), tuple(recs), rng.random() < 0.1)


def test_double_dual_randomized():
    rng = random.Random(20170401)
    for _ in range(500):
        d = random_profinite(rng)
        assert dual_discrete(dual_profinite(d)) == d
        e = dual_profinite(d)
        assert dual_profinite(dual_discrete(e)) == e


def test_duality_preserves_multiplicity_triples():
    rng = random.Random(7)
    for _ in range(100):
        d = random_profinite(rng)
        e = dual_profinite(d)
        triples_d = {
            (r.prime, k, m) for r in d.local_factors for k, m in r.cyclic
        }
        triples_e = {
            (r.prime, k, m) for r in e.local_factors for k, m in r.cyclic
        }
        assert triples_d == triples_e


# -- equality ---------------------------------------------------------------------


def test_descriptors_equal():
    # equality is of canonical forms, and a descriptor never equals one of the other kind
    assert full_tower_descriptor() == full_tower_descriptor()
    tweaked = ProfiniteDescriptor(
        0, (LocalFactors.make(2, cyclic={1: 1}),), True
    )
    # the tower pattern absorbs finite cyclic data, so this is still the tower
    assert tweaked == full_tower_descriptor()
    t2 = prime_tower_descriptor(2)
    changed = ProfiniteDescriptor(
        0, (LocalFactors.make(2, cyclic={1: 1, 2: ALEPH0}),)
    )
    assert t2 != changed
    assert t2 != dual_profinite(t2)


def test_canonical_form_ignores_record_order():
    a = ProfiniteDescriptor(
        0, (LocalFactors.make(5, cyclic={1: 2}), LocalFactors.make(2, cyclic={3: 1}))
    )
    b = ProfiniteDescriptor(
        0, (LocalFactors.make(2, cyclic={3: 1}), LocalFactors.make(5, cyclic={1: 2}))
    )
    assert a == b
    assert ProfiniteDescriptor(0, (LocalFactors.make(3),)) == ProfiniteDescriptor()


# -- truncation -------------------------------------------------------------------


def test_truncate_examples():
    t2 = prime_tower_descriptor(2)
    assert truncate(t2, 2, max_exp=2, mult_cap=1, free_level=0) == G(2, 4)
    zhat2 = ProfiniteDescriptor(free_rank=2)
    assert truncate(zhat2, 3, max_exp=0, mult_cap=0, free_level=2) == G(9, 9)
    assert truncate(ProfiniteDescriptor(), 2, 3, 3, 3) == G()


def test_truncate_finite_compatibility():
    # finite-multiplicity descriptors agree with the finite dual under truncation
    for g in (G(8), G(2, 4), G(9, 3), G(2, 2, 2)):
        d = ProfiniteDescriptor(
            0, tuple(LocalFactors.make(p, 0, Counter(g.exponents_at(p))) for p in g.primes)
        )
        e = dual_profinite(d)
        cap = max(len(g.exponents_at(p)) for p in g.primes) + 1
        for p in g.primes:
            top = max(g.exponents_at(p))
            assert truncate(d, p, top, cap, 0) == G.from_prime_exponents(p, g.exponents_at(p))
            assert truncate(e, p, top, cap, 0) == G.from_prime_exponents(p, dual_finite(g).exponents_at(p))


def test_truncate_monotone_in_depth_and_cap():
    # growing max_exp and mult_cap only adds direct summands (free_level fixed)
    t2 = prime_tower_descriptor(2)
    small = truncate(t2, 2, 2, 1, 0)
    assert is_direct_summand_of(small, truncate(t2, 2, 3, 1, 0))
    assert is_direct_summand_of(small, truncate(t2, 2, 2, 4, 0))
    mixed = ProfiniteDescriptor(1, (LocalFactors.make(2, 1, {2: 2}),))
    a = truncate(mixed, 2, 2, 1, 3)
    b = truncate(mixed, 2, 4, 5, 3)
    assert is_direct_summand_of(a, b)


@pytest.mark.parametrize(
    "descriptor, max_exp, cap, free_level",
    [
        (ProfiniteDescriptor(0, (LocalFactors.make(2, 0, {1: ALEPH0}),)), 1, 10**9, 0),
        (prime_tower_descriptor(2), 10**9, 1, 0),
        (full_tower_descriptor(), 10**5, 2, 0),
        (ProfiniteDescriptor(free_rank=ALEPH0), 0, 10**9, 1),
        (ProfiniteDescriptor(free_rank=10**9), 0, 1, 1),
    ],
)
def test_truncate_refuses_oversized_models(descriptor, max_exp, cap, free_level):
    tracemalloc.start()
    try:
        with pytest.raises(BoundExceeded, match="cyclic factors"):
            truncate(descriptor, 2, max_exp, cap, free_level)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_truncate_at_the_size_limit():
    aleph = ProfiniteDescriptor(0, (LocalFactors.make(3, 0, {2: ALEPH0}),))
    assert len(truncate(aleph, 3, 2, MAX_TRUNCATION_FACTORS, 0).factor_orders) == MAX_TRUNCATION_FACTORS
    # a tower with nothing kept is empty however deep it is truncated
    assert truncate(prime_tower_descriptor(2), 2, 10**12, 0, 0) == G()


def test_truncate_at_the_order_digit_limit():
    # 2^14284 has 4300 digits, 2^14285 has 4301
    assert len(str(2 ** 14284)) == MAX_ORDER_DIGITS
    free = ProfiniteDescriptor(1)
    assert truncate(free, 2, 0, 0, 14284) == G(2 ** 14284)
    cyclic = ProfiniteDescriptor(0, (LocalFactors.make(2, 0, {14284: 1, 14285: 1}),))
    assert truncate(cyclic, 2, 14284, 1, 0) == G(2 ** 14284)
    for d, max_exp, free_level in ((free, 0, 14285), (cyclic, 14285, 0)):
        with pytest.raises(BoundExceeded, match="digits"):
            truncate(d, 2, max_exp, 1, free_level)


def test_truncate_infinite_free_rank_saturates():
    d = ProfiniteDescriptor(0, (LocalFactors(5, ALEPH0),))
    assert truncate(d, 5, 0, 3, 2) == G(25, 25, 25)


def test_truncate_validation():
    with pytest.raises(ValueError):
        truncate(ProfiniteDescriptor(), 2, -1, 0, 0)


# -- serialization ------------------------------------------------------------------


def test_document_round_trip():
    rng = random.Random(99)
    for _ in range(200):
        d = random_profinite(rng)
        doc = descriptor_to_document(d)
        assert descriptor_from_document(doc) == d
        text = descriptor_to_text(d)
        assert descriptor_from_text(text) == d
        # bit-exact: canonical text re-serializes identically
        assert descriptor_to_text(descriptor_from_text(text)) == text


def test_document_kinds_and_errors():
    e = dual_profinite(prime_tower_descriptor(3))
    doc = descriptor_to_document(e)
    assert doc["kind"] == "discrete"
    assert descriptor_from_document(doc) == e
    with pytest.raises(FormatError):
        descriptor_from_text("not json {")
    with pytest.raises(FormatError):
        descriptor_from_text('{"kind": "weird", "free_rank": 0}')
    with pytest.raises(FormatError):
        descriptor_from_text('{"kind": "profinite", "free_rank": -2}')
    with pytest.raises(FormatError):
        descriptor_from_text('[1, 2]')


@pytest.mark.parametrize(
    "text",
    [
        '{"kind": "profinite", "free_rank": true}',
        '{"kind": "profinite", "free_rank": 0, "all_primes_T": 1}',
        '{"kind": "profinite", "free_rank": 0, "locals": [{"prime": 2.9}]}',
        '{"kind": "profinite", "free_rank": 0, "locals": [{"prime": true}]}',
        '{"kind": "profinite", "free_rank": 0, "locals": [{"prime": 2, "full_tower": "no"}]}',
        '{"kind": "profinite", "free_rank": 0, "locals": [{"prime": 2, "local_free_rank": false}]}',
        '{"kind": "profinite", "free_rank": 0, "locals": [{"prime": 2, "cyclic": [{"exp": 1.0, "mult": 1}]}]}',
        '{"kind": "profinite", "free_rank": 0, "locals": [{"prime": 2, "cyclic": [{"exp": 1, "mult": true}]}]}',
        '{"kind": "profinite", "free_rank": 0, "locals": ["x"]}',
    ],
)
def test_document_types_are_strict(text):
    with pytest.raises(FormatError):
        descriptor_from_text(text)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([0, 1, 2, "aleph0"]),
    st.lists(
        st.tuples(
            st.sampled_from([2, 3, 5]),
            st.integers(0, 3),
            st.dictionaries(st.integers(1, 5), st.sampled_from([1, 2, "aleph0"]), max_size=3),
        ),
        max_size=3,
        unique_by=lambda t: t[0],
    ),
)
def test_double_dual_hypothesis(free, locs):
    def card(v):
        return ALEPH0 if v == "aleph0" else v

    recs = tuple(
        LocalFactors.make(p, card(fr), {k: card(m) for k, m in cyc.items()})
        for p, fr, cyc in locs
    )
    d = ProfiniteDescriptor(card(free), recs)
    assert dual_discrete(dual_profinite(d)) == d
