"""Tests for the truncated extension enumeration and diagram checks."""

from __future__ import annotations

import hashlib
import itertools
import json
import time

import pytest

from galab import extensions, finabelian
from galab.errors import BoundExceeded
from galab.extensions import (
    TruncationSpec,
    canonical_extension_group,
    canonical_extension_with_witness,
    enumerate_extensions,
    verify_diagram,
    verify_uniqueness,
)
from galab.finabelian import FiniteAbelianGroup, l_subgroups, partitions_desc, quotient
from group_helpers import abelian_groups_of_order, from_relations, span_set, subgroup_copies

G = FiniteAbelianGroup


def spec(prime, sub, exps, m=0) -> TruncationSpec:
    return TruncationSpec(prime, sub, tuple(exps), m)


# -- spec validation -----------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        spec(4, G(2), [1])
    with pytest.raises(ValueError):
        spec(2, G(3), [1])
    with pytest.raises(ValueError):
        spec(2, G(2), [2, 2])
    with pytest.raises(ValueError):
        spec(2, G(2), [2, 1])
    s = spec(2, G(2), [1, 2])
    assert s.quotient_group == G(2, 4)
    assert s.total_order == 16


# -- enumeration ----------------------------------------------------------------


def test_enumerate_single_class_example():
    # A = Z/2, C = [Z/4], m = 1: only Z/8 survives
    report = enumerate_extensions(spec(2, G(2), [2], m=1))
    assert [c.group for c in report.classes] == [G(8)]
    assert report.counts[1] == 1
    # at m = 0 the split extension Z/2 + Z/4 also qualifies
    assert report.counts[0] == 2
    assert report.saturation_level == 2


def test_enumerate_degenerate_trivial_sub():
    report = enumerate_extensions(spec(2, G(), [1], m=0))
    assert [c.group for c in report.classes] == [G(2)]
    # the trivial subgroup is divisible at every level up to the exponent
    assert report.counts == {0: 1, 1: 1}


def test_enumerate_two_classes_then_one():
    # A = Z/2, C = [Z/2, Z/4]: two classes at m=1, only Z/2+Z/8 at m=2
    at1 = enumerate_extensions(spec(2, G(2), [1, 2], m=1))
    groups1 = {c.group for c in at1.classes}
    assert groups1 == {G(2, 8), G(4, 4)}
    at2 = enumerate_extensions(spec(2, G(2), [1, 2], m=2))
    assert [c.group for c in at2.classes] == [G(2, 8)]
    assert at2.saturation_level == 2


def test_counts_monotone_and_witness_soundness():
    for s in [
        spec(2, G(2), [1, 2]),
        spec(2, G(4), [1, 2]),
        spec(2, G(2, 2), [1, 2]),
        spec(3, G(3), [1, 2]),
        spec(2, G(), [1, 3]),
    ]:
        report = enumerate_extensions(s)
        counts = [c for _, c in report.level_counts]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        for cls in report.classes:
            els = span_set(cls.sub_generators, cls.group)
            # witness re-verification: S = sub, S in l^m B, B/S = quotient sum
            assert len(els) == s.sub.order
            multiples = {(x * s.prime ** cls.max_level).coords for x in cls.group.elements()}
            assert els <= multiples
            assert quotient(cls.group, list(cls.sub_generators)) == s.quotient_group
            assert cls.quotient_form == s.quotient_group


def test_canonical_class_membership():
    for s in [
        spec(2, G(2), [1, 2]),
        spec(2, G(4), [2]),
        spec(3, G(3), [1, 2]),
        spec(2, G(2, 2), [1, 2, 3]),
    ]:
        report = enumerate_extensions(s)
        canonical = canonical_extension_group(s)
        for m in range(report.saturation_level + 1):
            assert canonical in {c.group for c in report.survivors_at(m)}


def test_bound_exceeded():
    with pytest.raises(BoundExceeded):
        enumerate_extensions(spec(2, G(2), [1, 2, 3, 4]), bound=64)
    # the same spec at the default bound is fine
    enumerate_extensions(spec(2, G(2), [1, 2, 3]), bound=1024)


@pytest.mark.parametrize("bound", [0, -5])
def test_bound_must_be_positive(bound):
    s = spec(2, G(2), [1, 2])
    message = f"the enumeration bound must be >= 1, got {bound}"
    with pytest.raises(ValueError, match=message):
        enumerate_extensions(s, bound)
    with pytest.raises(ValueError, match=message):
        verify_uniqueness(2, G(2), [[1, 2]], bound)
    with pytest.raises(ValueError, match=message):
        verify_diagram(2, G(2), s, 1, bound=bound)


def test_report_document_stable():
    report = enumerate_extensions(spec(2, G(2), [2], m=1))
    doc = report.to_document()
    assert doc["spec"] == {
        "prime": 2,
        "sub": "2",
        "quotient_exponents": [2],
        "div_level": 1,
    }
    assert doc["level_counts"] == {"0": 2, "1": 1, "2": 1}
    assert doc["saturation_level"] == 2
    assert doc["classes"][0]["group"] == "8"
    # serializes deterministically
    assert json.dumps(doc, sort_keys=True) == json.dumps(
        enumerate_extensions(spec(2, G(2), [2], m=1)).to_document(), sort_keys=True
    )


def test_report_golden_serialization():
    doc = enumerate_extensions(spec(2, G(2), [2], m=1)).to_document()
    golden = (
        '{"classes":[{"group":"8","max_level":2,"quotient":"4","sub_generators":[[4]]}],'
        '"level_counts":{"0":2,"1":1,"2":1},"saturation_level":2,'
        '"spec":{"div_level":1,"prime":2,"quotient_exponents":[2],"sub":"2"}}'
    )
    assert json.dumps(doc, sort_keys=True, separators=(",", ":")) == golden


def test_enumerated_classes_are_self_dual():
    from galab.finabelian import dual_finite

    for s in [spec(2, G(2), [1, 2]), spec(2, G(2, 2), [1, 2, 3]), spec(3, G(3), [1, 2])]:
        for cls in enumerate_extensions(s).classes:
            assert dual_finite(cls.group) == cls.group


# -- single-pass survival level against the per-level search ----------------------


def _per_level_survival(b, s, subgroup_copies=subgroup_copies, quotient=quotient):
    """For m from exp(B) down, the first copy of the sub inside l^m B with B/S = C."""
    copies = subgroup_copies(b, s.sub)
    for m in range(max(b.exponents_at(s.prime), default=0), -1, -1):
        multiples = {(x * s.prime ** m).coords for x in b.elements()}
        for gens in copies:
            if all(g.coords in multiples for g in gens) and quotient(b, gens) == s.quotient_group:
                return m, [g.coords for g in gens]
    return None


def _survival_cases():
    exponent_lists = [
        exps for k in (1, 2, 3) for exps in itertools.combinations((1, 2, 3), k)
    ]
    for sub in (G(), G(2), G(4), G(2, 2), G(2, 4)):
        for exps in exponent_lists:
            yield spec(2, sub, exps)
    for sub in (G(3), G(3, 3)):
        yield spec(3, sub, [1, 2])


def test_max_survival_matches_per_level_search(monkeypatch):
    # cache the oracle's subgroup searches and the quotient tests both sides make
    seen = {}

    def once(f):
        def cached(b, arg):
            key = (f, b, arg if isinstance(arg, FiniteAbelianGroup) else tuple(g.coords for g in arg))
            if key not in seen:
                seen[key] = f(b, arg)
            return seen[key]

        return cached

    searches = once(subgroup_copies), once(quotient)
    monkeypatch.setattr(extensions, "quotient", searches[1])
    levels = set()
    checked = 0
    for s in _survival_cases():
        if s.total_order > 256:
            continue
        for b in abelian_groups_of_order(s.total_order):
            hit = extensions._max_survival(b, s)
            got = None if hit is None else (hit[0], [g.coords for g in hit[1]])
            assert got == _per_level_survival(b, s, *searches), (s, b)
            levels.add(got[0] if got else None)
            checked += 1
    assert checked == 303
    assert levels == {None, 0, 1, 2, 3}


# -- closed-form levels: Green's theorem ------------------------------------------------


def test_lr_coefficient_hand_values():
    assert extensions._lr_nonzero((3, 2, 1), (2, 1), (2, 1))  # c = 2
    # sizes and containments allow these two, but no LR tableau exists
    assert not extensions._lr_nonzero((2, 2), (2,), (1, 1))
    assert not extensions._lr_nonzero((3,), (1, 1), (1,))


def test_green_theorem_against_subgroup_search():
    # c^lam_{mu,nu} != 0 iff B of type lam has S of type mu with B/S of type nu
    checked = 0
    for prime, top in ((2, 4), (3, 3)):
        for size in range(top + 1):
            for lam in partitions_desc(size):
                b = G.from_prime_exponents(prime, lam)
                for k in range(size + 1):
                    for mu in partitions_desc(k):
                        copies = subgroup_copies(b, G.from_prime_exponents(prime, mu))
                        quotients = {quotient(b, gens) for gens in copies}
                        for nu in partitions_desc(size - k):
                            found = G.from_prime_exponents(prime, nu) in quotients
                            assert extensions._lr_nonzero(lam, mu, nu) == found, (prime, lam, mu, nu)
                            checked += 1
    assert checked == 186


def _roadmap_grid():
    for sub in (G(), G(2), G(4), G(8), G(2, 2), G(2, 4), G(2, 2, 2)):
        for exps in ((1,), (2,), (1, 2), (1, 3), (2, 3), (1, 2, 3), (1, 2, 4), (1, 2, 3, 4)):
            yield spec(2, sub, exps)
    for sub in (G(), G(3), G(9), G(3, 3)):
        for exps in ((1,), (2,), (1, 2), (1, 3)):
            yield spec(3, sub, exps)
    for exps in ((1,), (1, 2)):
        yield spec(5, G(5), exps)


BENCHMARK_GRID = [
    (2, G(), (1, 2)), (2, G(), (1, 2, 3)), (2, G(2), (1, 2)), (2, G(2), (1, 2, 3)),
    (2, G(4), (1, 2)), (2, G(4), (1, 2, 3)), (2, G(2, 2), (1, 2)), (2, G(2, 2), (1, 2, 3)),
    (3, G(3), (1, 2)),
    (2, G(2, 2), (1, 2, 3, 4)), (2, G(2, 2, 2), (1, 2, 3)), (2, G(4), (1, 2, 3, 4)),
]


def test_extension_documents_are_pinned():
    # the benchmark grid at bound 4096 and the roadmap grid at 1024, each at div_level
    # 0 and 1, witnesses included: the digest of the generator-tuple search's documents
    cases = [(p, sub, exps, 4096) for p, sub, exps in BENCHMARK_GRID]
    cases += [(s.prime, s.sub, s.quotient_exponents, 1024) for s in _roadmap_grid()]
    docs = []
    for prime, sub, exps, bound in cases:
        for m in (0, 1):
            try:
                docs.append(enumerate_extensions(spec(prime, sub, exps, m), bound).to_document())
            except BoundExceeded as exc:
                docs.append({"bound_exceeded": str(exc)})
    assert len(docs) == 172
    digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
    assert digest == "2e112b1afdc039ec178250e445696d657f6c8d226161224d9f42bc07b85b957f"


def test_closed_form_implies_rank_and_exponent_caps():
    skipped = 0
    for s in _roadmap_grid():
        if s.total_order > 1024:
            continue
        mu = s.sub.exponents_at(s.prime)
        nu = s.quotient_exponents[::-1]
        for part in partitions_desc(sum(mu) + sum(nu)):
            top = part[0] if part else 0
            if (
                len(part) > len(mu) + len(nu)
                or top > (mu[0] if mu else 0) + (nu[0] if nu else 0)
                or top < (nu[0] if nu else 0)
                or len(part) < len(nu)
            ):
                assert extensions._survival_level(part, mu, nu) is None, (s, part)
                skipped += 1
    assert skipped > 0


def _unpruned_survival_levels(s):
    """(type, level) from every partition of the order, with no shape test before the scan."""
    mu = s.sub.exponents_at(s.prime)
    nu = s.quotient_exponents[::-1]
    for part in partitions_desc(sum(mu) + sum(nu)):
        level = extensions._survival_level(part, mu, nu)
        if level is not None:
            yield part, level


def test_pruned_level_scan_matches_every_partition():
    specs = list(_roadmap_grid()) + [spec(p, sub, exps) for p, sub, exps in BENCHMARK_GRID]
    for s in specs:
        assert list(extensions._survival_levels(s)) == list(_unpruned_survival_levels(s)), s
    assert len(specs) == 86


def _count_searches(monkeypatch) -> list:
    searched = []

    def counting(g, prime, exponents):
        searched.append(g)
        return l_subgroups(g, prime, exponents)

    monkeypatch.setattr(extensions, "l_subgroups", counting)
    return searched


def test_search_runs_only_for_survivor_witnesses(monkeypatch):
    searched = _count_searches(monkeypatch)

    def no_enumeration(*args, **kwargs):
        raise AssertionError("verify_diagram enumerated the extensions")

    s = spec(2, G(2, 2, 2), [1, 2, 3])
    report = enumerate_extensions(s)
    assert len(report.classes) == 8
    # one search per survivor, in l^level B
    at_levels = [
        G.from_prime_exponents(2, [e - c.max_level for e in c.group.exponents_at(2)])
        for c in report.classes
    ]
    assert sorted(searched, key=G.sort_key) == sorted(at_levels, key=G.sort_key)
    searched.clear()
    monkeypatch.setattr(extensions, "enumerate_extensions", no_enumeration)
    for n in (1, 2):
        verify_diagram(2, s.sub, s, n)
    assert searched == []


def test_search_runs_only_for_returned_classes(monkeypatch):
    searched = _count_searches(monkeypatch)
    for m, returned in ((0, 8), (1, 1), (2, 0)):
        searched.clear()
        report = enumerate_extensions(spec(2, G(2, 2, 2), [1, 2, 3], m))
        assert report.counts == {0: 8, 1: 1}
        assert len(searched) == len(report.classes) == returned
    # a sweep searches once per class at saturation, not once per survivor
    for sub, exps, returned in ((G(2, 2, 2), [1, 2, 3], 1), (G(2, 4), [1, 2], 2)):
        searched.clear()
        (case,) = verify_uniqueness(2, sub, [exps]).cases
        assert len(searched) == len(case.survivors) == case.level_counts[-1][1] == returned


def test_witness_search_stops_at_the_first_copy(monkeypatch):
    # the search stops at the first copy with the right quotient; listing every copy
    # of the sub before testing any builds 57 260 spans
    counts = {"quotient": 0, "spans": 0}

    def counted(name, f):
        def wrapper(*args):
            counts[name] += 1
            return f(*args)

        return wrapper

    monkeypatch.setattr(extensions, "quotient", counted("quotient", quotient))
    monkeypatch.setattr(finabelian, "_extend_span", counted("spans", finabelian._extend_span))
    report = enumerate_extensions(spec(2, G(2, 2, 2), [1, 2, 3]))
    assert len(report.classes) == 8
    assert counts["quotient"] <= 16
    assert counts["spans"] <= 60


# -- canonical construction -------------------------------------------------------


def test_canonical_construction_examples():
    # <a, x1, x2 | 2a, 2x1 - a, 4x2 - a> = Z/2 + Z/8
    assert canonical_extension_group(spec(2, G(2), [1, 2])) == G(2, 8)
    # trivial sub: plain direct sum
    assert canonical_extension_group(spec(2, G(), [1, 2])) == G(2, 4)
    # <a, x | 2a, 4x - a> = Z/8
    assert canonical_extension_group(spec(2, G(2), [2])) == G(8)


def _presentation(s: TruncationSpec) -> tuple[int, list[list[int]]]:
    """Generator count and relation rows of the glued presentation: a_1..a_r, then x_1..x_q.

    l^e_j a_j = 0 and l^k_i x_i = a_j(i), the x_i assigned to the a_j round robin.
    """
    l, sub_orders, exps = s.prime, s.sub.factor_orders, s.quotient_exponents
    r, g = len(sub_orders), len(sub_orders) + len(exps)
    rows = [[order if c == j else 0 for c in range(g)] for j, order in enumerate(sub_orders)]
    for i, k in enumerate(exps):
        rows.append([l ** k if c == r + i else -1 if r and c == i % r else 0 for c in range(g)])
    return g, rows


def _canonical_grid():
    # every sub of order up to l^5 under every set of at most five exponents from 1..6
    exponent_sets = [c for k in range(1, 6) for c in itertools.combinations(range(1, 7), k)]
    for prime in (2, 3, 5):
        for size in range(6):
            for mu in partitions_desc(size):
                for exps in exponent_sets:
                    yield spec(prime, G.from_prime_exponents(prime, mu), exps)


def test_canonical_witness_embeds_sub():
    # the closed form against the Smith form of the presentation
    checked = spans = 0
    for s in _canonical_grid():
        b, witness = canonical_extension_with_witness(s)
        assert b == from_relations(*_presentation(s)), s
        assert tuple(x.order for x in witness) == s.sub.factor_orders, s
        assert quotient(b, list(witness)) == s.quotient_group, s
        if b.order <= 1024:
            assert len(span_set(witness, b)) == s.sub.order, s
            spans += 1
        checked += 1
    assert (checked, spans) == (3534, 358)


def test_canonical_survives_at_saturation():
    for s in [spec(2, G(2), [1, 2]), spec(3, G(3), [1, 2])]:
        report = enumerate_extensions(s)
        sat = report.saturation_level
        b, witness = canonical_extension_with_witness(s)
        survivors = {c.group for c in report.survivors_at(sat)}
        assert b in survivors


# -- uniqueness sweeps --------------------------------------------------------------


def test_verify_uniqueness_examples():
    rep = verify_uniqueness(2, G(2), [[1, 2, 3]])
    (case,) = rep.cases
    assert case.passed
    assert len(case.survivors) == 1
    assert case.survivors[0] == canonical_extension_group(spec(2, G(2), [1, 2, 3]))

    rep = verify_uniqueness(2, G(), [[1, 2], [1, 2, 3]])
    assert rep.all_passed
    assert all(len(c.survivors) == 1 for c in rep.cases)
    assert rep.cases[0].survivors[0] == G(2, 4)

    rep = verify_uniqueness(3, G(3), [[1, 2]])
    (case,) = rep.cases
    assert case.passed
    assert case.survivors[0] == G(3, 27)


def test_uniqueness_document():
    rep = verify_uniqueness(2, G(2), [[1, 2]])
    doc = rep.to_document()
    assert doc["all_passed"] is True
    assert doc["cases"][0]["canonical"] == "2,8"


def test_uniqueness_documents_are_pinned():
    # the benchmark grid at bound 4096 and the roadmap grid at 1024: the digest of the
    # documents made when every survivor at every level was searched for a witness
    cases = [(p, sub, exps, 4096) for p, sub, exps in BENCHMARK_GRID]
    cases += [(s.prime, s.sub, s.quotient_exponents, 1024) for s in _roadmap_grid()]
    docs = []
    for prime, sub, exps, bound in cases:
        try:
            docs.append(verify_uniqueness(prime, sub, [exps], bound).to_document())
        except BoundExceeded as exc:
            docs.append({"bound_exceeded": str(exc)})
    assert len(docs) == 86
    digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
    assert digest == "e8525e04c6e6bf1627ef924db7f409fb3c9a2a5baa966080ab51045ec615cf43"


def test_non_homocyclic_sub_fails_with_two_survivors():
    rep = verify_uniqueness(2, G(2, 4), [[1, 2], [1, 2, 3]], bound=4096)
    assert not rep.all_passed
    assert [c.to_document() for c in rep.cases] == [
        {
            "exponents": [1, 2],
            "level_counts": {"0": 7, "1": 2},
            "saturation_level": 1,
            "classes_at_saturation": ["8,8", "4,16"],
            "canonical": "8,8",
            "passed": False,
        },
        {
            "exponents": [1, 2, 3],
            "level_counts": {"0": 13, "1": 5, "2": 2},
            "saturation_level": 2,
            "classes_at_saturation": ["2,16,16", "2,8,32"],
            "canonical": "2,8,32",
            "passed": False,
        },
    ]


def _predicted_uniqueness(mu: tuple[int, ...], exps: tuple[int, ...]) -> tuple[bool, int]:
    """(verdict, saturation level) predicted from the sub's type mu and the exponents.

    With r = len(mu) and n = len(exps): a case passes exactly when the sub is
    trivial, or homocyclic with n >= r; the saturation level is k_{n-r+1},
    the r-th largest exponent (k_n for the trivial sub, 0 when n < r).  This
    is checked on the grid below, not proven.
    """
    r, n = len(mu), len(exps)
    passed = r == 0 or (len(set(mu)) == 1 and n >= r)
    saturation = exps[-1] if r == 0 else exps[n - r] if n >= r else 0
    return passed, saturation


def test_uniqueness_predicate_on_a_grid():
    exponent_sets = [c for k in (1, 2, 3) for c in itertools.combinations(range(1, 6), k)]
    checked = 0
    for prime, top in ((2, 12), (3, 8)):
        for size in range(5):
            for mu in partitions_desc(size):
                sub = G.from_prime_exponents(prime, mu)
                for exps in exponent_sets:
                    if size + sum(exps) > top:
                        continue
                    (case,) = verify_uniqueness(prime, sub, [exps], prime ** top).cases
                    assert (case.passed, case.saturation_level) == _predicted_uniqueness(mu, exps), (
                        prime, mu, exps,
                    )
                    checked += 1
    assert checked == 362


# -- diagram checks --------------------------------------------------------------------


def test_diagram_passes_on_spec_example():
    # D = Z/2 + Z/8; both l^1-socles have order 4
    check = verify_diagram(2, G(2), spec(2, G(2), [1, 2]), n=1)
    assert check.passed, check.reason


def test_diagram_vacuous_for_trivial_sub():
    assert verify_diagram(2, G(), spec(2, G(), [1, 2]), n=1).passed
    assert verify_diagram(2, G(), spec(2, G(), [1, 2]), n=2).passed


def test_diagram_broken_model_fails_divisibility():
    # Z/4 + Z/4 admits the sub at m=1 but not at the saturation level 2
    check = verify_diagram(2, G(2), spec(2, G(2), [1, 2]), n=1, model=G(4, 4))
    assert not check.passed
    assert check.counterexample is not None
    assert "divisible" in check.reason


def test_diagram_rejects_wrong_model():
    # a class that never survives, a model of the wrong order, and one with a foreign prime
    for model in (G(2, 2, 2, 2), G(4, 8), G(2, 8, 3)):
        check = verify_diagram(2, G(2), spec(2, G(2), [1, 2]), n=1, model=model)
        assert not check.passed
        assert check.reason == "model admits no sub-copy with the required quotient"


def test_diagram_socle_sizes_beyond_the_exponent():
    # on B = Z/4 + Z/8, l^n acts like 8 for every n >= 3, so n = 10^5 gives the n = 3
    # sizes, and the valuation of l^n stops at 3 instead of dividing 10^5 times
    s = spec(2, G(2, 2), [1, 2])
    assert verify_diagram(2, s.sub, s, 2).reason == "socle sizes differ at 2^2: dual has 16, tower has 8"
    for n in (3, 10 ** 5):
        start = time.perf_counter()
        check = verify_diagram(2, s.sub, s, n)
        assert time.perf_counter() - start < 1.0
        assert check.reason == f"socle sizes differ at 2^{n}: dual has 32, tower has 8"


def test_diagram_depth_past_the_exponent_is_not_built():
    # the canonical B = Z/9 + Z/27 has exponent 3: every depth past it gives the depth-4
    # answer, and l^n itself is never built, though the reason still shows the caller's n
    s = spec(3, G(3, 3), [1, 2])
    assert canonical_extension_group(s).exponents_at(3)[0] == 3
    shallow = verify_diagram(3, s.sub, s, 4)
    assert not shallow.passed
    for n, limit in ((10 ** 7, 0.1), (10 ** 8, 1.0)):
        start = time.perf_counter()
        deep = verify_diagram(3, s.sub, s, n)
        assert time.perf_counter() - start < limit
        assert deep.passed == shallow.passed
        assert deep.reason == shallow.reason.replace("3^4", f"3^{n}")
        assert deep.counterexample == shallow.counterexample


def test_diagram_consistency_guard():
    with pytest.raises(ValueError):
        verify_diagram(3, G(2), spec(2, G(2), [1, 2]), n=1)
    with pytest.raises(ValueError):
        verify_diagram(2, G(2), spec(2, G(2), [1, 2]), n=0)


# -- element-level dual model as the oracle of verify_diagram -------------------------


def _dual_model_oracle(b, witness, sub, saturation, prime, n):
    """(reason, allowed counterexamples) of the dual model, built element by element.

    D is B itself under the pairing <c, x> = sum (e/d_i) c_i x_i mod e; T is
    the annihilator of the sub-copy S and D -> D/T the projection to the sub.
    A passing model gives (None, empty set).
    """
    orders = b.factor_orders
    sub_elements = span_set(witness, b)
    for m in range(saturation + 1):
        multiples = {(x * prime ** m).coords for x in b.elements()}
        if not sub_elements <= multiples:
            return f"sub element not divisible by {prime}^{m} in the model", sub_elements - multiples
    if b.is_trivial:
        return None, set()
    e = b.exponent

    def pairing(c, x):
        return sum((e // d) * ci * xi for ci, xi, d in zip(c, x, orders)) % e

    tower = {c.coords for c in b.elements() if all(pairing(c.coords, s) == 0 for s in sub_elements)}
    assert len(tower) * sub.order == b.order
    socle = {c.coords for c in b.elements() if (c * prime ** n).is_zero}
    if len(socle) != len(socle & tower):
        reason = f"socle sizes differ at {prime}^{n}: dual has {len(socle)}, tower has {len(socle & tower)}"
        return reason, socle - tower
    # D -> D/T kills exactly T, so the composite from the socle to the sub is
    # zero exactly when socle <= tower, which the socle check has just decided
    assert quotient(b, [b.element(t) for t in sorted(tower)]) == sub
    return None, set()


def _oracle_cases():
    exponent_lists = [
        exps for k in (1, 2, 3) for exps in itertools.combinations((1, 2, 3), k)
    ]
    for sub in (G(), G(2), G(4), G(2, 2)):
        for exps in exponent_lists:
            yield spec(2, sub, exps)
    yield spec(3, G(3), [1, 2])


def test_diagram_matches_element_level_dual_model(monkeypatch):
    reports = {}
    enumerate_all = extensions.enumerate_extensions

    def enumerate_once(s, bound=extensions.DEFAULT_ENUMERATION_BOUND):
        if s not in reports:
            reports[s] = enumerate_all(s, bound)
        return reports[s]

    monkeypatch.setattr(extensions, "enumerate_extensions", enumerate_once)
    outcomes = set()
    for s in _oracle_cases():
        report = enumerate_once(s)
        models = [(None, *canonical_extension_with_witness(s))] + [
            (c.group, c.group, c.sub_generators) for c in report.classes if c.group.order <= 256
        ]
        for model, b, witness in models:
            for n in (1, 2, 3, 10 ** 5):
                check = verify_diagram(s.prime, s.sub, s, n, model=model)
                reason, allowed = _dual_model_oracle(
                    b, witness, s.sub, report.saturation_level, s.prime, n
                )
                assert check.passed == (reason is None), (s, model, n, reason)
                assert check.reason == reason, (s, model, n)
                if reason is not None:
                    assert check.counterexample.group == b
                    assert check.counterexample.coords in allowed, (s, model, n, reason)
                outcomes.add(reason and reason.split()[0])
    assert len(reports) == 29
    assert outcomes == {None, "sub", "socle"}
