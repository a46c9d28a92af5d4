"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines.  Criterion 7
asserts the diagram identities for each case up to its saturation level,
the depth its truncation can carry, and asserts the socle failure beyond it.
"""

from __future__ import annotations

import json
import random
import time
from math import isqrt

from galab.classifier import (
    SPLIT_TABLE_DISCRIMINANTS,
    FunctionFieldInput,
    classify_batch,
    function_field_isomorphic,
    function_field_type,
)
from galab.cli import main as cli_main
from galab.descriptors import (
    ALEPH0,
    LocalFactors,
    ProfiniteDescriptor,
    descriptor_to_text,
    dual_discrete,
    dual_profinite,
    prime_tower_descriptor,
)
from galab.extensions import (
    TruncationSpec,
    canonical_extension_group,
    enumerate_extensions,
    verify_diagram,
    verify_uniqueness,
)
from galab.finabelian import FiniteAbelianGroup, dual_finite
from galab.quadfields import _compose, _principal, _reduced_triples, class_group
from group_helpers import abelian_groups_of_order, form_inverse, fundamental_discriminants

G = FiniteAbelianGroup
TEN = SPLIT_TABLE_DISCRIMINANTS


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_golden_class_numbers():
    t0 = time.perf_counter()
    orders = {d: class_group(d).order for d in TEN}
    elapsed = time.perf_counter() - t0
    ok = all(h == 2 for h in orders.values()) and elapsed < 1.0
    _report(1, ok, f"ten discriminants have class number 2 in {elapsed:.3f}s")
    assert all(h == 2 for h in orders.values()), orders
    assert elapsed < 1.0


def test_criterion_2_golden_classification():
    part = classify_batch(TEN)
    ok = not part.errors and len(part.cells) == 1 and len(part.cells[0].discriminants) == 10
    _report(2, ok, "the ten discriminants share one isomorphism class")
    assert ok


def test_criterion_3_exclusion_exit_codes(capsys):
    codes = [cli_main(["classify", "--disc", str(d)]) for d in (-4, -8)]
    capsys.readouterr()
    ok = codes == [2, 2]
    _report(3, ok, f"classify on -4/-8 exits with the domain error code (got {codes})")
    assert ok


def test_criterion_4_finite_self_duality():
    t0 = time.perf_counter()
    checked = 0
    failures = []
    for n in range(1, 65):
        for g in abelian_groups_of_order(n):
            checked += 1
            if dual_finite(g) != g or dual_finite(dual_finite(g)) != g:
                failures.append(g)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 5.0
    _report(4, ok, f"dual_finite(G) = G for all {checked} groups of order <= 64 in {elapsed:.2f}s")
    assert not failures, failures
    assert elapsed < 5.0


def _random_profinite(rng: random.Random) -> ProfiniteDescriptor:
    def card():
        return ALEPH0 if rng.random() < 0.2 else rng.randrange(0, 5)

    recs = []
    for p in rng.sample([2, 3, 5, 7, 11, 13], k=rng.randrange(0, 4)):
        cyclic = {k: card() for k in rng.sample(range(1, 8), k=rng.randrange(0, 4))}
        recs.append(LocalFactors.make(p, card(), cyclic, rng.random() < 0.15))
    return ProfiniteDescriptor(card(), tuple(recs), rng.random() < 0.1)


def test_criterion_5_double_dual_identity():
    rng = random.Random(1729)
    bad = 0
    for _ in range(1000):
        d = _random_profinite(rng)
        if dual_discrete(dual_profinite(d)) != d:
            bad += 1
    _report(5, bad == 0, f"double dual is the identity on 1000 random descriptors ({bad} failures)")
    assert bad == 0


UNIQUENESS_CASES = [
    (2, G(), (1, 2)),
    (2, G(), (1, 2, 3)),
    (2, G(2), (1, 2)),
    (2, G(2), (1, 2, 3)),
    (2, G(4), (1, 2)),
    (2, G(4), (1, 2, 3)),
    (2, G(2, 2), (1, 2)),
    (2, G(2, 2), (1, 2, 3)),
    (3, G(3), (1, 2)),
]


def test_criterion_6_uniqueness_at_truncation():
    t0 = time.perf_counter()
    failures = []
    for prime, sub, exps in UNIQUENESS_CASES:
        case = verify_uniqueness(prime, sub, [exps], bound=1024).cases[0]
        if not case.passed:
            failures.append((prime, str(sub), exps, case.survivors))
    # the pivotal example: two classes at m=1, only Z/2 + Z/8 at m=2
    pivotal = enumerate_extensions(TruncationSpec(2, G(2), (1, 2), 0), 1024)
    counts_ok = pivotal.counts[1] == 2 and pivotal.counts[2] == 1
    survivor_ok = [c.group for c in pivotal.survivors_at(2)] == [G(2, 8)]
    elapsed = time.perf_counter() - t0
    ok = not failures and counts_ok and survivor_ok and elapsed < 60.0
    _report(
        6,
        ok,
        f"unique saturated class = canonical for {len(UNIQUENESS_CASES)} cases in {elapsed:.2f}s",
    )
    assert not failures, failures
    assert counts_ok and survivor_ok
    assert elapsed < 60.0


def _socle_order(group: G, prime: int, n: int) -> int:
    """|group[prime^n]| from the invariants: the product of prime^min(e, n)."""
    order = 1
    for e in group.exponents_at(prime):
        order *= prime ** min(e, n)
    return order


def test_criterion_7_diagram_checks():
    # The socle match and the zero composite hold exactly when the sub-copy S
    # lies in l^n B, so a case can pass only up to its saturation level.  For
    # sub (Z/2)^2 and exponents (1, 2), S inside 4B needs two cyclic factors
    # of order >= 8, i.e. |B| >= 64, but |B| = 4 * 8 = 32: no model passes at
    # n = 2, and the check must report the socle sizes of B and of B/S.
    passing, failing, wrong = [], [], []
    for prime, sub, exps in UNIQUENESS_CASES:
        spec = TruncationSpec(prime, sub, exps, 0)
        saturation = enumerate_extensions(spec, 1024).saturation_level
        canonical = canonical_extension_group(spec)
        for n in (1, 2):
            check = verify_diagram(prime, sub, spec, n)
            pair = (str(sub), exps, n)
            if sub.is_trivial or n <= saturation:
                if check.passed:
                    passing.append(pair)
                else:
                    wrong.append((pair, check.reason))
                continue
            expected = (
                f"socle sizes differ at {prime}^{n}: "
                f"dual has {_socle_order(canonical, prime, n)}, "
                f"tower has {_socle_order(spec.quotient_group, prime, n)}"
            )
            if check.passed or check.reason != expected or check.counterexample is None:
                wrong.append((pair, check.reason, expected))
            else:
                failing.append(pair)
    ok = not wrong and failing == [("2,2", (1, 2), 2)]
    _report(
        7,
        ok,
        f"socle match and zero composite for {len(passing)} pairs up to saturation; "
        f"expected socle failure at {failing}",
    )
    assert not wrong, wrong
    assert failing == [("2,2", (1, 2), 2)]


def _brute_force_form_count(d: int) -> int:
    count = 0
    for a in range(1, isqrt(-d // 3) + 1):
        for b in range(-a, a + 1):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if (abs(b) == a or a == c) and b < 0:
                continue
            count += 1
    return count


def test_criterion_8_form_group_axioms():
    checked = 0
    for d in fundamental_discriminants(200):
        forms = _reduced_triples(d)
        e = _principal(d)
        idx = {f: i for i, f in enumerate(forms)}
        table = [[idx[_compose(f, g, d)] for g in forms] for f in forms]
        n = len(forms)
        ie = idx[e]
        # identity, closure (via idx), commutativity, inverses
        assert all(table[ie][j] == j for j in range(n)), d
        assert all(table[i][j] == table[j][i] for i in range(n) for j in range(n)), d
        for i, f in enumerate(forms):
            assert table[i][idx[form_inverse(f, d)]] == ie, d
        # associativity, exhaustively over index triples
        for i in range(n):
            for j in range(n):
                tij = table[i][j]
                for k in range(n):
                    assert table[tij][k] == table[i][table[j][k]], d
        assert class_group(d).order == n, d
        checked += 1
    # independent enumeration oracle cross-checks
    cross = _brute_force_form_count(-23) == 3 and _brute_force_form_count(-47) == 5
    assert class_group(-23).order == 3 and class_group(-47).order == 5
    ok = cross and checked > 0
    _report(8, ok, f"group axioms hold for all {checked} fundamental -200 < D < 0; h(-23)=3, h(-47)=5")
    assert ok


def test_criterion_9_function_field_three_condition_test():
    rng = random.Random(40961)

    def random_group() -> G:
        return G(*(rng.choice([2, 3, 4, 5, 7, 8, 9]) for _ in range(rng.randrange(0, 4))))

    # targeted single-condition violations
    base = function_field_type(FunctionFieldInput(2, 6, G(5, 7)))
    same = function_field_type(FunctionFieldInput(2, 24, G(5, 7, 8)))  # d = 3 both
    assert function_field_isomorphic(base, same)
    other_p = function_field_type(FunctionFieldInput(3, 3, G(5, 7)))
    assert not function_field_isomorphic(base, other_p)
    other_d = function_field_type(FunctionFieldInput(2, 12, G(5, 7)))
    assert function_field_isomorphic(base, other_d) == (
        base.prime_to_p_exponent == other_d.prime_to_p_exponent
    )
    other_cl = function_field_type(FunctionFieldInput(2, 6, G(5, 5)))
    assert not function_field_isomorphic(base, other_cl)

    bad = 0
    for _ in range(1000):
        p = rng.choice([2, 3, 5])
        n1, n2 = rng.randrange(1, 40), rng.randrange(1, 40)
        g1, g2 = random_group(), random_group()
        before = function_field_isomorphic(
            function_field_type(FunctionFieldInput(p, n1, g1)),
            function_field_type(FunctionFieldInput(p, n2, g2)),
        )
        pad1 = G(*g1.factor_orders, *(p ** rng.randrange(1, 4) for _ in range(rng.randrange(0, 3))))
        pad2 = G(*g2.factor_orders, *(p ** rng.randrange(1, 4) for _ in range(rng.randrange(0, 3))))
        after = function_field_isomorphic(
            function_field_type(FunctionFieldInput(p, n1, pad1)),
            function_field_type(FunctionFieldInput(p, n2, pad2)),
        )
        if before != after:
            bad += 1
    ok = bad == 0
    _report(9, ok, f"p-part perturbations never change the verdict (1000 cases, {bad} flips)")
    assert ok


def test_criterion_10_cli_determinism(capsys, tmp_path):
    ten = tmp_path / "ten.txt"
    ten.write_text("\n".join(str(d) for d in TEN) + "\n")
    tower = tmp_path / "tower.json"
    tower.write_text(descriptor_to_text(prime_tower_descriptor(2)))
    table = tmp_path / "table.txt"
    table.write_text("-23: 3\n")
    script = [
        ["classgroup", "--disc", "-35", "--json"],
        ["classgroup", "--disc", "-47", "--json"],
        ["classify", "--disc", "-35", "--json"],
        ["classify", "--disc", "-23", "--split-table", str(table), "--json"],
        ["compare", "--disc", "-35", "--disc", "-403", "--json"],
        ["batch", "--input", str(ten), "--json"],
        ["verify-uniqueness", "--prime", "2", "--sub", "2", "--exponents", "1,2", "--json"],
        ["dual", "--input", str(tower), "--json"],
        ["truncate", "--input", str(tower), "--prime", "2", "--max-exp", "3",
         "--cap", "1", "--free-level", "0", "--json"],
        ["fftype", "--prime", "2", "--n", "12", "--class0", "4,3", "--json"],
        ["ffcompare", "--field", "2:12:4,3", "--field", "2:3:3", "--json"],
    ]

    def run_script() -> str:
        chunks = []
        for argv in script:
            code = cli_main(argv)
            out = capsys.readouterr().out
            assert code == 0, (argv, code)
            json.loads(out)  # every payload is valid JSON
            chunks.append(out)
        return "".join(chunks)

    first = run_script()
    second = run_script()
    ok = first == second
    _report(10, ok, f"full CLI script is byte-identical across runs ({len(first)} bytes)")
    assert ok
