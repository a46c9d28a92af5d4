"""Tests for the imaginary quadratic and function field classifiers."""

from __future__ import annotations

import importlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import galab
from galab import classifier, quadfields
from galab.arith import factorint
from galab.classifier import (
    SPLIT_TABLE_DISCRIMINANTS,
    FunctionFieldInput,
    FunctionFieldType,
    GaloisAbelianType,
    SplitData,
    SplitSource,
    SplitTable,
    classify_batch,
    classify_field,
    function_field_isomorphic,
    function_field_type,
    resolve_split_data,
    types_isomorphic,
)
from galab.descriptors import ProfiniteDescriptor
from galab.errors import (
    BoundExceeded,
    ContainmentError,
    ExcludedField,
    GalabError,
    InvalidCharacteristic,
    NotFundamental,
    SplitDataUnavailable,
    exit_code_for,
)
from galab.finabelian import FiniteAbelianGroup, embeds_in, group_literal, parse_group_literal
from galab.quadfields import class_group, class_number
from group_helpers import fundamental_discriminants

G = FiniteAbelianGroup


# -- type resolution -----------------------------------------------------------


def test_builtin_table_classification():
    fc = classify_field(-35)
    assert fc.class_number == 2
    assert fc.split.source is SplitSource.BUILTIN_TABLE
    assert fc.abelian_type.split_group == G(2)
    assert fc.abelian_type.free_rank == 2
    assert fc.abelian_type.to_document()["torsion_closure"] == "T"


def test_class_number_one_forces_trivial():
    fc = classify_field(-7)
    assert fc.class_number == 1
    assert fc.split.source is SplitSource.FORCED_TRIVIAL
    assert fc.abelian_type.split_group == G()


def test_excluded_fields():
    with pytest.raises(ExcludedField):
        classify_field(-4)
    with pytest.raises(ExcludedField):
        classify_field(-8)


def test_not_fundamental():
    with pytest.raises(NotFundamental):
        classify_field(-12)


def test_unresolved_split_data():
    # h(-23) = 3 and -23 is not in the builtin table
    with pytest.raises(SplitDataUnavailable):
        classify_field(-23)


def test_user_table_resolution_and_priority():
    table = SplitTable(user={-23: G(3)})
    fc = classify_field(-23, table)
    assert fc.split.source is SplitSource.USER_SUPPLIED
    assert fc.abelian_type.split_group == G(3)
    # user entries win over the builtin table
    override = SplitTable(user={-35: G()})
    assert classify_field(-35, override).abelian_type.split_group == G()
    # forced-trivial wins over any table entry
    h1 = SplitTable(user={-7: G(7)})
    assert classify_field(-7, h1).split.source is SplitSource.FORCED_TRIVIAL
    # the table layers user entries over the builtin ones
    assert override.lookup(-35) == SplitData(SplitSource.USER_SUPPLIED, G())
    assert override.lookup(-51) == SplitData(SplitSource.BUILTIN_TABLE, G(2))


def test_containment_enforced():
    # Z/2 does not embed into the class group Z/3 of -23
    with pytest.raises(ContainmentError):
        classify_field(-23, SplitTable(user={-23: G(2)}))
    # nor does Z/9 into Z/3
    with pytest.raises(ContainmentError):
        classify_field(-23, SplitTable(user={-23: G(9)}))


def test_types_isomorphic():
    t35 = classify_field(-35).abelian_type
    t51 = classify_field(-51).abelian_type
    t7 = classify_field(-7).abelian_type
    assert types_isomorphic(t35, t51)
    assert not types_isomorphic(t35, t7)
    assert types_isomorphic(t35, t35)
    assert t35 == t51


def test_type_constants_enforced():
    with pytest.raises(TypeError):
        GaloisAbelianType(G(2), free_rank=3)
    with pytest.raises(TypeError):
        GaloisAbelianType(G(2), torsion_closure=ProfiniteDescriptor(free_rank=1))


def test_classifier_loads_neither_extensions_nor_descriptors():
    # the split group alone is the type, so classifying needs no extension or descriptor code
    src = Path(galab.__file__).resolve().parents[1]
    probe = (
        "import sys, galab.classifier; "
        "print(sorted(m for m in ('galab.extensions', 'galab.descriptors') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.stdout.strip() == "[]"


def test_package_names_load_from_their_modules():
    assert all(hasattr(galab, name) for name in galab.__all__)
    assert galab.classify_field is classify_field
    # a module name is looked up on the package each time, not cached
    assert galab.__getattr__("extensions") is importlib.import_module("galab.extensions")
    for gone in ("galois_abelian_type", "TowerExtensionType", "descriptors_equal",
                 "subgroups_isomorphic_to", "abelian_groups_of_order", "smith_normal_form",
                 "from_relations", "InfiniteQuotient", "BinaryQuadraticForm", "principal_form",
                 "reduce_form", "reduced_forms", "compose", "DiscriminantMismatch"):
        assert not hasattr(galab, gone)


def test_equivalence_relation_properties():
    types = [classify_field(d).abelian_type for d in (-35, -51, -7, -11, -91)]
    for a in types:
        assert types_isomorphic(a, a)
        for b in types:
            assert types_isomorphic(a, b) == types_isomorphic(b, a)
            for c in types:
                if types_isomorphic(a, b) and types_isomorphic(b, c):
                    assert types_isomorphic(a, c)


def test_prime_class_number_dichotomy():
    # every resolvable field with prime class number lands on one of two types
    seen = set()
    for d in fundamental_discriminants(130):
        h = class_number(d)
        if h not in (1, 2) or d in (-4, -8):
            continue
        if h == 2 and d not in SPLIT_TABLE_DISCRIMINANTS:
            continue
        t = classify_field(d).abelian_type
        assert t.split_group in (G(), G(2))
        seen.add(t.split_group)
    assert seen == {G(), G(2)}


def test_builtin_table_is_the_odd_class_number_two_fields_five_mod_eight():
    # a description of the data, not a rule the classifier applies.  The h = 2 list
    # is complete (Baker 1971, Stark 1971): 18 fields up to |D| = 427, all met here
    two = [d for d in fundamental_discriminants(5000) if class_number(d) == 2]
    assert (len(two), min(two)) == (18, -427)
    assert [d for d in two if d % 8 == 5] == list(SPLIT_TABLE_DISCRIMINANTS)
    assert [d for d in two if d % 2 and d % 8 != 5] == [-15]


_RIGHT_COMPOSE = quadfields._compose


def _compositions(monkeypatch, fn, *args):
    """fn(*args) and the number of form compositions it made."""
    calls = 0

    def counted(f, g, d):
        nonlocal calls
        calls += 1
        return _RIGHT_COMPOSE(f, g, d)

    monkeypatch.setattr(quadfields, "_compose", counted)
    return fn(*args), calls


# p not dividing h, e = 1 and e >= 2, cyclic and non-cyclic p-parts, mixed primes
_ORACLE_LITERALS = ("1", "2", "3", "4", "2,2", "2,4", "8", "9", "3,3", "6", "5", "12", "2,2,2")


def test_containment_matches_the_class_group_structure():
    # oracle: the decision from h and Sylow parts agrees with embeds_in on the full
    # structure, and a refusal words that full structure
    outcomes = {literal: set() for literal in _ORACLE_LITERALS}
    for d in fundamental_discriminants(5000):
        cg = class_group(d)
        if cg.order == 1:
            continue
        for literal in _ORACLE_LITERALS:
            split = parse_group_literal(literal)
            table = SplitTable(user={d: split})
            embeds = embeds_in(split, cg.structure)
            outcomes[literal].add(embeds)
            if embeds:
                assert resolve_split_data(d, cg.order, table).group == split, (d, literal)
                continue
            with pytest.raises(ContainmentError) as info:
                resolve_split_data(d, cg.order, table)
            assert str(info.value) == (
                f"split group {group_literal(split)} does not embed into the class group "
                f"{group_literal(cg.structure)} of {d}"
            )
    assert outcomes.pop("1") == {True}
    assert all(seen == {True, False} for seen in outcomes.values()), outcomes


def test_trivial_and_prime_order_splits_make_no_composition(monkeypatch):
    # work guard: 1 and Z/p are decided from the class number alone
    table = {}
    for i, d in enumerate(fundamental_discriminants(3000)):
        h = class_number(d)
        if h > 1:
            table[d] = G(max(factorint(h))) if i % 2 else G()
    assert len(set(table.values())) > 10
    part, calls = _compositions(
        monkeypatch, classify_batch, fundamental_discriminants(3000), SplitTable(user=table)
    )
    assert [e.discriminant for e in part.errors] == [-4, -8]
    assert calls == 0


def test_a_prime_power_split_reads_only_its_sylow_part(monkeypatch):
    # h = 12 with Z/4 + Z/3 or Z/2 + Z/2 + Z/3: the 2-part is read, the 3-part is not
    checked = set()
    for d in (-231, -255, -327, -356):
        cg = class_group(d)
        assert cg.order == 12
        split = G(4) if cg.structure == G(4, 3) else G(2, 2)
        checked.add(split)
        fc, calls = _compositions(monkeypatch, classify_field, d, SplitTable(user={d: split}))
        _, full = _compositions(monkeypatch, class_group, d)
        assert fc.abelian_type.split_group == split
        assert 0 < calls < full, (d, calls, full)
    assert checked == {G(4), G(2, 2)}


def test_prime_class_number_fields_have_exactly_two_types(monkeypatch):
    # the abstract: a field of prime class number p has type 1 or Z/p, and the two
    # differ.  The lists below are complete (see the counts pinned in test_quadfields)
    counts = {}
    for d in fundamental_discriminants(6000):
        p = class_number(d)
        if p not in (2, 3, 5, 7):
            continue
        counts[p] = counts.get(p, 0) + 1
        q = 3 if p == 2 else 2
        accepted = []
        for split in (G(), G(p), G(p * p), G(p, p), G(q)):
            try:
                fc, calls = _compositions(
                    monkeypatch, classify_field, d, SplitTable(user={d: split})
                )
            except ContainmentError:
                continue
            assert calls == 0, (d, split)
            accepted.append(fc.abelian_type)
        assert [t.split_group for t in accepted] == [G(), G(p)], d
        assert not types_isomorphic(*accepted)
    assert counts == {2: 18, 3: 16, 5: 25, 7: 31}


_LISTING = quadfields._reduced_triples


def _listings(monkeypatch, fn, *args):
    """fn(*args) and the number of reduced-form listings it made, or the error it raised."""
    calls = 0

    def counted(d):
        nonlocal calls
        calls += 1
        return _LISTING(d)

    monkeypatch.setattr(quadfields, "_reduced_triples", counted)
    try:
        return fn(*args), calls
    except GalabError as exc:
        return exc, calls


def test_trivial_and_prime_order_splits_list_no_forms(monkeypatch):
    # work guard: the class number is counted, and 1 and Z/p need nothing more
    table = {}
    for i, d in enumerate(fundamental_discriminants(3000)):
        h = class_number(d)
        if h > 1:
            table[d] = G(max(factorint(h))) if i % 2 else G()
    part, calls = _listings(
        monkeypatch, classify_batch, fundamental_discriminants(3000), SplitTable(user=table)
    )
    assert [e.discriminant for e in part.errors] == [-4, -8]
    assert sum(len(c.discriminants) for c in part.cells) > 900
    assert calls == 0


@pytest.mark.parametrize("literal, embeds", [("4", True), ("2,2", False), ("3", False), ("8", False)])
def test_containment_lists_no_forms(monkeypatch, literal, embeds):
    # -39 has class group Z/4.  A read Sylow part (4; 2,2) and a refusal from h alone
    # (3; 8) list no forms: Sylow parts, and the full structure a refusal words, come
    # from prime forms
    d, split = -39, parse_group_literal(literal)
    result, calls = _listings(monkeypatch, classify_field, d, SplitTable(user={d: split}))
    assert calls == 0
    if embeds:
        assert result.abelian_type.split_group == split
    else:
        assert type(result) is ContainmentError
        assert str(result) == f"split group {literal} does not embed into the class group 4 of -39"


# -- batches ---------------------------------------------------------------------


def test_batch_ten_paper_discriminants():
    part = classify_batch(SPLIT_TABLE_DISCRIMINANTS)
    assert not part.errors
    assert len(part.cells) == 1
    assert part.cells[0].discriminants == SPLIT_TABLE_DISCRIMINANTS
    assert part.cells[0].split_group == G(2)


def test_batch_two_cells():
    part = classify_batch([-35, -7])
    assert len(part.cells) == 2
    assert part.cells[0].discriminants == (-7,)
    assert part.cells[1].discriminants == (-35,)


def test_batch_empty():
    part = classify_batch([])
    assert part.cells == ()
    assert part.errors == ()


def test_batch_collects_errors():
    part = classify_batch([-35, -4, -12, -23, -51])
    assert [c.discriminants for c in part.cells] == [(-35, -51)]
    names = [(e.discriminant, e.error) for e in part.errors]
    assert names == [
        (-4, "ExcludedField"),
        (-12, "NotFundamental"),
        (-23, "SplitDataUnavailable"),
    ]
    codes = [e.exit_code for e in part.errors]
    assert codes == [2, 2, 3]
    assert exit_code_for(BoundExceeded("x")) == 4
    with pytest.raises(TypeError, match="not a galab error"):
        exit_code_for(ValueError("x"))


def test_batch_repeated_discriminant(monkeypatch):
    # each occurrence is classified; a cell lists a discriminant once, errors once per occurrence
    seen = []
    classify = classifier.classify_field

    def counted(d, table=None):
        seen.append(d)
        return classify(d, table)

    monkeypatch.setattr(classifier, "classify_field", counted)
    part = classify_batch([-35, -35, -23, -23])
    assert seen == [-35, -35, -23, -23]
    assert [c.discriminants for c in part.cells] == [(-35,)]
    assert [(e.discriminant, e.error) for e in part.errors] == [
        (-23, "SplitDataUnavailable"),
        (-23, "SplitDataUnavailable"),
    ]


def test_batch_cell_ordering():
    part = classify_batch([-427, -7, -35, -11])
    assert [c.discriminants for c in part.cells] == [(-7, -11), (-35, -427)]


# -- function fields -----------------------------------------------------------------


def test_ff_type_examples():
    t = function_field_type(FunctionFieldInput(2, 12, G(4, 3)))
    assert t == FunctionFieldType(2, 3, G(3))
    t = function_field_type(FunctionFieldInput(3, 1, G()))
    assert t == FunctionFieldType(3, 1, G())
    t = function_field_type(FunctionFieldInput(5, 25, G(5)))
    assert t == FunctionFieldType(5, 1, G())


def test_ff_invalid_characteristic():
    with pytest.raises(InvalidCharacteristic):
        FunctionFieldInput(6, 2, G())
    with pytest.raises(InvalidCharacteristic):
        FunctionFieldType(6, 1, G())
    with pytest.raises(ValueError):
        FunctionFieldInput(2, 0, G())


def test_ff_isomorphic_three_conditions():
    a = FunctionFieldType(2, 3, G(3))
    assert function_field_isomorphic(a, FunctionFieldType(2, 3, G(3)))
    # characteristic alone differs
    assert not function_field_isomorphic(
        FunctionFieldType(2, 5, G(7)), FunctionFieldType(3, 5, G(7))
    )
    assert not function_field_isomorphic(a, FunctionFieldType(2, 1, G(3)))
    assert not function_field_isomorphic(a, FunctionFieldType(2, 3, G(9)))
    stripped = function_field_type(FunctionFieldInput(2, 3, G(4, 3)))
    assert function_field_isomorphic(a, stripped)


def test_ff_type_invariants_enforced():
    with pytest.raises(ValueError):
        FunctionFieldType(3, 3, G(7))
    with pytest.raises(ValueError):
        FunctionFieldType(2, 3, G(2, 3))


def test_ff_ignores_p_part_spot():
    rng = random.Random(2)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(1, 30)
        base_orders = [rng.choice([2, 3, 4, 5, 7, 9]) for _ in range(rng.randrange(0, 3))]
        base = G(*base_orders)
        a = function_field_type(FunctionFieldInput(p, n, base))
        padded = G(*base.factor_orders, *(p ** rng.randrange(1, 4) for _ in range(rng.randrange(1, 3))))
        b = function_field_type(FunctionFieldInput(p, n, padded))
        assert function_field_isomorphic(a, b)


def test_ff_type_document():
    t = function_field_type(FunctionFieldInput(2, 12, G(4, 3)))
    doc = t.to_document()
    assert doc["characteristic"] == 2
    assert doc["dk"] == 3
    assert doc["nonp_class"] == "3"
    assert doc["descriptor"]["local_free"] == {"prime": 2, "rank": "aleph0"}
