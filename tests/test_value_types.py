"""Value semantics shared by galab's immutable record types."""

from __future__ import annotations

import copy
import pickle

import pytest

from galab.classifier import (
    BatchCell,
    BatchError,
    BatchPartition,
    FieldClassification,
    FunctionFieldInput,
    FunctionFieldType,
    GaloisAbelianType,
    SplitData,
    SplitSource,
    SplitTable,
)
from galab.descriptors import DiscreteTorsionDescriptor, LocalFactors, ProfiniteDescriptor
from galab.extensions import (
    DiagramCheck,
    ExtensionReport,
    SurvivorClass,
    TruncationSpec,
    UniquenessCase,
    UniquenessReport,
)
from galab.finabelian import FiniteAbelianGroup, GroupElement
from galab.quadfields import ClassGroup

G = FiniteAbelianGroup
SPEC = TruncationSpec(2, G(2), (1, 2), 1)
ELEMENT = GroupElement(G(2, 4), (3, 1))
SURVIVOR = SurvivorClass(G(2, 8), (ELEMENT,), G(2, 4), 1)
SPLIT = SplitData(SplitSource.BUILTIN_TABLE, G(2))
LOCAL = LocalFactors(3, 1, ((1, 2),), False)
ERROR = BatchError(-4, "ExcludedField", "excluded", 2)
CELL = BatchCell(G(2), (-35, -51))
CASE = UniquenessCase((1, 2), ((0, 3),), 0, (G(2, 8),), G(2, 8), True)

# each record with its fields as keywords, in positional order
EXAMPLES = [
    (GroupElement, dict(group=G(2, 4), coords=(3, 1))),
    (ClassGroup, dict(discriminant=-23, forms=((1, 1, 6),), structure=G(3))),
    (LocalFactors, dict(prime=3, free_rank=1, cyclic=((1, 2),), full_tower=False)),
    (ProfiniteDescriptor, dict(free_rank=1, local_factors=(LOCAL,), all_primes_tower=False)),
    (DiscreteTorsionDescriptor, dict(free_rank=1, local_factors=(LOCAL,), all_primes_tower=False)),
    (TruncationSpec, dict(prime=2, sub=G(2), quotient_exponents=(1, 2), div_level=1)),
    (SurvivorClass, dict(group=G(2, 8), sub_generators=(ELEMENT,), quotient_form=G(2, 4), max_level=1)),
    (ExtensionReport, dict(spec=SPEC, classes=(SURVIVOR,), level_counts=((0, 1), (1, 1)))),
    (UniquenessCase, dict(
        exponents=(1, 2), level_counts=((0, 3),), saturation_level=0,
        survivors=(G(2, 8),), canonical=G(2, 8), passed=True,
    )),
    (UniquenessReport, dict(prime=2, sub=G(2), cases=(CASE,))),
    (DiagramCheck, dict(passed=False, reason="socle sizes differ", counterexample=ELEMENT)),
    (SplitData, dict(source=SplitSource.USER_SUPPLIED, group=G(3))),
    (SplitTable, dict(user={-23: G(3)})),
    (GaloisAbelianType, dict(split_group=G(2))),
    (FieldClassification, dict(
        discriminant=-35, class_number=2, split=SPLIT, abelian_type=GaloisAbelianType(G(2))
    )),
    (BatchError, dict(discriminant=-4, error="ExcludedField", message="excluded", exit_code=2)),
    (BatchCell, dict(split_group=G(2), discriminants=(-35, -51))),
    (BatchPartition, dict(cells=(CELL,), errors=(ERROR,))),
    (FunctionFieldInput, dict(characteristic=2, constant_exponent=12, class_group_deg0=G(4, 3))),
    (FunctionFieldType, dict(characteristic=2, prime_to_p_exponent=3, nonp_class=G(3))),
]


@pytest.mark.parametrize("cls, fields", EXAMPLES, ids=[cls.__name__ for cls, _ in EXAMPLES])
def test_records_are_immutable_values(cls, fields):
    by_name = cls(**fields)
    by_position = cls(*fields.values())
    assert [getattr(by_name, name) for name in fields] == list(fields.values())
    assert by_name == by_position and not by_name != by_position
    if cls is not SplitTable:  # a dict field leaves it unhashable
        assert hash(by_name) == hash(by_position)
    assert by_name != tuple(fields.values())
    assert copy.deepcopy(by_name) == by_name == pickle.loads(pickle.dumps(by_name))
    first = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(by_name, first, fields[first])
    with pytest.raises(AttributeError):
        delattr(by_name, first)
    with pytest.raises(AttributeError):
        by_name.extra = 1
    assert repr(by_name).startswith(f"{cls.__name__}({first}=")


@pytest.mark.parametrize("cls, fields", EXAMPLES, ids=[cls.__name__ for cls, _ in EXAMPLES])
def test_records_take_mixed_arguments(cls, fields):
    names, values = list(fields), list(fields.values())
    by_position = cls(*values)
    for cut in range(len(names) + 1):
        assert cls(*values[:cut], **dict(zip(names[cut:], values[cut:]))) == by_position


@pytest.mark.parametrize("cls, fields", EXAMPLES, ids=[cls.__name__ for cls, _ in EXAMPLES])
def test_records_refuse_wrong_fields(cls, fields):
    names, values = list(fields), list(fields.values())
    if cls not in (SplitTable, ProfiniteDescriptor, DiscreteTorsionDescriptor):  # all defaulted
        with pytest.raises(TypeError, match=names[0]):
            cls(**dict(zip(names[1:], values[1:])))
    with pytest.raises(TypeError, match="extra_field"):
        cls(*values, extra_field=1)
    with pytest.raises(TypeError, match=names[0]):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values, values[-1])


def test_groups_are_immutable_values():
    g = G(2, 4)
    cells = {g: (-35,)}
    with pytest.raises(AttributeError):
        g._primary = ((3, (1,)),)
    with pytest.raises(AttributeError):
        del g._factor_orders
    with pytest.raises(AttributeError):
        g.extra = 1
    assert (str(g), g.order, g.primes) == ("2,4", 8, (2,)) and cells[G(4, 2)] == (-35,)
    for h in (G(), g, G(9, 2, 7), G.from_prime_exponents(10**12 + 39, (2, 1))):
        for twin in (copy.copy(h), copy.deepcopy(h), pickle.loads(pickle.dumps(h))):
            assert twin == h and hash(twin) == hash(h) and str(twin) == str(h)


def test_record_equality_is_by_class_and_value():
    assert ProfiniteDescriptor(1) != DiscreteTorsionDescriptor(1)
    assert hash(ProfiniteDescriptor(1)) == hash(ProfiniteDescriptor(1))
    assert GroupElement(G(4), (1,)) != GroupElement(G(8), (1,))
    assert GroupElement(G(4), (1,)) != GroupElement(G(4), (3,))
    assert repr(LOCAL) == "LocalFactors(prime=3, free_rank=1, cyclic=((1, 2),), full_tower=False)"
    assert len({LOCAL, LocalFactors(3, 1, ((1, 2),), False), LocalFactors(2)}) == 2


def test_record_defaults():
    assert DiagramCheck(True) == DiagramCheck(True, None, None)
    assert bool(DiagramCheck(True)) and not DiagramCheck(False, "why")
    assert TruncationSpec(2, G(2), [1, 2]) == TruncationSpec(2, G(2), (1, 2), 0)
    from_list = GroupElement(G(4), [1])
    assert from_list == GroupElement(G(4), (1,)) and hash(from_list) == hash(GroupElement(G(4), (1,)))
    assert LocalFactors(2) == LocalFactors(2, 0, (), False)
    assert ProfiniteDescriptor() == ProfiniteDescriptor(0, (), False)
    assert DiscreteTorsionDescriptor() == DiscreteTorsionDescriptor(0, (), False)
    first, second = SplitTable(), SplitTable()
    assert first.user == {} and first.user is not second.user
