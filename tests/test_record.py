"""Record semantics: what the package's reports and parameter sets rely on,
checked on small local records and on the package's own classes."""

import dataclasses
from fractions import Fraction

import pytest

from extraspecial import ASReport, INF, OracleReport, TowerParams, Tower, verify_family
from extraspecial.planner import Check, PlanReport, family_params
from extraspecial.ramification import RamCheck
from extraspecial.record import Record


class Pair(Record, frozen=True):
    a: int
    b: int = 2


class Twin(Record, frozen=True):
    a: int
    b: int = 2


class Box(Record):
    items: tuple
    label: str = "box"

    def __post_init__(self):
        if not isinstance(self.items, tuple):
            raise ValueError("items must be a tuple")


@dataclasses.dataclass(frozen=True)
class DataPair:
    a: int
    b: int = 2


class TestConstruction:
    def test_by_position_keyword_and_default(self):
        assert Pair(1, 3).b == Pair(1, b=3).b == Pair(b=3, a=1).b == 3
        assert Pair(1).b == 2
        assert (Box(()).items, Box(()).label) == ((), "box")

    @pytest.mark.parametrize("args, kwargs", [
        ((), {}),                      # missing a
        ((1, 2, 3), {}),               # too many
        ((1,), {"c": 3}),              # unknown field
        ((1,), {"a": 1}),              # given twice
    ])
    def test_bad_fields_are_type_errors(self, args, kwargs):
        with pytest.raises(TypeError):
            Pair(*args, **kwargs)

    def test_fields_are_the_own_annotations_in_order(self):
        assert Pair._fields == ("a", "b")
        assert PlanReport._fields[-1] == "notes" and PlanReport._defaults == {"notes": ()}
        assert RamCheck._defaults == {"equality": False}


class TestPostInit:
    def test_runs_on_construction_and_on_replace(self):
        with pytest.raises(ValueError):
            Box([1])
        box = Box((1,))
        with pytest.raises(ValueError):
            box.replace(items=[1])
        assert box.replace(label="crate") == Box((1,), "crate")
        assert box == Box((1,))

    def test_tower_params_validate_again_on_replace(self):
        params = family_params("H", 3, 1, 1, 1, INF, None)
        with pytest.raises(ValueError, match="p = 9"):
            params.replace(p=9)
        with pytest.raises(ValueError, match="p = 9"):
            TowerParams(9, 1, "H", INF, 1, params.m, params.leads, params.field)
        assert params.replace(variant="M").variant == "M"
        assert params.replace() == params

    def test_replace_refuses_an_unknown_field(self):
        with pytest.raises(TypeError):
            Pair(1).replace(c=3)


class TestEquality:
    def test_same_class_compares_fields(self):
        assert Pair(1) == Pair(1, 2)
        assert Pair(1) != Pair(2)

    def test_other_classes_compare_unequal(self):
        assert Pair(1) != Twin(1)
        assert Pair(1) != (1, 2)
        assert Pair(1).__eq__(Twin(1)) is NotImplemented


class TestRepr:
    def test_dataclass_format(self):
        assert repr(Pair(1)) == "Pair(a=1, b=2)"
        assert repr(Pair(1)) == repr(DataPair(1)).replace("DataPair", "Pair")
        assert repr(Box(("x",))) == "Box(items=('x',), label='box')"

    def test_nested_records(self):
        check = Check("c1", "x < y", True, Fraction(1, 3))
        assert repr(check) == ("Check(id='c1', text='x < y', holds=True, "
                               "slack=Fraction(1, 3), strict=True)")


class TestFrozen:
    def test_refuses_assignment_and_deletion(self):
        pair = Pair(1)
        with pytest.raises(AttributeError):
            pair.a = 5
        with pytest.raises(AttributeError):
            pair.other = 5
        with pytest.raises(AttributeError):
            del pair.a
        assert pair == Pair(1)

    def test_hashes_by_fields(self):
        assert hash(Pair(1)) == hash((1, 2)) == hash(Pair(1, 2))
        assert {Pair(1): "x"}[Pair(1, 2)] == "x"
        params = family_params("H", 3, 1, 1, 1, INF, None)
        assert hash(params) == hash(params.replace())

    def test_non_frozen_is_unhashable_and_mutable(self):
        box = Box(())
        with pytest.raises(TypeError):
            hash(box)
        box.label = "crate"
        assert box.label == "crate"

    @pytest.mark.parametrize("cls, frozen", [
        (TowerParams, True), (PlanReport, True), (Check, True), (RamCheck, True),
        (ASReport, True), (Tower, False), (OracleReport, False)])
    def test_package_records_keep_their_kind(self, cls, frozen):
        assert (cls.__hash__ is not None) == frozen


def test_oracle_report_round_trips_through_replace():
    report = verify_family("H", 3, 1, 1, 1)
    again = report.replace()
    assert again == report and again is not report
    assert again.to_dict() == report.to_dict()
    assert report.replace(passed=False).to_dict()["passed"] is False
