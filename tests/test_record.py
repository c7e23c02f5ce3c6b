"""Record semantics: what the package's reports and parameter sets rely on,
checked on small local records and on the package's own classes."""

import dataclasses
import importlib
import pkgutil
from fractions import Fraction

import pytest

import extraspecial
from extraspecial import INF, OracleReport, TowerParams, Tower, verify_family
from extraspecial.planner import Check, PlanReport, family_params
from extraspecial.ramification import RamCheck
from extraspecial.record import Record

for _module in pkgutil.iter_modules(extraspecial.__path__):
    importlib.import_module(f"extraspecial.{_module.name}")
PACKAGE_RECORDS = sorted((cls for cls in Record.__subclasses__()
                          if cls.__module__.startswith("extraspecial.")),
                         key=lambda cls: cls.__qualname__)


class Pair(Record):
    a: int
    b: int = 2


class Twin(Record):
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
        # an unhashable field makes the record unhashable, as it makes a tuple
        with pytest.raises(TypeError):
            hash(Pair([1]))

    def test_the_package_records_are_found(self):
        assert {TowerParams, PlanReport, Check, RamCheck, Tower, OracleReport} <= set(
            PACKAGE_RECORDS)

    @pytest.mark.parametrize("cls", PACKAGE_RECORDS, ids=lambda cls: cls.__qualname__)
    def test_every_package_record_is_a_frozen_value(self, cls):
        # hashable stand-ins for the fields, set past __init__'s validation
        values = tuple(range(len(cls._fields)))
        record = object.__new__(cls)
        record.__dict__.update(zip(cls._fields, values))
        for name in (*cls._fields, "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        for name in cls._fields:
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record._values() == values
        assert hash(record) == hash(values)


def test_oracle_report_round_trips_through_replace():
    report = verify_family("H", 3, 1, 1, 1)
    again = report.replace()
    assert again == report and again is not report
    assert again.to_dict() == report.to_dict()
    assert report.replace(passed=False).to_dict()["passed"] is False
    with pytest.raises(AttributeError):
        report.passed = False
