"""Tests for the frozen record type of the lean modules."""

from __future__ import annotations

import copy
import pickle
from dataclasses import dataclass, make_dataclass
from datetime import date

import pytest

from newsmotion import cli
from newsmotion.config import SECTIONS, PipelineConfig
from newsmotion.dates import DateRange
from newsmotion.errors import ValidationError
from newsmotion.record import Record


class Pair(Record):
    left: int
    right: str = "r"
    extra: tuple = ()

    def __post_init__(self):
        if self.left < 0:
            raise ValidationError("left must be non-negative")


def _twin(record: Record):
    """A frozen dataclass of the record's class name, fields and values."""
    cls = make_dataclass(
        type(record).__qualname__,
        [(name, object) for name in record._fields],
        frozen=True,
    )
    return cls(*(getattr(record, name) for name in record._fields))


class TestFields:
    def test_fields_and_defaults_follow_the_annotations(self):
        assert Pair._fields == ("left", "right", "extra")
        assert Pair._field_defaults == {"right": "r", "extra": ()}

    @pytest.mark.parametrize(
        "args, kwargs",
        [((1, "x", (2,)), {}), ((), {"left": 1, "right": "x", "extra": (2,)})],
        ids=["positional", "keyword"],
    )
    def test_every_field_given_by_position_or_keyword(self, args, kwargs):
        pair = Pair(*args, **kwargs)
        assert (pair.left, pair.right, pair.extra) == (1, "x", (2,))

    def test_defaults_fill_the_fields_not_given(self):
        pair = Pair(3)
        assert (pair.left, pair.right, pair.extra) == (3, "r", ())

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            ((), {}),
            ((1, "x", (), 4), {}),
            ((1,), {"left": 2}),
            ((1,), {"middle": 2}),
        ],
        ids=["missing", "too-many", "repeated", "unknown"],
    )
    def test_a_bad_call_is_a_type_error(self, args, kwargs):
        with pytest.raises(TypeError, match="Pair"):
            Pair(*args, **kwargs)

    def test_post_init_checks_the_values(self):
        with pytest.raises(ValidationError, match="left"):
            Pair(-1)


class TestFrozen:
    def test_fields_cannot_be_assigned_or_deleted(self):
        pair = Pair(1)
        with pytest.raises(AttributeError, match="left"):
            pair.left = 2
        with pytest.raises(AttributeError, match="left"):
            del pair.left
        assert pair.left == 1

    def test_replace_makes_a_checked_copy(self):
        pair = Pair(1, "x")
        assert pair._replace(left=2) == Pair(2, "x")
        assert pair == Pair(1, "x")
        with pytest.raises(ValidationError):
            pair._replace(left=-1)

    def test_copies_and_pickles_are_equal(self):
        pair = Pair(1, "x", (2, 3))
        for other in (copy.copy(pair), copy.deepcopy(pair), pickle.loads(pickle.dumps(pair))):
            assert other == pair and hash(other) == hash(pair)


class TestLikeAFrozenDataclass:
    """Equality, hashing and repr read as a frozen dataclass's would."""

    def test_equal_values_of_one_class_are_equal(self):
        assert Pair(1) == Pair(1, "r", ())
        assert hash(Pair(1)) == hash(Pair(1, "r", ()))
        assert Pair(1) != Pair(2)
        assert Pair(1) != Pair(1, "s")

    def test_another_class_with_the_same_values_differs(self):
        @dataclass(frozen=True)
        class Other:
            left: int
            right: str = "r"
            extra: tuple = ()

        class Twin(Record):
            left: int
            right: str = "r"
            extra: tuple = ()

        assert Pair(1) != Twin(1)
        assert Pair(1) != Other(1)
        assert Pair(1) != (1, "r", ())

    def test_repr_is_the_dataclass_repr(self):
        sections = [cls() for cls in SECTIONS.values()]
        records = [
            Pair(1, "x", (2,)),
            DateRange(date(2012, 1, 2), date(2012, 3, 4)),
            *cli.UNITS.values(),
            *sections,
            PipelineConfig(*sections),
        ]
        for record in records:
            assert repr(record) == repr(_twin(record))
            assert hash(record) == hash(_twin(record))
