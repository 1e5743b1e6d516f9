"""`mwglue.record.Record` against the `dataclasses` behaviour it replaces.

The references are dataclasses built here with the same names and fields.
"""

from __future__ import annotations

import dataclasses
import pickle
from fractions import Fraction

import pytest

from mwglue import poly as P
from mwglue.arith import SquareClass, SquareClassTriple
from mwglue.ellcurve import ECPoint
from mwglue.etale import CubicEtaleAlgebra, NonSquare, NonSquareCertificate, Unknown
from mwglue.example import Step
from mwglue.fixtures import EXAMPLE_E
from mwglue.record import Record


class Pair(Record):
    a: int
    b: str = "x"


class Other(Record):
    a: int
    b: str = "x"


def _reference(cls):
    """A frozen dataclass with the name and fields of a Record class."""
    ref = dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)
    ref.__qualname__ = cls.__qualname__
    return ref


class TestConstruction:
    def test_positional_keyword_and_default(self):
        assert Pair(1, "y") == Pair(a=1, b="y") == Pair(1, b="y")
        assert Pair(1).b == "x"
        assert Pair(b="z", a=2)._asdict() == {"a": 2, "b": "z"}

    def test_fields_follow_the_annotations(self):
        assert Pair._fields == ("a", "b")
        assert Step._fields == ("name", "passed", "detail")

    @pytest.mark.parametrize(
        "args, kwargs",
        [((), {}), ((), {"b": "y"}), ((1, "y", 3), {}), ((1,), {"c": 3}), ((1,), {"a": 2})],
    )
    def test_missing_unknown_or_repeated_field(self, args, kwargs):
        with pytest.raises(TypeError):
            Pair(*args, **kwargs)

    def test_post_init_keeps_validating(self):
        with pytest.raises(ValueError):
            ECPoint(Fraction(1), None)
        # an integral coordinate is stored as an int, even when given as a Fraction
        point = ECPoint(Fraction(1), 2)
        assert (point.x, point.y) == (1, 2) and type(point.x) is int and type(point.y) is int
        assert type(ECPoint(Fraction(1, 2), 0).x) is P.Rational

    def test_square_class_validates_in_its_own_init(self):
        assert "__init__" in vars(SquareClass)
        assert SquareClass(negative=True, primes=(2, 3)) == SquareClass(True, (2, 3))
        with pytest.raises(ValueError):
            SquareClass(False, (3, 2))
        with pytest.raises(ValueError):
            SquareClass(False, (4,))


class TestEqualityAndHash:
    def test_other_type_is_never_equal(self):
        assert Pair(1) != Other(1)
        assert Pair(1) != (1, "x")
        assert Pair.__eq__(Pair(1), Other(1)) is NotImplemented

    def test_hash_agrees_with_equality(self):
        assert Pair(1) == Pair(1, "x") and hash(Pair(1)) == hash(Pair(1, "x"))
        assert len({Pair(1), Pair(1, "x"), Pair(2)}) == 2
        t = SquareClassTriple.from_rationals(2, 3, 6)
        assert hash(t) == hash(SquareClassTriple.from_rationals(8, 27, 6))

    def test_hash_is_the_dataclass_hash(self):
        ref = _reference(Step)
        assert hash(Step("torsion", True)) == hash(ref("torsion", True, ""))
        assert hash(Pair(5)) == hash(_reference(Pair)(5, "x"))
        # one field hashes as a one-tuple
        assert hash(Unknown(200)) == hash(_reference(Unknown)(200))

    def test_cached_property_stays_out_of_equality_and_hash(self):
        a = CubicEtaleAlgebra.from_cubic(EXAMPLE_E.f_poly())
        b = CubicEtaleAlgebra.from_cubic(EXAMPLE_E.f_poly())
        h = hash(b)
        assert a.disc == P.cubic_disc(a.f)  # fills a's cache only
        assert "disc" in vars(a) and "disc" not in vars(b)
        assert a == b and hash(a) == h
        assert "disc" not in repr(a) and "disc" not in a._asdict()


class TestKeptHash:
    @pytest.mark.parametrize("make", [
        lambda: Pair(5),
        lambda: Step("torsion", True),
        lambda: ECPoint.affine(Fraction(-2, 3), 1),
        ECPoint.infinity,
        lambda: EXAMPLE_E,
    ], ids=["Pair", "Step", "ECPoint", "infinity", "EllipticCurve"])
    def test_hash_is_the_dataclass_hash_before_and_after_it_is_kept(self, make):
        record = make()
        expected = hash(_reference(type(record))(*record._values(record)))
        assert hash(record) == expected
        assert vars(record)["_hash"] == expected
        assert hash(record) == expected

    def test_kept_hash_stays_out_of_equality_repr_and_asdict(self):
        a, b = Step("torsion", True), Step("torsion", True)
        hash(a)
        assert "_hash" in vars(a) and "_hash" not in vars(b)
        assert a == b and b == a
        assert repr(a) == repr(b) == repr(_reference(Step)("torsion", True, ""))
        assert a._asdict() == b._asdict() == {"name": "torsion", "passed": True, "detail": ""}

    def test_unhashable_field_raises_on_every_call(self):
        record = Pair([1])
        for _ in range(2):
            with pytest.raises(TypeError):
                hash(record)
        assert "_hash" not in vars(record)

    def test_pickle_carries_no_hash(self):
        # str hashes differ between processes
        record = Step("torsion", True)
        hash(record)
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and "_hash" not in vars(copy) and hash(copy) == hash(record)


class TestFrozen:
    def test_assignment_and_deletion_raise(self):
        x = Pair(1)
        with pytest.raises(AttributeError):
            x.a = 2
        with pytest.raises(AttributeError):
            x.c = 2
        with pytest.raises(AttributeError):
            del x.a
        assert x == Pair(1)


@pytest.mark.parametrize(
    "record",
    [
        Pair(1),
        NonSquareCertificate(13, 0, 3, 5),
        ECPoint.affine(-2, 1),
        ECPoint.infinity(),
        SquareClass(True, (2, 229)),
        Unknown(50),
        NonSquare(NonSquareCertificate(13, 0, 3, 5)),
    ],
    ids=lambda r: type(r).__name__,
)
def test_repr_and_asdict_match_dataclasses(record):
    values = [getattr(record, f) for f in record._fields]
    ref = _reference(type(record))(*values)
    assert repr(record) == repr(ref)
    assert record._asdict() == dataclasses.asdict(ref)
