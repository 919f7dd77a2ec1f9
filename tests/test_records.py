"""Every value class of the package is a frozen record on one base: equality
and hashing by field, immutability, constructor checks, and copies.  The
ValueError checks of RootOfUnity and RealQ are in test_roots."""

import copy
import pickle

import pytest

import qdeform
from qdeform import QPoly, RealQ, RootOfUnity, _Record, decompose, q_numbers

ROOT = RootOfUnity(6, 2)
# one value of each of the 5 record classes; the check results are dicts
VALUES = [QPoly([1, 2]), ROOT, RealQ(0.5), q_numbers(ROOT), decompose(ROOT)]


def test_the_values_cover_every_record_class():
    assert len({type(value) for value in VALUES}) == 5
    for name in qdeform.__all__:  # load every layer, so each record class exists
        getattr(qdeform, name)
    defined = {cls for cls in _Record.__subclasses__() if cls.__module__.startswith("qdeform.")}
    assert defined == set(map(type, VALUES))


@pytest.mark.parametrize("value", VALUES, ids=lambda value: type(value).__name__)
def test_every_value_class_is_a_frozen_record(value):
    cls, fields = type(value), dict(vars(value))

    twin = cls(*fields.values())
    assert twin == value and cls(**fields) == value
    assert hash(twin) == hash(value) == hash(tuple(fields.values()))
    assert value != tuple(fields.values())  # equal only within one class
    if cls is not QPoly:  # QPoly renders its coefficients as a polynomial
        shown = ", ".join(f"{name}={field!r}" for name, field in fields.items())
        assert repr(value) == f"{cls.__name__}({shown})"

    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert vars(value) == fields

    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(*fields.values(), unknown=None)
    if fields and cls is not QPoly:  # QPoly's one field defaults to the zero polynomial
        with pytest.raises(TypeError):
            cls(*list(fields.values())[1:])

    for duplicate in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        double = duplicate(value)
        assert type(double) is cls and double == value and hash(double) == hash(value)


def test_records_of_different_classes_differ():
    class Twin(_Record):
        value: float

    assert RealQ(2.0) != RootOfUnity(2, 1)
    assert RealQ(2.0) != Twin(2.0) and Twin(2.0) == Twin(2.0)
    assert RootOfUnity(6, 2) != RootOfUnity(6, 1)

