"""Frozen records: construction, defaults, equality, hashing and
immutability of the library's value classes."""

from fractions import Fraction

import pytest

from toridyn import (AmplifiedVerdict, ClassificationReport, DomainError,
                     FixedPointSet, MagnitudeEntry, PolarizedVerdict,
                     RationalMatrix, Sublattice, fixed_points, full_report)
from toridyn._record import Record
from toridyn.scenarios import CMOrder, gaussian_order, get_example


def _sublattice(completion):
    """The rank-1 sublattice spanned by e_1 in Z^2, with a unimodular
    completion whose first column is e_1."""
    completion = RationalMatrix(completion)
    return Sublattice(2, RationalMatrix([[1], [0]]), completion.inverse(), completion)


def test_equality_and_hash_ignore_the_derived_fields():
    s, t = _sublattice([[1, 0], [0, 1]]), _sublattice([[1, 1], [0, 1]])
    assert s.coordinates != t.coordinates and s.completion != t.completion
    assert s == t and hash(s) == hash(t)
    assert "coordinates" not in repr(s) and "completion" not in repr(s)


def test_fields_cannot_be_assigned_or_deleted():
    v = PolarizedVerdict("yes", 4)
    with pytest.raises(AttributeError):
        v.q = 5
    with pytest.raises(AttributeError):
        v.extra = 1
    with pytest.raises(AttributeError):
        del v.verdict
    assert v.q == 4


def test_missing_extra_unknown_and_repeated_fields_raise_type_error():
    with pytest.raises(TypeError):
        AmplifiedVerdict("yes")
    with pytest.raises(TypeError):
        AmplifiedVerdict("yes", "path", None, "extra")
    with pytest.raises(TypeError):
        AmplifiedVerdict("yes", path="path", bogus=1)
    with pytest.raises(TypeError):
        AmplifiedVerdict("yes", "path", verdict="no")
    assert (AmplifiedVerdict(path="p", verdict="yes")
            == AmplifiedVerdict("yes", "p") == AmplifiedVerdict("yes", "p", None))


def test_defaults_apply():
    assert PolarizedVerdict("no") == PolarizedVerdict("no", None, None, "")
    empty = FixedPointSet("empty")
    assert (empty.denominator, empty.columns, empty.subtorus) == (1, (), None)
    report = full_report(get_example("mult_2_3").endo)
    fields = {name: getattr(report, name)
              for name in ClassificationReport.__annotations__ if name != "notes"}
    assert ClassificationReport(**fields).notes == ()


def test_post_init_still_validates():
    g = gaussian_order()
    with pytest.raises(DomainError):
        CMOrder("bad", g.generator * 2, g.j_block, (1, 0, 1))
    half = RationalMatrix([[Fraction(1, 2)], [0]])
    with pytest.raises(DomainError):
        Sublattice(2, half, RationalMatrix.identity(2), RationalMatrix.identity(2))


class _Pair(Record):
    a: int
    b: int


class _OtherPair(Record):
    a: int
    b: int


def test_records_of_different_classes_are_never_equal():
    assert _Pair(1, 2) == _Pair(1, 2) and _Pair(1, 2) != _Pair(2, 1)
    assert _Pair(1, 2) != _OtherPair(1, 2)
    assert _Pair(1, 2) != (1, 2)
    assert MagnitudeEntry(1, 1, 2) != AmplifiedVerdict(1, 1, 2)


def test_cached_properties_and_explicit_hashes_survive_freezing():
    f = get_example("gtz_diag").endo
    assert hash(f) == f._hash and hash(f.torus) == f.torus._hash
    assert f.degree_matrix_det == f.__dict__["degree_matrix_det"] == f.m.det()
    fp = fixed_points(f)
    assert fp.rows is fp.rows and len(fp.rows) == fp.count()
