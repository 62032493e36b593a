"""Value semantics of the package's record types: equality and hash by value,
the repr text, no assignment or deletion after construction, and the
construction checks."""
import copy
import pickle

import pytest

from spectra_persist.complexes import Generator
from spectra_persist.errors import UsageError
from spectra_persist.fields import PrimeField, RationalField
from spectra_persist.linalg import SparseMatrix
from spectra_persist.persistence import INF, BarEntry
from spectra_persist.spectral import CheckResult

# (make, a value that differs, repr, field names, hashable)
RECORDS = {
    "Generator": (lambda: Generator(0, 1, 2, "a"), Generator(0, 1, 2, "b"),
                  "Generator(gid=0, degree=1, filtration=2, name='a')",
                  ("gid", "degree", "filtration", "name"), True),
    "BarEntry": (lambda: BarEntry(1, 2, 3), BarEntry(1, 2, INF),
                 "BarEntry(degree=1, birth=2, lifetime=3)", ("degree", "birth", "lifetime"), True),
    "PrimeField": (lambda: PrimeField(5), PrimeField(7), "PrimeField(p=5)", ("p",), True),
    "RationalField": (RationalField, PrimeField(2), "RationalField()", (), True),
    "SparseMatrix": (lambda: SparseMatrix(3, [[(0, 1), (2, 1)], []]), SparseMatrix(3, [[(0, 1)]]),
                     "SparseMatrix(n_rows=3, columns=[[(0, 1), (2, 1)], []])",
                     ("n_rows", "columns"), False),
    "CheckResult": (lambda: CheckResult("pages-equal", True), CheckResult("pages-equal", False),
                    "CheckResult(name='pages-equal', passed=True, detail='')",
                    ("name", "passed", "detail"), True),
}


@pytest.mark.parametrize("make, other, text, fields, hashable", RECORDS.values(), ids=RECORDS)
def test_records_are_values(make, other, text, fields, hashable):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a != other and other != a
    assert repr(a) == text
    if hashable:
        assert hash(a) == hash(b) and len({a, b, other}) == 2
    else:  # it holds a list
        with pytest.raises(TypeError):
            hash(a)
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b


def test_field_equality_does_not_cross_field_types():
    assert PrimeField(2) != RationalField() and RationalField() == RationalField()
    assert {PrimeField(2): "gf2", RationalField(): "q"}[PrimeField(2)] == "gf2"


@pytest.mark.parametrize("make, message", [
    (lambda: PrimeField(4), "modulus 4 is not prime"),
    (lambda: PrimeField(2 ** 89 - 1), "is too large"),
    (lambda: BarEntry(0, 0, 0), "lifetime must be a positive integer or inf, got 0"),
    (lambda: BarEntry(0, 0, 1.5), "lifetime must be a positive integer or inf, got 1.5"),
    (lambda: SparseMatrix(2, [[(0, 1)], [(2, 1)]]), "row 2 out of range for 2 rows"),
    (lambda: SparseMatrix(2, [[(1, 1), (0, 1)]]), "column rows must be strictly increasing"),
], ids=["composite", "too-large", "zero-lifetime", "float-lifetime", "row-range", "row-order"])
def test_records_keep_their_construction_checks(make, message):
    with pytest.raises(UsageError, match=message.replace("(", r"\(")):
        make()


@pytest.mark.parametrize("record, name, bad, message", [
    (PrimeField(5), "p", 4, "modulus 4 is not prime"),
    (BarEntry(0, 0, 1), "lifetime", 0, "lifetime must be a positive integer or inf, got 0"),
    (SparseMatrix(2, [[(1, 1)]]), "n_rows", 1, "row 1 out of range for 1 rows"),
    (SparseMatrix(2, [[(1, 1)]]), "columns", [[(1, 1), (0, 1)]],
     "column rows must be strictly increasing"),
], ids=["PrimeField", "BarEntry", "SparseMatrix-rows", "SparseMatrix-columns"])
def test_make_replace_copy_and_pickle_keep_the_construction_checks(record, name, bad,
                                                                    message):
    values = [bad if field == name else value for field, value in zip(record._fields, record)]
    match = message.replace("(", r"\(")
    with pytest.raises(UsageError, match=match):
        type(record)._make(values)
    with pytest.raises(UsageError, match=match):
        record._replace(**{name: bad})
    assert type(record)._make(record) == record and record._replace() == record
    forged = tuple.__new__(type(record), values)  # what no constructor lets through
    for rebuild in [copy.copy, copy.deepcopy] + [
            lambda r, proto=proto: pickle.loads(pickle.dumps(r, proto))
            for proto in range(pickle.HIGHEST_PROTOCOL + 1)]:
        with pytest.raises(UsageError, match=match):
            rebuild(forged)
        assert rebuild(record) == record


def test_fields_are_true():
    assert bool(RationalField()) and bool(PrimeField(2))
