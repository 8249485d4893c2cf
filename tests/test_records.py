"""The immutable record types behave as the frozen dataclasses they are
written in place of: each is held to a reference dataclass with the same
fields, for repr, equality, hash and order.  Importing the package must not
load ``dataclasses`` or ``inspect``."""

import copy
import os
import pickle
import random
import re
import subprocess
import sys
from dataclasses import make_dataclass
from fractions import Fraction
from pathlib import Path

import pytest

from brauercat.category import CentralityReport
from brauercat.csp import CspCertificate, CspInstance
from brauercat.expr import Chain, Diag, Name, Num
from brauercat.matchings import Diagram, PerfectMatching, enumerate_matchings
from brauercat.pfaffian import PfGenerator
from brauercat.qpoly import QPolynomial
from brauercat.tableaux import OscillatingTableau

ROOT = Path(__file__).resolve().parent.parent
PM = PerfectMatching
POLY = QPolynomial([1, 0, 1])

# (class, field names in order, positional arguments, the fields they store)
CASES = [
    (PM, ("pairs",), (((4, 1), (3, 2)),), (((1, 4), (2, 3)),)),
    (Diagram, ("r", "s", "matching"), (1, 3, PM(((1, 3), (2, 4)))),
     (1, 3, PM(((1, 3), (2, 4))))),
    (CspInstance, ("elements", "step", "order", "poly"), ((1, 2), 1, 2, POLY),
     ((1, 2), 1, 2, POLY)),
    (CspCertificate, ("passed", "size", "order", "orbit_counts", "poly", "poly_reduced",
                      "orbit_poly", "fixed_counts", "failure_divisor", "message"),
     (False, 2, 2, {2: 1}, POLY, POLY, POLY, (2, 0), 2, "differs"),
     (False, 2, 2, {2: 1}, POLY, POLY, POLY, (2, 0), 2, "differs")),
    (CentralityReport, ("passed", "witness", "detail"),
     (False, Diagram.identity(2), "x * e != e * x"),
     (False, Diagram.identity(2), "x * e != e * x")),
    (PfGenerator, ("n", "points", "subset", "rest"), (1, 6, (4, 3, 2, 1), ((6, 5),)),
     (1, 6, (1, 2, 3, 4), ((5, 6),))),
    (OscillatingTableau, ("steps",), (((), (1,), (1, 1), (1,), ()),),
     (((), (1,), (1, 1), (1,), ()),)),
    (Num, ("value", "pos"), (Fraction(3, 2), 4), (Fraction(3, 2), 4)),
    (Diag, ("diagram", "pos"), (Diagram.identity(1), 0), (Diagram.identity(1), 0)),
    (Name, ("kind", "index", "arg", "pos"), ("R", 2, 3, 5), ("R", 2, 3, 5)),
    (Chain, ("first", "rest"), (Num(Fraction(1), 0), (("+", 2, Num(Fraction(2), 4)),)),
     (Num(Fraction(1), 0), (("+", 2, Num(Fraction(2), 4)),))),
]
ORDERED = (PM, Diagram)


def reference(cls, names):
    """The frozen dataclass with ``cls``'s name and fields."""
    return make_dataclass(cls.__name__, names, frozen=True, order=cls in ORDERED)


@pytest.mark.parametrize("cls, names, args, stored", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_record_behaves_as_its_frozen_dataclass(cls, names, args, stored):
    obj = cls(*args)
    assert cls.__match_args__ == names
    assert tuple(getattr(obj, name) for name in names) == stored
    ref = reference(cls, names)(*stored)
    assert repr(obj) == repr(ref)
    twin = cls(**dict(zip(names, args)))
    assert twin == obj and twin is not obj and not twin != obj
    assert obj.__eq__(ref) is NotImplemented and obj != stored
    if cls is CspCertificate:  # a dict field leaves both unhashable
        with pytest.raises(TypeError):
            hash(ref)
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == hash(twin) == hash(ref)
        assert copy.copy(obj) == obj and pickle.loads(pickle.dumps(obj)) == obj
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    with pytest.raises(AttributeError):
        delattr(obj, names[0])
    assert tuple(getattr(obj, name) for name in names) == stored


def test_record_defaults():
    assert (CentralityReport(True).witness, CentralityReport(True).detail) == (None, "")
    cert = CspCertificate(True, 2, 2, {1: 2}, POLY, POLY, POLY, (2, 2))
    assert (cert.failure_divisor, cert.message) == (None, "")
    assert (Name("u", 1).arg, Name("u", 1).pos) == (None, 0)
    assert Name("Pf", None, arg=((1, 2),)) == Name("Pf", None, ((1, 2),), 0)


@pytest.mark.parametrize("build", [
    lambda: Num(Fraction(1)),
    lambda: Num(Fraction(1), 0, 2),
    lambda: Num(Fraction(1), 0, value=Fraction(2)),
    lambda: Num(Fraction(1), 0, width=3),
    lambda: Name("u", 1, kind="s"),
    lambda: CentralityReport(),
    lambda: CentralityReport(detail=""),
])
def test_record_refuses_missing_repeated_and_unknown_fields(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: PM(((1, 2), (2, 3))), "pairs do not form a perfect matching of 1..4: ((1, 2), (2, 3))"),
    (lambda: PM(((1, 2), (4, 5))), "pairs do not form a perfect matching of 1..4: ((1, 2), (4, 5))"),
    (lambda: Diagram(-1, 3, PM(((1, 2),))), "negative shape (-1, 3)"),
    (lambda: Diagram(1, 2, PM(((1, 2),))), "matching covers 2 points, shape needs 3"),
    (lambda: CspInstance((1,), 1, 0, POLY), "rotation order must be positive"),
    (lambda: PfGenerator(1, 6, (1, 2, 3), ((4, 5),)), "subset has 3 points, expected 4"),
    (lambda: PfGenerator(1, 6, (1, 2, 3, 4), ((4, 5),)),
     "subset and fixed matching must partition the point set"),
    (lambda: OscillatingTableau(((1,), ())), "walk must start and end at the empty shape"),
    (lambda: OscillatingTableau(((), (2,), ())),
     "consecutive shapes () and (2,) do not differ by one cell"),
])
def test_record_validation_messages(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_unchecked_matching_equals_the_checked_one():
    for m in enumerate_matchings(8):
        checked = PM(tuple(reversed([(b, a) for a, b in m.pairs])))
        unchecked = PM._from_canonical(m.pairs)
        assert checked == unchecked and hash(checked) == hash(unchecked)
        assert Diagram(3, 5, checked) == Diagram(3, 5, unchecked)
        assert hash(Diagram(3, 5, checked)) == hash(Diagram(3, 5, unchecked))


def test_matchings_and_diagrams_order_by_their_fields():
    rng = random.Random(5)
    matchings = list(enumerate_matchings(8))
    rng.shuffle(matchings)
    assert sorted(matchings) == sorted(matchings, key=lambda m: m.pairs)
    diagrams = [Diagram(r, 6 - r, m) for m in enumerate_matchings(6) for r in (0, 2, 3, 6)]
    diagrams += [Diagram(r, 4 - r, m) for m in enumerate_matchings(4) for r in range(5)]
    rng.shuffle(diagrams)
    key = lambda d: (d.r, d.s, d.matching.pairs)  # noqa: E731
    assert sorted(diagrams) == sorted(diagrams, key=key)
    for a, b in zip(diagrams, diagrams[1:] + diagrams[:1]):
        assert [a < b, a <= b, a > b, a >= b, a == b] == \
            [key(a) < key(b), key(a) <= key(b), key(a) > key(b), key(a) >= key(b), key(a) == key(b)]
    with pytest.raises(TypeError):
        matchings[0] < diagrams[0]
    with pytest.raises(TypeError):
        diagrams[0] <= diagrams[0].matching.pairs


def test_import_generates_no_code():
    """Importing the package and its CLI loads neither ``dataclasses`` nor
    ``inspect``, and no module of the package declares a dataclass."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, brauercat, brauercat.cli, brauercat.expr; "
                               "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
    declaring = [path.name for path in sorted((ROOT / "src" / "brauercat").glob("*.py"))
                 if "@dataclass" in path.read_text()]
    assert declaring == []
