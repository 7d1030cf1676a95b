"""Value semantics of the package's small types: one shared instance per
field, equality and hashing by value elsewhere, immutability where the type
is a value, and the repr text."""

import copy
import gc
import pickle

import pytest

from kleinfour import field as field_module
from kleinfour.ascurve import Invariants
from kleinfour.census import CensusCell
from kleinfour.construct import Recipe
from kleinfour.field import GF2, GF4, BinaryField
from kleinfour.klein4 import Partition
from kleinfour.poly import Poly
from kleinfour.ratfun import INFINITY, Place, PoleDivisor
from kleinfour.realize import Verdict
from kleinfour.zeta import LPoly, Report

# GF(32) with a modulus other than the default one, which no module holds
OTHER_GF32 = (5, 0b101111)


def x_plus_1():
    return Poly(GF2, (1, 1))


# name: (a builder of one value, the attribute to assign, its repr)
VALUES = {
    "BinaryField": (lambda: BinaryField(3, 0b1101), "degree",
                    "BinaryField(3, 0b1101)"),
    "Poly": (lambda: Poly(GF4, (1, 2)), "coeffs", "Poly(GF(4), a*x + 1)"),
    "Place": (lambda: Place(x_plus_1()), "poly", "Place(x + 1)"),
    "PoleDivisor": (
        lambda: PoleDivisor(((Place(x_plus_1()), 3), (INFINITY, 1))),
        "entries",
        "PoleDivisor(entries=((Place(x + 1), 3), (Place(infinity), 1)))"),
    "Recipe": (
        lambda: Recipe("S0", {"a": 1}, Recipe("S1")), "base",
        "Recipe(lemma='S0', params={'a': 1}, "
        "base=Recipe(lemma='S1', params={}, base=None))"),
    "Verdict": (lambda: Verdict(True, "none", "c"), "clause",
                "Verdict(exists=True, clause='none', citation='c')"),
    "LPoly": (lambda: LPoly((1, 2, 2), 2), "q",
              "LPoly(coeffs=(1, 2, 2), q=2)"),
    "Invariants": (lambda: Invariants(1, 0), "genus",
                   "Invariants(genus=1, two_rank=0)"),
    "Partition": (lambda: Partition(2, 2, 1), "entries", "Partition(2, 2, 1)"),
    "CensusCell": (
        lambda: CensusCell(1, 0, (1, 0, 0), 4, None), "witness_count",
        "CensusCell(g=1, sigma=0, type=(1, 0, 0), witness_count=4, "
        "example=None)"),
}


@pytest.mark.parametrize("name", VALUES)
def test_values_compare_by_value_and_refuse_assignment(name):
    make, attribute, text = VALUES[name]
    a, b = make(), make()
    assert a == b and not a != b
    assert copy.deepcopy(a) == a
    if name == "BinaryField":
        assert a is b and copy.copy(a) is a
    if name == "Recipe":
        with pytest.raises(TypeError):  # params is a dict
            hash(a)
    else:
        assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, attribute, getattr(b, attribute))
    assert getattr(a, attribute) == getattr(b, attribute)
    assert repr(a) == text


@pytest.mark.parametrize("name", VALUES)
def test_values_survive_a_pickle_round_trip(name):
    a = VALUES[name][0]()
    b = pickle.loads(pickle.dumps(a))
    assert b == a and repr(b) == repr(a)


def test_a_pickled_poly_keeps_its_code_and_field():
    F = BinaryField(*OTHER_GF32)
    for p in (Poly(GF4, (1, 2)), Poly(F, (0, 31, 1)), Poly.zero(GF2)):
        q = pickle.loads(pickle.dumps(p))
        assert q == p and q.field is p.field
        assert q.code == p.code and q.coeffs == p.coeffs


def test_one_field_per_modulus():
    assert BinaryField(2, 0b111) is GF4
    assert BinaryField.default(1) is GF2
    # a refused modulus raises every time and is never registered
    for _ in range(2):
        with pytest.raises(ValueError, match="reducible"):
            BinaryField(2, 0b101)
    assert (2, 0b101) not in field_module._FIELDS
    # the registry holds only live fields: a dropped field leaves it, and
    # the field built again is shared by every later build
    F = BinaryField(*OTHER_GF32)
    assert field_module._FIELDS[OTHER_GF32] is F
    del F
    gc.collect()
    assert OTHER_GF32 not in field_module._FIELDS
    F, G = BinaryField(*OTHER_GF32), BinaryField(*OTHER_GF32)
    assert F is G and Poly(F, (1, 1)) == Poly(G, (1, 1))
    assert F != BinaryField.default(5)
    assert Poly(F, (1, 1)) != Poly(BinaryField.default(5), (1, 1))


def test_a_poly_never_equals_a_tuple():
    p = x_plus_1()
    assert p != (1, 1) and p != (GF2, (1, 1))
    assert (1, 1) != p


def test_a_report_stays_mutable():
    report = Report(target="curve", formula={}, oracle={})
    assert report.confirmed
    report.status = "mismatch"
    report.quotients.append(report)
    assert not report.confirmed and report.quotients == [report]
