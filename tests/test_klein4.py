import re

import pytest
from hypothesis import assume, given, settings

from conftest import rand_cover, raw_pairs
from kleinfour.ascurve import (ASCurve, DegenerateCover, ReducedForm,
                               principal_parts, reduce_form, reduce_standard)
from kleinfour.field import GF2, GF4
from kleinfour.klein4 import (InvalidCover, InvalidPartition, KleinFourCover,
                              Partition, partitions_of)
from kleinfour.census import run_census
from kleinfour.construct import construct
from kleinfour.ratfun import parse_ratfun
from kleinfour.zeta import count_points, count_points_cover, verify


def pr2(t):
    return parse_ratfun(GF2, t)


def pr4(t):
    return parse_ratfun(GF4, t)


def test_make_examples():
    c = KleinFourCover(pr2("x"), pr2("1/x"))
    assert str(c.f3) == "(x^2 + 1) / (x)"
    c = KleinFourCover(pr4("x^3 + 1/x"), pr4("a*x^3 + 1/x"))
    assert str(c.f3) == "(a+1)*x^3"
    with pytest.raises(InvalidCover):
        KleinFourCover(pr2("x"), pr2("x"))
    with pytest.raises(InvalidCover):
        KleinFourCover(pr2("x"), pr2("x^2"))  # same class after reduction
    with pytest.raises(InvalidCover):
        KleinFourCover(pr2("x"), pr2("x + 1/(x^2) + 1/x"))  # f3 constant


@pytest.mark.parametrize("f1, f2, name", [("x^2 + x", "x", "f1"),
                                          ("x", "1", "f2"),
                                          ("x + 1/x", "1/x^2 + x^2", "f1+f2")])
def test_a_constant_quotient_is_refused_at_construction(f1, f2, name,
                                                        to_ratfun_calls):
    # the message names the constant as a RatFun would print it, and
    # builds none
    constant = {"f1": "0", "f2": "1", "f1+f2": "0"}[name]
    message = (f"{name} reduces to the constant {constant}: the pair does "
               "not generate a Klein-four extension")
    for make in (pr2, lambda text: reduce_form(pr2(text))):
        with pytest.raises(InvalidCover, match=f"^{re.escape(message)}$"):
            KleinFourCover(make(f1), make(f2))
    assert to_ratfun_calls == []


@pytest.fixture
def to_ratfun_calls(monkeypatch):
    """The reduced forms `ReducedForm.to_ratfun` is called on."""
    calls = []
    real = ReducedForm.to_ratfun

    def counting(form):
        calls.append(form)
        return real(form)

    monkeypatch.setattr(ReducedForm, "to_ratfun", counting)
    return calls


def test_the_census_builds_no_ratfun(to_ratfun_calls):
    run_census(GF2, 3)
    assert to_ratfun_calls == []


def test_a_witness_builds_its_ratfuns_once_on_first_use(to_ratfun_calls):
    # the cell needs no field lift, so construct works on vectors only, and
    # verify counts from the forms; the report's JSON then builds each
    # quotient's RatFun once, shared with the cover
    cover, _ = construct(9, 5, Partition(3, 3, 3))
    assert to_ratfun_calls == []
    report = verify(cover, depth=2)
    assert to_ratfun_calls == []
    report.to_json()
    assert to_ratfun_calls == list(cover.forms)
    assert (cover.f1, cover.f2, cover.f3) == tuple(
        q.f for q in cover.quotients)
    assert len(to_ratfun_calls) == 3


@settings(max_examples=300, deadline=None)
@given(raw_pairs(nonzero=True))
def test_f3_is_the_reduced_sum(pair):
    f1, f2 = pair
    try:
        c = KleinFourCover(f1, f2)
    except (InvalidCover, DegenerateCover):
        assume(False)
    assert c.f3 == reduce_standard(reduce_standard(f1) + reduce_standard(f2))
    assert ([q.invariants for q in c.quotients]
            == [ASCurve(f).invariants for f in (f1, f2, f1 + f2)])
    # the quotients carry the reduced forms the cover was checked on
    assert c.forms == tuple(reduce_form(f) for f in (f1, f2, f1 + f2))
    assert [q.form for q in c.quotients] == [principal_parts(f) for f in
                                             (c.f1, c.f2, c.f3)]
    assert KleinFourCover(*c.forms[:2]) == c


@settings(max_examples=300, deadline=None)
@given(raw_pairs(nonzero=True))
def test_f3_is_the_ratfun_sum(pair):
    try:
        c = KleinFourCover(*pair)
    except (InvalidCover, DegenerateCover):
        assume(False)
    assert c.f3 == c.f1 + c.f2
    assert c.f3.den.is_monic


def test_cover_arguments():
    assert KleinFourCover(reduce_form(pr2("x")), pr2("1/x")) == \
        KleinFourCover(pr2("x"), pr2("1/x"))
    with pytest.raises(TypeError):
        KleinFourCover("x", pr2("1/x"))
    with pytest.raises(ValueError, match="different fields"):
        KleinFourCover(pr2("x"), pr4("1/x"))


def test_type_examples():
    assert KleinFourCover(pr4("x"), pr4("a*x")).type == Partition(0, 0, 0)
    assert KleinFourCover(pr2("x"), pr2("1/x")).type == Partition(1, 0, 0)
    c = KleinFourCover(pr4("x^3 + 1/x"), pr4("a*x^3 + 1/x"))
    assert c.type == Partition(2, 2, 1)
    assert c.invariants == (5, 2)


def test_invariants_examples():
    assert KleinFourCover(pr4("x"), pr4("a*x")).invariants == (0, 0)
    assert KleinFourCover(pr2("x"), pr2("1/x")).invariants == (1, 1)


def test_quotients():
    f1, f2 = pr2("x"), pr2("1/x")
    c = KleinFourCover(f1, f2)
    q1, q2, q3 = c.quotients
    assert q1.f == f1 and q2.f == f2
    assert q3.f == c.f3


def test_symmetry_of_pairings(rng):
    for field in (GF2, GF4):
        for _ in range(40):
            c = rand_cover(rng, field)
            variants = [KleinFourCover(c.f2, c.f1),
                        KleinFourCover(c.f1, c.f3),
                        KleinFourCover(c.f3, c.f2)]
            for v in variants:
                assert v == c
                assert v.type == c.type and v.invariants == c.invariants


def test_every_type_is_valid_partition(rng):
    for _ in range(60):
        c = rand_cover(rng, GF4)
        p = c.type
        g = c.genus
        assert p.g == g
        assert 2 * p.entries[0] <= g + 1


def test_additivity_matches_quotients(rng):
    for _ in range(30):
        c = rand_cover(rng, GF2)
        g = sum(q.genus for q in c.quotients)
        s = sum(q.two_rank for q in c.quotients)
        assert c.invariants == (g, s)


def test_point_count_identity(rng):
    # cover counts equal quotient counts minus twice the line, exactly
    for field in (GF2, GF4):
        q = field.order
        for _ in range(10):
            c = rand_cover(rng, field, max_deg=4)
            for n in range(1, 5):
                lhs = count_points_cover(c, n)
                rhs = sum(count_points(s, n) for s in c.quotients) - 2 * (q**n + 1)
                assert lhs == rhs


def test_partition_validation():
    assert Partition(1, 2, 0).entries == (2, 1, 0)
    p = Partition(2, 2, 1)
    assert p.g == 5 and not p.is_unbalanced and not p.is_totally_balanced
    assert Partition(3, 1, 1).is_unbalanced
    assert Partition(3, 2, 1).is_unbalanced  # 3 = g/2
    assert Partition(1, 1, 1).is_totally_balanced
    assert Partition(0, 0, 0).is_totally_balanced
    with pytest.raises(InvalidPartition):
        Partition(4, 1, 0)  # 4 > (5+1)/2
    with pytest.raises(InvalidPartition):
        Partition(-1, 1, 0)


def test_partitions_of():
    assert [str(p) for p in partitions_of(5)] == ["{3,2,0}", "{3,1,1}", "{2,2,1}"]
    assert [str(p) for p in partitions_of(0)] == ["{0,0,0}"]
    for g in range(13):
        for p in partitions_of(g):
            assert p.g == g
