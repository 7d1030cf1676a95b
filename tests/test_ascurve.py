import pytest
from hypothesis import assume, given, settings

from conftest import (constant_bits, divisor_places, mobius, place_degree,
                      rand_ratfun, raw_pairs)
from kleinfour.ascurve import (ASCurve, DegenerateCover, Invariants,
                               ReducedForm, canonical_form, principal_parts,
                               reduce_form, reduce_standard)
from kleinfour.field import GF2, GF4
from kleinfour.poly import Poly, factor
from kleinfour.ratfun import RatFun, parse_ratfun


def pr(text, field=GF2):
    return parse_ratfun(field, text)


def test_reduce_examples():
    assert str(reduce_standard(pr("x^2"))) == "x"
    assert reduce_standard(pr("1/(x^2) + 1/x")).is_zero
    assert str(reduce_standard(pr("x^4 + x^3"))) == "x^3 + x"


def test_reduce_kills_even_monomials_inside_odd_orders():
    # the x^2 hidden inside x^3 + x^2 goes away even though the pole
    # order is already odd
    assert str(reduce_standard(pr("x^3 + x^2"))) == "x^3 + x"


def test_reduce_constant_normalization():
    # trace-0 constants vanish; trace-1 constants become the canonical one
    assert reduce_standard(pr("1", GF4)).is_zero  # trace(1) = 0 in GF(4)
    one_f2 = reduce_standard(pr("1", GF2))
    assert one_f2.is_constant and constant_bits(one_f2) == 1
    f = reduce_standard(parse_ratfun(GF4, "a+1"))  # trace 1, canonical is a
    assert f.is_constant and constant_bits(f) == 2


def test_reduce_finite_even_order():
    f = reduce_standard(pr("1/(x^2)"))
    assert str(f) == "(1) / (x)"
    g = reduce_standard(pr("1/(x^2+x+1) + 1/x^4"))
    assert all(n % 2 == 1 for (_, n) in g.pole_divisor())


def test_reduce_idempotent(rng):
    for field in (GF2, GF4):
        for _ in range(250):
            f = rand_ratfun(rng, field, 8)
            r = reduce_standard(f)
            assert reduce_standard(r) == r


def test_reduce_is_class_function(rng):
    for field in (GF2, GF4):
        for _ in range(250):
            f = rand_ratfun(rng, field, 8)
            h = rand_ratfun(rng, field, 4)
            assert reduce_standard(f + h * h + h) == reduce_standard(f)


@settings(max_examples=200, deadline=None)
@given(raw_pairs())
def test_reduction_is_shift_invariant(pair):
    # y^2 + y = f and y^2 + y = f + h^2 + h are the same curve, so the
    # census may count canonical classes
    f, h = pair
    assert reduce_form(f + h * h + h) == reduce_form(f)


@settings(max_examples=300, deadline=None)
@given(raw_pairs())
def test_reduction_is_linear(pair):
    # the census and KleinFourCover take r1 + r2 as the reduced f1 + f2
    f1, f2 = pair
    r1, r2 = reduce_standard(f1), reduce_standard(f2)
    assert reduce_standard(r1 + r2) == r1 + r2
    assert reduce_standard(f1 + f2) == r1 + r2


@settings(max_examples=300, deadline=None)
@given(raw_pairs())
def test_invariants_of_reduced_sum_match_curve(pair):
    # invariants read off r1 + r2 directly equal those of the curve built
    # from the raw sum through the full reduction
    f1, f2 = pair
    r3 = reduce_standard(f1) + reduce_standard(f2)
    assume(not r3.is_constant)
    assert principal_parts(r3).invariants() == ASCurve(f1 + f2).invariants
    curve = ASCurve.from_form(reduce_form(f1) + reduce_form(f2))
    assert curve.f == r3
    assert curve == ASCurve(f1 + f2)
    assert curve.invariants == ASCurve(f1 + f2).invariants


@settings(max_examples=300, deadline=None)
@given(raw_pairs())
def test_reduce_form_is_the_vector_of_reduce_standard(pair):
    # one reduction, packed straight from its digits, agrees with reducing
    # to a RatFun and reading its vector back
    for f in pair:
        v = reduce_form(f)
        assert v == principal_parts(reduce_standard(f))
        assert v.to_ratfun() == reduce_standard(f)


# -- laws of the partial-fraction vectors ------------------------------------

@settings(max_examples=300, deadline=None)
@given(raw_pairs())
def test_principal_parts_are_linear(pair):
    # partial fractions are unique, so a sum's are the XOR of the summands'
    f1, f2 = pair
    assert principal_parts(f1 + f2) == \
        principal_parts(f1) + principal_parts(f2)


@settings(max_examples=300, deadline=None)
@given(raw_pairs())
def test_canonical_form_is_idempotent_and_linear(pair):
    f1, f2 = pair
    v1, v2 = principal_parts(f1), principal_parts(f2)
    c1, c2 = canonical_form(v1), canonical_form(v2)
    for c in (c1, c2):
        assert canonical_form(c) == c
        assert principal_parts(c.to_ratfun()) == c
    assert canonical_form(v1 + v2) == c1 + c2
    assert canonical_form(principal_parts(f1 + f2)) == c1 + c2


@settings(max_examples=300, deadline=None)
@given(raw_pairs())
def test_principal_parts_round_trip(pair):
    for f in pair:
        assert principal_parts(f).to_ratfun() == f


@settings(max_examples=300, deadline=None)
@given(raw_pairs())
def test_principal_parts_digits_are_residues(pair):
    # at a pole q^e the digits r_1..r_e, each of degree below deg q, fill
    # exactly e slots: none spills above r_e's, and r_e is nonzero
    for f in pair:
        v = principal_parts(f)
        poles = factor(f.den)
        assert sorted(v.places) == sorted(q.code for q, _ in poles)
        for q, e in poles:
            width = f.field.degree * q.degree
            d = v.places[q.code]
            assert d >> (e - 1) * width and not d >> e * width, (f, q)


@settings(max_examples=300, deadline=None)
@given(raw_pairs())
def test_pole_places_match_the_factored_pole_divisor(pair):
    # construct reads a form's poles off its vector; the reference factors
    # the denominator of the RatFun
    for f in pair:
        v = reduce_form(f)
        assert v.pole_places() == divisor_places(v.to_ratfun())


def pole_divisor_invariants(r):
    """Reference rule: genus and 2-rank from the factored pole divisor."""
    genus, k = -1, 0
    for (pl, n) in r.pole_divisor():
        genus += place_degree(r.field, pl) * (n + 1) // 2
        k += place_degree(r.field, pl)
    return Invariants(genus, k - 1)


@settings(max_examples=300, deadline=None)
@given(raw_pairs())
def test_reduced_form_laws(pair):
    # the census pairs classes as vectors: the vector round-trips, a sum is
    # the XOR of vectors, and bit lengths give the invariants
    f1, f2 = pair
    r1, r2 = reduce_standard(f1), reduce_standard(f2)
    v1, v2 = principal_parts(r1), principal_parts(r2)
    assert v1.to_ratfun() == r1 and v2.to_ratfun() == r2
    v3 = v1 + v2
    assert v3 == principal_parts(r1 + r2)
    assert v3.key() == principal_parts(reduce_standard(f1 + f2)).key()
    assert v3.is_constant == (r1 + r2).is_constant
    assert (v1 + v1).key() == (0, frozenset())
    for f, v, r in ((f1, v1, r1), (f1 + f2, v3, r1 + r2)):
        if not r.is_constant:
            assert v.invariants() == pole_divisor_invariants(r)
            assert v.invariants() == ASCurve(f).invariants


def test_reduced_form_layout():
    # x^3 + 1/x over GF(4): x^3 at 2 bits per coefficient, the place x
    # packed as 0b0100, its digit r_1 = 1
    v = principal_parts(reduce_standard(parse_ratfun(GF4, "x^3 + 1/x")))
    assert v.poly == 1 << 6 and v.places == {0b0100: 1}
    assert v.invariants() == (2, 1)
    # 1/(x^2+x+1)^3 over GF(2): digits r_1, r_2, r_3 at 2 bits each
    v = principal_parts(reduce_standard(pr("1/(x^2+x+1)^3")))
    assert v.poly == 0 and list(v.places) == [0b111]
    assert v.places[0b111].bit_length() in (5, 6)
    assert v.invariants() == (3, 1)
    assert principal_parts(reduce_standard(pr("1"))).is_constant
    with pytest.raises(ValueError):
        v + principal_parts(reduce_standard(parse_ratfun(GF4, "x")))


def test_from_form_rejects_constant():
    zero = RatFun.zero(GF2)
    with pytest.raises(DegenerateCover):
        ASCurve.from_form(reduce_form(zero))
    one = RatFun.from_poly(Poly.one(GF2))  # trace 1: a constant twist
    with pytest.raises(DegenerateCover):
        ASCurve.from_form(reduce_form(one))


@pytest.mark.parametrize("text, field, constant",
                         [("x^2+x", GF2, "0"), ("1", GF2, "1"),
                          ("a+1", GF4, "a"), ("x^2+x+a", GF4, "a")],
                         ids=str)
def test_a_constant_curve_names_its_constant(text, field, constant,
                                             monkeypatch):
    # the constant is printed as a RatFun prints it, with none built
    def no_ratfun(form):
        raise AssertionError("to_ratfun called")

    f = pr(text, field)
    form = reduce_form(f)
    monkeypatch.setattr(ReducedForm, "to_ratfun", no_ratfun)
    tail = (f" reduces to the constant {constant}; the double cover is "
            "split or a constant twist")
    for make, arg, shown in ((ASCurve, f, str(f)),
                             (ASCurve.from_form, form, constant)):
        with pytest.raises(DegenerateCover) as err:
            make(arg)
        assert str(err.value) == f"y^2+y = {shown}{tail}"


def test_invariants_examples():
    assert ASCurve(pr("x^3")).invariants == (1, 0)
    assert ASCurve(pr("1/x + 1/(x+1)")).invariants == (1, 1)
    assert ASCurve(pr("x^3 + 1/x + 1/(x+1)")).invariants == (3, 2)
    assert ASCurve(pr("1/(x^2+x+1)")).invariants == (1, 1)


def test_make_reduces_and_rejects_degenerate():
    c = ASCurve(pr("x^2"))
    assert str(c.f) == "x"
    with pytest.raises(DegenerateCover):
        ASCurve(pr("1/(x^2) + 1/x"))
    with pytest.raises(DegenerateCover):
        ASCurve(RatFun.zero(GF2))


def test_invariants_invariance(rng):
    # Artin-Schreier shifts, constant shifts, and coordinate changes all
    # preserve (genus, 2-rank)
    F = GF4
    trials = 0
    while trials < 150:
        f = rand_ratfun(rng, F, 6)
        if reduce_standard(f).is_constant:
            continue
        trials += 1
        base = ASCurve(f).invariants
        h = rand_ratfun(rng, F, 3)
        assert ASCurve(f + h * h + h).invariants == base
        for c in range(F.order):
            assert ASCurve(f + RatFun.from_poly(Poly.const(F, c))).invariants == base
        while True:
            a, b, c_, d = (rng.randrange(4) for _ in range(4))
            if F.mul(a, d) ^ F.mul(b, c_):
                break
        assert ASCurve(mobius(f, a, b, c_, d)).invariants == base


def test_two_rank_at_most_genus(rng):
    for _ in range(200):
        f = rand_ratfun(rng, GF2, 8)
        if reduce_standard(f).is_constant:
            continue
        g, s = ASCurve(f).invariants
        assert 0 <= s <= g


def test_curve_text_and_json():
    c = ASCurve(pr("x^3"))
    assert str(c) == "y^2+y = x^3 over GF(2)"
    d = c.to_json()
    assert d["genus"] == 1 and d["two_rank"] == 0
    assert d["num"] == [0, 0, 0, 1] and d["den"] == [1]
