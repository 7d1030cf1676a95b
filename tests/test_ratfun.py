import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (infinity_value, mobius, place_degree, place_text,
                      rand_ratfun)
from kleinfour.ascurve import ReducedForm, principal_parts, reduce_form
from kleinfour.field import GF2, GF4, BinaryField
from kleinfour.poly import (Poly, factor, gcd, monic_irreducibles, pack,
                            poly_of)
from kleinfour.ratfun import RatFun, parse_ratfun


def pr(text, field=GF2):
    return parse_ratfun(field, text)


def test_normalization():
    f = RatFun(Poly.make(GF2, [0, 0, 1]), Poly.make(GF2, [0, 1]))  # x^2/x
    assert str(f) == "x"
    f = RatFun(Poly.make(GF4, [1]), Poly.make(GF4, [2]))  # 1/a
    assert f.den == Poly.one(GF4) and f.num.coeff(0) == GF4.inv(2)
    with pytest.raises(ZeroDivisionError):
        RatFun(Poly.one(GF2), Poly.zero(GF2))


def divisor_text(f):
    return ", ".join(f"{place_text(f.field, q)}^{n}" if n > 1
                     else place_text(f.field, q)
                     for (q, n) in f.pole_divisor())


def test_pole_divisor_examples():
    assert divisor_text(pr("x^3 + 1/x")) == "infinity^3, x"
    assert divisor_text(pr("1/(x^2 + x^3)")) == "x^2, x + 1"
    assert divisor_text(pr("1/(x^2+x+1)")) == "x^2 + x + 1"
    assert len(RatFun.zero(GF2).pole_divisor()) == 0


def test_pole_divisor_degree_identity(rng):
    for _ in range(200):
        f = rand_ratfun(rng, GF4, 6)
        if f.is_zero:
            continue
        div = f.pole_divisor()
        finite = sum(place_degree(GF4, pl) * n for (pl, n) in div
                     if pl is not None)
        inf = sum(n for (pl, n) in div if pl is None)
        assert finite == f.den.degree
        assert inf == max(0, f.num.degree - f.den.degree)


def test_mobius_examples():
    f = pr("x")
    assert str(mobius(f, 0, 1, 1, 0)) == "(1) / (x)"  # x -> 1/x
    g = pr("x + 1/x")
    assert mobius(g, 1, 0, 0, 1) == g  # identity
    shifted = mobius(g, 1, 1, 0, 1)  # x -> x+1
    assert shifted == pr("x + 1 + 1/(x+1)")


def test_mobius_rejects_singular():
    with pytest.raises(ValueError):
        mobius(pr("x"), 1, 1, 1, 1)


def test_mobius_roundtrip(rng):
    F = GF4
    for _ in range(100):
        f = rand_ratfun(rng, F, 5)
        while True:
            a, b, c, d = (rng.randrange(4) for _ in range(4))
            det = F.mul(a, d) ^ F.mul(b, c)
            if det:
                break
        # inverse transformation, up to the determinant unit
        g = mobius(mobius(f, a, b, c, d), d, b, c, a)
        assert g == f


def test_infinity_value():
    assert infinity_value(pr("1/x")) == 0
    assert infinity_value(pr("x")) is None
    f = pr("(x^2 + 1) / (x^2 + x)", GF2)
    assert infinity_value(f) == 1
    g = parse_ratfun(GF4, "(a*x + 1) / (x + a)")
    assert infinity_value(g) == 2


def test_parse_print_roundtrip(rng):
    for field in (GF2, GF4):
        for _ in range(150):
            f = rand_ratfun(rng, field, 5)
            assert parse_ratfun(field, str(f)) == f


def test_parse_sums_and_coefficients():
    f = parse_ratfun(GF4, "a*x^3 + (a+1)*x + 1")
    assert f.num == Poly.make(GF4, [1, 3, 0, 2])
    g = parse_ratfun(GF2, "1/x + 1/(x+1)")
    assert g == pr("(1) / (x^2 + x)")
    with pytest.raises(ValueError):
        parse_ratfun(GF2, "x^3 + ")
    with pytest.raises(ValueError):
        parse_ratfun(GF2, "y + 1")


def test_parse_powers_of_polynomials():
    assert pr("1/(x+1)^2") == pr("1/(x^2+1)")
    assert pr("x + (x^2+x+1)^3") == pr("x^6+x^5+x^3+1")
    assert pr("((x+1)^2)^3 / x^0") == pr("(x+1)^6")
    assert parse_ratfun(GF4, "a*(a*x+1)^2") == parse_ratfun(GF4, "x^2 + a")
    assert pr("(x+1)^0") == pr("1")
    for bad in ("1/(x+1)^-1", "(x+1)^257", "1/(x^2+1)^129",
                "x + (x^2+1)^129"):
        with pytest.raises(ValueError):
            pr(bad)


def test_places_ordering_and_equality():
    # a place is None for infinity or its monic irreducible's code: the
    # pole divisor lists infinity first, then the codes in ascending order,
    # by degree and then by coefficients from the top; the vector's places
    # are the same values
    f = pr("x^3 + 1/(x^2+x+1) + 1/(x+1) + 1/x")
    places = [q for q, _ in f.pole_divisor()]
    assert places == [None, 0b10, 0b11, 0b111]
    assert [place_degree(GF2, q) for q in places] == [1, 1, 1, 2]
    assert reduce_form(f).pole_places() == set(places)


def test_principal_parts_reassemble(rng):
    for field in (GF2, GF4):
        for _ in range(100):
            f = rand_ratfun(rng, field, 6)
            v = principal_parts(f)
            assert v.to_ratfun() == f
            for (q, e) in factor(f.den):
                width = field.degree * q.degree
                d = v.places[q.code]
                assert d >> (e - 1) * width  # top digit r_e nonzero
                assert not d >> e * width  # r_1..r_e, each below q
            assert len(v.places) == len(factor(f.den))


# -- to_ratfun against the sum of one RatFun per digit ----------------------

def sum_assemble(v):
    """Reference: the polynomial part plus one RatFun per nonzero digit,
    each sum reduced to lowest terms by RatFun's gcd."""
    F = v.field
    f = RatFun.from_poly(poly_of(F, v.poly))
    for qv, d in v.places.items():
        q, qi = poly_of(F, qv), Poly.one(F)
        width = qv.bit_length() - 1
        for i in range(-(-d.bit_length() // width)):
            qi = qi * q
            r = d >> i * width & (1 << width) - 1
            if r:
                f = f + RatFun(poly_of(F, r), qi)
    return f


GF8 = BinaryField.default(3)
PLACES = {F: list(monic_irreducibles(F, 3 if F is GF2 else 2))
          for F in (GF2, GF4, GF8)}


@st.composite
def partial_fraction_data(draw):
    """A vector with a polynomial part and digits at a few places, where
    digits are often 0, top digits included."""
    F = draw(st.sampled_from(sorted(PLACES, key=lambda F: F.degree)))
    places = {}
    for q in draw(st.lists(st.sampled_from(PLACES[F]), max_size=4,
                           unique_by=lambda q: q.code)):
        width = F.degree * q.degree
        digits = [draw(st.integers(0, (1 << width) - 1))
                  if draw(st.booleans()) else 0
                  for _ in range(draw(st.integers(0, 3)))]
        if any(digits):
            places[q.code] = pack(digits, width)
    return ReducedForm(F, draw(st.integers(0, (1 << 4 * F.degree) - 1)),
                       places)


@settings(max_examples=300, deadline=None)
@given(partial_fraction_data())
def test_assemble_matches_the_ratfun_sum(v):
    f = v.to_ratfun()
    assert f == sum_assemble(v)
    assert f.den.is_monic
    assert gcd(f.num, f.den).degree == 0
    if f.num.coeffs:
        assert f.num.coeffs[-1] != 0
