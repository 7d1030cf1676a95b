import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_ratfun
from kleinfour.field import GF2, GF4, BinaryField
from kleinfour.poly import Poly, gcd, monic_irreducibles
from kleinfour.ratfun import (INFINITY, Place, RatFun, assemble, parse_ratfun,
                              principal_parts)


def pr(text, field=GF2):
    return parse_ratfun(field, text)


def test_normalization():
    f = RatFun(Poly.make(GF2, [0, 0, 1]), Poly.make(GF2, [0, 1]))  # x^2/x
    assert str(f) == "x"
    f = RatFun(Poly.make(GF4, [1]), Poly.make(GF4, [2]))  # 1/a
    assert f.den == Poly.one(GF4) and f.num.coeff(0) == GF4.inv(2)
    with pytest.raises(ZeroDivisionError):
        RatFun(Poly.one(GF2), Poly.zero(GF2))


def test_pole_divisor_examples():
    assert str(pr("x^3 + 1/x").pole_divisor()) == "infinity^3, x"
    assert str(pr("1/(x^2 + x^3)").pole_divisor()) == "x^2, x + 1"
    assert str(pr("1/(x^2+x+1)").pole_divisor()) == "x^2 + x + 1"
    assert len(RatFun.zero(GF2).pole_divisor()) == 0


def test_pole_divisor_degree_identity(rng):
    for _ in range(200):
        f = rand_ratfun(rng, GF4, 6)
        if f.is_zero:
            continue
        div = f.pole_divisor()
        finite = sum(pl.degree * n for (pl, n) in div if not pl.is_infinity)
        inf = sum(n for (pl, n) in div if pl.is_infinity)
        assert finite == f.den.degree
        assert inf == max(0, f.num.degree - f.den.degree)


def test_mobius_examples():
    f = pr("x")
    assert str(f.mobius(0, 1, 1, 0)) == "(1) / (x)"  # x -> 1/x
    g = pr("x + 1/x")
    assert g.mobius(1, 0, 0, 1) == g  # identity
    shifted = g.mobius(1, 1, 0, 1)  # x -> x+1
    assert shifted == pr("x + 1 + 1/(x+1)")


def test_mobius_rejects_singular():
    with pytest.raises(ValueError):
        pr("x").mobius(1, 1, 1, 1)


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
        g = f.mobius(a, b, c, d).mobius(d, b, c, a)
        assert g == f


def test_infinity_value():
    assert pr("1/x").infinity_value() == 0
    assert pr("x").infinity_value() is None
    f = pr("(x^2 + 1) / (x^2 + x)", GF2)
    assert f.infinity_value() == 1
    g = parse_ratfun(GF4, "(a*x + 1) / (x + a)")
    assert g.infinity_value() == 2


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
    inf = Place(None)
    p0 = Place(Poly.make(GF2, [0, 1]))
    p1 = Place(Poly.make(GF2, [1, 1]))
    assert inf == INFINITY and inf.degree == 1
    assert sorted([p1, p0, inf], key=lambda p: p.sort_key()) == [inf, p0, p1]


def test_principal_parts_reassemble(rng):
    for field in (GF2, GF4):
        for _ in range(100):
            f = rand_ratfun(rng, field, 6)
            poly_part, parts = principal_parts(f)
            assert assemble(field, poly_part, parts) == f
            for q, rs in parts.items():
                assert all(r.degree < q.degree for r in rs)
                assert rs[-1].coeffs  # top coefficient nonzero


# -- assemble against the RatFun-sum assembly it replaced -----------------------

def sum_assemble(field, poly_part, parts):
    """Reference: poly_part plus one RatFun per nonzero digit, each sum
    reduced to lowest terms by RatFun's gcd."""
    f = RatFun.from_poly(poly_part)
    for q, rs in parts.items():
        qi = Poly.one(field)
        for i, r in enumerate(rs, start=1):
            qi = qi * q
            if r.coeffs:
                f = f + RatFun(r, qi)
    return f


GF8 = BinaryField.default(3)
PLACES = {F: list(monic_irreducibles(F, 3 if F is GF2 else 2))
          for F in (GF2, GF4, GF8)}


@st.composite
def partial_fraction_data(draw):
    """A polynomial part and digits at a few places, where digits are often
    0, so that top digits are 0 and some places are all zeros."""
    F = draw(st.sampled_from(sorted(PLACES, key=lambda F: F.degree)))
    elt = st.integers(0, F.order - 1)

    def poly(n):
        return Poly.make(F, draw(st.lists(elt, max_size=n)))
    places = draw(st.lists(st.sampled_from(PLACES[F]), max_size=4,
                           unique_by=lambda q: q.coeffs))
    parts = {}
    for q in places:
        e = draw(st.integers(0, 3))
        parts[q] = [poly(q.degree) if draw(st.booleans()) else Poly.zero(F)
                    for _ in range(e)]
    return F, poly(4), parts


@settings(max_examples=300, deadline=None)
@given(partial_fraction_data())
def test_assemble_matches_the_ratfun_sum(case):
    F, poly_part, parts = case
    f = assemble(F, poly_part, parts)
    assert f == sum_assemble(F, poly_part, parts)
    assert f.den.is_monic
    assert gcd(f.num, f.den).degree == 0
    if f.num.coeffs:
        assert f.num.coeffs[-1] != 0


def test_assemble_drops_zero_digits():
    q = Poly.make(GF2, [1, 1])  # x + 1
    x = Poly.x(GF2)
    zero, one = Poly.zero(GF2), Poly.one(GF2)
    parts = {q: [one, zero, zero], x: [zero, zero]}
    f = assemble(GF2, x, parts)
    assert f == pr("x + 1/(x+1)")
    assert f.den == q and f.num == x * q + one
    assert assemble(GF2, zero, {q: [zero]}) == RatFun.zero(GF2)
