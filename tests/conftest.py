import random

import pytest
from hypothesis import strategies as st

from kleinfour import poly
from kleinfour.ascurve import DegenerateCover
from kleinfour.field import GF2, GF4, BinaryField
from kleinfour.klein4 import InvalidCover, KleinFourCover
from kleinfour.poly import Poly
from kleinfour.ratfun import RatFun


def rand_poly(rng, field, max_deg):
    n = rng.randrange(max_deg + 1) + 1
    return Poly.make(field, [rng.randrange(field.order) for _ in range(n)])


def rand_ratfun(rng, field, max_deg=8):
    num = rand_poly(rng, field, max_deg)
    den = rand_poly(rng, field, max_deg)
    if not den.coeffs:
        den = Poly.one(field)
    return RatFun(num, den)


def rand_cover(rng, field, max_deg=5):
    while True:
        try:
            return KleinFourCover(rand_ratfun(rng, field, max_deg),
                                  rand_ratfun(rng, field, max_deg))
        except (InvalidCover, DegenerateCover):
            continue


def ext_gcd(a, b):
    """(g, u, v) with u*a + v*b = g, g monic, from the kernel's Euclid loop
    `poly._bezout`, which gives g up to a constant and u; v*b = g - u*a."""
    F = a.field
    g, u = (poly.poly_of(F, c) for c in poly._bezout(F, a.code, b.code))
    v = (g + u * a) // b if b.code else b
    c = F.inv(g.lc) if g.code else 1
    return g.scale(c), u.scale(c), v.scale(c)


def squarings_trace(F, a):
    """Reference absolute trace: a + a^2 + ... + a^(2^(m-1)) in F."""
    acc = t = a
    for _ in range(F.degree - 1):
        t = F.mul(t, t)
        acc ^= t
    assert acc in (0, 1)
    return acc


def place_degree(F, q):
    """The degree of a place over F: 1 for infinity, named None, else the
    degree of the monic irreducible with code q."""
    return 1 if q is None else (q.bit_length() - 1) // F.degree


def place_text(F, q):
    """A place as a recipe prints it."""
    return "infinity" if q is None else str(poly.poly_of(F, q))


def divisor_places(f):
    """The places of a RatFun's pole divisor, as a set."""
    return {q for q, _ in f.pole_divisor()}


def constant_bits(f):
    """The value of a constant function, as raw bits."""
    assert f.is_constant
    return f.num.coeff(0)


def infinity_value(f):
    """Value of f at infinity as raw bits, or None if infinity is a pole."""
    dn, dd = f.num.degree, f.den.degree
    if dn > dd:
        return None
    if dn < dd:
        return 0
    return f.field.mul(f.num.lc, f.field.inv(f.den.lc))


def mobius(f, a, b, c, d):
    """f with x -> (a*x + b)/(c*x + d) substituted; coefficients are raw
    bits."""
    F = f.field
    det = F.mul(a, d) ^ F.mul(b, c)
    if det == 0:
        raise ValueError("singular coordinate change")
    lin_num = Poly.make(F, (b, a))
    lin_den = Poly.make(F, (d, c))
    n = max(f.num.degree, f.den.degree, 0)
    pn = [Poly.one(F)]
    pd = [Poly.one(F)]
    for _ in range(n):
        pn.append(pn[-1] * lin_num)
        pd.append(pd[-1] * lin_den)

    def subst(p):
        out = Poly.zero(F)
        for i, cf in enumerate(p.coeffs):
            if cf:
                out = out + (pn[i] * pd[n - i]).scale(cf)
        return out

    new_num = subst(f.num)
    new_den = subst(f.den)
    if not new_den.code:
        raise ZeroDivisionError("coordinate change maps denominator to zero")
    return RatFun(new_num, new_den)


@pytest.fixture
def rng():
    return random.Random(0)


@st.composite
def raw_pairs(draw, max_deg=4, nonzero=False, fields=None):
    """Two raw rational functions over one of fields, by default GF(2),
    GF(4), GF(8); with nonzero=True neither is 0 (a zero function never
    gives a cover)."""
    F = draw(st.sampled_from(fields or (GF2, GF4, BinaryField.default(3))))
    elt = st.integers(0, F.order - 1)
    coeffs = st.lists(elt, max_size=max_deg + 1)

    def ratfun():
        if nonzero:  # a nonzero top coefficient
            top = draw(st.integers(1, F.order - 1))
            num = Poly.make(F, draw(st.lists(elt, max_size=max_deg)) + [top])
        else:
            num = Poly.make(F, draw(coeffs))
        den = Poly.make(F, draw(coeffs))
        return RatFun(num, den if den.coeffs else Poly.one(F))
    return ratfun(), ratfun()
