"""Factoring and partial fractions on codes against the `Poly`-level code
they replaced.

`poly.factor`, `poly.is_irreducible` and `ascurve.principal_parts` run
on packed codes end to end.  The reference below is the code that ran on
`Poly` objects, one new `Poly` per step, with the derivative and the
square root of a polynomial spelled out on its coefficients.  The
properties check that both give the same factors, the same verdicts and
the same partial-fraction vectors over GF(2), GF(4), GF(8) under both its
moduli, and GF(16), on products with repeated factors and squares.
`tests/sweep_census.py` checks `factor` against it on every small monic
polynomial.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from kleinfour import poly
from kleinfour.ascurve import ReducedForm, principal_parts
from kleinfour.field import GF2, GF4, BinaryField
from kleinfour.poly import Poly, factor, gcd, is_irreducible, poly_of
from kleinfour.ratfun import RatFun

FIELDS = [GF2, GF4, BinaryField.default(3), BinaryField(3, 0b1101),
          BinaryField.default(4)]


# -- reference: the Poly-level factoring and partial fractions -------------

def ref_derivative(f):
    # (i+1) * c_{i+1} survives mod 2 exactly when i is even
    return Poly.make(f.field, (c if i % 2 == 0 else 0
                               for i, c in enumerate(f.coeffs[1:])))


def ref_even_part_sqrt(f):
    """For a polynomial with zero derivative, the square root."""
    F = f.field
    return Poly.make(F, (F.sqrt(c) for c in f.coeffs[::2]))


def ref_sqf_decompose(f):
    """Squarefree decomposition of a monic polynomial of degree >= 1,
    char-2 version."""
    out = []
    fp = ref_derivative(f)
    if not fp.code:
        for (p, k) in ref_sqf_decompose(ref_even_part_sqrt(f).monic()):
            out.append((p, 2 * k))
        return out
    c = gcd(f, fp)
    w = f // c
    i = 1
    while w.degree > 0:
        y = gcd(w, c)
        z = w // y
        if z.degree > 0:
            out.append((z, i))
        w = y
        c = c // y
        i += 1
    if c.degree > 0:
        for (p, k) in ref_sqf_decompose(ref_even_part_sqrt(c).monic()):
            out.append((p, 2 * k))
    return out


def ref_ddf(f):
    """Distinct-degree split of a monic squarefree polynomial: yields
    (product of irreducible factors of degree d, d)."""
    F = f.field
    x = Poly.x(F)
    h = x
    d = 0
    while f.degree > 2 * (d + 1) - 1:
        d += 1
        for _ in range(F.degree):
            h = (h * h) % f
        g = gcd(h + x, f)
        if g.degree > 0:
            yield g, d
            f = f // g
            h = h % f
    if f.degree > 0:
        yield f, f.degree


def ref_edf(f, d, start=None):
    """Split monic squarefree f, all of whose factors have degree d, on
    the candidates 2^j x^k in order from `start`."""
    if f.degree == d:
        return [f]
    F = f.field
    nbits = F.degree * d
    for t in itertools.count(start or F.degree):
        u = poly_of(F, 1 << t)
        # absolute trace of u in each residue field of degree d
        tr = u
        s = u
        for _ in range(nbits - 1):
            s = (s * s) % f
            tr = tr + s
        g = gcd(tr, f)
        if 0 < g.degree < f.degree:
            return ref_edf(g, d, t + 1) + ref_edf(f // g, d, t + 1)


def ref_factor(p):
    out = []
    if p.degree < 1:
        return out
    for (sq, mult) in ref_sqf_decompose(p.monic()):
        for (block, d) in ref_ddf(sq):
            for irr in ref_edf(block, d):
                out.append((irr, mult))
    out.sort(key=lambda t: t[0].code)
    return out


def ref_is_irreducible(p):
    return p.degree >= 1 and next(ref_ddf(p))[1] == p.degree


def ref_base_digits(c, q, e):
    """The digits r_1..r_e of c = sum_i r_i q^(e-i), deg c < e deg q,
    packed as `ReducedForm` packs a place's digits."""
    width = q.field.degree * q.degree
    v = 0
    for i in range(e - 1, -1, -1):  # r_e = c mod q first
        c, r = divmod(c, q)
        v |= r.code << i * width
    return v


def ref_principal_parts(f):
    """The partial-fraction vector of f, not yet canonical, on the
    reference factors."""
    poly_part, rem = divmod(f.num, f.den)
    places = {}
    for (q, e) in ref_factor(f.den):
        qe = q
        for _ in range(e - 1):
            qe = qe * q
        c = (rem * poly.invmod(f.den // qe, qe)) % qe
        places[q.code] = ref_base_digits(c, q, e)
    return ReducedForm(f.field, poly_part.code, places)


# -- properties -------------------------------------------------------------

@st.composite
def products(draw):
    """A field from FIELDS, a product of up to three polynomials of degree
    1 to 3, each to a power up to 8, times a square and a nonzero
    constant, and the bases it was built from."""
    F = draw(st.sampled_from(FIELDS))

    def random_poly(max_deg):
        low = draw(st.lists(st.integers(0, F.order - 1), min_size=1,
                            max_size=max_deg))
        return Poly.make(F, low + [draw(st.integers(1, F.order - 1))])

    bases = [random_poly(3) for _ in range(draw(st.integers(0, 3)))]
    p = Poly.const(F, draw(st.integers(1, F.order - 1)))
    for b in bases:
        for _ in range(draw(st.integers(1, 8))):
            p = p * b
    if draw(st.booleans()):
        s = random_poly(2)
        bases.append(s)
        p = p * s * s
    return F, p, bases


@settings(max_examples=250, deadline=None)
@given(products(), st.data())
def test_factoring_on_codes_matches_the_poly_reference(case, data):
    F, p, bases = case
    if p.degree >= 1:
        assert factor(p) == ref_factor(p), p
    for b in [p] + bases:
        assert is_irreducible(b) == ref_is_irreducible(b), b
    num = Poly.make(F, data.draw(st.lists(st.integers(0, F.order - 1),
                                          max_size=p.degree + 4)))
    f = RatFun(num, p)
    v, ref = principal_parts(f), ref_principal_parts(f)
    assert (v.poly, v.places) == (ref.poly, ref.places), f
