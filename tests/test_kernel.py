"""The packed-code polynomial kernel against the bit-loop arithmetic it
replaced.

`Poly` adds, multiplies, divides, scales and shifts on its code through
one kernel (`poly.images`, with `_mul` and `_divmod` over it), in every
field.  The reference below is the schoolbook code that ran on the
bit-loop `BinaryField.mul` coefficient by coefficient, kept here to check
the kernel in fields on both sides of `zeta.TABLE_MAX_DEGREE`, the cap on
the point counts' tables, which the kernel never reads, and under two
GF(8) moduli.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleinfour import zeta
from kleinfour.field import BinaryField, default_modulus
from kleinfour.poly import Poly, ext_gcd, gcd, invmod

FIELDS = [BinaryField.default(m) for m in (1, 2, 3, 12, 16, 17)] + [
    BinaryField(3, 0b1101)]  # GF(8) under its other modulus


def field_id(F):
    """GF(q), with the modulus appended when it is not the default."""
    if F.modulus == default_modulus(F.degree):
        return str(F)
    return f"{F}-{F.modulus:#b}"


# -- reference: the bit-loop arithmetic ----------------------------------------

def trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(F, a, b):
    n = max(len(a), len(b))
    return trim((a[i] if i < len(a) else 0) ^ (b[i] if i < len(b) else 0)
                for i in range(n))


def ref_mul(F, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] ^= F.mul(x, y)
    return trim(out)


def ref_scale(F, a, c):
    return trim(F.mul(x, c) for x in a)


def ref_monic(F, a):
    return ref_scale(F, a, F.inv(a[-1])) if a else ()


def ref_shift(F, a, k):
    return (0,) * k + a if a else ()


def ref_divmod(F, a, b):
    inv_lc = F.inv(b[-1])
    rem = list(a)
    dq = len(a) - len(b)
    if dq < 0:
        return (), tuple(a)
    quo = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[len(b) - 1 + k]
        if c == 0:
            continue
        q = F.mul(c, inv_lc)
        quo[k] = q
        for i, y in enumerate(b):
            if y:
                rem[i + k] ^= F.mul(q, y)
    return trim(quo), trim(rem)


def ref_gcd(F, a, b):
    while b:
        a, b = b, ref_divmod(F, a, b)[1]
    return ref_monic(F, a)


# -- strategies -----------------------------------------------------------------

@st.composite
def polys(draw, count, max_deg=8):
    """A field from FIELDS and `count` polynomials over it; the coefficient
    lists may end in zeros, which Poly.make drops."""
    F = draw(st.sampled_from(FIELDS))
    # small elements often, so that sums cancel and rows repeat
    elt = st.one_of(st.integers(0, min(3, F.order - 1)),
                    st.integers(0, F.order - 1))
    return F, [Poly.make(F, draw(st.lists(elt, max_size=max_deg + 1)))
               for _ in range(count)]


def no_trailing_zero(*ps):
    """Every coefficient tuple the kernel's codes read back as is trimmed."""
    return all(not p.coeffs or p.coeffs[-1] != 0 for p in ps)


def test_the_kernel_reads_no_tables(monkeypatch):
    # the fields straddle the table cap, and no field's tables are read
    assert FIELDS[4].degree <= zeta.TABLE_MAX_DEGREE < FIELDS[5].degree
    with pytest.raises(ValueError, match="table cap"):
        zeta._tables(FIELDS[5])

    def no_tables(fld):
        raise AssertionError("the polynomial kernel read the log tables")

    monkeypatch.setattr(zeta, "_tables", no_tables)
    for F in FIELDS:
        a = Poly.make(F, [F.order - 1, 1, 2 % F.order, F.order - 1])
        b = Poly.make(F, [1, F.order - 1, F.order - 1])
        q, r = divmod(a * b + a, b)
        assert q * b + r == a * b + a
        assert a.scale(F.order - 1).monic() == a.monic()
        assert gcd(a * b, b) == b.monic()


@settings(max_examples=300, deadline=None)
@given(polys(2), st.data())
def test_kernel_matches_the_bit_loop(case, data):
    F, (a, b) = case
    c = data.draw(st.integers(0, F.order - 1))
    k = data.draw(st.integers(0, 5))
    s, p, sc, sh = a + b, a * b, a.scale(c), a.shift(k)
    assert no_trailing_zero(s, p, sc, sh, a.monic())
    assert s.coeffs == ref_add(F, a.coeffs, b.coeffs)
    assert p.coeffs == ref_mul(F, a.coeffs, b.coeffs)
    assert sc.coeffs == ref_scale(F, a.coeffs, c)
    assert sh.coeffs == ref_shift(F, a.coeffs, k)
    assert a.monic().coeffs == ref_monic(F, a.coeffs)
    if b.coeffs:
        q, r = divmod(a, b)
        assert no_trailing_zero(q, r)
        assert (q.coeffs, r.coeffs) == ref_divmod(F, a.coeffs, b.coeffs)


@settings(max_examples=200, deadline=None)
@given(polys(2, max_deg=6))
def test_ext_gcd_and_invmod_match_the_bit_loop(case):
    F, (a, b) = case
    g, u, v = ext_gcd(a, b)
    assert no_trailing_zero(g, u, v)
    assert g.coeffs == ref_gcd(F, a.coeffs, b.coeffs) == gcd(a, b).coeffs
    assert ref_add(F, ref_mul(F, u.coeffs, a.coeffs),
                   ref_mul(F, v.coeffs, b.coeffs)) == g.coeffs
    if b.degree < 1:
        return
    if g.degree == 0:
        inv = invmod(a, b)
        assert inv.degree < b.degree
        assert ref_divmod(F, ref_mul(F, inv.coeffs, a.coeffs),
                          b.coeffs)[1] == (1,)
    else:
        with pytest.raises(ZeroDivisionError):
            invmod(a, b)


@settings(max_examples=200, deadline=None)
@given(polys(3, max_deg=6))
def test_ring_laws(case):
    F, (a, b, c) = case
    zero = Poly.zero(F)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + a == zero and a + zero == a
    if b.coeffs:
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree
        assert no_trailing_zero(q, r)


@pytest.mark.parametrize("F", FIELDS, ids=field_id)
def test_cancelling_tops_are_trimmed(F):
    # equal tops cancel in a sum; an exact division leaves remainder 0
    top = F.order - 1
    a = Poly.make(F, [1, 0, 3 % F.order, top])
    b = Poly.make(F, [0, 1, 3 % F.order, top])
    assert (a + b).coeffs == (1, 1)
    assert (a + a).coeffs == ()
    q, r = divmod(a * b, b)
    assert q == a and r.coeffs == ()
    assert divmod(Poly.one(F), b) == (Poly.zero(F), Poly.one(F))


@pytest.mark.parametrize("F", FIELDS, ids=field_id)
def test_zero_and_constant_divisors(F):
    a = Poly.make(F, [F.order - 1, 0, 1, 2 % F.order, F.order - 1])
    zero = Poly.zero(F)
    for op in (divmod, lambda a, b: a // b, lambda a, b: a % b, invmod):
        with pytest.raises(ZeroDivisionError):
            op(a, zero)
    with pytest.raises(ZeroDivisionError):
        divmod(zero, zero)
    for c in sorted({1, min(2, F.order - 1), F.order - 1}):
        q, r = divmod(a, Poly.const(F, c))
        assert (q.coeffs, r.coeffs) == ref_divmod(F, a.coeffs, (c,))
        assert q == a.scale(F.inv(c)) and r == zero
        assert divmod(zero, Poly.const(F, c)) == (zero, zero)
