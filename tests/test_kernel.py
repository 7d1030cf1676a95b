"""The table-driven polynomial kernel against the bit-loop arithmetic it
replaced.

`Poly` multiplies, divides, adds and scales on the field's log/antilog
tables, and on the bit-loop `BinaryField.mul` only above TABLE_MAX_DEGREE.
The reference below is the schoolbook code that ran on `mul` for every
field, kept here so both kernel paths are checked against it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleinfour import field as field_module
from kleinfour.field import BinaryField
from kleinfour.poly import Poly

FIELDS = [BinaryField.default(m) for m in (1, 2, 3, 12, 16, 17)]


def test_the_fields_cover_both_paths():
    assert all(F.log_tables() is not None for F in FIELDS[:-1])
    assert FIELDS[-1].degree > field_module.TABLE_MAX_DEGREE
    assert FIELDS[-1].log_tables() is None


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
    """The invariant the arithmetic's unchecked constructor relies on."""
    return all(not p.coeffs or p.coeffs[-1] != 0 for p in ps)


@settings(max_examples=300, deadline=None)
@given(polys(2), st.data())
def test_kernel_matches_the_bit_loop(case, data):
    F, (a, b) = case
    c = data.draw(st.integers(0, F.order - 1))
    s, p, sc = a + b, a * b, a.scale(c)
    assert no_trailing_zero(s, p, sc, a.monic())
    assert s.coeffs == ref_add(F, a.coeffs, b.coeffs)
    assert p.coeffs == ref_mul(F, a.coeffs, b.coeffs)
    assert sc.coeffs == ref_scale(F, a.coeffs, c)
    if a.coeffs:
        assert a.monic().coeffs == ref_scale(F, a.coeffs, F.inv(a.lc))
    if b.coeffs:
        q, r = divmod(a, b)
        assert no_trailing_zero(q, r)
        assert (q.coeffs, r.coeffs) == ref_divmod(F, a.coeffs, b.coeffs)


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


@pytest.mark.parametrize("F", FIELDS, ids=str)
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
