import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import squarings_trace
from kleinfour import zeta
from kleinfour.field import (GF2, GF4, MAX_DEGREE, BinaryField, _poly2_text,
                             default_modulus)


def test_canonical_moduli():
    assert default_modulus(1) == 0b10
    assert default_modulus(2) == 0b111  # a^2+a+1
    assert default_modulus(3) == 0b1011  # a^3+a+1
    assert GF4.modulus == 0b111


def test_default_moduli_are_pinned():
    # every field, log table and embedding is built on these
    assert [default_modulus(m) for m in range(1, MAX_DEGREE + 1)] == [
        2, 7, 11, 19, 37, 67, 131, 283, 515, 1033, 2053, 4105, 8219, 16417,
        32771, 65579, 131081, 262153, 524327, 1048585, 2097157, 4194307,
        8388641, 16777243]


def test_make_rejects_reducible_with_factor():
    with pytest.raises(ValueError, match=r"a\+1"):
        BinaryField(2, 0b101)  # a^2+1 = (a+1)^2
    with pytest.raises(ValueError, match="degree"):
        BinaryField(3, 0b111)
    with pytest.raises(ValueError):
        BinaryField(0, 0b1)
    with pytest.raises(ValueError):
        BinaryField(25, (1 << 25) | 0b101101)


def smallest_factors(bits):
    """smallest[p]: the smallest monic irreducible factor, by encoding, of
    each polynomial p over GF(2) of degree < bits, encoded as an int (bit i
    the coefficient of x^i; p >= 2).  A sieve: for each irreducible p in
    ascending order, every product p * r with r >= p that is not yet marked
    gets p.  A reducible polynomial's smallest factor p0 leaves a cofactor
    r0 >= p0 (all of r0's factors are >= p0), so it is marked at p0 first,
    and an unmarked p is irreducible."""
    smallest = [0] * (1 << bits)
    for p in range(2, 1 << bits):
        if smallest[p]:
            continue
        smallest[p] = p
        terms = [i for i in range(p.bit_length()) if p >> i & 1]
        for r in range(p, 1 << (bits - p.bit_length() + 1)):
            product = 0  # carry-less p * r
            for i in terms:
                product ^= r << i
            if not smallest[product]:
                smallest[product] = p
    return smallest


def test_a_reducible_modulus_names_its_smallest_factor():
    # every modulus of degree 2..14, against a smallest-factor sieve: an
    # irreducible one is accepted, and a reducible one names the smallest
    # factor by encoding
    smallest = smallest_factors(15)
    reducible = 0
    for p in range(4, 1 << 15):
        m = p.bit_length() - 1
        if smallest[p] == p:
            BinaryField(m, p)
            continue
        reducible += 1
        with pytest.raises(ValueError) as info:
            BinaryField(m, p)
        assert str(info.value) == (f"modulus {_poly2_text(p)} is reducible: "
                                   f"divisible by {_poly2_text(smallest[p])}")
    assert reducible == 30228


def test_default_field_is_built_once():
    assert BinaryField.default(12) is BinaryField.default(12)
    assert BinaryField.default(2) is GF4
    with pytest.raises(ValueError):
        BinaryField.default(0)
    with pytest.raises(ValueError):
        BinaryField.default(25)


def test_make_accepts_valid():
    assert BinaryField(2, 0b111).order == 4
    assert BinaryField(3, 0b1011).order == 8
    assert BinaryField(3, 0b1101).order == 8  # the other cubic


def test_gf4_multiplication_table():
    a = 0b10
    assert GF4.mul(a, a) == 0b11  # a^2 = a+1
    assert GF4.mul(a, 0b11) == 1  # a(a+1) = 1
    assert GF2.mul(1, 1) == 1


def test_trace():
    assert GF4.trace(0b10) == 1
    assert GF4.trace(1) == 0
    assert GF2.trace(1) == 1


@pytest.mark.parametrize(
    "F", [BinaryField.default(m) for m in range(1, MAX_DEGREE + 1)]
    + [BinaryField(3, 0b1101), BinaryField(4, 0b11001)], ids=repr)
def test_trace_matches_the_sum_of_squarings(F, rng):
    # every element up to m = 12, a sample above
    m = F.degree
    if m <= 12:
        elements = range(F.order)
    else:
        elements = [1 << i for i in range(m)] + [
            rng.randrange(F.order) for _ in range(200)]
    for v in elements:
        assert F.trace(v) == squarings_trace(F, v), (m, v)
    # the smallest element of trace 1: every smaller one is a sum of lower
    # basis elements, so all of those must have trace 0
    t1 = F.trace_one_element()
    assert squarings_trace(F, t1) == 1 and t1 & (t1 - 1) == 0
    assert not any(squarings_trace(F, 1 << i)
                   for i in range(t1.bit_length() - 1))


def test_sqrt():
    assert GF4.sqrt(0b11) == 0b10  # sqrt(a+1) = a
    assert GF4.sqrt(1) == 1
    F8 = BinaryField.default(3)
    t = 0b010
    s = F8.sqrt(t)
    assert s == 0b110 and F8.mul(s, s) == t  # sqrt(t) = t^2 + t


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GF4.inv(0)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_field_axioms_random(m, rng):
    F = BinaryField.default(m)
    for _ in range(1000):
        x, y, z = (rng.randrange(F.order) for _ in range(3))
        assert F.mul(x, F.mul(y, z)) == F.mul(F.mul(x, y), z)
        assert F.mul(x, y ^ z) == F.mul(x, y) ^ F.mul(x, z)
        if x:
            assert F.mul(x, F.inv(x)) == 1


@pytest.mark.parametrize("m", [2, 3, 4])
def test_sqrt_and_trace_exhaustive(m):
    F = BinaryField.default(m)
    for v in range(F.order):
        s = F.sqrt(v)
        assert F.mul(s, s) == v
        assert F.trace(F.mul(v, v)) == F.trace(v)
    # trace is onto GF(2) and GF(2)-linear
    assert {F.trace(v) for v in range(F.order)} == {0, 1}
    for v in range(F.order):
        for w in range(F.order):
            assert F.trace(v ^ w) == F.trace(v) ^ F.trace(w)


def test_pow_and_order():
    for m in (1, 2, 3):
        F = BinaryField.default(m)
        for v in range(1, F.order):
            assert F.pow(v, F.order - 1) == 1
            assert F.pow(v, -1) == F.inv(v)


def test_element_text_roundtrip():
    for v in range(GF4.order):
        assert GF4.parse_elt(GF4.format_elt(v)) == v
    F8 = BinaryField.default(3)
    assert F8.format_elt(0b110) == "a^2+a"
    assert F8.parse_elt("a^2+a") == 0b110
    with pytest.raises(ValueError):
        GF4.parse_elt("a^2")
    with pytest.raises(ValueError):
        GF4.parse_elt("b")


def test_fields_interchangeable_only_if_identical():
    assert BinaryField(2, 0b111) == GF4
    assert BinaryField.default(3) != BinaryField(3, 0b1101)


# The log/antilog tables are built and held by `zeta`, the one module that
# reads them; these tests check them against the bit loop.

def table_mul(tables, a, b):
    log, exp, _ = tables
    return exp[(log[a] + log[b]) % len(exp)] if a and b else 0


def table_inv(tables, a):
    log, exp, _ = tables
    return exp[-log[a] % len(exp)]


def multiplicative_order(F, v):
    e, w = 1, v
    while w != 1:
        w, e = F.mul(w, v), e + 1
    return e


TABLE_FIELDS = [BinaryField.default(m) for m in range(1, 7)] + [
    BinaryField(3, 0b1101)]


@pytest.mark.parametrize("F", TABLE_FIELDS, ids=repr)
def test_tables_match_bit_loop_exhaustive(F):
    tables = zeta._tables(F)
    log, exp, _ = tables
    n1 = F.order - 1
    assert len(exp) == n1
    assert sorted(exp) == list(range(1, F.order))
    assert all(log[exp[k]] == k for k in range(n1))
    # the generator g = exp[1 % n1] is the smallest element of
    # multiplicative order n1 (in GF(2), exp[0] = 1)
    g = exp[1 % n1]
    assert multiplicative_order(F, g) == n1
    assert all(multiplicative_order(F, v) < n1 for v in range(1, g))
    for a in range(F.order):
        for b in range(F.order):
            assert table_mul(tables, a, b) == F.mul(a, b)
        if a:
            assert table_inv(tables, a) == F.inv(a)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tables_match_bit_loop_sampled(data):
    m = data.draw(st.integers(7, zeta.TABLE_MAX_DEGREE))
    F = BinaryField.default(m)
    tables = zeta._tables(F)
    a = data.draw(st.integers(0, F.order - 1))
    b = data.draw(st.integers(0, F.order - 1))
    assert table_mul(tables, a, b) == F.mul(a, b)
    if a:
        assert table_inv(tables, a) == F.inv(a)


def test_tables_stop_at_the_cap(monkeypatch):
    cap = zeta.TABLE_MAX_DEGREE
    assert len(zeta._tables(BinaryField.default(cap))[1]) == (1 << cap) - 1
    with pytest.raises(ValueError, match="table cap"):
        zeta._tables(BinaryField.default(cap + 1))
    # the cap is read on every build, so one patched below a cached field
    # refuses it once the cache is emptied
    monkeypatch.setattr(zeta, "TABLE_MAX_DEGREE", 4)
    zeta._tables.cache_clear()
    with pytest.raises(ValueError, match="table cap"):
        zeta._tables(BinaryField.default(5))
    assert len(zeta._tables(GF4)[1]) == 3
    zeta._tables.cache_clear()
