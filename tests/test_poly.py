import itertools

import pytest

from kleinfour.field import (GF2, GF4, MAX_DEGREE, BinaryField,
                             _smallest_factor2)
from kleinfour.poly import (Poly, _edf, ext_gcd, factor, field_embedding,
                            gcd, invmod, is_irreducible, monic_irreducibles)

x2 = Poly.x(GF2)
one2 = Poly.one(GF2)


def _named(fs):
    return [(str(q), m) for q, m in fs]


def test_factor_examples():
    assert _named(factor(x2 * x2 + x2)) == [("x", 1), ("x + 1", 1)]
    assert _named(factor(x2 * x2 + x2 + one2)) == [("x^2 + x + 1", 1)]
    assert _named(factor(Poly.monomial(GF2, 4) + x2)) == [
        ("x", 1), ("x + 1", 1), ("x^2 + x + 1", 1)]


def test_factor_zero_rejected():
    with pytest.raises(ValueError):
        factor(Poly.zero(GF2))


def _poly_to_int(p):
    v = 0
    for i, c in enumerate(p.coeffs):
        v |= c << i
    return v


def test_factor_roundtrip_exhaustive_gf2_deg8():
    # product of factors equals the input, and every factor passes an
    # independent bit-level irreducibility test
    for enc in range(2, 1 << 9):
        p = Poly.make(GF2, [(enc >> i) & 1 for i in range(9)])
        if p.degree < 1:
            continue
        prod = Poly.one(GF2)
        for q, m in factor(p):
            assert _smallest_factor2(_poly_to_int(q)) is None
            for _ in range(m):
                prod = prod * q
        assert prod == p


def test_factor_roundtrip_random_gf4(rng):
    for _ in range(200):
        p = Poly.make(GF4, [rng.randrange(4) for _ in range(rng.randrange(2, 9))])
        if p.degree < 1:
            continue
        prod = Poly.one(GF4)
        for q, m in factor(p):
            assert q.is_monic
            for _ in range(m):
                prod = prod * q
        assert prod == p.monic()


def test_factor_deterministic_across_seeds():
    # the equal-degree split draws no random numbers: it tries the
    # candidates 2^j x^k in order, and the sorted factors it returns do not
    # depend on the candidate it starts from
    quadratics = [q for q in monic_irreducibles(GF4, 2) if q.degree == 2]
    block = quadratics[0] * quadratics[2] * quadratics[5]
    splits = [sorted(_edf(block, 2, start), key=Poly.sort_key)
              for start in (None, 5, 12)]
    assert splits[0] == splits[1] == splits[2]
    assert splits[0] == [q for q, _ in factor(block)]
    assert splits[0] == [quadratics[0], quadratics[2], quadratics[5]]


def test_repeated_factors():
    q = x2 * x2 + x2 + one2
    p = q * q * q * (x2 + one2)
    assert _named(factor(p)) == [("x + 1", 1), ("x^2 + x + 1", 3)]


def test_divmod_and_gcd(rng):
    for _ in range(200):
        a = Poly.make(GF4, [rng.randrange(4) for _ in range(rng.randrange(1, 8))])
        b = Poly.make(GF4, [rng.randrange(4) for _ in range(rng.randrange(1, 8))])
        if not b.coeffs:
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree
        g, u, v = ext_gcd(a, b)
        assert u * a + v * b == g
        assert g == gcd(a, b) or (not a.coeffs and not b.coeffs)


def test_invmod():
    m = Poly.make(GF2, [1, 1, 1])
    a = Poly.make(GF2, [0, 1])
    ai = invmod(a, m)
    assert (a * ai) % m == Poly.one(GF2)
    with pytest.raises(ZeroDivisionError):
        invmod(m, m)


def test_monic_irreducibles_order():
    got = [str(p) for p in monic_irreducibles(GF2, 3)]
    assert got == ["x", "x + 1", "x^2 + x + 1", "x^3 + x + 1", "x^3 + x^2 + 1"]


def test_is_irreducible():
    assert is_irreducible(Poly.make(GF2, [1, 1, 1]))
    assert not is_irreducible(Poly.make(GF2, [1, 0, 1]))  # (x+1)^2
    assert not is_irreducible(Poly.one(GF2))


@pytest.mark.parametrize("F, max_degree", [(GF2, 10), (GF4, 5),
                                           (BinaryField.default(3), 3)],
                         ids=str)
def test_is_irreducible_agrees_with_factor(F, max_degree):
    # every polynomial up to max_degree, with leading coefficient 1 and
    # one other, against the factorization it replaced
    for n in range(max_degree + 1):
        for lc in sorted({1, F.order - 1}):
            for low in itertools.product(range(F.order), repeat=n):
                p = Poly.make(F, [*low, lc])
                expected = n > 0 and factor(p) == [(p.monic(), 1)]
                assert is_irreducible(p) == expected, p


def roots(p):
    """Reference: the roots of p in its own coefficient field, sorted by
    bit encoding, from its linear factors."""
    return sorted(q.coeff(0) for q, _ in factor(p) if q.degree == 1)


def test_roots():
    # x^2 + x = x(x+1) has roots 0 and 1
    assert roots(x2 * x2 + x2) == [0, 1]
    assert roots(Poly.make(GF2, [1, 1, 1])) == []


def test_embedding_gf4_into_gf16_and_gf64(rng):
    for n in (4, 6):
        big = BinaryField.default(n)
        emb = field_embedding(GF4, big)
        r = emb(2)
        assert big.mul(r, r) ^ r ^ 1 == 0
        for _ in range(100):
            u, v = rng.randrange(4), rng.randrange(4)
            assert emb(GF4.mul(u, v)) == big.mul(emb(u), emb(v))
            assert emb(u ^ v) == emb(u) ^ emb(v)
        assert emb(0) == 0 and emb(1) == 1


def embedding_by_bit_loop(sub, sup):
    """Reference: the embedding as a bit loop over the powers of the
    smallest root of sub's modulus in sup."""
    root = roots(Poly.make(sup, [(sub.modulus >> i) & 1
                                 for i in range(sub.degree + 1)]))[0]
    powers = [sup.pow(root, i) for i in range(sub.degree)]

    def embed(v):
        acc = 0
        i = 0
        while v:
            if v & 1:
                acc ^= powers[i]
            v >>= 1
            i += 1
        return acc

    return embed


def test_embedding_matches_the_bit_loop_on_every_default_pair():
    # every proper subfield of degree >= 2 of a default field; GF(2) and
    # the field itself embed as the identity
    for n in range(2, MAX_DEGREE + 1):
        sup = BinaryField.default(n)
        for d in range(1, n + 1):
            if n % d:
                continue
            sub = BinaryField.default(d)
            emb = field_embedding(sub, sup)
            if d == 1 or d == n:
                assert [emb(v) for v in (0, 1, sub.order - 1)] == [
                    0, 1, sub.order - 1]
                continue
            ref = embedding_by_bit_loop(sub, sup)
            assert [emb(v) for v in range(sub.order)] == [
                ref(v) for v in range(sub.order)], (sub, sup)


@pytest.mark.parametrize("sub, n", [(BinaryField(3, 0b1101), 6),
                                    (BinaryField(3, 0b1101), 12),
                                    (BinaryField(4, 0b11001), 8),
                                    (BinaryField(4, 0b11001), 12),
                                    (BinaryField(4, 0b11111), 16)],
                         ids=repr)
def test_embedding_of_a_subfield_under_another_modulus(sub, n):
    sup = BinaryField.default(n)
    emb = field_embedding(sub, sup)
    ref = embedding_by_bit_loop(sub, sup)
    assert [emb(v) for v in range(sub.order)] == [
        ref(v) for v in range(sub.order)]
    for u in range(sub.order):
        for v in range(sub.order):
            assert emb(sub.mul(u, v)) == sup.mul(emb(u), emb(v))


def test_embedding_rejects_bad_degrees():
    with pytest.raises(ValueError):
        field_embedding(GF4, BinaryField.default(3))


def test_poly_str():
    p = Poly.make(GF4, [1, 3, 0, 2])
    assert str(p) == "a*x^3 + (a+1)*x + 1"
    assert str(Poly.zero(GF4)) == "0"


@pytest.mark.parametrize("build", [
    lambda: Poly(GF2, (2,)),
    lambda: Poly(GF4, (1, 4)),
    lambda: Poly(GF4, (-1, 1)),
    lambda: Poly.make(GF2, [2]),
    lambda: Poly.make(GF4, [0, 7, 0]),
    lambda: Poly.const(GF4, 4),
    lambda: Poly.const(GF2, -1),
    lambda: Poly.monomial(GF2, 3, 2),
    lambda: Poly.monomial(GF4, 1, 16),
], ids=["Poly-2", "Poly-4", "Poly-neg", "make-2", "make-7", "const-4",
        "const-neg", "monomial-2", "monomial-16"])
def test_coefficients_outside_the_field_are_refused(build):
    # packed m bits each, such a value would spill into the next
    # coefficient: over GF(2) the constant 2 would read as x
    with pytest.raises(ValueError, match="not an element"):
        build()


def test_coefficients_pack_into_the_code():
    p = Poly.make(GF4, [1, 0, 3, 2, 0, 0])
    assert p.code == 1 | 3 << 4 | 2 << 6
    assert p.coeffs == (1, 0, 3, 2) and p.degree == 3 and p.lc == 2
    assert Poly(GF4, (1, 0, 3, 2)) == p
    assert Poly.monomial(GF4, 3, 2).code == 2 << 6
    assert Poly.make(GF2, [0, 0]).code == 0 and Poly.zero(GF2).degree == -1
    with pytest.raises(ValueError, match="trailing zero"):
        Poly(GF4, (1, 0))
