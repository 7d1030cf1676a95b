"""Univariate polynomials over GF(2^m).

Coefficients are stored low-to-high as raw element ints (see field.py), with
no trailing zeros; the empty tuple is the zero polynomial, whose degree is -1.

Factorization runs squarefree / distinct-degree / equal-degree stages.  The
equal-degree splitting in characteristic 2 uses the absolute trace map; its
internal randomness is drawn from a Random seeded by the polynomial itself,
so results never depend on call order.  The sorted factor list is unique
whatever the random stream.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from .field import BinaryField


@dataclass(frozen=True)
class Poly:
    """Dense polynomial over a binary field; immutable."""

    field: BinaryField
    coeffs: tuple

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("trailing zero coefficient")

    @classmethod
    def make(cls, field, coeffs):
        """Build from any iterable of coefficient ints, normalizing."""
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(field, tuple(cs))

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def const(cls, field, bits):
        return cls.make(field, (bits,))

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    @classmethod
    def monomial(cls, field, k, c=1):
        return cls.make(field, (0,) * k + (c,))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def lc(self):
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def _same(self, other):
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if other.field != self.field:
            raise ValueError("polynomials over different fields")

    def __add__(self, other):
        self._same(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly.make(self.field,
                         (self.coeff(i) ^ other.coeff(i) for i in range(n)))

    __sub__ = __add__

    def __mul__(self, other):
        self._same(other)
        if not self.coeffs or not other.coeffs:
            return Poly.zero(self.field)
        mul = self.field.mul
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] ^= mul(a, b)
        return Poly.make(self.field, out)

    def scale(self, c):
        """Multiply by the field element with bits c."""
        if c == 0:
            return Poly.zero(self.field)
        if c == 1:
            return self
        mul = self.field.mul
        return Poly.make(self.field, (mul(a, c) for a in self.coeffs))

    def shift(self, k):
        """Multiply by x^k."""
        if not self.coeffs:
            return self
        return Poly(self.field, (0,) * k + self.coeffs)

    def __divmod__(self, other):
        self._same(other)
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        inv_lc = F.inv(other.lc)
        rem = list(self.coeffs)
        dq = self.degree - other.degree
        if dq < 0:
            return Poly.zero(F), self
        quo = [0] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[other.degree + k]
            if c == 0:
                continue
            q = F.mul(c, inv_lc)
            quo[k] = q
            for i, b in enumerate(other.coeffs):
                if b:
                    rem[i + k] ^= F.mul(q, b)
        return Poly.make(F, quo), Poly.make(F, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        """Monic associate (self scaled by 1/lc); zero stays zero."""
        if not self.coeffs or self.coeffs[-1] == 1:
            return self
        return self.scale(self.field.inv(self.lc))

    def eval_at(self, x_bits):
        """Evaluate at a raw element of the coefficient field."""
        F = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.mul(acc, x_bits) ^ c
        return acc

    def derivative(self):
        # (i+1) * c_{i+1} survives mod 2 exactly when i is even
        return Poly.make(self.field,
                         (c if i % 2 == 0 else 0
                          for i, c in enumerate(self.coeffs[1:])))

    def even_part_sqrt(self):
        """For a polynomial with zero derivative, the square root."""
        F = self.field
        return Poly.make(F, (F.sqrt(c) for c in self.coeffs[::2]))

    def map_field(self, target, embed):
        """Map coefficients into another field via embed(bits) -> bits."""
        return Poly.make(target, (embed(c) for c in self.coeffs))

    def sort_key(self):
        return (self.degree, self.coeffs[::-1])

    def __str__(self):
        if not self.coeffs:
            return "0"
        F = self.field
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c == 0:
                continue
            ct = F.format_elt(c)
            if i == 0:
                terms.append(ct)
                continue
            xt = "x" if i == 1 else f"x^{i}"
            if c == 1:
                terms.append(xt)
            elif "+" in ct:
                terms.append(f"({ct})*{xt}")
            else:
                terms.append(f"{ct}*{xt}")
        return " + ".join(terms)

    def __repr__(self):
        return f"Poly({self.field}, {self})"


def gcd(a, b):
    while b.coeffs:
        a, b = b, a % b
    return a.monic()


def ext_gcd(a, b):
    """(g, u, v) with u*a + v*b = g, g monic."""
    F = a.field
    r0, r1 = a, b
    u0, u1 = Poly.one(F), Poly.zero(F)
    v0, v1 = Poly.zero(F), Poly.one(F)
    while r1.coeffs:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 + q * u1
        v0, v1 = v1, v0 + q * v1
    if r0.coeffs and r0.lc != 1:
        c = F.inv(r0.lc)
        r0, u0, v0 = r0.scale(c), u0.scale(c), v0.scale(c)
    return r0, u0, v0


def invmod(a, m):
    g, u, _ = ext_gcd(a % m, m)
    if g.degree != 0:
        raise ZeroDivisionError(f"{a} not invertible mod {m}")
    return u % m


def _sqf_decompose(f):
    """Squarefree decomposition of a monic polynomial, char-2 version."""
    if f.degree <= 0:
        return []
    out = []
    fp = f.derivative()
    if not fp.coeffs:
        for (p, k) in _sqf_decompose(f.even_part_sqrt().monic()):
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
        for (p, k) in _sqf_decompose(c.even_part_sqrt().monic()):
            out.append((p, 2 * k))
    return out


def _ddf(f):
    """Distinct-degree split of a monic squarefree polynomial.

    Yields (product of irreducible factors of degree d, d).
    """
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


def _edf(f, d, rng):
    """Split monic squarefree f, all of whose factors have degree d."""
    if f.degree == d:
        return [f]
    F = f.field
    nbits = F.degree * d
    while True:
        u = Poly.make(F, [rng.randrange(F.order) for _ in range(f.degree)])
        if u.degree < 1:
            continue
        # absolute trace of u in each residue field of degree d
        t = u
        s = u
        for _ in range(nbits - 1):
            s = (s * s) % f
            t = t + s
        g = gcd(t, f)
        if 0 < g.degree < f.degree:
            return _edf(g, d, rng) + _edf(f // g, d, rng)


# `k4 table -g 12 --verify` and the GF(2) degree-4 and GF(4) degree-2
# censuses together factor 111 distinct polynomials; an entry holds a
# polynomial and its factors, a few hundred bytes at these degrees.
@functools.lru_cache(maxsize=1 << 14)
def _factor_cached(p):
    F = p.field
    # tuples of ints hash reproducibly, so the stream depends only on the
    # polynomial, never on call order
    rng = random.Random(hash((F.degree, F.modulus, p.coeffs)))
    out = []
    for (sq, mult) in _sqf_decompose(p.monic()):
        for (block, d) in _ddf(sq):
            for irr in _edf(block, d, rng):
                out.append((irr, mult))
    out.sort(key=lambda t: t[0].sort_key())
    return tuple(out)


def factor(p):
    """Monic irreducible factors with multiplicities, sorted.

    The product of the factors equals p up to the leading coefficient.
    """
    if not p.coeffs:
        raise ValueError("cannot factor the zero polynomial")
    if p.degree == 0:
        return []
    return list(_factor_cached(p))


def is_irreducible(p):
    if p.degree < 1:
        return False
    fs = factor(p)
    return len(fs) == 1 and fs[0][1] == 1


def monic_irreducibles(field, max_degree):
    """Yield monic irreducibles in ascending (degree, coefficient) order."""
    for d in range(1, max_degree + 1):
        for enc in range(field.order ** d):
            cs = []
            v = enc
            for _ in range(d):
                cs.append(v % field.order)
                v //= field.order
            p = Poly.make(field, cs + [1])
            if is_irreducible(p):
                yield p


def roots(p):
    """Roots of p in its own coefficient field, sorted by bit encoding."""
    out = []
    for (q, _) in factor(p):
        if q.degree == 1:
            out.append(q.coeff(0))  # monic x + c has root c
    return sorted(out)


# Keys are field pairs with deg sub | deg sup: 84 pairs of default fields
# up to GF(2^24), so 256 entries leave room for fields with other moduli.
@functools.lru_cache(maxsize=256)
def field_embedding(sub, sup):
    """Embedding GF(2^d) -> GF(2^n) for d | n, as a bits -> bits callable.

    Determined by mapping the generator to the smallest root (by bit
    encoding) of the subfield modulus in the big field.
    """
    if sup.degree % sub.degree != 0:
        raise ValueError(f"{sub} does not embed in {sup}")
    if sub == sup:
        return lambda v: v
    if sub.degree == 1:
        return lambda v: v
    mod_poly = Poly.make(sup, [(sub.modulus >> i) & 1
                               for i in range(sub.degree + 1)])
    rs = roots(mod_poly)
    assert rs, "subfield modulus must split in the big field"
    root = rs[0]
    powers = [1]
    for _ in range(sub.degree - 1):
        powers.append(sup.mul(powers[-1], root))

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
