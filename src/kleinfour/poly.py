"""Univariate polynomials over GF(2^m).

Coefficients are stored low-to-high as raw element ints (see field.py), with
no trailing zeros; the empty tuple is the zero polynomial, whose degree is -1.

Arithmetic (`+`, `*`, `divmod`, `scale`, `monic`) multiplies coefficients in
the log domain on the field's log/antilog tables, fetched once per call;
fields above TABLE_MAX_DEGREE have none and take the bit-loop `mul` in
`_bit_loop`.  Results are built without the trailing-zero check: a product
or quotient ends in lc(a) * lc(b) or lc(a) / lc(b), never 0, and only sums
of equal length and remainders are trimmed.

Factorization runs squarefree / distinct-degree / equal-degree stages.  The
equal-degree splitting in characteristic 2 uses the absolute trace map; its
internal randomness is drawn from a Random seeded by the polynomial itself,
so results never depend on call order.  The sorted factor list is unique
whatever the random stream.

It also holds the bit-level primitives that `ascurve`, the census and
`zeta` share.  `pack`, `unpack` and `poly_of` store a polynomial as one
int, m bits per coefficient (the code sum c_i q^i for q = 2^m), and
`xor_rows` applies a GF(2)-linear map, given by its rows, to a bit vector;
`field_embedding` is `xor_rows` over the powers of a root.
"""

from __future__ import annotations

import copy
import functools
import itertools
import random
from operator import xor

from .field import Frozen


class Poly(Frozen):
    """Dense polynomial over a binary field; immutable.

    `field` and `coeffs` are slots, set once through their descriptors by
    `__init__` and by `_poly`, the arithmetic's unchecked constructor; any
    later assignment raises AttributeError (see `Frozen`).  Polynomials
    are equal when their fields are the same object and their coefficient
    tuples are equal."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        if coeffs and coeffs[-1] == 0:
            raise ValueError("trailing zero coefficient")
        _set_field(self, field)
        _set_coeffs(self, coeffs)

    def __eq__(self, other):
        if other.__class__ is not Poly:
            return NotImplemented
        return self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

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
        if other.field is not self.field:
            raise ValueError("polynomials over different fields")

    def __add__(self, other):
        self._same(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = tuple(map(xor, a, b))
        if len(a) > len(b):
            return _poly(self.field, out + a[len(b):])
        # equal lengths: the top coefficients may cancel
        n = len(out)
        while n and not out[n - 1]:
            n -= 1
        return _poly(self.field, out[:n])

    __sub__ = __add__

    def __mul__(self, other):
        self._same(other)
        a, b = self.coeffs, other.coeffs
        F = self.field
        if not a or not b:
            return _poly(F, ())
        tables = F.log_tables()
        if tables is None:
            return _poly(F, _bit_loop(F, a, b, False))
        log, exp = tables
        lb = [(j, log[c]) for j, c in enumerate(b) if c]
        out = [0] * (len(a) + len(b) - 1)
        i = 0
        for c in a:
            if c:
                lc = log[c]
                for j, l in lb:
                    out[i + j] ^= exp[lc + l]
            i += 1
        # the top coefficient is lc(a) * lc(b), never 0
        return _poly(F, tuple(out))

    def scale(self, c):
        """Multiply by the field element with bits c."""
        if c == 0:
            return _poly(self.field, ())
        if c == 1:
            return self
        F = self.field
        tables = F.log_tables()
        if tables is None:
            return _poly(F, _bit_loop(F, self.coeffs, (c,), False))
        log, exp = tables
        return _poly(F, _scaled(self.coeffs, log[c], log, exp))

    def shift(self, k):
        """Multiply by x^k."""
        if not self.coeffs:
            return self
        return Poly(self.field, (0,) * k + self.coeffs)

    def __divmod__(self, other):
        self._same(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        db = len(b) - 1
        if len(a) <= db:
            return _poly(F, ()), self
        tables = F.log_tables()
        if tables is None:
            quo, rem = _bit_loop(F, a, b, True)
        else:
            log, exp = tables
            n1 = len(exp) >> 1
            inv_lc = n1 - log[b[-1]]  # log of 1/lc(b), in 1..n1
            lb = [(j, log[c]) for j, c in enumerate(b[:db]) if c]
            rem = list(a)
            quo = [0] * (len(a) - db)
            for k in range(len(a) - db - 1, -1, -1):
                c = rem[db + k]
                if c:
                    lq = log[c] + inv_lc
                    if lq >= n1:
                        lq -= n1
                    quo[k] = exp[lq]
                    for j, l in lb:
                        rem[j + k] ^= exp[lq + l]
        # the top quotient coefficient is lc(a) / lc(b), never 0
        n = db
        while n and not rem[n - 1]:
            n -= 1
        return _poly(F, tuple(quo)), _poly(F, tuple(rem[:n]))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        """Monic associate (self scaled by 1/lc); zero stays zero."""
        a = self.coeffs
        if not a or a[-1] == 1:
            return self
        F = self.field
        tables = F.log_tables()
        if tables is None:
            return self.scale(F.inv(a[-1]))
        log, exp = tables
        return _poly(F, _scaled(a, (len(exp) >> 1) - log[a[-1]], log, exp))

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


_new = object.__new__
_set_field = Poly.field.__set__
_set_coeffs = Poly.coeffs.__set__


def _poly(field, coeffs):
    """The Poly with a coefficient tuple already known to have no trailing
    zero: the arithmetic's results, built without a check."""
    p = _new(Poly)
    _set_field(p, field)
    _set_coeffs(p, coeffs)
    return p


def _scaled(coeffs, lc, log, exp):
    """coeffs times the element of log lc (0 <= lc <= n1), on the tables."""
    return tuple(exp[lc + log[v]] if v else 0 for v in coeffs)


def _bit_loop(F, a, b, divide):
    """The coefficient tuple of a * b, or with `divide` the (quotient,
    remainder) lists of a divided by b, on the bit-loop `F.mul`: the kernel
    for fields above TABLE_MAX_DEGREE, which have no log tables.  Only the
    remainder may end in zeros."""
    mul = F.mul
    if not divide:
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                for j, v in enumerate(b):
                    if v:
                        out[i + j] ^= mul(c, v)
        return tuple(out)
    db = len(b) - 1
    inv_lc = F.inv(b[-1])
    rem = list(a)
    quo = [0] * (len(a) - db)
    for k in range(len(a) - db - 1, -1, -1):
        c = rem[db + k]
        if c:
            q = mul(c, inv_lc)
            quo[k] = q
            for j, v in enumerate(b):
                if v:
                    rem[j + k] ^= mul(q, v)
    return quo, rem


def pack(coeffs, m):
    """Field elements as one int, m bits each, lowest index lowest: for
    q = 2^m this is the code sum c_i q^i."""
    v = 0
    for i, c in enumerate(coeffs):
        v |= c << (i * m)
    return v


def unpack(v, m, n):
    """The n field elements, m bits each, that `pack` packed into v."""
    mask = (1 << m) - 1
    return [(v >> (i * m)) & mask for i in range(n)]


def poly_of(F, v):
    """The polynomial over F whose coefficients `pack` packed into v."""
    m = F.degree
    return Poly.make(F, unpack(v, m, -(-v.bit_length() // m)))


def xor_rows(rows, bits):
    """The XOR of rows[j] over the set bits j of `bits`: the GF(2)-linear
    map with those rows applied to `bits`."""
    out = j = 0
    while bits:
        if bits & 1:
            out ^= rows[j]
        bits >>= 1
        j += 1
    return out


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


# `k4 table -g 12 --verify` factors 8 distinct polynomials and the census
# none (its sieve yields the factors); an entry holds a polynomial and its
# factors, a few hundred bytes at these degrees.
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
    """Ben-Or's test: p of degree n is irreducible exactly when no monic
    irreducible of degree d <= n/2 divides it, that is, when p is prime to
    x^(Q^d) - x for each such d, Q the field's order.  Most reducible p
    fail at a small d, so this is much cheaper than factoring them."""
    if p.degree < 1:
        return False
    x = Poly.x(p.field)
    h = x
    for _ in range(p.degree // 2):
        for _ in range(p.field.degree):
            h = (h * h) % p
        if gcd(h + x, p).degree > 0:
            return False
    return True


def _irreducibles(field):
    """Every monic irreducible, in ascending (degree, coefficient) order."""
    for d in itertools.count(1):
        for code in range(1 << d * field.degree, 2 << d * field.degree):
            p = poly_of(field, code)
            if is_irreducible(p):
                yield p


# One entry per field `construct` places poles over.  The tee keeps every
# irreducible found so far and searches further only on demand.
@functools.lru_cache(maxsize=16)
def _irreducibles_found(field):
    return itertools.tee(_irreducibles(field), 1)[0]


def monic_irreducibles(field, max_degree):
    """Monic irreducibles in ascending (degree, coefficient) order."""
    return itertools.takewhile(lambda p: p.degree <= max_degree,
                               copy.copy(_irreducibles_found(field)))


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
    return functools.partial(xor_rows, powers)
