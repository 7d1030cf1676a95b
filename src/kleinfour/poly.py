"""Univariate polynomials over GF(2^m).

A polynomial is its code: the int sum c_i q^i for q = 2^m, so coefficient i
sits at bits i*m .. i*m + m - 1 (`pack`, `unpack`).  The zero polynomial is
0, and the degree is read off the bit length.  `Poly` holds its field and
its code; its `coeffs` tuple, low to high with no trailing zeros, is
derived on demand for printing and JSON.  `poly_of` wraps a code as a Poly,
and every other module reads `Poly.code` directly.

Arithmetic has one kernel, on codes.  `images` lists a^j b for j < m, a
the field's generator: each is the last with every coefficient multiplied
by a at once, one masked shift.  Scaling b by c is then `xor_rows` over
those images, a product (`mul_code`) is their XOR over the set bits of the
other factor, each shifted to its coefficient, and long division
(`divmod_code`) clears the remainder's top bit at each step with one image
of the monic divisor.  Over GF(2) there is one image, so the kernel
reduces to carry-less shifts and XORs.  It reads no field tables; the
bit-loop `mul` and `inv` serve only single elements.  `Poly` operators,
`gcd` and `invmod` wrap the kernel's `*_code` functions, which other
modules call directly on codes.

Factorization runs squarefree / distinct-degree / equal-degree stages on
codes, and draws no random numbers; `factor` wraps only its results as
Polys.  The derivative is a mask over the even places of code >> m.  The
equal-degree splitting in characteristic 2 uses the absolute trace map on
a fixed sequence of candidates, the GF(2) basis 2^j x^k (k >= 1) of the
residue ring in order.  `is_irreducible` is the distinct-degree loop's
first step.

`xor_rows` applies a GF(2)-linear map, given by its rows, to a bit vector:
the kernel scales with it, the census reads its tables with it, and
`field_embedding` is `xor_rows` over the powers of a root.
"""

from __future__ import annotations

import copy
import functools
import itertools

from .field import Frozen


class Poly(Frozen):
    """Dense polynomial over a binary field; immutable.

    `field` and `code` are slots, set once through their descriptors by
    `__init__` and by `poly_of`; any later assignment raises AttributeError
    (see `Frozen`).  Polynomials are equal when their fields are the same
    object and their codes are equal."""

    __slots__ = ("field", "code")

    def __init__(self, field, coeffs):
        if coeffs and coeffs[-1] == 0:
            raise ValueError("trailing zero coefficient")
        _set_field(self, field)
        _set_code(self, _checked_code(field, coeffs))

    def __eq__(self, other):
        if other.__class__ is not Poly:
            return NotImplemented
        return self.field is other.field and self.code == other.code

    def __hash__(self):
        return hash(self.code)

    def __reduce__(self):
        return poly_of, (self.field, self.code)

    @classmethod
    def make(cls, field, coeffs):
        """Build from any iterable of coefficient ints; trailing zeros go."""
        return poly_of(field, _checked_code(field, coeffs))

    @classmethod
    def zero(cls, field):
        return poly_of(field, 0)

    @classmethod
    def one(cls, field):
        return poly_of(field, 1)

    @classmethod
    def const(cls, field, bits):
        return cls.make(field, (bits,))

    @classmethod
    def x(cls, field):
        return poly_of(field, 1 << field.degree)

    @classmethod
    def monomial(cls, field, k, c=1):
        return poly_of(field, _checked_code(field, (c,)) << k * field.degree)

    @property
    def coeffs(self):
        """The coefficients low to high, with no trailing zeros."""
        m = self.field.degree
        return tuple(unpack(self.code, m, -(-self.code.bit_length() // m)))

    @property
    def degree(self):
        return (self.code.bit_length() - 1) // self.field.degree

    @property
    def lc(self):
        return self.code >> self.degree * self.field.degree if self.code else 0

    @property
    def is_monic(self):
        return self.lc == 1

    def coeff(self, i):
        m = self.field.degree
        return self.code >> i * m & (1 << m) - 1 if i >= 0 else 0

    def _same(self, other):
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if other.field is not self.field:
            raise ValueError("polynomials over different fields")

    def __add__(self, other):
        self._same(other)
        return poly_of(self.field, self.code ^ other.code)

    __sub__ = __add__

    def __mul__(self, other):
        self._same(other)
        return poly_of(self.field, mul_code(self.field, self.code, other.code))

    def scale(self, c):
        """Multiply by the field element with bits c."""
        return poly_of(self.field, xor_rows(images(self.field, self.code), c))

    def shift(self, k):
        """Multiply by x^k."""
        return poly_of(self.field, self.code << k * self.field.degree)

    def __divmod__(self, other):
        self._same(other)
        F = self.field
        quo, rem = divmod_code(F, self.code, other.code)
        return poly_of(F, quo), poly_of(F, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        """Monic associate (self scaled by 1/lc); zero stays zero."""
        lc = self.lc
        return self if lc <= 1 else self.scale(self.field.inv(lc))

    def map_field(self, target, embed):
        """Map coefficients into another field via embed(bits) -> bits."""
        return Poly.make(target, (embed(c) for c in self.coeffs))

    def __str__(self):
        if not self.code:
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
_set_code = Poly.code.__set__


def poly_of(F, v):
    """The polynomial over F with code v: any int v >= 0 is one."""
    if v < 0:
        raise ValueError(f"a polynomial code is >= 0, got {v}")
    p = _new(Poly)
    _set_field(p, F)
    _set_code(p, v)
    return p


def _checked_code(field, coeffs):
    """`pack` of the coefficients, refusing any outside 0..q-1: packed, it
    would spill into its neighbours."""
    coeffs = tuple(coeffs)
    for c in coeffs:
        if not 0 <= c < field.order:
            raise ValueError(f"coefficient {c} is not an element of {field}")
    return pack(coeffs, field.degree)


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


# -- the kernel, on codes ------------------------------------------------------

def images(field, code):
    """[b, a b, ..., a^(m-1) b] for the polynomial b with this code over
    field = GF(2^m), a the generator.  Multiplying by a shifts every
    coefficient up one bit at once; those whose top bit was set (the bits
    of `tops`) then wrap around through the modulus, within their own m
    bits.  These are the rows of "times c": c b is
    xor_rows(images(field, b), c)."""
    m = field.degree
    rows = [code]
    if m > 1:  # over GF(2) b is the one image, and the mask is not built
        slots = -(-code.bit_length() // m)
        tops = ((1 << slots * m) - 1) // ((1 << m) - 1) << (m - 1)
        low = field.modulus ^ (1 << m)  # a^m, m bits
        for _ in range(m - 1):
            hi = code & tops
            # the carries sit m bits apart, so their products with low
            # cannot overlap: the int product is carry-less
            code = (code ^ hi) << 1 ^ (hi >> (m - 1)) * low
            rows.append(code)
    return rows


def mul_code(field, a, b):
    """The code of a * b: over the set bits k of a, the XOR of b's image
    for bit j = k mod m of a coefficient, shifted by k - j to its place."""
    if a.bit_count() > b.bit_count():
        a, b = b, a  # fewer steps
    m = field.degree
    rows = images(field, b)
    out = 0
    while a:
        k = a.bit_length() - 1
        j = k % m
        out ^= rows[j] << (k - j)
        a ^= 1 << k
    return out


def divmod_code(field, a, b):
    """The codes of the quotient and remainder of a by b.  Each step clears
    the remainder's top bit k, bit j of its top coefficient, with the image
    a^j (b / lc b), whose top coefficient is exactly that bit, and sets bit
    k - m deg b of the quotient by b / lc b; that quotient times 1 / lc b
    is the quotient by b."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    m = field.degree
    top = (b.bit_length() - 1) // m * m  # the place of b's top coefficient
    if a.bit_length() <= top:
        return 0, a
    inv = b >> top
    if inv != 1:
        inv = field.inv(inv)
        b = xor_rows(images(field, b), inv)
    rows = images(field, b)
    quo = 0
    k = a.bit_length() - 1
    while k >= top:
        j = k % m
        a ^= rows[j] << (k - j - top)
        quo ^= 1 << (k - top)
        k = a.bit_length() - 1
    return quo if inv == 1 else xor_rows(images(field, quo), inv), a


def square_mod(field, u, f):
    """The code of u^2 mod f."""
    return divmod_code(field, mul_code(field, u, u), f)[1]


def gcd_code(field, a, b):
    """The code of the monic gcd of a and b."""
    while b:
        a, b = b, divmod_code(field, a, b)[1]
    m = field.degree
    lc = a >> (a.bit_length() - 1) // m * m if a else 0
    return xor_rows(images(field, a), field.inv(lc)) if lc > 1 else a


def gcd(a, b):
    a._same(b)
    return poly_of(a.field, gcd_code(a.field, a.code, b.code))


def _bezout(field, a, b):
    """The codes (g, u) of the last remainder g of Euclid's algorithm on a
    and b, a gcd of theirs, and of a u with u*a + v*b = g for some v."""
    u0, u1 = 1, 0
    while b:
        q, r = divmod_code(field, a, b)
        a, b = b, r
        u0, u1 = u1, u0 ^ mul_code(field, q, u1)
    return a, u0


def invmod_code(field, a, m):
    """The code of a^-1 mod m.  Euclid's last remainder g is a nonzero
    constant exactly when a and m are coprime; else ZeroDivisionError."""
    g, u = _bezout(field, divmod_code(field, a, m)[1], m)
    if not 0 < g < field.order:
        raise ZeroDivisionError(f"{poly_of(field, a)} not invertible mod "
                                f"{poly_of(field, m)}")
    return xor_rows(images(field, divmod_code(field, u, m)[1]), field.inv(g))


def invmod(a, m):
    a._same(m)
    return poly_of(a.field, invmod_code(a.field, a.code, m.code))


# -- factoring, on codes ------------------------------------------------------

def _sqf_decompose(field, f):
    """Squarefree decomposition of a monic f of degree >= 1, char-2
    version.  The derivative of f is sum c_i x^(i-1) over odd i: the
    coefficients of f >> m at its even places."""
    m = field.degree
    out = []
    pairs = -(-f.bit_length() // (2 * m))
    evens = ((1 << 2 * m * pairs) - 1) // ((1 << 2 * m) - 1) * ((1 << m) - 1)
    c = gcd_code(field, f, f >> m & evens)  # f itself when f' = 0
    w = divmod_code(field, f, c)[0]
    i = 1
    while w.bit_length() > m:  # w, and every other code here, is monic
        y = gcd_code(field, w, c)
        z = divmod_code(field, w, y)[0]
        if z.bit_length() > m:
            out.append((z, i))
        w = y
        c = divmod_code(field, c, y)[0]
        i += 1
    if c.bit_length() > m:  # c = s^2: its odd places are 0, and s is monic
        s = pack(map(field.sqrt, unpack(c, 2 * m, pairs)), m)
        out += [(p, 2 * k) for p, k in _sqf_decompose(field, s)]
    return out


def _ddf(field, f):
    """Distinct-degree split of a monic squarefree polynomial.

    Yields (product of irreducible factors of degree d, d).  For any f of
    degree >= 1 the first pair has the least degree of an irreducible
    factor of f, so it is (f, deg f) exactly when f is irreducible.
    """
    m = field.degree
    x = h = 1 << m
    d = 0
    while (f.bit_length() - 1) // m > 2 * d + 1:
        d += 1
        for _ in range(m):
            h = square_mod(field, h, f)
        g = gcd_code(field, h ^ x, f)
        if g.bit_length() > m:
            yield g, d
            f = divmod_code(field, f, g)[0]
            h = divmod_code(field, h, f)[1]
    if f.bit_length() > m:
        yield f, (f.bit_length() - 1) // m


def _edf(field, f, d, start=None):
    """Split monic squarefree f, all of whose factors have degree d.

    Candidate t is u = 2^j x^k with t = k*m + j, from t = start (by
    default m, the candidate x) up: u splits f exactly when its absolute
    traces in f's residue fields are not all equal.  A candidate that does
    not split f splits no factor of f, and the one that does is constant on
    each part, so each part is split from the next candidate on.  The
    traces of the basis span GF(2)^r for r factors, and those of the
    constants (k = 0) are constant, so some candidate splits f when r >= 2.
    """
    m = field.degree
    n = (f.bit_length() - 1) // m
    if n == d:
        return [f]
    for t in itertools.count(start or m):
        # absolute trace of u in each residue field of degree d
        tr = s = 1 << t
        for _ in range(m * d - 1):
            s = square_mod(field, s, f)
            tr ^= s
        g = gcd_code(field, tr, f)
        if 0 < (g.bit_length() - 1) // m < n:
            return (_edf(field, g, d, t + 1)
                    + _edf(field, divmod_code(field, f, g)[0], d, t + 1))


# `k4 table -g 12 --verify` factors 8 distinct polynomials and the census
# none (its sieve yields the factors); an entry holds a polynomial and its
# factors, a few hundred bytes at these degrees.
@functools.lru_cache(maxsize=1 << 14)
def _factor_cached(p):
    F = p.field
    out = sorted((irr, mult)
                 for sq, mult in _sqf_decompose(F, p.monic().code)
                 for block, d in _ddf(F, sq)
                 for irr in _edf(F, block, d))
    return tuple((poly_of(F, irr), mult) for irr, mult in out)


def factor(p):
    """Monic irreducible factors with multiplicities, sorted.

    The product of the factors equals p up to the leading coefficient.
    """
    if not p.code:
        raise ValueError("cannot factor the zero polynomial")
    if p.degree == 0:
        return []
    return list(_factor_cached(p))


def is_irreducible(p):
    """p of degree n is irreducible exactly when the distinct-degree loop
    finds no factor of degree d <= n/2, so that its first block is p
    itself.  Most reducible p fail at a small d, so this is much cheaper
    than factoring them."""
    return p.degree >= 1 and next(_ddf(p.field, p.code))[1] == p.degree


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


# Keys are field pairs with deg sub | deg sup: 84 pairs of default fields
# up to GF(2^24), so 256 entries leave room for fields with other moduli.
@functools.lru_cache(maxsize=256)
def field_embedding(sub, sup):
    """Embedding GF(2^d) -> GF(2^n) for d | n, as a bits -> bits callable.

    Determined by mapping the generator to the smallest root (by bit
    encoding) of the subfield modulus in the big field.  For c = 2, 3, ...
    the power z = c^((2^n - 1)/(2^d - 1)) lies in the subfield, and the
    first z that is a root gives all d of them as its conjugates z^(2^i),
    the modulus being irreducible.  Only the bit-loop `mul` runs: nothing
    is factored over the big field.
    """
    if sup.degree % sub.degree != 0:
        raise ValueError(f"{sub} does not embed in {sup}")
    if sub == sup or sub.degree == 1:
        return lambda v: v
    e = (sup.order - 1) // (sub.order - 1)
    for c in itertools.count(2):
        z = sup.pow(c, e)
        value = 0  # the modulus at z, by Horner's rule over its bits
        for i in range(sub.degree, -1, -1):
            value = sup.mul(value, z) ^ (sub.modulus >> i & 1)
        if not value:
            break
    conjugates = [z]
    for _ in range(sub.degree - 1):
        conjugates.append(sup.sqr(conjugates[-1]))
    root = min(conjugates)
    powers = [1]
    for _ in range(sub.degree - 1):
        powers.append(sup.mul(powers[-1], root))
    return functools.partial(xor_rows, powers)
