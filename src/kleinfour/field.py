"""Arithmetic in binary fields GF(2^m).

Field elements are plain ints holding coefficient bit-vectors: bit i is the
coefficient of a^i, where `a` is the residue of the generator modulo the
field's defining polynomial.  Zero and one are the ints 0 and 1 in every
field.  A BinaryField carries degree and modulus, and its element methods
(`mul`, `inv`, ...) work on raw ints with bit loops.  Fields of degree at
most TABLE_MAX_DEGREE also offer log/antilog tables, built on first use and
kept on the field instance, for loops that multiply many elements of one
field: polynomial arithmetic in `poly` and the point counts in `zeta`.
The absolute trace is GF(2)-linear: it is the parity of an element's bits
under `trace_mask`, built once per field as sums of squarings.

One trial division, `_smallest_factor2`, is the only irreducibility test
on moduli: `default_modulus` takes the first candidate with no factor, and
a field is refused on a reducible modulus, its smallest factor named.

The canonical GF(4) modulus is a^2+a+1, so the cube root of unity used by
the witness constructions prints as `a`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

MAX_DEGREE = 24  # desk-scale bound: no field larger than GF(2^24)
# Largest degree with log/antilog tables, which serve `Poly` arithmetic and
# the point counts in `zeta`: at 16 they are int lists of 2^16 and 2^17
# entries, about 6 MB, built in about 0.06 s.  Above it both fall back to
# the bit-loop `mul`.
TABLE_MAX_DEGREE = 16


# ---------------------------------------------------------------------------
# GF(2)[x] on ints: bit i of p is the coefficient of x^i.

def _deg2(p):
    return p.bit_length() - 1


def _mod2(a, b):
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    db = _deg2(b)
    da = _deg2(a)
    while da >= db:
        a ^= b << (da - db)
        da = _deg2(a)
    return a


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _smallest_factor2(p):
    """The smallest divisor of degree >= 1 of a GF(2) polynomial p of degree
    >= 1 given as an int, by trial division up to degree deg p / 2, or None
    exactly when p is irreducible.  The smallest divisor is irreducible."""
    return next((c for c in range(2, 1 << (_deg2(p) // 2 + 1))
                 if _mod2(p, c) == 0), None)


def _poly2_text(p, var="a"):
    if p == 0:
        return "0"
    terms = []
    for i in range(_deg2(p), -1, -1):
        if (p >> i) & 1:
            if i == 0:
                terms.append("1")
            elif i == 1:
                terms.append(var)
            else:
                terms.append(f"{var}^{i}")
    return "+".join(terms)


@functools.lru_cache(maxsize=MAX_DEGREE)  # one entry per degree
def default_modulus(m):
    """Smallest irreducible degree-m modulus, by integer encoding."""
    if not 1 <= m <= MAX_DEGREE:
        raise ValueError(f"field degree must be in 1..{MAX_DEGREE}, got {m}")
    if m == 1:
        return 0b10
    for cand in range((1 << m) | 1, 1 << (m + 1), 2):
        if _smallest_factor2(cand) is None:
            return cand
    raise AssertionError("unreachable: irreducibles exist in every degree")


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinaryField:
    """GF(2^m) given by an irreducible monic modulus over GF(2).

    Two fields are interchangeable only if degree and modulus are
    bit-identical.  All element-level methods take and return raw ints.
    """

    degree: int
    modulus: int

    def __post_init__(self):
        if not 1 <= self.degree <= MAX_DEGREE:
            raise ValueError(
                f"field degree must be in 1..{MAX_DEGREE}, got {self.degree}")
        if _deg2(self.modulus) != self.degree:
            raise ValueError(
                f"modulus {_poly2_text(self.modulus)} has degree "
                f"{_deg2(self.modulus)}, expected {self.degree}")
        factor = _smallest_factor2(self.modulus)
        if factor is not None:
            raise ValueError(
                f"modulus {_poly2_text(self.modulus)} is reducible: "
                f"divisible by {_poly2_text(factor)}")

    @classmethod
    def default(cls, m):
        """The field with the default modulus; one shared instance per m."""
        return _default_field(m)

    @property
    def order(self):
        return 1 << self.degree

    def add(self, a, b):
        return a ^ b

    def mul(self, a, b):
        r = 0
        top = 1 << self.degree
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= self.modulus
        return r

    def sqr(self, a):
        return self.mul(a, a)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if a == 1:
            return 1
        # extended Euclid on bit polynomials, top-bit elimination
        t0, t1 = 0, 1
        r0, r1 = self.modulus, a
        while r1:
            shift = _deg2(r0) - _deg2(r1)
            r0 ^= r1 << shift
            t0 ^= t1 << shift
            if r0 < r1:
                r0, r1 = r1, r0
                t0, t1 = t1, t0
        assert r0 == 1
        return _mod2(t0, self.modulus)

    def pow(self, a, e):
        if e < 0:
            a = self.inv(a)
            e = -e
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.sqr(a)
            e >>= 1
        return r

    @functools.cached_property
    def trace_mask(self):
        """The bits whose parity is the absolute trace: bit i is Tr(2^i),
        the sum of the squarings (2^i)^(2^k) for k < m."""
        mask = 0
        for i in range(self.degree):
            acc = t = 1 << i
            for _ in range(self.degree - 1):
                t = self.sqr(t)
                acc ^= t
            mask |= acc << i  # acc is 0 or 1
        return mask

    def trace(self, a):
        """Absolute trace down to GF(2), an int in {0,1}: it is GF(2)-linear,
        so it is the parity of a & trace_mask."""
        return (a & self.trace_mask).bit_count() & 1

    def sqrt(self, a):
        """The unique square root: a^(2^(m-1))."""
        for _ in range(self.degree - 1):
            a = self.sqr(a)
        return a

    def trace_one_element(self):
        """Smallest element (by bit encoding) with trace 1: the lowest bit
        of trace_mask, as every smaller element misses the mask."""
        return self.trace_mask & -self.trace_mask

    def log_tables(self):
        """(log, exp) with exp[k] = g^k for the smallest primitive element g.

        exp has 2(2^m - 1) entries, so a sum of two logs indexes it without
        reduction; log[v] is the k < 2^m - 1 with g^k = v (log[0] is
        unused).  None for degrees above TABLE_MAX_DEGREE.  Built with the
        bit-loop mul on first use and kept on the field instance.
        """
        if self.degree > TABLE_MAX_DEGREE:
            return None
        return self._tables

    @functools.cached_property
    def _tables(self):
        n1 = self.order - 1
        primes = _prime_divisors(n1)
        g = next(v for v in range(1, self.order)
                 if all(self.pow(v, n1 // p) != 1 for p in primes))
        exp = [1] * n1
        for k in range(1, n1):
            exp[k] = self.mul(exp[k - 1], g)
        log = [0] * self.order
        for k, v in enumerate(exp):
            log[v] = k
        return log, exp + exp

    def format_elt(self, bits):
        return _poly2_text(bits, "a")

    def parse_elt(self, text):
        """Parse an element like '0', '1', 'a', 'a+1', 'a^2+a'."""
        bits = 0
        for term in text.replace(" ", "").split("+"):
            if term == "0":
                continue
            if term == "1":
                bits ^= 1
            elif term == "a":
                bits ^= 2
            elif term.startswith("a^"):
                try:
                    i = int(term[2:])
                except ValueError:
                    raise ValueError(f"bad element term {term!r}") from None
                if not 1 <= i < self.degree:
                    raise ValueError(f"term {term!r} out of range for GF(2^{self.degree})")
                bits ^= 1 << i
            else:
                raise ValueError(f"bad element term {term!r}")
        if bits >= self.order:
            raise ValueError(f"element {text!r} out of range for GF(2^{self.degree})")
        return bits

    def __str__(self):
        return f"GF({self.order})"

    def __repr__(self):
        return f"BinaryField({self.degree}, 0b{self.modulus:b})"

    def to_json(self):
        return {"degree": self.degree, "modulus": self.modulus,
                "text": _poly2_text(self.modulus)}


@functools.lru_cache(maxsize=MAX_DEGREE)
def _default_field(m):
    # building a field reruns the irreducibility test on its modulus
    return BinaryField(m, default_modulus(m))


GF2 = BinaryField.default(1)
GF4 = BinaryField.default(2)
