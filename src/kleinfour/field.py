"""Arithmetic in binary fields GF(2^m).

Field elements are plain ints holding coefficient bit-vectors: bit i is the
coefficient of a^i, where `a` is the residue of the generator modulo the
field's defining polynomial.  Zero and one are the ints 0 and 1 in every
field.  A BinaryField carries degree and modulus, and its element methods
(`mul`, `inv`, ...) work on raw ints with bit loops, one element at a
time.  The field keeps no tables: the one loop that multiplies many
elements of one field, the point counts, builds its log/antilog tables in
`zeta`, and polynomial arithmetic in `poly` runs on packed codes.
The absolute trace is GF(2)-linear: it is the parity of an element's bits
under `trace_mask`, read once per field off `trace_bits`, the traces of the
powers of the generator, which Newton's identities give from the modulus.

There is one instance per field.  A registry maps (degree, modulus) to the
live field, so building a field that exists returns it, and fields compare
and hash by identity.  The registry holds only live fields: an entry goes
with the last reference to its field, and building that field again makes
a fresh instance.

One trial division, `_smallest_factor2`, is the only irreducibility test
on moduli: `default_modulus` takes the first candidate with no factor, and
`BinaryField(m, p)` refuses a reducible modulus, its smallest factor named.
`BinaryField.default(m)` registers the default modulus without testing it
again.  `span`, every subset XOR of some ints, is the one GF(2) span.

`Frozen` is the base of the package's immutable value types: fields,
polynomials, genus triples and construction recipes.  A place needs no
type: it is its monic irreducible's code, or None for infinity.

The canonical GF(4) modulus is a^2+a+1, so the cube root of unity used by
the witness constructions prints as `a`.
"""

from __future__ import annotations

import functools
import weakref

MAX_DEGREE = 24  # desk-scale bound: no field larger than GF(2^24)


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


def _smallest_factor2(p):
    """The smallest divisor of degree >= 1 of a GF(2) polynomial p of degree
    >= 1 given as an int, by trial division up to degree deg p / 2, or None
    exactly when p is irreducible.  The smallest divisor is irreducible."""
    return next((c for c in range(2, 1 << (_deg2(p) // 2 + 1))
                 if _mod2(p, c) == 0), None)


def span(vectors):
    """Every XOR of a subset of `vectors`, at the index whose set bits pick
    the subset: one XOR per entry."""
    out = [0]
    for v in vectors:
        out += [x ^ v for x in out]
    return out


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


class Frozen:
    """Base of the immutable value types.  Assigning or deleting an
    attribute raises AttributeError, as on a frozen dataclass: a subclass
    sets its attributes once, when it is built, past __setattr__, through
    object.__setattr__, its slots' descriptors or its instance dict.  A
    copy or a pickle rebuilds a value by calling its class on its slots,
    in order."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(map(self.__getattribute__, self.__slots__))


# (degree, modulus) -> the live field with them; see the module docstring.
_FIELDS = weakref.WeakValueDictionary()


class BinaryField(Frozen):
    """GF(2^m) given by an irreducible monic modulus over GF(2).

    One instance per (degree, modulus), so two fields are interchangeable
    exactly when they are the same object (see the module docstring).  All
    element-level methods take and return raw ints.
    """

    def __new__(cls, degree, modulus):
        field = _FIELDS.get((degree, modulus))
        if field is not None:
            return field
        if not 1 <= degree <= MAX_DEGREE:
            raise ValueError(
                f"field degree must be in 1..{MAX_DEGREE}, got {degree}")
        if _deg2(modulus) != degree:
            raise ValueError(
                f"modulus {_poly2_text(modulus)} has degree "
                f"{_deg2(modulus)}, expected {degree}")
        factor = _smallest_factor2(modulus)
        if factor is not None:
            raise ValueError(
                f"modulus {_poly2_text(modulus)} is reducible: "
                f"divisible by {_poly2_text(factor)}")
        return cls._register(degree, modulus)

    @classmethod
    def _register(cls, degree, modulus):
        """The new field for a modulus known to be irreducible."""
        field = _FIELDS[degree, modulus] = object.__new__(cls)
        field.__dict__.update(degree=degree, modulus=modulus)
        return field

    @classmethod
    def default(cls, m):
        """The field with the default modulus, which its search has
        already shown irreducible."""
        modulus = default_modulus(m)
        return _FIELDS.get((m, modulus)) or cls._register(m, modulus)

    def __reduce__(self):
        return BinaryField, (self.degree, self.modulus)

    @property
    def order(self):
        return 1 << self.degree

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
    def trace_bits(self):
        """Bit k is Tr(a^k) for k < 2m - 1.  Tr(a^k) is the power sum p_k
        of the modulus's roots, the conjugates of a, so Newton's identities
        mod 2 give it from the coefficients c_i of x^(m-i):
        p_k = c_1 p_(k-1) + ... + c_m p_(k-m) (terms with k - i >= 1),
        plus k c_k for k <= m, and p_0 = Tr(1) = m."""
        m = self.degree
        low = self.modulus ^ (1 << m)  # bit m - i is c_i
        bits = 0  # bit j is p_j for 1 <= j < k
        for k in range(1, 2 * m - 1):
            # bit m - i is p_(k-i), and k mod 2 where i = k (the k c_k term)
            window = (bits | k & 1) << (m - k) if k <= m else bits >> (k - m)
            bits |= ((low & window).bit_count() & 1) << k
        return bits | m & 1

    @functools.cached_property
    def trace_mask(self):
        """The bits whose parity is the absolute trace: bit i is Tr(2^i)."""
        return self.trace_bits & (self.order - 1)

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


GF2 = BinaryField.default(1)
GF4 = BinaryField.default(2)
