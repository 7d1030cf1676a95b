"""Artin-Schreier curves y^2 + y = f(x) over GF(2^m), and the partial
fractions of f, whose one format is the packed vector `ReducedForm`.

Adding h^2 + h to f gives the same curve, so every right-hand side can be
pushed into a standard form in which all pole orders are odd.  We go
further and store a canonical representative: at every pole the local
expansion keeps only odd-order terms, the polynomial part keeps only
odd-degree monomials, and the constant term is 0 when its absolute trace
is 0 and the field's canonical trace-one element otherwise.  Canonical
forms make witnesses printable and comparable.

For a reduced f with pole divisor {(P_j, n_j)} the smooth projective model
has genus -1 + sum_j deg(P_j) * (n_j + 1) / 2 and 2-rank (sum_j deg P_j) - 1
(Riemann-Hurwitz and Deuring-Shafarevich; deg counts conjugate poles).
"""

from __future__ import annotations

import functools
from collections import namedtuple

from . import poly
from .poly import poly_of
from .ratfun import RatFun


class DegenerateCover(ValueError):
    """The double cover splits: reduced right-hand side is constant."""


Invariants = namedtuple("Invariants", "genus two_rank")


def base_digits(F, c, q, e):
    """The digits r_1..r_e of c = sum_i r_i q^(e-i), deg c < e deg q, for
    the codes c and q, q monic, over F, packed as `ReducedForm` packs a
    place's digits: r_i at bit (i - 1) * m * deg q.  This is the one
    base-q expansion."""
    width = q.bit_length() - 1  # m * deg q: q is monic
    v = 0
    for i in range(e - 1, -1, -1):  # r_e = c mod q first
        c, r = poly.divmod_code(F, c, q)
        v |= r << i * width
    return v


def principal_parts(f):
    """The partial-fraction vector of f, not yet canonical: its polynomial
    part, and at each monic irreducible q^e dividing the denominator the
    digits of f = ... + sum_i r_i / q^i, deg r_i < deg q.  The digits at
    q are those of c = rem * (den / q^e)^-1 mod q^e, rem = num mod den.
    All of it runs on codes: only the factors of den are polynomials."""
    F = f.field
    den = f.den.code
    poly_part, rem = poly.divmod_code(F, f.num.code, den)
    places = {}
    for (q, e) in poly.factor(f.den):
        q = qe = q.code
        for _ in range(e - 1):
            qe = poly.mul_code(F, qe, q)
        u = poly.invmod_code(F, poly.divmod_code(F, den, qe)[0], qe)
        c = poly.divmod_code(F, poly.mul_code(F, rem, u), qe)[1]
        places[q] = base_digits(F, c, q, e)
    return ReducedForm(F, poly_part, places)


def reduce_form(f):
    """Canonical representative of f modulo h^2 + h shifts, as a vector.

    Every pole of the result has odd order, local expansions and the
    polynomial part carry no even-order terms, and the constant is trace
    normalized.  May be constant; callers decide what that means.
    """
    return canonical_form(principal_parts(f))


def canonical_form(v):
    """The canonical form (see `reduce_form`) of the partial-fraction
    vector v: each even-order digit, top down, is traded for odd-order ones
    by an h^2 + h shift, and the constant is trace normalized."""
    F = v.field
    places = {}
    for qv, d in v.places.items():
        width = qv.bit_length() - 1  # m * deg q: q is monic
        mask = (1 << width) - 1
        for i in range(-(-d.bit_length() // width) & ~1, 1, -2):
            if r := d >> (i - 1) * width & mask:
                s = r  # its square root in GF(2^m)[x]/(q): r^(2^(width-1))
                for _ in range(width - 1):
                    s = poly.square_mod(F, s, qv)
                hi, lo = poly.divmod_code(F, poly.mul_code(F, s, s), qv)
                assert lo == r, "square root must cancel the leading term"
                d ^= (r << (i - 1) * width ^ hi << (i - 2) * width
                      ^ s << (i // 2 - 1) * width)
        if d:
            places[qv] = d

    m = F.degree
    mask = F.order - 1
    p = v.poly
    for i in range((p.bit_length() - 1) // m & ~1, 1, -2):  # even degrees
        if c := p >> i * m & mask:
            p ^= (c << i * m) ^ (F.sqrt(c) << i // 2 * m)
    c = p & mask
    p ^= c ^ (0 if F.trace(c) == 0 else F.trace_one_element())

    return ReducedForm(F, p, places)


@functools.lru_cache(maxsize=1 << 18)
def reduce_standard(f):
    """The canonical representative of f (see `reduce_form`) as a RatFun."""
    return reduce_form(f).to_ratfun()


class ReducedForm:
    """A partial-fraction expansion as a vector: `principal_parts` returns
    it raw and `canonical_form` canonical.

    `poly` packs the polynomial part, constant included, m bits per
    coefficient.  `places` maps each finite pole, a monic irreducible q
    packed the same way, to its digits r_1..r_e, not all 0 (f has the term
    r_i / q^i, deg r_i < deg q), r_i packed at bit (i - 1) * m * deg q.
    Partial fractions are unique and GF(2)-linear, so functions are equal
    exactly when their vectors are and a sum is the XOR of their vectors;
    reduction is GF(2)-linear too.  A pole order is the index of the top
    digit, so invariants need no factoring.
    """

    __slots__ = ("field", "poly", "places")

    def __init__(self, field, poly, places):
        self.field = field
        self.poly = poly
        self.places = places

    def to_ratfun(self):
        """The function the vector stands for.  A place q with top digit r_e
        adds H / q^e, H = sum_i r_i q^(e-i) by Horner from r_1, and H is r_e
        mod q, a nonzero residue: the sum is in lowest terms with no gcd."""
        F = self.field
        mul = functools.partial(poly.mul_code, F)
        num, den = self.poly, 1
        for q, v in self.places.items():
            width = q.bit_length() - 1  # m * deg q: q is monic
            mask = (1 << width) - 1
            h, qe = v & mask, q
            for i in range(1, -(-v.bit_length() // width)):
                h = mul(h, q) ^ v >> i * width & mask
                qe = mul(qe, q)
            num, den = mul(num, qe) ^ mul(h, den), mul(den, qe)
        return RatFun.lowest_terms(poly_of(F, num), poly_of(F, den))

    def pole_places(self):
        """The places where f has a pole, read from the vector: the keys of
        `places`, and None for infinity."""
        places = set(self.places)
        if self.poly >> self.field.degree:
            places.add(None)
        return places

    def __add__(self, other):
        if other.field is not self.field:
            raise ValueError("reduced forms over different fields")
        places = dict(self.places)
        for q, v in other.places.items():
            s = places.pop(q, 0) ^ v
            if s:
                places[q] = s
        return ReducedForm(self.field, self.poly ^ other.poly, places)

    @property
    def is_constant(self):
        return not self.places and self.poly >> self.field.degree == 0

    def key(self):
        return self.poly, frozenset(self.places.items())

    def __eq__(self, other):
        return (isinstance(other, ReducedForm) and self.field == other.field
                and self.key() == other.key())

    def invariants(self):
        """Genus and 2-rank of y^2 + y = f: infinity is a degree-1 place
        whose digits are the coefficients of x, x^2, ..., m bits each."""
        m = self.field.degree
        genus, k = place_terms(self.poly >> m, m, 1)
        for q, v in self.places.items():
            width = q.bit_length() - 1  # m * deg q: q is monic
            dg, dk = place_terms(v, width, width // m)
            genus += dg
            k += dk
        return Invariants(genus - 1, k - 1)


def place_terms(digits, width, degree):
    """One place's terms of (genus + 1, 2-rank + 1) for a reduced form with
    digits r_1, r_2, ... there, `width` bits each, r_1 lowest, at a place
    of degree `degree`: a pole of order n adds degree * (n + 1) / 2 and
    degree; no pole adds nothing.  This is the one invariants rule."""
    n = -(-digits.bit_length() // width)
    if not n:
        return 0, 0
    assert n % 2 == 1, "reduced form must have odd pole orders"
    return degree * (n + 1) // 2, degree


class ASCurve:
    """y^2 + y = f(x), kept as f's reduced form; `f` is built on use."""

    __slots__ = ("field", "form", "__dict__")

    def __init__(self, f):
        if not isinstance(f, RatFun):
            raise TypeError("ASCurve takes a RatFun")
        self._set(reduce_form(f), f)

    @classmethod
    def from_form(cls, form):
        """The curve y^2 + y = r of a reduced form r; nothing is reduced
        again, and r is built as a RatFun only on first use of `f`."""
        curve = cls.__new__(cls)
        curve._set(form, None)
        return curve

    def _set(self, form, f):
        if form.is_constant:
            r = form.field.format_elt(form.poly)
            raise DegenerateCover(
                f"y^2+y = {r if f is None else f} reduces to the constant "
                f"{r}; the double cover is split or a constant twist")
        self.field = form.field
        self.form = form

    @functools.cached_property
    def f(self):
        return self.form.to_ratfun()

    @functools.cached_property
    def invariants(self):
        return self.form.invariants()

    @property
    def genus(self):
        return self.invariants.genus

    @property
    def two_rank(self):
        return self.invariants.two_rank

    def __eq__(self, other):
        return isinstance(other, ASCurve) and self.form == other.form

    def __hash__(self):
        return self._hash

    @functools.cached_property
    def _hash(self):
        # curves key the point-count memos, so the form's key is hashed once
        return hash((self.field, self.form.key()))

    def __str__(self):
        return f"y^2+y = {self.f} over {self.field}"

    def __repr__(self):
        return f"ASCurve({self})"

    def to_json(self):
        return {"field": self.field.to_json(),
                "num": list(self.f.num.coeffs),
                "den": list(self.f.den.coeffs),
                "text": str(self),
                "genus": self.genus,
                "two_rank": self.two_rank}
