"""Artin-Schreier curves y^2 + y = f(x) over GF(2^m).

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
from typing import NamedTuple

from .poly import Poly
from .ratfun import RatFun, principal_parts, assemble


class DegenerateCover(ValueError):
    """The double cover splits: reduced right-hand side is constant."""


class Invariants(NamedTuple):
    genus: int
    two_rank: int


def _sqrt_mod(u, q):
    """Square root in the residue field GF(2^m)[x]/(q)."""
    nbits = q.field.degree * q.degree
    for _ in range(nbits - 1):
        u = (u * u) % q
    return u


@functools.lru_cache(maxsize=1 << 18)
def reduce_standard(f):
    """Canonical representative of f modulo h^2 + h shifts.

    Every pole of the result has odd order, local expansions and the
    polynomial part carry no even-order terms, and the constant is trace
    normalized.  May return a constant; callers decide what that means.
    """
    F = f.field
    if f.is_zero:
        return f
    poly_part, parts = principal_parts(f)

    new_parts = {}
    for q, rs in parts.items():
        r = [None] + list(rs)  # 1-indexed pole orders
        for i in range(len(rs), 1, -1):
            if i % 2 == 0 and r[i].coeffs:
                s = _sqrt_mod(r[i], q)
                ss = s * s
                hi, lo = divmod(ss, q)
                assert lo == r[i], "square root must cancel the leading term"
                r[i] = Poly.zero(F)
                r[i - 1] = r[i - 1] + hi
                r[i // 2] = r[i // 2] + s
        while len(r) > 1 and not r[-1].coeffs:
            r.pop()
        if len(r) > 1:
            new_parts[q] = r[1:]

    cs = list(poly_part.coeffs)
    for i in range(len(cs) - 1, 1, -1):
        if i % 2 == 0 and cs[i]:
            s = F.sqrt(cs[i])
            cs[i] = 0
            cs[i // 2] ^= s
    if cs:
        cs[0] = 0 if F.trace(cs[0]) == 0 else F.trace_one_element()
    new_poly = Poly.make(F, cs)

    return assemble(F, new_poly, new_parts)


def invariants_of_reduced(r):
    """Genus and 2-rank of y^2 + y = r for a non-constant r that is already
    in canonical form, read off its pole divisor with no further reduction."""
    genus = -1
    k = 0
    for (pl, n) in r.pole_divisor():
        assert n % 2 == 1, "reduced form must have odd pole orders"
        genus += pl.degree * (n + 1) // 2
        k += pl.degree
    return Invariants(genus, k - 1)


class ASCurve:
    """y^2 + y = f(x), stored with f in canonical standard form."""

    __slots__ = ("field", "f", "__dict__")

    def __init__(self, f):
        if not isinstance(f, RatFun):
            raise TypeError("ASCurve takes a RatFun")
        self._set(f, reduce_standard(f))

    @classmethod
    def from_reduced(cls, r):
        """The curve of an r already in canonical form; r is not reduced
        again.  Passing an unreduced r gives wrong invariants."""
        curve = cls.__new__(cls)
        curve._set(r, r)
        return curve

    def _set(self, f, reduced):
        if reduced.is_constant:
            raise DegenerateCover(
                f"y^2+y = {f} reduces to the constant {reduced}; "
                "the double cover is split or a constant twist")
        self.field = f.field
        self.f = reduced

    @functools.cached_property
    def invariants(self):
        return invariants_of_reduced(self.f)

    @property
    def genus(self):
        return self.invariants.genus

    @property
    def two_rank(self):
        return self.invariants.two_rank

    def pole_divisor(self):
        return self.f.pole_divisor()

    def __eq__(self, other):
        return (isinstance(other, ASCurve) and self.field == other.field
                and self.f == other.f)

    def __hash__(self):
        return hash((self.field, self.f))

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
