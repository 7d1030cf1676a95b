"""Rational functions over GF(2^m), their pole structure on P^1, and the
text grammar they are parsed from.

A RatFun is a reduced fraction num/den with monic denominator and
gcd(num, den) = 1.  Places of the projective line are the closed points:
either the degree-1 place at infinity or a monic irreducible polynomial; a
finite place of degree d stands for d conjugate geometric points.  Partial
fractions are not kept here: `ascurve.principal_parts` expands a RatFun
into a packed vector, `ascurve.ReducedForm`, and `to_ratfun` rebuilds it.
"""

from __future__ import annotations

from . import poly as P
from .field import Frozen
from .poly import Poly


class Place(Frozen):
    """A closed point of P^1: None for infinity, else a monic irreducible."""

    __slots__ = ("poly",)

    def __init__(self, poly=None):
        object.__setattr__(self, "poly", poly)

    def __eq__(self, other):
        if other.__class__ is not Place:
            return NotImplemented
        return self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    @property
    def is_infinity(self):
        return self.poly is None

    @property
    def degree(self):
        return 1 if self.poly is None else self.poly.degree

    def sort_key(self):
        if self.poly is None:
            return (0, 0)
        return (1, self.poly.sort_key())

    def __str__(self):
        return "infinity" if self.poly is None else str(self.poly)

    def __repr__(self):
        return f"Place({self})"


INFINITY = Place(None)


class PoleDivisor(Frozen):
    """Distinct places with positive pole orders, sorted."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        object.__setattr__(self, "entries", entries)  # (Place, order) pairs

    def __eq__(self, other):
        if other.__class__ is not PoleDivisor:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def places(self):
        return {pl for (pl, _) in self.entries}

    def __str__(self):
        if not self.entries:
            return "(none)"
        return ", ".join(f"{pl}^{n}" if n > 1 else str(pl)
                         for (pl, n) in self.entries)

    def __repr__(self):
        return f"PoleDivisor(entries={self.entries!r})"


class RatFun:
    """num/den in lowest terms with monic denominator."""

    __slots__ = ("field", "num", "den")

    def __init__(self, num, den):
        if not isinstance(num, Poly) or not isinstance(den, Poly):
            raise TypeError("RatFun takes two Poly arguments")
        if num.field != den.field:
            raise ValueError("numerator and denominator over different fields")
        if not den.code:
            raise ZeroDivisionError("zero denominator")
        g = P.gcd(num, den)
        if g.degree > 0:
            num = num // g
            den = den // g
        if den.lc != 1:
            c = den.field.inv(den.lc)
            num = num.scale(c)
            den = den.scale(c)
        object.__setattr__(self, "field", num.field)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *_):
        raise AttributeError("RatFun is immutable")

    @classmethod
    def lowest_terms(cls, num, den):
        """num/den for a pair already in lowest terms with den monic; no
        gcd is taken."""
        f = object.__new__(cls)
        object.__setattr__(f, "field", num.field)
        object.__setattr__(f, "num", num)
        object.__setattr__(f, "den", den)
        return f

    @classmethod
    def from_poly(cls, p):
        return cls(p, Poly.one(p.field))

    @classmethod
    def zero(cls, field):
        return cls(Poly.zero(field), Poly.one(field))

    @property
    def is_zero(self):
        return not self.num.code

    @property
    def is_constant(self):
        return self.den.degree == 0 and self.num.degree <= 0

    def __add__(self, other):
        if not isinstance(other, RatFun):
            return NotImplemented
        if other.field != self.field:
            raise ValueError("rational functions over different fields")
        return RatFun(self.num * other.den + other.num * self.den,
                      self.den * other.den)

    __sub__ = __add__

    def __mul__(self, other):
        if not isinstance(other, RatFun):
            return NotImplemented
        return RatFun(self.num * other.num, self.den * other.den)

    def __eq__(self, other):
        return (isinstance(other, RatFun) and self.field == other.field
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.field, self.num.code, self.den.code))

    def key(self):
        return (self.num.code, self.den.code)

    def pole_divisor(self):
        """Finite poles from the factored denominator, plus infinity."""
        entries = []
        if not self.is_zero and self.num.degree > self.den.degree:
            entries.append((INFINITY, self.num.degree - self.den.degree))
        if self.den.degree > 0:
            for (q, e) in P.factor(self.den):
                entries.append((Place(q), e))
        entries.sort(key=lambda t: t[0].sort_key())
        return PoleDivisor(tuple(entries))

    def __str__(self):
        if self.den.degree == 0:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RatFun({self})"

    def to_json(self):
        return {"num": list(self.num.coeffs), "den": list(self.den.coeffs),
                "text": str(self)}


# ---------------------------------------------------------------------------
# Text grammar.  A rational function is a sum of fraction terms; each term is
# a polynomial, optionally divided by a parenthesized polynomial or a bare
# monomial: "x^3 + 1/x", "(x^2+x) / (x^2+x+1)", "a*x + (a+1)*x^2".  A
# parenthesized polynomial may be raised to a power: "1/(x+1)^3".

# Largest exponent the parser accepts, and largest degree of a power or of
# the running denominator of the sum.  `construct` emits degree at most 21
# up to genus 20.  A larger value is refused before a polynomial of that
# degree is built; factoring a denominator of degree 256 already takes over
# half a second.
MAX_EXPONENT = 256

def _parse_poly(field, text):
    text = text.strip()
    if text.startswith("(") and text.endswith(")") and _balanced(text[1:-1]):
        text = text[1:-1].strip()
    terms = _split_top(text, "+")
    p = Poly.zero(field)
    for term in terms:
        p = p + _parse_term(field, term.strip())
    return p


def _balanced(s):
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


def _split_top(s, sep):
    parts = []
    depth = 0
    cur = []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _exponent(text, term):
    try:
        k = int(text)
    except ValueError:
        raise ValueError(f"bad exponent {text!r} in term {term!r}") from None
    if k < 0:
        raise ValueError(f"negative exponent {text!r} in term {term!r}")
    if k > MAX_EXPONENT:
        raise ValueError(f"exponent {k} exceeds the cap of {MAX_EXPONENT}")
    return k


def _parse_power(field, term):
    """(poly)^k, or None if term is not a parenthesized power."""
    base, sep, exp = term.rpartition(")^")
    if not sep or not base.startswith("(") or not _balanced(base[1:]):
        return None
    k = _exponent(exp, term)
    p = _parse_poly(field, base[1:])
    if p.degree * k > MAX_EXPONENT:
        raise ValueError(f"({p})^{k} has degree {p.degree * k}, above the "
                         f"cap of {MAX_EXPONENT}")
    out = Poly.one(field)
    for _ in range(k):
        out = out * p
    return out


def _parse_term(field, term):
    if not term:
        raise ValueError("empty term in polynomial")
    power = _parse_power(field, term)
    if power is not None:
        return power
    coeff = 1
    if "*" in term:
        ctext, _, mtext = term.partition("*")
        ctext = ctext.strip()
        if ctext.startswith("(") and ctext.endswith(")"):
            ctext = ctext[1:-1]
        coeff = field.parse_elt(ctext)
        term = mtext.strip()
        power = _parse_power(field, term)
        if power is not None:
            return power.scale(coeff)
    if term.startswith("x"):
        if term == "x":
            k = 1
        elif term.startswith("x^"):
            k = _exponent(term[2:], term)
        else:
            raise ValueError(f"bad monomial {term!r}")
        return Poly.monomial(field, k, coeff)
    # bare constant, possibly multiplied into coeff already
    if term.startswith("(") and term.endswith(")"):
        term = term[1:-1].strip()
    bits = field.parse_elt(term)
    return Poly.const(field, field.mul(coeff, bits) if coeff != 1 else bits)


def parse_ratfun(field, text):
    """Parse the sum-of-fractions grammar into a RatFun."""
    text = text.strip()
    if not text:
        raise ValueError("empty rational function")
    total = RatFun.zero(field)
    for part in _split_top(text, "+"):
        part = part.strip()
        pieces = _split_top(part, "/")
        if len(pieces) == 1:
            total = total + RatFun.from_poly(_parse_poly(field, part))
        elif len(pieces) == 2:
            num = _parse_poly(field, pieces[0])
            den = _parse_poly(field, pieces[1])
            if not den.code:
                raise ZeroDivisionError("zero denominator in input")
            total = total + RatFun(num, den)
        else:
            raise ValueError(f"too many '/' in term {part!r}")
        if total.den.degree > MAX_EXPONENT:
            raise ValueError(f"the denominator reaches degree "
                             f"{total.den.degree}, above the cap of "
                             f"{MAX_EXPONENT}")
    return total
