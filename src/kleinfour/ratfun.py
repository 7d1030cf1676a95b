"""Rational functions over GF(2^m), their pole structure on P^1, and the
text grammar they are parsed from.

A RatFun is a reduced fraction num/den with monic denominator and
gcd(num, den) = 1.  Places of the projective line are the closed points,
each named by a plain value: None for the degree-1 place at infinity, and
a monic irreducible's code for a finite place, which stands for deg q
conjugate geometric points; `ascurve.ReducedForm` keys its places the same
way.  Partial fractions are not kept here: `ascurve.principal_parts`
expands a RatFun into a packed vector, `ascurve.ReducedForm`, and
`to_ratfun` rebuilds it.
"""

from __future__ import annotations

from itertools import accumulate

from . import poly as P
from .poly import Poly


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
        """The poles as (place, order) pairs: infinity, named None, first,
        then each factor of the denominator, by its code, in `factor`'s
        order."""
        entries = []
        if not self.is_zero and self.num.degree > self.den.degree:
            entries.append((None, self.num.degree - self.den.degree))
        if self.den.degree > 0:
            entries += [(q.code, e) for (q, e) in P.factor(self.den)]
        return entries

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
# polynomial in one or more pairs of parentheses may be a term of its own
# or raised to a power: "x + ((x+1))", "1/(x+1)^3".

# Largest exponent the parser accepts, and largest degree of a power or of
# the running denominator of the sum.  `construct` emits degree at most 21
# up to genus 20.  A larger value is refused before a polynomial of that
# degree is built; factoring a denominator of degree 256 already takes over
# half a second.
MAX_EXPONENT = 256

# Deepest nesting of parentheses the parser accepts.  Each level is one
# more recursion into `_parse_poly`, so deeper input is refused up front
# rather than left to exhaust Python's recursion limit.
MAX_NESTING = 32


def _parse_poly(field, text):
    p = Poly.zero(field)
    for term in _split_top(_unwrap(text), "+"):
        p = p + _parse_term(field, term.strip())
    return p


def _unwrap(text):
    """text without every balanced outer pair of parentheses."""
    text = text.strip()
    while text[:1] == "(" and text[-1:] == ")" and _balanced(text[1:-1]):
        text = text[1:-1].strip()
    return text


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
        ctext = _unwrap(ctext)
        try:
            coeff = field.parse_elt(ctext)
        except ValueError as e:
            raise ValueError(f"the coefficient {ctext!r} before '*' in term "
                             f"{term!r} is not a field element: {e}") from None
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
    # a parenthesized polynomial or a bare constant, times coeff
    if _unwrap(term) != term:
        return _parse_poly(field, term).scale(coeff)
    bits = field.parse_elt(term)
    return Poly.const(field, field.mul(coeff, bits) if coeff != 1 else bits)


def parse_ratfun(field, text):
    """Parse the sum-of-fractions grammar into a RatFun."""
    text = text.strip()
    if not text:
        raise ValueError("empty rational function")
    nesting = max(accumulate((ch == "(") - (ch == ")") for ch in text))
    if nesting > MAX_NESTING:
        raise ValueError(f"parentheses nest {nesting} deep, above the cap "
                         f"of {MAX_NESTING}")
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
