"""Klein-four covers of P^1 as pairs of Artin-Schreier right-hand sides.

A pair (f1, f2) generating a (Z/2Z)^2 extension of the rational function
field has three intermediate quotients y^2+y = f1, f2 and f1+f2.  The
Jacobian of the cover is isogenous to the product of the three quotient
Jacobians, so genus and 2-rank add up over the quotients, and the type of
the cover is the unordered triple of quotient genera.

Covers are compared as unordered triples of canonical reduced right-hand
sides: the pair (f1, f2) and the pair (f2, f1+f2) describe the same cover.
"""

from __future__ import annotations

import functools

from .ascurve import ASCurve, ReducedForm, reduce_form
from .field import Frozen
from .ratfun import RatFun


class InvalidCover(ValueError):
    """The two functions fail to generate a Klein-four extension."""


class InvalidPartition(ValueError):
    """Not a valid genus triple."""


class Partition(Frozen):
    """Unordered genus triple {g1, g2, g3}, stored sorted descending.

    Valid triples have nonnegative entries summing to g with each entry at
    most (g+1)/2.  Immutable, like the other value types: it is hashed by
    its entries, and a copy or a pickle is rebuilt, and so validated,
    through the constructor.
    """

    __slots__ = ("entries",)

    def __init__(self, g1, g2, g3):
        entries = sorted((g1, g2, g3), reverse=True)
        if entries[2] < 0:
            raise InvalidPartition(f"negative entry in {entries}")
        g = sum(entries)
        if 2 * entries[0] > g + 1:
            raise InvalidPartition(
                f"entry {entries[0]} exceeds (g+1)/2 for g={g}")
        object.__setattr__(self, "entries", tuple(entries))

    def __reduce__(self):
        return Partition, self.entries

    @property
    def g(self):
        return sum(self.entries)

    @property
    def is_unbalanced(self):
        """Largest entry at least g/2."""
        return 2 * self.entries[0] >= self.g

    @property
    def is_totally_balanced(self):
        return self.entries[0] == self.entries[2]

    def __contains__(self, v):
        return v in self.entries

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __str__(self):
        return "{%d,%d,%d}" % self.entries

    def __repr__(self):
        return f"Partition{self.entries}"


def check_genus(g):
    """Raise ValueError unless g is a possible genus."""
    if g < 0:
        raise ValueError(f"genus must be >= 0, got {g}")


# Largest genus that `construct` and `k4 table` accept.  A witness at the
# cap, one base and one place step, takes about 0.1 s, so the cap is set by
# the plain table: `k4 table -g 330` prints its 778,512 rows in about 9 s
# on one core.  `realizable` answers at once at any genus and is uncapped.
MAX_GENUS = 330


def partitions_of(g):
    """All valid genus triples summing to g, in descending lex order."""
    check_genus(g)
    out = []
    top = (g + 1) // 2
    for g1 in range(top, -1, -1):
        for g2 in range(min(g1, g - g1), -1, -1):
            g3 = g - g1 - g2
            if 0 <= g3 <= g2:
                out.append(Partition(g1, g2, g3))
    return out


def _form(f):
    if isinstance(f, ReducedForm):
        return f
    if isinstance(f, RatFun):
        return reduce_form(f)
    raise TypeError("KleinFourCover takes two RatFun or ReducedForm "
                    "arguments")


class KleinFourCover:
    """The cover determined by (f1, f2), with derived f3 = f1 + f2.

    f1 and f2 may be RatFuns or reduced forms (`ReducedForm`); `forms`
    holds the three reduced forms, and the quotient curves build each one's
    canonical RatFun on first use, which f1, f2 and f3 share.
    """

    __slots__ = ("field", "forms", "__dict__")

    def __init__(self, f1, f2):
        v1, v2 = _form(f1), _form(f2)
        if v1.field != v2.field:
            raise ValueError("defining functions over different fields")
        # Reduction is a GF(2)-linear projection, so the sum of two
        # canonical forms is already canonical.
        v3 = v1 + v2
        for name, v in (("f1", v1), ("f2", v2), ("f1+f2", v3)):
            if v.is_constant:
                c = v.field.format_elt(v.poly)
                raise InvalidCover(
                    f"{name} reduces to the constant {c}: the pair does not "
                    "generate a Klein-four extension")
        self.field = v1.field
        self.forms = (v1, v2, v3)

    @functools.cached_property
    def quotients(self):
        return tuple(map(ASCurve.from_form, self.forms))

    f1, f2, f3 = (functools.cached_property(lambda self, i=i:
                                            self.quotients[i].f)
                  for i in range(3))

    @functools.cached_property
    def type(self):
        a, b, c = self.quotients
        return Partition(a.genus, b.genus, c.genus)

    @functools.cached_property
    def invariants(self):
        a, b, c = self.quotients
        return (a.genus + b.genus + c.genus,
                a.two_rank + b.two_rank + c.two_rank)

    @property
    def genus(self):
        return self.invariants[0]

    @property
    def two_rank(self):
        return self.invariants[1]

    def key(self):
        """Canonical identity: field plus the unordered reduced triple."""
        return self.field, frozenset(v.key() for v in self.forms)

    def __eq__(self, other):
        return isinstance(other, KleinFourCover) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __str__(self):
        return (f"y^2+y = {self.f1}  and  y^2+y = {self.f2} "
                f"over {self.field}")

    def __repr__(self):
        return f"KleinFourCover({self})"

    def to_json(self):
        g, sigma = self.invariants
        return {"field": self.field.to_json(),
                "f1": self.f1.to_json(),
                "f2": self.f2.to_json(),
                "f3": self.f3.to_json(),
                "type": list(self.type.entries),
                "genus": g,
                "two_rank": sigma}
