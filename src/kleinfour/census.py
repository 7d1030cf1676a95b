"""Exhaustive enumeration of small covers as an empirical soundness check.

Every rational function with numerator and denominator degrees up to a
bound is reduced to its canonical form, and the distinct non-constant
forms (the reduced classes) are paired.  Reduction is GF(2)-linear, so a
cover is the 2-dimensional subspace {r1, r2, r1 + r2} of reduced forms; it
is counted once, at its lowest pair of enumerated classes.  Each class is
held as its principal-part vector (`ReducedForm`, from `reduce_form`), so a
pair sum is an XOR of ints and its invariants come from bit lengths, with
no polynomial arithmetic; RatFuns are built only for each cell's first
example.  Covers are tabulated by (genus, 2-rank, type).  A cover landing
in a cell the decision procedure declares impossible would disprove the
classification; the run asserts that never happens.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ascurve import reduce_form
from .klein4 import KleinFourCover, Partition
from .poly import Poly
from .ratfun import RatFun
from .realize import realizable

MAX_CENSUS_DEGREE = 6


class CensusViolation(AssertionError):
    """A concrete cover exists in a cell declared impossible."""


@dataclass
class CensusCell:
    g: int
    sigma: int
    type: tuple
    witness_count: int
    example: KleinFourCover

    def to_json(self):
        return {"g": self.g, "sigma": self.sigma, "type": list(self.type),
                "witness_count": self.witness_count,
                "example": {"f1": str(self.example.f1),
                            "f2": str(self.example.f2)}}


def _all_polys(field, max_deg):
    order = field.order
    for deg in range(max_deg + 1):
        for enc in range(order ** deg):
            cs = []
            v = enc
            for _ in range(deg):
                cs.append(v % order)
                v //= order
            yield cs


def enumerate_functions(field, max_deg):
    """Normalized nonzero rational functions, num and den degrees <= bound."""
    out = []
    seen = set()
    monic_dens = []
    for cs in _all_polys(field, max_deg):
        monic_dens.append(Poly.make(field, cs + [1]))
    for den in monic_dens:
        for cs in _all_polys(field, max_deg + 1):
            num = Poly.make(field, cs)
            if not num.coeffs:
                continue
            f = RatFun(num, den)
            if f.num != num or f.den != den:
                continue  # not in lowest terms; the reduced pair shows up too
            key = f.key()
            if key in seen:
                continue
            seen.add(key)
            out.append(f)
    return out


def _reduced_classes(field, max_deg):
    """Distinct non-constant reduced forms of the enumerated functions by
    key, in order of first appearance."""
    classes = {}
    for f in enumerate_functions(field, max_deg):
        v = reduce_form(f)
        if not v.is_constant:
            classes.setdefault(v.key(), v)
    return classes


def run_census(field, max_deg):
    """Census cells sorted by (g, sigma, type); raises CensusViolation if a
    cover contradicts the realizability decision."""
    if max_deg < 0:
        raise ValueError(f"census degree bound must be >= 0, got {max_deg}")
    if max_deg > MAX_CENSUS_DEGREE:
        raise ValueError(f"census degree bound is {MAX_CENSUS_DEGREE}")
    classes = _reduced_classes(field, max_deg)
    forms = list(classes.values())
    index = {key: i for i, key in enumerate(classes)}
    invariants = [v.invariants() for v in forms]
    cells = {}
    for i, v1 in enumerate(forms):
        inv1 = invariants[i]
        for j in range(i + 1, len(forms)):
            v3 = v1 + forms[j]  # already reduced: reduction is GF(2)-linear
            if v3.is_constant:
                continue  # r1 and r2 differ by a constant: no cover
            k = index.get(v3.key())
            if k is not None and k < j:
                continue  # {r1, r2, r3} is counted at its lowest pair
            inv2 = invariants[j]
            inv3 = v3.invariants() if k is None else invariants[k]
            p = Partition(inv1.genus, inv2.genus, inv3.genus)
            g = p.g
            sigma = inv1.two_rank + inv2.two_rank + inv3.two_rank
            cell_key = (g, sigma, p.entries)
            cell = cells.get(cell_key)
            if cell is None:
                cover = KleinFourCover(v1, forms[j])
                verdict = realizable(g, sigma, p)
                if not verdict.exists:
                    raise CensusViolation(
                        f"cover ({cover.f1}, {cover.f2}) lands in the "
                        f"impossible cell (g={g}, sigma={sigma}, "
                        f"type={p}): {verdict.citation}")
                cells[cell_key] = CensusCell(g, sigma, p.entries, 1, cover)
            else:
                cell.witness_count += 1
    return [cells[k] for k in sorted(cells)]
