"""Exhaustive enumeration of small covers as an empirical soundness check.

Every rational function with numerator and denominator degrees up to a
bound is reduced to its canonical form, and the distinct non-constant
forms (the reduced classes) are paired.  Reduction is GF(2)-linear, so a
cover is the 2-dimensional subspace {r1, r2, r1 + r2} of reduced forms; it
is counted once, at its lowest pair of enumerated classes.

The census runs on plain ints.  Linearity also means each denominator's
basis numerators 2^b x^i are reduced once, and a function's form is the
XOR of the basis forms at its numerator's set bits.  Every form is packed
into one int under a layout local to the call (`PackedLayout`: polynomial
part at bit 0, each place met at a fixed offset), so a pair sum is an XOR,
a constant sum is an int below 1 << m, and the lowest-pair test is a dict
hit.  Genus and 2-rank add up over places, so a sum that is not itself a
class takes its invariants from the pair's, corrected only at the places
both classes have poles at (`sum_invariants`, through the same per-place
rule as `ReducedForm.invariants`).  RatFuns are built only for each cell's
first example.  Covers are tabulated by (genus, 2-rank, type).  A cover
landing in a cell the decision procedure declares impossible would
disprove the classification; the run asserts that never happens, checking
each cell when it is first reached.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ascurve import PackedLayout, place_terms, reduce_form
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


def _digits(enc, order, n):
    """The n base-`order` digits of enc, lowest first."""
    cs = []
    for _ in range(n):
        cs.append(enc % order)
        enc //= order
    return cs


def enumerate_functions(field, max_deg):
    """Normalized nonzero rational functions, num and den degrees <= bound.

    Monic denominators come by degree, then by the encoding sum c_i q^i of
    their lower coefficients; for each, every nonzero numerator comes once,
    in order of its encoding, and only pairs already in lowest terms are
    kept (the reduced pair shows up under its own denominator)."""
    order = field.order
    out = []
    for deg in range(max_deg + 1):
        for enc in range(order ** deg):
            den = Poly.make(field, _digits(enc, order, deg) + [1])
            for num_enc in range(1, order ** (max_deg + 1)):
                num = Poly.make(field, _digits(num_enc, order, max_deg + 1))
                f = RatFun(num, den)
                if f.num == num and f.den == den:
                    out.append(f)
    return out


def basis_forms(den, n):
    """reduce_form(2^b x^i / den) for i < n and every bit b of a field
    element, at index i*m + b."""
    F = den.field
    return [reduce_form(RatFun(Poly.monomial(F, i, 1 << b), den))
            for i in range(n) for b in range(F.degree)]


def at_set_bits(basis, num):
    """The XOR of basis[i*m + b] over the set bits b of each coefficient i
    of num: num/den reduces to this when basis is `basis_forms(den, n)`
    packed, since reduction is GF(2)-linear."""
    m = num.field.degree
    x = 0
    for i, c in enumerate(num.coeffs):
        while c:
            low = c & -c
            x ^= basis[i * m + low.bit_length() - 1]
            c ^= low
    return x


def _packed_functions(field, max_deg):
    """The enumerated functions' reduced forms, packed, in enumeration
    order, and their layout.  Each denominator's basis is reduced once."""
    functions = enumerate_functions(field, max_deg)
    basis = {}
    for f in functions:
        if f.den not in basis:
            basis[f.den] = basis_forms(f.den, max_deg + 1)
    layout = PackedLayout(field, [v for vs in basis.values() for v in vs])
    packed = {den: [layout.pack(v) for v in vs] for den, vs in basis.items()}
    return [at_set_bits(packed[f.den], f.num) for f in functions], layout


def sum_invariants(slots, a, b, shared, inv_a, inv_b):
    """Genus and 2-rank of the packed sum a ^ b from those of a and b.

    Both add up over places, so the sum's terms are those of a and b except
    at the places where both have poles (the bits of `shared`, slots as in
    `PackedLayout`), which are read again."""
    genus = inv_a[0] + inv_b[0] + 1
    k = inv_a[1] + inv_b[1] + 1
    while shared:
        low = shared & -shared
        shared ^= low
        offset, mask, width, degree = slots[low.bit_length() - 1]
        x = (a >> offset) & mask
        y = (b >> offset) & mask
        g3, k3 = place_terms(x ^ y, width, degree)
        g1, k1 = place_terms(x, width, degree)
        g2, k2 = place_terms(y, width, degree)
        genus += g3 - g1 - g2
        k += k3 - k1 - k2
    return genus, k


def run_census(field, max_deg):
    """Census cells sorted by (g, sigma, type); raises CensusViolation if a
    cover contradicts the realizability decision."""
    if max_deg < 0:
        raise ValueError(f"census degree bound must be >= 0, got {max_deg}")
    if max_deg > MAX_CENSUS_DEGREE:
        raise ValueError(f"census degree bound is {MAX_CENSUS_DEGREE}")
    packed, layout = _packed_functions(field, max_deg)
    one = 1 << field.degree  # a form is constant exactly when below this
    index = {}  # the distinct non-constant forms, in order of first sight
    for x in packed:
        if x >= one and x not in index:
            index[x] = len(index)
    classes = list(index)
    invariants = [layout.unpack(x).invariants() for x in classes]
    masks = [layout.places_mask(x) for x in classes]
    slots = layout.slots
    cells = {}
    for i, a in enumerate(classes):
        inv1 = invariants[i]
        g1, s1 = inv1
        mask1 = masks[i]
        for j in range(i + 1, len(classes)):
            b = classes[j]
            s = a ^ b  # already reduced: reduction is GF(2)-linear
            if s < one:
                continue  # r1 and r2 differ by a constant: no cover
            k = index.get(s)
            g2, s2 = inv2 = invariants[j]
            if k is None:
                g3, s3 = sum_invariants(slots, a, b, mask1 & masks[j],
                                        inv1, inv2)
            elif k < j:
                continue  # {r1, r2, r3} is counted at its lowest pair
            else:
                g3, s3 = invariants[k]
            cell_key = (g1 + g2 + g3, s1 + s2 + s3,
                        tuple(sorted((g1, g2, g3), reverse=True)))
            cell = cells.get(cell_key)
            if cell is not None:
                cell.witness_count += 1
                continue
            g, sigma, entries = cell_key
            p = Partition(*entries)
            cover = KleinFourCover(layout.unpack(a), layout.unpack(b))
            verdict = realizable(g, sigma, p)
            if not verdict.exists:
                raise CensusViolation(
                    f"cover ({cover.f1}, {cover.f2}) lands in the "
                    f"impossible cell (g={g}, sigma={sigma}, "
                    f"type={p}): {verdict.citation}")
            cells[cell_key] = CensusCell(g, sigma, entries, 1, cover)
    return [cells[k] for k in sorted(cells)]
