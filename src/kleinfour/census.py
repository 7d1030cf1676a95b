"""Exhaustive enumeration of small covers as an empirical soundness check.

Every rational function with numerator and denominator degrees up to a
bound is reduced to its canonical form, and the distinct non-constant
forms (the reduced classes) are paired.  Reduction is GF(2)-linear, so a
cover is the 2-dimensional subspace {r1, r2, r1 + r2} of reduced forms; it
is counted once, at its lowest pair of enumerated classes.  In their order
of first sight, a class that is the sum of a disjoint-pole pair comes after
both summands (checked by the tests at every degree cap).

The census runs on plain ints.  A numerator is its code sum c_i q^i, whose
bit i*m + b is bit b of c_i (q = 2^m): the int a `Poly` holds, so every
code is read straight off `Poly.code` and none is packed.  A sieve
yields the monic denominators with their factors, so none is factored
(`factored_denominators`).  Reduction is GF(2)-linear and acts place by
place, so the forms of each denominator's basis numerators 2^b x^i are read
off tables built once per place power met, as XORs of rows over the bits of
a residue and of a quotient; only the rows are canonicalised
(`BasisTables`).  The forms of all its numerators follow with one XOR each
(`field.span`).  The numerators sharing a factor with the denominator are the
multiples of its irreducible factors, and their codes are dropped with no
gcd (`coprime_codes`).  Every form is packed into one int under a layout
local to the call (`PackedLayout`), so a pair sum is an XOR, a constant sum
is an int below 1 << m, and the lowest-pair test is a dict hit.  Genus and
2-rank add up over places, so a pair with no shared pole has a key fixed by
its classes' invariants and is counted in bulk (`count_covers`), and a sum
with a shared pole that is not itself a class takes its invariants from the
pair's, corrected only at the shared places (`sum_invariants`, through the
same per-place rule as `ReducedForm.invariants`).  Covers are counted under
an int key and folded into (genus, 2-rank, type) cells afterwards
(`fold_keys`); RatFuns are built only for each cell's example, its earliest
pair, when printed.  A cover in a cell the decision procedure declares
impossible would disprove the classification; the run asserts that never
happens, checking the cells in the order of their earliest pairs.
The degree bound is capped per field (`max_census_degree`).

Genus and 2-rank ignore the constant, and every non-constant form u comes
as exactly two classes, u and u + c0 with c0 the canonical trace-one
constant, so the census pairs parts, the classes with their constant
digits cleared (`constant_free_parts`), a quarter of the class pairs.
For parts u != v the four covers {u + c, v + c', u + v + c + c'}, c and
c' in {0, c0}, are distinct and lie in one cell, and each is counted once
among the classes exactly when {u, v, u + v} is counted once among the
parts, so every cell's count is four times its parts' count.  Parts come
in the order of their first classes, so a cell's earliest pair of classes
is the first classes of its earliest pair of parts, and census order
carries over: both classes of a disjoint sum come after the first classes
of its summands.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import compress

from . import poly
from .ascurve import (PackedLayout, ReducedForm, base_digits, canonical_form,
                      place_terms)
from .klein4 import KleinFourCover, Partition
from .field import span
from .poly import Poly, images, poly_of, xor_rows
from .ratfun import RatFun
from .realize import realizable


class CensusViolation(AssertionError):
    """A concrete cover exists in a cell declared impossible."""


class CensusCell(namedtuple("CensusCell",
                             "g sigma type witness_count example")):
    """A populated cell: its covers counted, one of them (a KleinFourCover)
    as the example."""

    __slots__ = ()

    def to_json(self):
        return {"g": self.g, "sigma": self.sigma, "type": list(self.type),
                "witness_count": self.witness_count,
                "example": {"f1": str(self.example.f1),
                            "f2": str(self.example.f2)}}


def factored_denominators(field, max_deg):
    """Monic polynomials of degree <= max_deg in census order, by degree,
    then by the encoding sum c_i q^i of their lower coefficients, each with
    its monic irreducible factors and multiplicities, sorted as
    `poly.factor` sorts them.

    A sieve over codes, which for q = 2^m follow census order: a monic
    polynomial not yet recorded as a product of earlier ones is
    irreducible, and it is multiplied into every recorded product up to
    degree max_deg.  Nothing is factored."""
    m = field.degree
    found = {1: (Poly.one(field), [])}  # code -> (polynomial, factors)
    for d in range(max_deg + 1):
        for code in range(1 << d * m, 2 << d * m):
            if code not in found:  # irreducible: no smaller factor
                p = poly_of(field, code)
                for q, factors in list(found.values()):
                    for e in range(1, (max_deg - q.degree) // d + 1):
                        q = q * p
                        found[q.code] = q, factors + [(p, e)]
            yield found[code]


def coprime_codes(den, factors, n):
    """A flag per numerator code below q^n, set when that numerator is
    nonzero and prime to den, whose factors are `factors`.

    The code of c_0 + c_1 x + ... is sum c_i q^i; since q = 2^m its bit
    i*m + b is bit b of c_i.  A numerator of degree < n shares a factor with
    den exactly when it is a multiple p*h of a monic irreducible factor p,
    and those multiples are the span of the codes of 2^b x^k p."""
    F = den.field
    m = F.degree
    keep = bytearray(b"\1") * (1 << (n * m))
    keep[0] = 0
    for p, _ in factors:
        multiples = [h << k * m for k in range(n - p.degree)
                     for h in images(F, p.code)]
        for code in span(multiples):
            keep[code] = 0
    return keep


def enumerate_functions(field, max_deg):
    """Normalized nonzero rational functions, num and den degrees <= bound.

    Monic denominators come by degree, then by the encoding sum c_i q^i of
    their lower coefficients; for each, every nonzero numerator comes once,
    in order of its encoding, and only pairs already in lowest terms are
    kept (the reduced pair shows up under its own denominator)."""
    n = max_deg + 1
    return [RatFun(poly_of(field, code), den)
            for den, factors in factored_denominators(field, max_deg)
            for code in compress(range(field.order ** n),
                                 coprime_codes(den, factors, n))]


class BasisTables:
    """Reads off reduce_form(2^b x^i / den), for i < n and every bit b of
    a field element, from tables built once per place power met.

    Reduction is GF(2)-linear and acts place by place.  At a place p^e of
    den, with u = (den / p^e)^-1 mod p^e, x^i / den has the principal part
    of (x^i u mod p^e) / p^e, so its canonical digits are an XOR of rows,
    one per bit of the residue x^i u mod p^e, which a times-x map steps
    from u.  The polynomial part is read the same way from the bits of
    x^i // den.  Only the rows are canonicalised, and den's factors come
    from the caller."""

    def __init__(self, field, n):
        self.field = field
        self.n = n
        m = field.degree  # bit k*m + c is the code of 2^c x^k
        self._poly_rows = self._per_bit(
            [canonical_form(ReducedForm(field, 1 << k * m + c, {})).poly
             for k in range(n) for c in range(m)])
        self._places = {}  # (p, e) -> (p^e, digit rows, times-x rows)

    def _per_bit(self, rows):
        """For each bit b of a field element, `rows` composed with scaling
        by 2^b: row k*m + c of table b is the XOR of rows k*m + t over the
        bits t of 2^b * 2^c."""
        F = self.field
        m = F.degree
        return [[xor_rows(rows, F.mul(1 << b, 1 << j % m) << (j - j % m))
                 for j in range(len(rows))] for b in range(m)]

    def _place(self, p, e):
        """p^e; for each bit b, the canonical digits at p of 2^b times each
        residue bit 2^c x^k / p^e, at row k*m + c; and x^N mod p^e times
        each bit 2^c, N = deg p^e, which reduces a residue times x."""
        tables = self._places.get((p, e))
        if tables is None:
            F = self.field
            m = F.degree
            qe = Poly.one(F)
            for _ in range(e):
                qe = qe * p
            rows = []
            for k in range(qe.degree):
                for c in range(m):
                    digits = base_digits(Poly.monomial(F, k, 1 << c), p, e)
                    form = canonical_form(ReducedForm(F, 0, {p.code: digits}))
                    rows.append(form.places.get(p.code, 0))
            wrap = images(F, qe.code ^ 1 << qe.degree * m)  # 2^c x^N mod p^e
            tables = self._places[p, e] = qe, self._per_bit(rows), wrap
        return tables

    def forms(self, den, factors):
        """reduce_form(2^b x^i / den) at index i*m + b, for i < n and each
        bit b, given den's factors."""
        F = self.field
        m = F.degree
        quotients = [0] * min(self.n, den.degree) + [
            (Poly.monomial(F, i) // den).code
            for i in range(den.degree, self.n)]
        places = []
        for p, e in factors:
            qe, rows, wrap = self._place(p, e)
            top = qe.degree * m
            r = poly.invmod(den // qe, qe).code
            residues = []  # x^i u mod p^e, packed
            for _ in range(self.n):
                residues.append(r)
                r <<= m  # times x, then x^N is reduced mod p^e
                r ^= (r >> top << top) ^ xor_rows(wrap, r >> top)
            places.append((p.code, rows, residues))
        forms = []
        for i, quotient in enumerate(quotients):
            for b, poly_rows in enumerate(self._poly_rows):
                digits = {}
                for pk, rows, residues in places:
                    v = xor_rows(rows[b], residues[i])
                    if v:
                        digits[pk] = v
                forms.append(ReducedForm(F, xor_rows(poly_rows, quotient),
                                         digits))
        return forms


def _packed_functions(field, max_deg):
    """The packed reduced forms of `enumerate_functions`, in its order, and
    their layout.  Each denominator's basis is read off the per-place
    tables, and reduction is GF(2)-linear, so the span of the packed basis
    holds the form of every numerator at its code."""
    n = max_deg + 1
    tables = BasisTables(field, n)
    dens = list(factored_denominators(field, max_deg))
    bases = [tables.forms(den, factors) for den, factors in dens]
    layout = PackedLayout(field, [v for vs in bases for v in vs])
    packed = []
    for (den, factors), vs in zip(dens, bases):
        forms = span([layout.pack(v) for v in vs])
        packed += compress(forms, coprime_codes(den, factors, n))
    return packed, layout


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


def max_census_degree(field):
    """The largest degree bound the census accepts over `field`.

    The census pairs about q^(2D + 1) functions, so D is capped where that
    reaches 2^14: 6 over GF(2) and 3 over GF(4), each about 1 s."""
    return (14 // field.degree - 1) // 2


def fold_keys(counts, first):
    """Fold cover counts kept under raw keys g1 << 24 | g2 << 16 | g3 << 8
    | sigma (`counts`) into {(g, sigma, type): [count, pair]}, where pair is
    the earliest of the raw keys' first class pairs (`first`)."""
    cells = {}
    for key, count in counts.items():
        gs = key >> 24, key >> 16 & 255, key >> 8 & 255
        cell_key = (sum(gs), key & 255, tuple(sorted(gs, reverse=True)))
        total, pair = cells.get(cell_key, (0, first[key]))
        cells[cell_key] = [total + count, min(pair, first[key])]
    return cells


def count_covers(classes, layout):
    """(counts, first): the covers {r_i, r_j, r_i + r_j} of the distinct
    non-constant packed forms `classes`, each at its lowest pair i < j,
    counted under raw keys g1 << 24 | g2 << 16 | g3 << 8 | sigma (every
    genus and sigma is below 64 at the degree caps), and the earliest pair
    counted under each key.  With no shared pole, r_i + r_j has invariants
    (g_i + g_j + 1, s_i + s_j + 1), so row i counts those pairs in bulk,
    keyed by i's `own_apart` plus the `apart` of each (poles, apart) group
    above i.  Only pairs with a shared pole go one by one, and their digits
    at the shared places alone shift that key (`sum_invariants`).

    `classes` must be in census order, or an order-preserving sub-list of
    it, so that a class that is the sum of a disjoint-pole pair comes after
    both summands: the disjoint pair is then its cover's lowest pair."""
    one = 1 << layout.field.degree  # a form is constant exactly when below
    index = {x: i for i, x in enumerate(classes)}
    invariants = []
    poles = []  # each class's pole slots
    for x in classes:  # `ReducedForm.invariants`, slot by slot
        genus = k = -1
        mask = 0
        for offset, bits, width, degree in layout.slots:
            digits = (x >> offset) & bits
            if digits:
                dg, dk = place_terms(digits, width, degree)
                genus += dg
                k += dk
                mask |= bits << offset
        invariants.append((genus, k))
        poles.append(mask)
    apart = [(g << 16) + (g << 8) + 2 * s for g, s in invariants]
    above = Counter(zip(poles, apart))
    disjoint = {m: [group for group in above if not group[0] & m]
                for m in set(poles)}
    shares = {m: bytes(map(bool, map(m.__and__, poles))) for m in disjoint}
    slot_bits = {m: layout.places_mask(m) for m in disjoint}
    shifts = {}
    counts = Counter()
    first = {}
    n = len(classes)
    for i, a in enumerate(classes):
        g1, s1 = invariants[i]
        mask1 = poles[i]
        slots1 = slot_bits[mask1]
        above[mask1, apart[i]] -= 1
        own_apart = (g1 << 24) + (g1 << 8) + 2 * s1 + 257
        for j in compress(range(i + 1, n), shares[mask1][i + 1:]):
            b = classes[j]
            s = a ^ b  # already reduced: reduction is GF(2)-linear
            if s < one or index.get(s, j) < j:
                continue  # no cover, or one counted at a lower pair
            digits = a & poles[j], b & mask1  # at the shared places
            shift = shifts.get(digits)
            if shift is None:  # the shared places' part alone
                dg, ds = sum_invariants(layout.slots, *digits,
                                        slots1 & slot_bits[poles[j]],
                                        (-1, -1), (0, 0))
                shift = shifts[digits] = (dg << 8) + ds
            key = own_apart + apart[j] + shift
            if key not in counts:
                first[key] = i, j
            counts[key] += 1
        row = {}
        for group in disjoint[mask1]:
            key = own_apart + group[1]
            row[key] = row.get(key, 0) + above[group]
        for key, count in row.items():
            if count:
                counts[key] += count
                fi, fj = first.get(key, (i, n))
                if fi == i:  # the row's lowest j may come before fj
                    first[key] = i, next(
                        (j for j in range(i + 1, fj)
                         if own_apart + apart[j] == key
                         and not poles[j] & mask1), fj)
    return counts, first


def constant_free_parts(classes, m):
    """The parts of the packed `classes` (each class with its constant
    digits, the low m bits, cleared) in order of first sight, each mapped
    to its first class.

    A canonical constant is 0 or the trace-one element c0, so a part has
    at most two classes, u and u + c0; the census needs exactly two, and
    raises AssertionError otherwise."""
    firsts = {}
    sizes = Counter()
    for x in classes:
        part = x >> m << m
        firsts.setdefault(part, x)
        sizes[part] += 1
    assert all(n == 2 for n in sizes.values()), \
        "every part must have exactly two classes, u and u + c0"
    return firsts


def run_census(field, max_deg):
    """Census cells sorted by (g, sigma, type); raises CensusViolation if a
    cover contradicts the realizability decision."""
    if max_deg < 0:
        raise ValueError(f"census degree bound must be >= 0, got {max_deg}")
    cap = max_census_degree(field)
    if max_deg > cap:
        raise ValueError(f"census degree bound over {field} is {cap}, "
                         f"got {max_deg}")
    packed, layout = _packed_functions(field, max_deg)
    # the distinct non-constant forms, in order of first sight, folded to
    # their parts: the four class pairs over a part pair are four covers
    # in the part pair's cell, and the first classes are the earliest
    firsts = constant_free_parts(
        dict.fromkeys(x for x in packed if x >> field.degree), field.degree)
    counts, first = count_covers(list(firsts), layout)
    cells = fold_keys(counts, first)
    classes = list(firsts.values())
    # check the cells in the order of their earliest pairs
    for cell_key, (count, (i, j)) in sorted(cells.items(),
                                            key=lambda c: c[1][1]):
        g, sigma, entries = cell_key
        p = Partition(*entries)
        cover = KleinFourCover(layout.unpack(classes[i]),
                               layout.unpack(classes[j]))
        verdict = realizable(g, sigma, p)
        if not verdict.exists:
            raise CensusViolation(
                f"cover ({cover.f1}, {cover.f2}) lands in the "
                f"impossible cell (g={g}, sigma={sigma}, "
                f"type={p}): {verdict.citation}")
        cells[cell_key] = CensusCell(g, sigma, entries, 4 * count, cover)
    return [cells[k] for k in sorted(cells)]
