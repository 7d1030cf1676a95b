"""Independent verification by exact point counting over closed points.

Counts are taken over extensions of the curve's own coefficient field
GF(q), q = 2^m: count_points(c, n) is the number of points of the smooth
model over GF(q^n).  The total evaluation field GF(2^(m*n)) is capped at
2^24 elements.

An affine closed point of degree d | n is a Frobenius orbit of d conjugate
elements of GF(q^d): a cyclotomic coset of exponents k of g^k under
k -> q*k mod (q^d - 1), of size exactly d (the point 0 has degree 1).  It
is evaluated once, at its smallest exponent, and contributes d times the
fibre over one of its elements, because the trace over GF(q^n) of an
element of GF(q^d) is (n/d) times its trace over GF(q^d).  Infinity is a
degree-1 place.

While m*n <= 16, GF(q^d) has log/antilog tables and the closed points of
degree d are evaluated all at once.  Each is a lane of a packed int, the
narrowest native unsigned int that holds an element of GF(q^d).  A
polynomial's values at every lane are the XOR of cached term vectors, the
lanes of b*x^i for each power i and basis element b of GF(q) set in its
coefficients' bits.  The trace bit of num/den is the parity of num & W[den]
for a per-field table W of trace duals, one lookup per lane; shifts fold
each lane's parity, and whether den is nonzero, into its bit 0.  Those bit
planes are memoized per (function, d), the tallies of states (bit counts
of their ANDs) per (functions, d): a cover reuses its quotients' planes of
f1 and f2, and N_1..N_n share the tallies of the divisors of n.  Above 16
bits, every element of GF(q^n) is evaluated with the bit-loop arithmetic.

For a quotient curve, counts N_1..N_g determine the L-polynomial through
Newton's identities plus the functional equation, and the 2-rank is read
off as the degree of L mod 2.  For a whole cover the product decomposition
of the Jacobian is checked through the exact count identity
N_X = N_1 + N_2 + N_3 - 2(q^n + 1), with N_X counted directly on the fibre
product, never through the quotients.
"""

from __future__ import annotations

import functools
import struct
import sys
from collections import Counter
from dataclasses import dataclass, field as dfield
from itertools import product

from .ascurve import ASCurve
from .field import MAX_DEGREE, TABLE_MAX_DEGREE, BinaryField
from .klein4 import KleinFourCover
from .poly import field_embedding


class InconsistentCounts(ValueError):
    """Point counts contradict the claimed genus."""


def _extension(base, n):
    if n < 1:
        raise ValueError(f"extension degree n must be >= 1, got {n}")
    bits = base.degree * n
    if bits > MAX_DEGREE:
        raise ValueError(
            f"counting over GF(2^{bits}) exceeds the 2^{MAX_DEGREE} cap")
    if n == 1:
        return base, (lambda v: v)
    ext = BinaryField.default(bits)
    return ext, field_embedding(base, ext)


@functools.lru_cache(maxsize=MAX_DEGREE)
def _trace_mask(fld):
    """Bits whose sum mod 2 is the absolute trace: Tr(v) = |v & mask| mod 2."""
    return sum(fld.trace(1 << i) << i for i in range(fld.degree))


def _eval(coeffs, x, mul):
    acc = 0
    for c in reversed(coeffs):
        acc = mul(acc, x) ^ c
    return acc


def _fibre(states, odd):
    """Points over one point of P^1, from each function's state there.

    A state is None at a pole, else the trace bit of f_i(x) over the
    residue field; odd is the parity of n/d, which carries that trace up
    to GF(q^n).  Where every function is regular the fibre is the product
    of the f1 and f2 Artin-Schreier fibres.  Where exactly one is regular
    its trace decides a fibre of size 2 or 0, and where none is the fibre
    is a single point.  A pole of exactly one of three functions cannot
    occur since f3 = f1 + f2.
    """
    bits = [s & odd for s in states if s is not None]
    if len(bits) == 3:
        return (2 - 2 * bits[0]) * (2 - 2 * bits[1])
    if len(bits) == 1:
        return 2 - 2 * bits[0]
    if not bits:
        return 1
    raise AssertionError(
        "a place supporting exactly one pole contradicts f3 = f1+f2")


# Keys are (q, d) with q^d <= 2^TABLE_MAX_DEGREE, at most 50 of them; a key
# holds about q^d/d exponents.
@functools.lru_cache(maxsize=64)
def _orbit_reps(q, d):
    """Smallest exponent of each q-cyclotomic coset mod q^d - 1 of size d."""
    n1 = q**d - 1
    seen = bytearray(n1)
    reps = []
    for k in range(n1):
        if seen[k]:
            continue
        j, size = k, 0
        while not seen[j]:
            seen[j] = 1
            j = j * q % n1
            size += 1
        if size == d:
            reps.append(k)
    return tuple(reps)


def _lane_code(bits):
    """Format of the narrowest native unsigned int that holds bits bits."""
    for code in "BHIL":
        if struct.calcsize(code) * 8 >= bits:
            return code
    raise ValueError(f"no lane holds {bits} bits")


# One entry per table field.
@functools.lru_cache(maxsize=2 * TABLE_MAX_DEGREE)
def _trace_duals(fld):
    """W in lane format: W[v] = w(1/v) and W[0] = 0, where bit i of w(c) is
    Tr(2^i c), so that Tr(u/v) = |u & W[v]| mod 2 for every v != 0.  w is
    GF(2)-linear, so it is spanned from its values at the basis 2^j."""
    log, exp = fld.log_tables()
    tmask = _trace_mask(fld)
    w = [0]
    for j in range(fld.degree):
        wj = sum(((fld.mul(1 << i, 1 << j) & tmask).bit_count() & 1) << i
                 for i in range(fld.degree))
        w += [c ^ wj for c in w]
    by_log = list(map(w.__getitem__, exp[fld.order - 1:0:-1]))  # w(g^-k)
    code = _lane_code(fld.degree)
    return memoryview(struct.pack(f"{fld.order}{code}", 0, *map(
        by_log.__getitem__, log[1:]))).cast(code)


def _state(num, den, W):
    """num/den's state at one element; W[den] masks num's higher bits."""
    return (num & W[den]).bit_count() & 1 if den else None


def _fold(t, r, width, ones):
    """(parity, nonzero) of each width-bit lane of t and of r, at its bit 0;
    ones has bit 0 of every lane set.  A shift by s brings the next lane's
    bits into a lane's top s bits, which narrower shifts never bring down."""
    while width > 1:
        width //= 2
        t ^= t >> width
        r |= r >> width
    return t & ones, r & ones


# Keys are (base field, d) with m*d <= TABLE_MAX_DEGREE, about 50 of them
# for the default fields.
@functools.lru_cache(maxsize=64)
def _lanes(base, d):
    """The closed points of degree d as lanes of a packed int: one lane per
    orbit rep k, holding an element of GF(q^d) at x = g^k in the narrowest
    native unsigned int that fits it, in native byte order both ways.

    Returns (values, dual, W, ones).  values(poly) packs poly's value at
    each lane as the XOR of term(t), the lanes of embed(2^j) x^i, over the
    set bits t = i*m + j of its coefficients (embedding is GF(2)-linear).
    dual(v) maps each lane of v through W, the trace duals of GF(q^d)."""
    fld, embed = _extension(base, d)
    log, exp = fld.log_tables()
    reps = _orbit_reps(base.order, d)
    W = _trace_duals(fld)
    fmt = f"{len(reps)}{W.format}"

    def packed(lanes):
        return int.from_bytes(struct.pack(fmt, *lanes), sys.byteorder)

    @functools.lru_cache(maxsize=256)  # t < m * (degree + 1)
    def term(t):
        i, j = divmod(t, base.degree)
        lj = log[embed(1 << j)]
        return packed([exp[(lj + i * k) % (fld.order - 1)] for k in reps])

    def values(poly):
        v = 0
        for i, c in enumerate(poly.coeffs):
            while c:
                low = c & -c
                v ^= term(i * base.degree + low.bit_length() - 1)
                c ^= low
        return v

    def dual(v):
        lanes = v.to_bytes(struct.calcsize(fmt), sys.byteorder)
        return packed(map(W.__getitem__, memoryview(lanes).cast(W.format)))

    return values, dual, W, packed([1] * len(reps))


# Keys are (function, d).  A verify call uses at most 3 * 16, its three
# functions at each d <= 16, and a cover's tally reuses its quotients'.
@functools.lru_cache(maxsize=64)
def _planes(f, d):
    """(trace bits, regular bits) of f over the closed points of degree d,
    one bit per lane: the trace bit of f (0 at a pole) and whether f is
    regular.  The trace bit of num/den is the parity of num & W[den]."""
    values, dual, W, ones = _lanes(f.field, d)
    den = values(f.den)
    return _fold(values(f.num) & dual(den), den, 8 * W.itemsize, ones)


def _states_by_orbit(fns, d):
    """Tally of state tuples over the closed points of degree d, as an
    immutable tuple of (states, points) pairs, by bit counts of ANDs of the
    functions' planes.  For a cover, f3 is read only on the lanes where f1
    or f2 has a pole: elsewhere f3 = f1 + f2 has trace bit t1 XOR t2."""
    values, _, W, ones = _lanes(fns[0].field, d)
    tally = Counter()
    if d == 1:  # the point 0: the constant terms
        tally[tuple(_state(f.num.coeffs[0] if f.num.coeffs else 0,
                           f.den.coeffs[0], W) for f in fns)] += 1
    t1, r1 = _planes(fns[0], d)
    if len(fns) == 1:
        for k, plane in zip((0, 1, None), (r1 ^ t1, t1, ones ^ r1)):
            tally[k,] += plane.bit_count()
    else:
        t2, r2 = _planes(fns[1], d)
        p1, p2 = (r1 ^ t1, t1), (r2 ^ t2, t2)  # lanes by trace bit
        for a, b in product((0, 1), repeat=2):
            tally[a, b, a ^ b] += (p1[a] & p2[b]).bit_count()
        poles = ones ^ (r1 & r2)
        if poles:
            num, den = values(fns[2].num), values(fns[2].den)
        while poles:
            p = (poles & -poles).bit_length() - 1
            poles ^= 1 << p
            tally[tuple(t >> p & 1 if r >> p & 1 else None
                        for t, r in ((t1, r1), (t2, r2)))
                  + (_state(num >> p, (den >> p) % len(W), W),)] += 1
    return tuple((key, points) for key, points in tally.items() if points)


# Keys are (functions, d): N_1..N_n share the tallies of the divisors of n.
# One verify call uses at most 4 * 16 keys: a cover and its three quotients,
# each with d <= 16 on the table path.
@functools.lru_cache(maxsize=128)
def _tally(fns, d):
    return _states_by_orbit(fns, d)


def _states_by_element(fns, ext, embed):
    """Counter of state tuples over every element of ext, by bit loops;
    f3 is evaluated only where f1 or f2 has a pole, as in _states_by_orbit."""
    tmask = _trace_mask(ext)
    mul = ext.mul
    inv = ext.inv
    polys = [([embed(c) for c in f.num.coeffs],
              [embed(c) for c in f.den.coeffs]) for f in fns]
    tally = Counter()
    for x in range(ext.order):
        states = []
        for num, den in polys:
            if len(states) == 2 and None not in states:
                states.append(states[0] ^ states[1])  # f3 = f1 + f2
                break
            d = _eval(den, x, mul)
            if d == 0:
                states.append(None)
                continue
            v = mul(_eval(num, x, mul), inv(d))
            states.append((v & tmask).bit_count() & 1)
        tally[tuple(states)] += 1
    return tally


def _count(fns, n):
    """Points over GF(q^n) of the fibre product of y_i^2 + y_i = f_i over
    P^1: (f,) for a curve, (f1, f2, f3) for a Klein-four cover."""
    base = fns[0].field
    ext, embed = _extension(base, n)
    if ext.log_tables() is None:
        groups = [(1, 1, _states_by_element(fns, ext, embed).items())]
    else:
        groups = [(d, (n // d) & 1, _tally(fns, d))
                  for d in range(1, n + 1) if n % d == 0]
    at_inf = tuple(None if v is None else base.trace(v)
                   for v in (f.infinity_value() for f in fns))
    groups.append((1, n & 1, ((at_inf, 1),)))
    return sum(weight * points * _fibre(states, odd)
               for weight, odd, tally in groups
               for states, points in tally)


def count_points(curve, n):
    """Points of the smooth model of an ASCurve over GF(q^n).

    Ramified points (over poles of f) contribute 1; elsewhere x contributes
    2 or 0 according to the absolute trace of f(x).  The point over x = oo
    is included via degree comparison.
    """
    if not isinstance(curve, ASCurve):
        raise TypeError("count_points takes an ASCurve")
    return _count((curve.f,), n)


def count_points_cover(cover, n):
    """Points of the smooth model of the cover over GF(q^n), directly.

    At an unramified x the fibre is the product of the two Artin-Schreier
    fibres.  Over a pole, either exactly one of the three functions is
    regular there and its trace decides a fibre of size 2 or 0, or all
    three have poles and the fibre is a single point.
    """
    if not isinstance(cover, KleinFourCover):
        raise TypeError("count_points_cover takes a KleinFourCover")
    return _count((cover.f1, cover.f2, cover.f3), n)


def weil_ok(counts, genus, q):
    """|N_n - (q^n + 1)| <= 2 g q^(n/2), checked in exact arithmetic."""
    for n, N in enumerate(counts, start=1):
        if (N - q**n - 1) ** 2 > 4 * genus * genus * q**n:
            return False
    return True


@dataclass(frozen=True)
class LPoly:
    """Numerator of the zeta function: integer coefficients b_0..b_2g."""

    coeffs: tuple
    q: int

    @property
    def genus(self):
        return (len(self.coeffs) - 1) // 2

    def two_rank(self):
        """Degree of L mod 2."""
        deg = 0
        for i, b in enumerate(self.coeffs):
            if b % 2:
                deg = i
        return deg

    def power_sums(self, upto):
        """Frobenius power sums p_1..p_upto implied by the coefficients."""
        ps = []
        for k in range(1, upto + 1):
            s = -k * (self.coeffs[k] if k < len(self.coeffs) else 0)
            for j in range(1, k):
                b = self.coeffs[k - j] if k - j < len(self.coeffs) else 0
                s -= ps[j - 1] * b
            ps.append(s)
        return ps

    def predicted_counts(self, upto):
        return [self.q**n + 1 - p
                for n, p in enumerate(self.power_sums(upto), start=1)]

    def __str__(self):
        terms = []
        for i, b in enumerate(self.coeffs):
            if b == 0:
                continue
            if i == 0:
                terms.append(str(b))
            elif i == 1:
                terms.append(f"{b}*T" if b != 1 else "T")
            else:
                terms.append(f"{b}*T^{i}" if b != 1 else f"T^{i}")
        return " + ".join(terms) if terms else "0"


def lpoly_from_counts(counts, genus, q=2):
    """Recover L from N_1..N_g (extra counts are consistency-checked).

    Newton's identities give b_1..b_g; the functional equation
    b_{2g-i} = q^(g-i) b_i completes the upper half.  Raises
    InconsistentCounts when a coefficient fails to be integral, a count
    violates the Weil bound for the claimed genus, or a count beyond N_g
    disagrees with the completed polynomial.
    """
    counts = list(counts)
    if len(counts) < genus:
        raise ValueError(f"need at least {genus} counts, got {len(counts)}")
    if not weil_ok(counts, genus, q):
        raise InconsistentCounts(
            f"counts {counts} violate the Weil bound for genus {genus}")
    ps = [q**n + 1 - N for n, N in enumerate(counts, start=1)]
    b = [1]
    for k in range(1, genus + 1):
        s = 0
        for j in range(1, k + 1):
            s += ps[j - 1] * b[k - j]
        if s % k:
            raise InconsistentCounts(
                f"coefficient b_{k} = {-s}/{k} is not integral")
        b.append(-s // k)
    for i in range(genus - 1, -1, -1):
        b.append(q ** (genus - i) * b[i])
    L = LPoly(tuple(b), q)
    if len(counts) > genus:
        predicted = L.predicted_counts(len(counts))
        for n in range(genus, len(counts)):
            if predicted[n] != counts[n]:
                raise InconsistentCounts(
                    f"N_{n+1} = {counts[n]} but the completed L-polynomial "
                    f"predicts {predicted[n]}")
    return L


@dataclass
class Report:
    """Outcome of comparing formula invariants against the count oracle."""

    target: str
    formula: dict
    oracle: dict
    identity_checks: list = dfield(default_factory=list)
    status: str = "confirmed"
    truncated: bool = False
    detail: str = ""

    @property
    def confirmed(self):
        return self.status == "confirmed"

    def to_json(self):
        return {"target": self.target, "formula": self.formula,
                "oracle": self.oracle,
                "identity_checks": self.identity_checks,
                "status": self.status, "truncated": self.truncated,
                "detail": self.detail}


def _verify_curve(curve, depth, max_bits):
    g, sigma = curve.invariants
    q = curve.field.order
    report = Report(target=str(curve),
                    formula={"genus": g, "two_rank": sigma},
                    oracle={})
    depth = max(depth, g)
    max_n = max_bits // curve.field.degree
    if depth > max_n:
        depth = max_n
        report.truncated = True
    if depth < g:
        report.status = "mismatch"
        report.detail = (f"cannot recover a genus-{g} L-polynomial within "
                         f"the 2^{max_bits} evaluation cap")
        return report
    counts = [count_points(curve, n) for n in range(1, depth + 1)]
    report.oracle["counts"] = counts
    try:
        L = lpoly_from_counts(counts, g, q)
    except InconsistentCounts as e:
        report.status = "mismatch"
        report.oracle["genus_consistent"] = False
        report.detail = str(e)
        return report
    report.oracle["genus_consistent"] = True
    report.oracle["lpoly"] = list(L.coeffs)
    report.oracle["two_rank"] = L.two_rank()
    if L.two_rank() != sigma:
        report.status = "mismatch"
        report.detail = (f"2-rank from L mod 2 is {L.two_rank()}, "
                         f"formula says {sigma}")
    return report


def _verify_cover(cover, depth, max_bits):
    g, sigma = cover.invariants
    report = Report(target=str(cover),
                    formula={"genus": g, "two_rank": sigma},
                    oracle={"quotients": []})
    q = cover.field.order
    failures = []
    max_n = min(depth, max_bits // cover.field.degree)
    if max_n < depth:
        report.truncated = True
    quotient_counts = []
    for i, sub in enumerate(cover.quotients, start=1):
        subreport = _verify_curve(sub, depth, max_bits)
        report.oracle["quotients"].append(subreport.to_json())
        if not subreport.confirmed:
            failures.append(f"quotient {i}: {subreport.detail}")
        report.truncated = report.truncated or subreport.truncated
        # A subreport that counted at all holds N_1..N_max_n; one that
        # stopped short of its genus did not count, so count here.
        counts = subreport.oracle.get("counts")
        if counts is None:
            counts = [count_points(sub, n) for n in range(1, max_n + 1)]
        quotient_counts.append(counts)
    for n in range(1, max_n + 1):
        lhs = count_points_cover(cover, n)
        rhs = sum(c[n - 1] for c in quotient_counts) - 2 * (q**n + 1)
        report.identity_checks.append(
            {"n": n, "direct": lhs, "from_quotients": rhs, "ok": lhs == rhs})
        if lhs != rhs:
            failures.append(f"count identity fails at n={n}: direct {lhs}, "
                            f"from quotients {rhs}")
    if failures:
        report.status = "mismatch"
        report.detail = "; ".join(failures)
    return report


def verify(target, depth=None, max_bits=MAX_DEGREE):
    """Count-based check of an ASCurve or KleinFourCover.

    depth defaults to (claimed genus + 1) extensions per quotient, enough
    to pin the L-polynomial and exercise the functional-equation check.
    max_bits bounds the total evaluation field; reports that hit it come
    back flagged as truncated.  A negative depth raises ValueError.
    """
    if depth is not None and depth < 0:
        raise ValueError(f"verify depth must be >= 0, got {depth}")
    max_bits = min(max_bits, MAX_DEGREE)
    if isinstance(target, ASCurve):
        if depth is None:
            depth = target.genus + 1
        return _verify_curve(target, depth, max_bits)
    if isinstance(target, KleinFourCover):
        if depth is None:
            depth = max(sub.genus for sub in target.quotients) + 1
        return _verify_cover(target, depth, max_bits)
    raise TypeError("verify takes an ASCurve or a KleinFourCover")
