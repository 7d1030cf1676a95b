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

While m*n <= TABLE_MAX_DEGREE (16), the closed points of degree d are
evaluated all at once, on tables of GF(q^d) that only this module builds:
`_tables` is the one per-field cache, of log, exp and W.  Each closed
point is a lane of a packed int, the narrowest native unsigned int that
holds an element of GF(q^d), and the point 0 is one more lane among those
of degree 1.  A polynomial's values at every lane are the XOR of cached
term vectors, the lanes of b*x^i for each power i and basis element b of
GF(q) set in its coefficients' bits.  A curve is read from its reduced
form, the polynomial part plus r_i / q^i over its places q, never from a
num/den RatFun.  W, the table of trace duals, is spanned by `field.span`
from its values at a basis, and Tr(u/v) is the parity of u & W[v], so the
trace bit of f is the parity of the XOR of values(poly) & W[1] and
values(r_i) & D, where D holds W[q^i] in every lane.  D is the only
lane-by-lane lookup, and it is memoized per (field, place, order, d), so
the curves that share a place share it; f is regular where no place
vanishes, which is where D is nonzero.  Shifts fold each lane's parity
into its bit 0.  Those bit planes are memoized per (curve, d), and one
fibre rule, `_points`, counts points from bit counts of their ANDs: a
cover reads its three quotients' planes, never their tallies or counts.
Infinity is one more point of degree 1, read off the forms' constant
digits.  The points over degree d depend on n only through the parity of
n/d, so they are tallied once per (curves, d) for both parities and
memoized, and N_n is the sum of the tallies at the divisors d of n: no
plane is read twice for one tuple of curves.  Above the cap, every element
of GF(q^n) is evaluated with the bit-loop arithmetic on a curve's RatFun,
and each is one lane for the same rule: those planes are memoized per
(curve, n), so a cover reads the planes its quotients' counts computed.

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
from collections import namedtuple

from .ascurve import ASCurve
from .field import MAX_DEGREE, BinaryField, span
from .klein4 import KleinFourCover
from .poly import field_embedding, images


# Largest degree of a field with tables, log, exp and W, which `_tables`
# builds for the lanes: at 16, log and exp are int lists of 2^16 entries
# and W is a packed array, about 5 MB in all, built in about 0.03 s.  Above
# it every element of GF(q^n) is evaluated on the bit-loop `mul`.
TABLE_MAX_DEGREE = 16


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


def _eval(coeffs, x, mul):
    acc = 0
    for c in reversed(coeffs):
        acc = mul(acc, x) ^ c
    return acc


def _points(planes, ones):
    """Points over the closed points of degree d in the lanes of ones, from
    each function's (trace, regular) planes there: one curve, or a cover's
    three quotients.  Returns them over GF(q^n) for n/d even and for n/d
    odd: the trace bit over GF(q^n) is n/d times the bit over GF(q^d), so
    it is 0 for even n/d and the plane's bit for odd.  Where f is regular
    its fibre is 2 or 0 as that bit is 0 or 1, and where f has a pole it is
    one point.  For a cover, f3 is read only over a pole of f1 or f2:
    elsewhere the fibre is the product of the f1 and f2 fibres.  Over a
    pole exactly one function is regular, and its bit decides a fibre of 2
    or 0, or none is and the fibre is one point; a pole of exactly one of
    three functions cannot occur since f3 = f1 + f2.
    """
    if len(planes) == 1:
        (t, r), = planes
        ramified = (ones ^ r).bit_count()
        return 2 * r.bit_count() + ramified, 2 * (r ^ t).bit_count() + ramified
    (t1, r1), (t2, r2), (t3, r3) = planes
    poles = ones ^ (r1 & r2)
    if poles & r3 & (r1 | r2):
        raise AssertionError(
            "a place supporting exactly one pole contradicts f3 = f1+f2")
    ramified = (ones ^ (r1 | r2 | r3)).bit_count()

    def points(e1, e2, e3):  # e_i: f_i is regular with trace bit 0
        return (4 * (e1 & e2).bit_count()
                + 2 * (poles & (e1 | e2 | e3)).bit_count() + ramified)
    return points(r1, r2, r3), points(r1 ^ t1, r2 ^ t2, r3 ^ t3)


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
def _tables(fld):
    """(log, exp, W) for a field of degree m at most TABLE_MAX_DEGREE;
    above it, ValueError.  exp[k] = g^k for k < 2^m - 1, g the smallest
    primitive element, and log[v] is the k with g^k = v (log[0] is unused).
    W is in lane format: W[v] = w(1/v) and W[0] = 0, where bit i of w(c) is
    Tr(2^i c), so that Tr(u/v) = |u & W[v]| mod 2 for every v != 0.  w is
    GF(2)-linear, so it is spanned from its values at the basis 2^j."""
    if fld.degree > TABLE_MAX_DEGREE:
        raise ValueError(f"{fld} is above the table cap "
                         f"GF(2^{TABLE_MAX_DEGREE})")
    n1 = fld.order - 1
    # times g is GF(2)-linear, with rows images(fld, g): the XOR of its
    # values on the low h bits and on the high bits, one lookup each
    h = (fld.degree + 1) // 2
    mask = (1 << h) - 1
    for g in range(1, fld.order):
        rows = images(fld, g)
        low, high = span(rows[:h]), span(rows[h:])
        exp, v = [1], g
        while v != 1:
            exp.append(v)
            v = low[v & mask] ^ high[v >> h]
        if len(exp) == n1:  # g's powers return to 1 no earlier than n1
            break
    log = [0] * fld.order
    for k, v in enumerate(exp):
        log[v] = k
    # bit i of w(2^j) is Tr(2^(i+j)), bit i + j of trace_bits
    w = span([fld.trace_bits >> j & n1 for j in range(fld.degree)])
    by_log = list(map(w.__getitem__, exp[:1] + exp[:0:-1]))  # w(g^-k)
    code = _lane_code(fld.degree)
    W = memoryview(struct.pack(f"{fld.order}{code}", 0, *map(
        by_log.__getitem__, log[1:]))).cast(code)
    return log, exp, W


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
    native unsigned int that fits it, in native byte order both ways, and
    for d = 1 a last lane at x = 0.  There q(0) = 0 exactly for the place
    x, and W[0] = 0, so that place reads as a pole like any other.

    Returns (values, dual, trace, ones, width).  values(v) packs the value
    at each lane of the polynomial that v packs as `ReducedForm` does, m
    bits per coefficient: the XOR of term(t), the lanes of embed(2^j) x^i,
    over the set bits t = i*m + j of v (embedding is GF(2)-linear).
    dual(v, i) maps each lane c of v to W[c^i], through W, the trace duals
    of GF(q^d).  trace holds W[1] in every lane, ones holds 1, and width
    is the lane width in bits."""
    fld, embed = _extension(base, d)
    log, exp, W = _tables(fld)
    n1 = fld.order - 1
    reps = _orbit_reps(base.order, d)
    size = len(reps) + (d == 1)  # the point 0 is the last lane of degree 1
    fmt = f"{size}{W.format}"

    def packed(lanes):
        return int.from_bytes(struct.pack(fmt, *lanes), sys.byteorder)

    @functools.lru_cache(maxsize=256)  # t < m * (degree + 1)
    def term(t):
        i, j = divmod(t, base.degree)
        lj = log[embed(1 << j)]
        lanes = [exp[(lj + i * k) % n1] for k in reps]
        if d == 1:  # b x^i at x = 0 is b for i = 0, else 0
            lanes.append(0 if i else exp[lj])
        return packed(lanes)

    def values(v):
        acc = 0
        while v:
            low = v & -v
            acc ^= term(low.bit_length() - 1)
            v ^= low
        return acc

    def dual(v, i):
        lanes = memoryview(v.to_bytes(struct.calcsize(fmt), sys.byteorder))
        lanes = lanes.cast(W.format)
        if i > 1:
            lanes = [exp[log[c] * i % n1] if c else 0 for c in lanes]
        return packed(map(W.__getitem__, lanes))

    return (values, dual, packed([W[1]] * size), packed([1] * size),
            8 * W.itemsize)


# Keys are (base field, place, order, d).  One verify call at g <= 16 meets
# at most 40, and the witnesses of one table share places:
# `table -g 16 --verify` meets 255 in all.
@functools.lru_cache(maxsize=1024)
def _dual(base, q, i, d):
    """The lanes of W[q^i] over the closed points of degree d, and the
    regular bits of 1/q^i, one per lane: Tr(r/q^i) is the parity of
    values(r) & the lanes, and a lane holds 0 exactly where q vanishes.
    q is a monic irreducible packed as `ReducedForm` packs a place."""
    values, dual, _, ones, width = _lanes(base, d)
    w = dual(values(q), i)
    return w, _fold(0, w, width, ones)[1]


# Keys are (curve, d).  A verify call uses at most 3 * 16, its three
# quotients at each d <= 16, and reads each twice: for the quotient's
# tally and for the cover's.
@functools.lru_cache(maxsize=64)
def _planes(curve, d):
    """(trace bits, regular bits) of a curve's reduced form over the closed
    points of degree d, one bit per lane: the trace bit of f (0 at a pole)
    and whether f is regular.  f is its polynomial part plus r_i / q^i over
    places q and digits r_i, so its trace bit is the parity of
    values(poly) & trace XOR values(r_i) & W[q^i], and f is regular where
    no place q vanishes; `_dual` gives both per (q, i)."""
    form = curve.form
    values, _, trace, ones, width = _lanes(form.field, d)
    t, regular = values(form.poly) & trace, ones
    for q, v in form.places.items():
        digit_bits = q.bit_length() - 1  # m * deg q: q is monic
        low = (1 << digit_bits) - 1
        for i in range(1, -(-v.bit_length() // digit_bits) + 1):
            if r := v >> (i - 1) * digit_bits & low:
                w, off_q = _dual(form.field, q, i, d)
                t ^= values(r) & w
        regular &= off_q  # the lanes where q does not vanish
    return _fold(t, 0, width, ones)[0] & regular, regular


def _planes_at_infinity(form):
    """One-lane planes at infinity: a pole when the polynomial part is not
    constant, else the trace bit of its constant, since each r_i / q^i
    vanishes there."""
    F = form.field
    return (0, 0) if form.poly >> F.degree else (F.trace(form.poly), 1)


# Keys are (curve, n) above the table cap.  A verify call at depth up to
# MAX_DEGREE counts its three quotients at each such n before its cover
# reads their planes: at most 3 * 8 entries, about 25 MB over GF(2).
@functools.lru_cache(maxsize=3 * (MAX_DEGREE - TABLE_MAX_DEGREE))
def _element_planes(curve, n):
    """(trace bits, regular bits) of a curve's f at every element x of
    GF(q^n), at bit x, by the bit-loop arithmetic on its num and den: the
    trace bit of f(x) (0 at a pole) and whether f is regular at x."""
    ext, embed = _extension(curve.field, n)
    tmask = ext.trace_mask
    mul = ext.mul
    inv = ext.inv
    num = [embed(c) for c in curve.f.num.coeffs]
    den = [embed(c) for c in curve.f.den.coeffs]
    trace = bytearray(b"0") * ext.order  # bit x as ASCII at index x
    regular = bytearray(b"0") * ext.order
    for x in range(ext.order):
        d = _eval(den, x, mul)
        if d:
            regular[x] = 49  # "1"
            if (mul(_eval(num, x, mul), inv(d)) & tmask).bit_count() & 1:
                trace[x] = 49
    return int(trace[::-1], 2), int(regular[::-1], 2)


# Keys are (curves, d).  A verify call uses at most 4 * 16, its three
# quotients and the cover at each d <= 16, and the witnesses of one table
# share quotients.
@functools.lru_cache(maxsize=256)
def _tallies(curves, d):
    """d times the points over the closed points of degree d, for n/d even
    and odd, from the curves' planes; the d = 1 entry also holds infinity."""
    even, odd = _points([_planes(c, d) for c in curves],
                        _lanes(curves[0].field, d)[3])
    if d == 1:  # infinity is one more point of degree 1
        at_infinity = _points(
            [_planes_at_infinity(c.form) for c in curves], 1)
        return even + at_infinity[0], odd + at_infinity[1]
    return d * even, d * odd


def _count(curves, n):
    """Points over GF(q^n) of the fibre product of the curves over P^1:
    (curve,) for a curve, its three quotients for a Klein-four cover."""
    base = curves[0].field
    if 1 <= n and base.degree * n <= TABLE_MAX_DEGREE:
        return sum(_tallies(curves, d)[(n // d) & 1]
                   for d in range(1, n + 1) if n % d == 0)
    planes = [_element_planes(c, n) for c in curves]
    return (_points([_planes_at_infinity(c.form) for c in curves], 1)[n & 1]
            + _points(planes, (1 << base.order ** n) - 1)[1])


def count_points(curve, n):
    """Points of the smooth model of an ASCurve over GF(q^n).

    Ramified points (over poles of f) contribute 1; elsewhere x contributes
    2 or 0 according to the absolute trace of f(x).  The point over x = oo
    is included via degree comparison.
    """
    if not isinstance(curve, ASCurve):
        raise TypeError("count_points takes an ASCurve")
    return _count((curve,), n)


def count_points_cover(cover, n):
    """Points of the smooth model of the cover over GF(q^n), directly.

    At an unramified x the fibre is the product of the two Artin-Schreier
    fibres.  Over a pole, either exactly one of the three functions is
    regular there and its trace decides a fibre of size 2 or 0, or all
    three have poles and the fibre is a single point.  The quotients'
    planes are read, never their counts.
    """
    if not isinstance(cover, KleinFourCover):
        raise TypeError("count_points_cover takes a KleinFourCover")
    return _count(cover.quotients, n)


def weil_ok(counts, genus, q):
    """|N_n - (q^n + 1)| <= 2 g q^(n/2), checked in exact arithmetic."""
    for n, N in enumerate(counts, start=1):
        if (N - q**n - 1) ** 2 > 4 * genus * genus * q**n:
            return False
    return True


class LPoly(namedtuple("LPoly", "coeffs q")):
    """Numerator of the zeta function: integer coefficients b_0..b_2g."""

    __slots__ = ()

    def two_rank(self):
        """Degree of L mod 2."""
        deg = 0
        for i, b in enumerate(self.coeffs):
            if b % 2:
                deg = i
        return deg


def lpoly_from_counts(counts, genus, q=2):
    """Recover L from N_1..N_g (extra counts are consistency-checked).

    One pass of Newton's identities k b_k = -(p_k + p_(k-1) b_1 + ...),
    p_k = q^k + 1 - N_k and b_i = 0 past 2g, solves b_1..b_g, completes b
    at k = g by the functional equation b_(2g-i) = q^(g-i) b_i, and past g
    checks each identity.  Raises InconsistentCounts when a coefficient
    fails to be integral, a count violates the Weil bound for the claimed
    genus, or a count beyond N_g disagrees with the completed polynomial.
    """
    counts = list(counts)
    if len(counts) < genus:
        raise ValueError(f"need at least {genus} counts, got {len(counts)}")
    if not weil_ok(counts, genus, q):
        raise InconsistentCounts(
            f"counts {counts} violate the Weil bound for genus {genus}")
    ps = [q**n + 1 - N for n, N in enumerate(counts, start=1)]
    b = [1]
    for k in range(1, len(counts) + 1):
        s = 0
        for j in range(max(1, k - 2 * genus), k + 1):
            s += ps[j - 1] * b[k - j]
        if k <= genus:
            if s % k:
                raise InconsistentCounts(
                    f"coefficient b_{k} = {-s}/{k} is not integral")
            b.append(-s // k)
        else:
            s += k * b[k] if k <= 2 * genus else 0
            if s:  # N_k + s is the count the completed L predicts
                raise InconsistentCounts(
                    f"N_{k} = {counts[k - 1]} but the completed "
                    f"L-polynomial predicts {counts[k - 1] + s}")
        if k == genus:
            b += [q ** (genus - i) * b[i] for i in reversed(range(genus))]
    return LPoly(tuple(b), q)


class Report:
    """Outcome of comparing formula invariants against the count oracle.

    target is the ASCurve or KleinFourCover checked, and a cover's report
    holds one subreport per quotient; both are rendered only by to_json.
    verify fills it in as it goes, and builds a curve's RatFun only to
    count above TABLE_MAX_DEGREE (`_element_planes`)."""

    def __init__(self, target, formula, oracle):
        self.target = target
        self.formula = formula
        self.oracle = oracle
        self.identity_checks = []
        self.status = "confirmed"
        self.truncated = False
        self.detail = ""
        self.quotients = []

    @property
    def confirmed(self):
        return self.status == "confirmed"

    def to_json(self):
        oracle = self.oracle
        if self.quotients:
            oracle = {"quotients": [sub.to_json() for sub in self.quotients],
                      **oracle}
        return {"target": str(self.target), "formula": self.formula,
                "oracle": oracle,
                "identity_checks": self.identity_checks,
                "status": self.status, "truncated": self.truncated,
                "detail": self.detail}


def _verify_curve(curve, depth, max_bits):
    g, sigma = curve.invariants
    q = curve.field.order
    report = Report(target=curve,
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
    report = Report(target=cover,
                    formula={"genus": g, "two_rank": sigma},
                    oracle={})
    q = cover.field.order
    failures = []
    max_n = min(depth, max_bits // cover.field.degree)
    quotient_counts = []
    for i, sub in enumerate(cover.quotients, start=1):
        subreport = _verify_curve(sub, depth, max_bits)
        report.quotients.append(subreport)
        if not subreport.confirmed:
            failures.append(f"quotient {i}: {subreport.detail}")
        # a quotient counts to at least depth, so it is truncated whenever
        # the cover's identity rows stop short of depth
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
    back flagged as truncated.  A depth or max_bits that is not an int
    raises TypeError; a negative depth, or a max_bits below 1, raises
    ValueError.
    """
    if not isinstance(depth, (int, type(None))):
        raise TypeError(f"verify depth must be an int, got {depth!r}")
    if not isinstance(max_bits, int):
        raise TypeError(f"verify max_bits must be an int, got {max_bits!r}")
    if depth is not None and depth < 0:
        raise ValueError(f"verify depth must be >= 0, got {depth}")
    if max_bits < 1:
        raise ValueError(f"verify max_bits must be >= 1, got {max_bits}")
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
