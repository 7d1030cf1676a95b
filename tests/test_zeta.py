import random
import struct
import sys
from collections import Counter
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (infinity_value, rand_cover, raw_pairs,
                      squarings_trace)
from kleinfour import zeta
from kleinfour.ascurve import (ASCurve, DegenerateCover, ReducedForm,
                               reduce_form)
from kleinfour.field import GF2, GF4, MAX_DEGREE, BinaryField
from kleinfour.klein4 import InvalidCover, KleinFourCover
from kleinfour.poly import (Poly, field_embedding, is_irreducible,
                            monic_irreducibles, pack)
from kleinfour.ratfun import RatFun, parse_ratfun
from kleinfour.zeta import (InconsistentCounts, count_points,
                            count_points_cover, lpoly_from_counts,
                            verify, weil_ok)


def pr2(t):
    return parse_ratfun(GF2, t)


def pr4(t):
    return parse_ratfun(GF4, t)


def test_count_points_examples():
    c = ASCurve(pr2("x^3"))
    assert count_points(c, 1) == 3
    assert count_points(c, 2) == 9
    assert count_points(ASCurve(pr2("1/x + 1/(x+1)")), 1) == 4


def test_count_points_ramified_and_infinity():
    # 1/(x^2+x+1): the conjugate pole pair is invisible over GF(2) and
    # contributes two ramified points over GF(4)
    c = ASCurve(pr2("1/(x^2+x+1)"))
    # over GF(2): x = 0, 1 give f = 1 with trace 1, only infinity (f = 0)
    # contributes; over GF(4) the pole pair ramifies and 0, 1, oo all split
    assert count_points(c, 1) == 2
    assert count_points(c, 2) == 8
    L = lpoly_from_counts([2, 8], 1)
    assert L.coeffs == (1, -1, 2)
    assert L.two_rank() == 1


def test_count_points_base_gf4():
    c = ASCurve(pr4("x^3"))
    assert count_points(c, 1) == 9  # same curve seen over GF(4)


def test_extension_cap():
    c = ASCurve(pr2("x^3"))
    with pytest.raises(ValueError):
        count_points(c, 25)


@pytest.mark.parametrize("n", [0, -1])
def test_counts_refuse_an_extension_degree_below_one(n):
    for count, target in ((count_points, ASCurve(pr2("x^3"))),
                          (count_points_cover,
                           KleinFourCover(pr2("x"), pr2("1/x")))):
        with pytest.raises(ValueError, match=f"n must be >= 1, got {n}$"):
            count(target, n)


def test_lpoly_goldens():
    L = lpoly_from_counts([3, 9], 1)
    assert L.coeffs == (1, 0, 2)
    assert L.two_rank() == 0
    L = lpoly_from_counts([4, 8], 1)
    assert L.coeffs == (1, 1, 2)
    assert L.two_rank() == 1


def test_lpoly_functional_equation():
    c = ASCurve(pr2("x^3 + 1/x + 1/(x+1)"))  # genus 3, 2-rank 2
    counts = [count_points(c, n) for n in range(1, 7)]
    L = lpoly_from_counts(counts, 3)
    assert L.coeffs[0] == 1 and L.coeffs[6] == 8
    for i in range(3):
        assert L.coeffs[6 - i] == 2 ** (3 - i) * L.coeffs[i]
    assert L.predicted_counts(6) == counts
    assert L.two_rank() == 2


def test_inconsistent_counts():
    c = ASCurve(pr2("x^3"))
    counts = [count_points(c, n) for n in range(1, 5)]  # genus 1 series
    with pytest.raises(InconsistentCounts):
        lpoly_from_counts(counts, 2)  # wrong claimed genus
    with pytest.raises(InconsistentCounts):
        lpoly_from_counts([30, 9], 1)  # Weil bound violation
    with pytest.raises(ValueError):
        lpoly_from_counts([3], 2)  # too few counts


def test_weil_bounds_on_series(rng):
    for _ in range(20):
        c = rand_cover(rng, GF2, max_deg=4)
        for sub in c.quotients:
            counts = [count_points(sub, n) for n in range(1, 6)]
            assert weil_ok(counts, sub.genus, 2)


def test_two_rank_ordinary():
    L = lpoly_from_counts([4, 8], 1)
    assert L.two_rank() == 1  # all unit-part coefficients odd


def test_cover_count_example():
    cov = KleinFourCover(pr2("x"), pr2("1/x"))
    assert count_points_cover(cov, 1) == 4


def test_cover_count_triple_pole_place():
    # 0 is a pole of f1, f2 and f3 at once; the fibre there is one point
    cov = KleinFourCover(pr2("1/x^3"), pr2("1/x"))
    for n in range(1, 7):
        lhs = count_points_cover(cov, n)
        rhs = sum(count_points(s, n) for s in cov.quotients) - 2 * (2**n + 1)
        assert lhs == rhs


def test_kani_rosen_identity_random(rng):
    for field in (GF2, GF4):
        q = field.order
        for _ in range(15):
            cov = rand_cover(rng, field, max_deg=5)
            for n in range(1, 5):
                lhs = count_points_cover(cov, n)
                rhs = (sum(count_points(s, n) for s in cov.quotients)
                       - 2 * (q**n + 1))
                assert lhs == rhs


def test_verify_confirms():
    r = verify(ASCurve(pr2("x^3")))
    assert r.confirmed
    assert r.oracle["two_rank"] == 0
    r = verify(ASCurve(pr2("1/x + 1/(x+1)")))
    assert r.confirmed and r.oracle["two_rank"] == 1
    cov = KleinFourCover(pr2("x"), pr2("1/x"))
    rc = verify(cov)
    assert rc.confirmed
    assert all(chk["ok"] for chk in rc.identity_checks)


def test_verify_negative_control():
    # a curve whose invariants have been corrupted must be flagged
    curve = ASCurve(pr2("1/x + 1/(x+1)"))
    curve.__dict__["invariants"] = type(curve.invariants)(1, 0)  # lie: 2-rank 0
    r = verify(curve)
    assert not r.confirmed
    assert r.status == "mismatch"


def test_verify_truncates_on_cap():
    r = verify(ASCurve(pr2("x^3")), depth=30, max_bits=6)
    assert r.truncated
    assert r.confirmed  # still enough counts for genus 1


def test_verify_refuses_a_negative_depth():
    curve = ASCurve(pr2("x^3"))
    cover = KleinFourCover(pr2("x^3"), pr2("1/x"))
    for target in (curve, cover):
        with pytest.raises(ValueError):
            verify(target, depth=-1)
        # depth 0 checks no identity and still answers
        report = verify(target, depth=0)
        assert report.status == "confirmed" and not report.identity_checks
    assert verify(cover).status == "confirmed"


def test_verify_refuses_a_max_bits_below_one():
    with pytest.raises(ValueError, match="max_bits must be >= 1, got -3$"):
        verify(ASCurve(pr2("x^3")), 2, max_bits=-3)
    with pytest.raises(ValueError, match="max_bits must be >= 1, got 0$"):
        verify(KleinFourCover(pr2("x"), pr2("1/x")), max_bits=0)


def test_verify_refuses_a_max_bits_that_is_not_an_int():
    with pytest.raises(TypeError, match="max_bits must be an int, got 2.5$"):
        verify(ASCurve(pr2("x^3")), 2, max_bits=2.5)


def test_verify_refuses_a_depth_that_is_not_an_int():
    for depth in (2.0, "2"):
        with pytest.raises(TypeError, match="depth must be an int"):
            verify(KleinFourCover(pr2("x"), pr2("1/x")), depth)


def test_verify_mismatch_when_cap_below_genus():
    c = ASCurve(pr2("x^3 + 1/x + 1/(x+1)"))  # genus 3
    r = verify(c, max_bits=2)
    assert not r.confirmed and "cap" in r.detail


def test_oracle_agrees_on_random_small_curves(rng):
    # formula invariants equal count-derived invariants for arbitrary
    # curves, not just constructed witnesses
    from conftest import rand_ratfun
    from kleinfour.ascurve import reduce_standard
    done = 0
    while done < 40:
        field = (GF2, GF4)[done % 2]
        f = rand_ratfun(rng, field, 4)
        if reduce_standard(f).is_constant:
            continue
        curve = ASCurve(f)
        if curve.genus > 5:
            continue
        done += 1
        r = verify(curve)
        assert r.confirmed, r.to_json()


def test_lpoly_over_gf4_base():
    c = ASCurve(pr4("x^3"))
    counts = [count_points(c, n) for n in range(1, 3)]
    L = lpoly_from_counts(counts, 1, q=4)
    assert L.coeffs[0] == 1 and L.coeffs[2] == 4  # functional equation, q=4
    assert L.two_rank() == 0
    assert L.predicted_counts(2) == counts


def test_cover_mismatch_names_the_quotient():
    cov = KleinFourCover(pr2("x"), pr2("1/x"))
    sub = cov.quotients[2]  # y^2 + y = x + 1/x: genus 1, 2-rank 1
    sub.__dict__["invariants"] = type(sub.invariants)(1, 0)  # lie: 2-rank 0
    r = verify(cov)
    assert r.status == "mismatch"
    assert r.detail == "quotient 3: 2-rank from L mod 2 is 1, formula says 0"
    assert all(chk["ok"] for chk in r.identity_checks)


def test_cover_mismatch_names_the_count_identity(monkeypatch):
    cov = KleinFourCover(pr2("x"), pr2("1/x"))
    true_count = zeta.count_points_cover

    def off_by_two_at_n2(cover, n):
        return true_count(cover, n) + (2 if n == 2 else 0)

    monkeypatch.setattr(zeta, "count_points_cover", off_by_two_at_n2)
    r = verify(cov)
    assert r.status == "mismatch"
    direct = true_count(cov, 2) + 2
    rhs = sum(count_points(s, 2) for s in cov.quotients) - 2 * 5
    assert r.detail == (f"count identity fails at n=2: direct {direct}, "
                        f"from quotients {rhs}")
    assert [chk["ok"] for chk in r.identity_checks] == [True, False]


# -- reference: the per-element loops of the first implementation -----------
# Every element of GF(q^n) is evaluated with the bit-loop arithmetic, with no
# closed points and no tables.

def seed_extension(base, n):
    bits = base.degree * n
    if bits > MAX_DEGREE:
        raise ValueError("over the cap")
    if n == 1:
        return base, (lambda v: v)
    ext = BinaryField.default(bits)
    return ext, field_embedding(base, ext)


def seed_trace_mask(fld):
    mask = 0
    for i in range(fld.degree):
        if squarings_trace(fld, 1 << i):
            mask |= 1 << i
    return mask


def seed_eval(coeffs, x, mul):
    acc = 0
    for c in reversed(coeffs):
        acc = mul(acc, x) ^ c
    return acc


def seed_count_points(curve, n):
    ext, embed = seed_extension(curve.field, n)
    tmask = seed_trace_mask(ext)
    mul = ext.mul
    inv = ext.inv
    num = [embed(c) for c in curve.f.num.coeffs]
    den = [embed(c) for c in curve.f.den.coeffs]
    total = 0
    for x in range(ext.order):
        d = seed_eval(den, x, mul)
        if d == 0:
            total += 1
            continue
        v = mul(seed_eval(num, x, mul), inv(d))
        if (v & tmask).bit_count() & 1 == 0:
            total += 2
    at_inf = infinity_value(curve.f)
    if at_inf is None:
        total += 1
    elif (embed(at_inf) & tmask).bit_count() & 1 == 0:
        total += 2
    return total


def seed_count_points_cover(cover, n):
    ext, embed = seed_extension(cover.field, n)
    tmask = seed_trace_mask(ext)
    mul = ext.mul
    inv = ext.inv
    fns = [([embed(c) for c in f.num.coeffs], [embed(c) for c in f.den.coeffs])
           for f in (cover.f1, cover.f2, cover.f3)]

    def local(values):
        regular = [i for i, v in enumerate(values) if v is not None]
        if len(regular) == 3:
            c = 1
            for i in (0, 1):
                c *= 2 if (values[i] & tmask).bit_count() & 1 == 0 else 0
            return c
        if len(regular) == 1:
            v = values[regular[0]]
            return 2 if (v & tmask).bit_count() & 1 == 0 else 0
        if len(regular) == 0:
            return 1
        raise AssertionError("exactly one pole")

    total = 0
    for x in range(ext.order):
        values = []
        for (nc, dc) in fns:
            d = seed_eval(dc, x, mul)
            values.append(None if d == 0 else mul(seed_eval(nc, x, mul), inv(d)))
        total += local(values)
    inf_values = []
    for f in (cover.f1, cover.f2, cover.f3):
        v = infinity_value(f)
        inf_values.append(None if v is None else embed(v))
    return total + local(inf_values)


# Covers whose poles exercise the rule that f3 = f1 + f2 is evaluated only
# over a pole of f1 or f2: a shared pole where f3 is regular (at 0, at a
# degree-2 place, and at infinity), and poles of only one of f1, f2.
POLE_PATTERNS = (
    ("1/x + x^3", "1/x + x^5"),
    ("1/(x^2+x+1) + x", "1/(x^2+x+1) + 1/x"),
    ("x^3 + 1/x", "x^3 + 1/(x+1)"),
    ("1/x + x", "x^3"),
    ("x^3", "1/(x^2+x+1)^3 + 1/(x+1)"),
)


@pytest.fixture
def fresh_zeta_caches():
    """Empty the tally and plane memos and the lane caches before and after
    the test, so a run with the table cap patched recomputes every tally
    and plane instead of reading one memoized by an earlier run."""
    clear_zeta_caches()
    yield
    clear_zeta_caches()


def clear_zeta_caches():
    for cache in (zeta._tallies, zeta._planes, zeta._dual, zeta._lanes,
                  zeta._tables):
        cache.cache_clear()


@pytest.mark.parametrize("table_max_degree", [16, 4])
def test_counts_match_the_per_element_loops(table_max_degree, monkeypatch,
                                            rng, fresh_zeta_caches):
    # with the cap at 4, GF(2^5) and up take the per-element path instead
    monkeypatch.setattr(zeta, "TABLE_MAX_DEGREE", table_max_degree)
    for F in (GF2, GF4, BinaryField.default(3)):
        # the patterns up to GF(2^8) only, to keep the reference loops short
        covers = [(rand_cover(rng, F, max_deg=3), 12) for _ in range(2)]
        covers += [(KleinFourCover(parse_ratfun(F, a), parse_ratfun(F, b)), 8)
                   for a, b in POLE_PATTERNS]
        for cov, bits in covers:
            for n in range(1, bits // F.degree + 1):
                assert count_points_cover(cov, n) == \
                    seed_count_points_cover(cov, n), (cov, n)
                for sub in cov.quotients:
                    assert count_points(sub, n) == \
                        seed_count_points(sub, n), (sub, n)


@settings(max_examples=8, deadline=None)
@given(raw_pairs(max_deg=2, nonzero=True),
       st.randoms(use_true_random=False))
def test_tallies_do_not_depend_on_order_or_path(pair, rng):
    # every n with m*n <= 12 in a shuffled order from empty memos, on the
    # lanes throughout and then with the cap at 4, where lane and per-element
    # counts of one curve interleave
    try:
        cov = KleinFourCover(*pair)
    except (InvalidCover, DegenerateCover):
        assume(False)
    ns = list(range(1, 12 // cov.field.degree + 1))
    expected = {n: [seed_count_points_cover(cov, n)]
                + [seed_count_points(sub, n) for sub in cov.quotients]
                for n in ns}
    for cap in (zeta.TABLE_MAX_DEGREE, 4):
        clear_zeta_caches()
        rng.shuffle(ns)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(zeta, "TABLE_MAX_DEGREE", cap)
            for n in ns:
                assert [count_points_cover(cov, n)] + [
                    count_points(sub, n) for sub in cov.quotients] \
                    == expected[n], (cov, n, cap)
    clear_zeta_caches()


@settings(max_examples=100, deadline=None)
@given(raw_pairs(max_deg=3, nonzero=True), st.integers(1, 4))
def test_count_identity_law(pair, n):
    try:
        cov = KleinFourCover(*pair)
    except (InvalidCover, DegenerateCover):
        assume(False)
    q = cov.field.order
    assert count_points_cover(cov, n) == (
        sum(count_points(s, n) for s in cov.quotients) - 2 * (q**n + 1))


def test_pole_patterns_have_the_poles_they_name():
    # the shared pole of f1 and f2 in the first three patterns is not a pole
    # of f3, and in the last two a pole of f1 or f2 alone is one of f3
    for (a, b), shared in zip(POLE_PATTERNS[:3],
                              ("x", "x^2 + x + 1", "infinity")):
        cov = KleinFourCover(pr2(a), pr2(b))
        poles = [{str(pl) for pl, _ in f.pole_divisor()}
                 for f in (cov.f1, cov.f2, cov.f3)]
        assert shared in poles[0] & poles[1] and shared not in poles[2]
    for (a, b), alone in zip(POLE_PATTERNS[3:], ("x", "x + 1")):
        cov = KleinFourCover(pr2(a), pr2(b))
        poles = [{str(pl) for pl, _ in f.pole_divisor()}
                 for f in (cov.f1, cov.f2, cov.f3)]
        assert alone in poles[0] ^ poles[1] and alone in poles[2]


def counted_verify(monkeypatch, cover, **kwargs):
    """verify(cover) with every quotient count recorded per (curve, n)."""
    calls = Counter()
    true_count = zeta.count_points

    def counting(curve, n):
        calls[curve, n] += 1
        return true_count(curve, n)

    monkeypatch.setattr(zeta, "count_points", counting)
    report = verify(cover, **kwargs)
    monkeypatch.setattr(zeta, "count_points", true_count)
    return report, calls


def recounted_identity(cover, max_n):
    q = cover.field.order
    return [{"n": n, "direct": count_points_cover(cover, n),
             "from_quotients": sum(count_points(s, n)
                                   for s in cover.quotients)
             - 2 * (q**n + 1), "ok": True}
            for n in range(1, max_n + 1)]


def test_verify_counts_each_quotient_once(monkeypatch, rng):
    covers = [KleinFourCover(pr2("x"), pr2("1/x")),
              KleinFourCover(pr2("1/x + x^3"), pr2("1/x + x^5")),
              rand_cover(rng, GF4, max_deg=3)]
    for cov in covers:
        report, calls = counted_verify(monkeypatch, cov)
        assert report.confirmed
        assert max(calls.values()) == 1
        depth = max(sub.genus for sub in cov.quotients) + 1
        max_n = min(depth, MAX_DEGREE // cov.field.degree)
        assert {curve for curve, _ in calls} == set(cov.quotients)
        assert report.identity_checks == recounted_identity(cov, max_n)


def test_quotient_capped_below_its_genus_still_gets_identity_rows(
        monkeypatch):
    # quotients 1 and 3 have genus 3, so with 2 bits their subreports stop
    # before counting; the identity counts them itself, once per n
    cov = KleinFourCover(pr2("x^3 + 1/x + 1/(x+1)"), pr2("x"))
    assert [s.genus for s in cov.quotients] == [3, 0, 3]
    report, calls = counted_verify(monkeypatch, cov, depth=2, max_bits=2)
    subs = report.to_json()["oracle"]["quotients"]
    assert ["counts" in sub["oracle"] for sub in subs] == [False, True, False]
    assert report.status == "mismatch" and "cap" in report.detail
    assert max(calls.values()) == 1
    assert set(calls) == {(s, n) for s in cov.quotients for n in (1, 2)}
    assert report.identity_checks == recounted_identity(cov, 2)


def test_counts_that_break_the_weil_bound_are_a_mismatch(monkeypatch):
    # a curve's counts are believed only through its L-polynomial: counts
    # outside the Weil bound for the claimed genus are reported, not fitted
    curve = ASCurve(pr2("x^3"))
    monkeypatch.setattr(zeta, "count_points",
                        lambda c, n: 2**n + 1 + 3 * 2**n)
    report = verify(curve, 2)
    assert report.status == "mismatch" and not report.confirmed
    assert report.oracle["genus_consistent"] is False
    assert "lpoly" not in report.oracle
    assert "Weil bound" in report.detail


def test_a_cover_past_the_evaluation_cap_is_truncated():
    # quotient genera 1, 0 and 2: two counts pin every L-polynomial, so the
    # report is confirmed, but the identity is checked at n <= 2 only
    cov = KleinFourCover(pr2("x^3"), pr2("1/x"))
    assert [sub.genus for sub in cov.quotients] == [1, 0, 2]
    report = verify(cov, depth=4, max_bits=2)
    assert report.truncated and report.confirmed
    assert all(sub.truncated for sub in report.quotients)
    assert [row["n"] for row in report.identity_checks] == [1, 2]
    assert report.to_json()["truncated"] is True


@pytest.mark.parametrize("table_max_degree", [16, 0])
@pytest.mark.parametrize("pole", ["x", "x+1", "x^2+x+1"])
def test_a_pole_of_f1_alone_is_still_caught(pole, table_max_degree,
                                            monkeypatch, fresh_zeta_caches):
    # f3 is read wherever f1 or f2 has a pole, so a third quotient that is
    # not f1 + f2 and is regular at a pole of f1 alone trips the fibre rule,
    # on the table path and (with the cap at 0) the per-element path
    monkeypatch.setattr(zeta, "TABLE_MAX_DEGREE", table_max_degree)
    cov = KleinFourCover(pr2(f"1/({pole}) + x"), pr2("x^3"))
    q1, q2, _ = cov.quotients
    cov.quotients = (q1, q2, ASCurve(pr2("x^3 + x")))  # drops the pole
    with pytest.raises(AssertionError, match="exactly one pole"):
        count_points_cover(cov, 2)


# -- reference: the scalar per-orbit loop the lane-packed kernel replaced ----
# One log-domain Horner evaluation per closed point, in bytecode.

def scalar_states_by_orbit(fns, q, d, fld, embed):
    """The state tuple of the functions at each lane of degree d, in lane
    order: the points g^k of the orbit reps, then for d = 1 the point 0.
    A state is None at a pole, else the trace bit of the value there."""
    log, exp, _ = zeta._tables(fld)
    n1 = fld.order - 1
    tmask = seed_trace_mask(fld)
    polys = [([embed(c) for c in reversed(f.num.coeffs)],
              [embed(c) for c in reversed(f.den.coeffs)]) for f in fns]

    def state(nv, dv):
        if not dv:
            return None
        return (exp[(log[nv] - log[dv]) % n1] & tmask).bit_count() & 1 \
            if nv else 0

    def value(coeffs, k):
        """coeffs, highest first, at x = g^k, or at x = 0 for k None."""
        if k is None:
            return coeffs[-1] if coeffs else 0
        acc = 0
        for c in coeffs:
            acc = exp[(log[acc] + k) % n1] ^ c if acc else c
        return acc

    return [tuple(state(value(num, k), value(den, k)) for num, den in polys)
            for k in zeta._orbit_reps(q, d) + ((None,) if d == 1 else ())]


def reference_fibre(states, odd):
    """Points over one point of P^1 from each function's state there; odd
    carries each trace bit up to GF(q^n).  Where f1 and f2 are regular, so
    is f3 = f1 + f2, and its state is not read.  Raises where exactly one
    of three functions has a pole, as seed_count_points_cover's local rule
    does."""
    if len(states) == 3 and None not in states[:2]:
        return (2 - 2 * (states[0] & odd)) * (2 - 2 * (states[1] & odd))
    fibres = [2 - 2 * (s & odd) for s in states if s is not None]
    if len(fibres) == 2:
        raise AssertionError("exactly one pole")
    return fibres[0] if fibres else 1


def lane_planes(states):
    """One-lane (trace, regular) planes of each function from its state."""
    return [(0, 0) if s is None else (s, 1) for s in states]


def reference_points(states_by_lane, odd):
    """The reference fibre rule summed over lanes, or None where it raises."""
    try:
        return sum(reference_fibre(states, odd) for states in states_by_lane)
    except AssertionError:
        return None


def assert_points_match(planes, ones, odd, expected):
    """_points on the planes equals expected, or raises where it is None."""
    if expected is None:
        with pytest.raises(AssertionError, match="exactly one pole"):
            zeta._points(planes, ones)
    else:
        assert zeta._points(planes, ones)[odd] == expected


def test_points_match_the_reference_fibre_rule_on_one_lane():
    # every state of each function, one curve or a triple whose f3 is
    # f1 + f2 wherever f1 and f2 are regular, and both parities of n/d
    states = (0, 1, None)
    cases = [(s,) for s in states]
    cases += [(a, b, c) for a in states for b in states
              for c in ((a ^ b,) if None not in (a, b) else states)]
    assert len(cases) == 22
    raised = 0
    for case in cases:
        for odd in (0, 1):
            expected = reference_points([case], odd)
            raised += expected is None
            assert_points_match(lane_planes(case), 1, odd, expected)
    # the triples with one pole among f1, f2 and a regular f3
    assert raised == 2 * 8


GF8 = BinaryField.default(3)
GF8_ALT = BinaryField(3, 0b1101)  # the other GF(8) modulus


def curve_or_none(f):
    """The curve y^2 + y = f, or None when f reduces to a constant."""
    try:
        return ASCurve(f)
    except DegenerateCover:
        return None


def assert_planes_match_the_scalar_loop(f1, f2, ds=None):
    """Every d in ds, by default every d with m*d <= 12, for the curve of
    each function alone, the cover triple, and a triple whose third curve
    is not that of f1 + f2 (so a kernel that reads f3 off the pole lanes,
    or never reads it, disagrees).  The reference evaluates each curve's
    reduced function; a function that reduces to a constant has no curve,
    so the tuples that hold it are left out."""
    c1, c2, c3 = map(curve_or_none, (f1, f2, f1 + f2))
    F = f1.field
    for curves in ((c1,), (c2,), (c1, c2, c3), (c1, c2, c2)):
        if None in curves:
            continue
        assert_planes_match(curves, ds or range(1, 12 // F.degree + 1))


def lanes_of(packed, count, width):
    """Each width-bit lane of a packed int of count lanes, in lane order;
    OverflowError if it holds bits beyond them."""
    raw = packed.to_bytes(count * width // 8, sys.byteorder)
    step = width // 8
    return [int.from_bytes(raw[j * step:(j + 1) * step], sys.byteorder)
            for j in range(count)]


def assert_planes_match(curves, ds):
    """Each curve's planes, lane by lane, against its states in the scalar
    loop, and _points on the tuple, at both parities of n/d, against the
    reference fibre rule over those states."""
    F = curves[0].field
    for d in ds:
        fld, embed = zeta._extension(F, d)
        by_lane = scalar_states_by_orbit([c.f for c in curves], F.order, d,
                                         fld, embed)
        *_, ones, width = zeta._lanes(F, d)
        planes = [zeta._planes(c, d) for c in curves]
        for i, (t, r) in enumerate(planes):
            assert [lane_planes(states[i:i + 1])[0] for states in by_lane] \
                == list(zip(*(lanes_of(plane, len(by_lane), width)
                              for plane in (t, r)))), (curves[i], d)
        for odd in (0, 1):
            assert_points_match(planes, ones, odd,
                                reference_points(by_lane, odd))


@settings(max_examples=60, deadline=None)
@given(raw_pairs(max_deg=3, fields=(GF2, GF4, GF8, GF8_ALT)))
def test_lane_tallies_match_the_scalar_loop(pair):
    assert_planes_match_the_scalar_loop(*pair)


@pytest.mark.parametrize("F", [GF2, GF4, GF8, GF8_ALT], ids=repr)
def test_lane_tallies_match_the_scalar_loop_on_pole_patterns(F):
    # the first pattern has a pole at the point 0 shared by f1 and f2
    for a, b in POLE_PATTERNS + (("1/x^3 + x", "1/x"),):
        assert_planes_match_the_scalar_loop(parse_ratfun(F, a),
                                            parse_ratfun(F, b))


def irreducible(F, d):
    """The first irreducible x^d + c3 x^3 + ... + c0 over F, d > 3."""
    return next(p for cs in product(range(F.order), repeat=4)
                for p in [Poly.make(F, [*cs] + [0] * (d - 4) + [1])]
                if is_irreducible(p))


@pytest.mark.parametrize("pattern", [0, 4])
def test_16_bit_lanes_match_the_scalar_loop_at_finite_poles(pattern):
    # 14- and 16-bit lanes over GF(4) with denominators other than 1, so
    # every lane's trace bit reads W; the patterns' poles are rational
    # places, so no lane of degree 7 or 8 is a pole (see the next test)
    assert_planes_match_the_scalar_loop(
        *(pr4(t) for t in POLE_PATTERNS[pattern]), ds=(7, 8))


@pytest.mark.parametrize("d", [7, 8])
def test_16_bit_pole_lanes_match_the_scalar_loop(d):
    # a place of degree d over GF(4) is a pole lane of the degree-d lanes:
    # shared by f1 and f2, then of f1 alone; the function regular there has
    # a denominator, so its trace bit reads every bit of the lane
    P = RatFun(Poly.one(GF4), irreducible(GF4, d))
    g = pr4("1/(x+1) + x^3")
    for f1, f2, pole_of in ((P + pr4("x"), P + g, (1, 1, 0)),
                            (P + pr4("a*x"), g, (1, 0, 1))):
        assert_planes_match_the_scalar_loop(f1, f2, ds=(d,))
        # the orbit of P's roots is the one pole lane
        curves = KleinFourCover(f1, f2).quotients
        ones = zeta._lanes(GF4, d)[3]
        poles = [ones ^ zeta._planes(c, d)[1] for c in curves]
        lane = poles[0] | poles[1] | poles[2]
        assert lane.bit_count() == 1
        assert poles == [lane if pole else 0 for pole in pole_of]


def place_pool(F):
    """The first three monic irreducibles of each degree 1..4 over F, so
    that two drawn forms often share a place."""
    pool = {}
    for q in monic_irreducibles(F, 4):
        pool.setdefault(q.degree, []).append(q)
    return [q for qs in pool.values() for q in qs[:3]]


@st.composite
def reduced_forms(draw, F):
    """A canonical form over F: 1-3 finite places of degree 1-4, each with
    an odd pole order up to 7 and digits at odd orders only, plus odd-degree
    monomials up to x^7 and a trace-normalized constant."""
    places = {}
    for q in draw(st.lists(st.sampled_from(place_pool(F)), min_size=1,
                           max_size=3, unique=True)):
        e = draw(st.sampled_from((1, 3, 5, 7)))
        width = F.degree * q.degree
        places[q.code] = pack(
            [draw(st.integers(int(i == e), (1 << width) - 1)) if i % 2 else 0
             for i in range(1, e + 1)], width)
    poly = [draw(st.sampled_from((0, F.trace_one_element())))]
    for i in range(1, 8):
        poly.append(draw(st.integers(0, F.order - 1)) if i % 2 else 0)
    return ReducedForm(F, Poly.make(F, poly).code, places)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_form_tallies_match_the_scalar_loop(data):
    # the kernel reads the forms, with the point 0 among the lanes of
    # degree 1; the reference evaluates their RatFuns at every point
    F = data.draw(st.sampled_from((GF2, GF4, GF8, GF8_ALT)), label="field")
    v1, v2 = (data.draw(reduced_forms(F)) for _ in range(2))
    c1, c2 = map(ASCurve.from_form, (v1, v2))
    assert reduce_form(c1.f) == v1  # the drawn form is canonical
    curve_tuples = [(c1,)]
    if not (v1 + v2).is_constant:
        curve_tuples.append((c1, c2, ASCurve.from_form(v1 + v2)))
    for curves in curve_tuples:
        assert_planes_match(curves, range(1, 12 // F.degree + 1))
    # the planes at infinity, from f's value there
    for c in (c1, c2):
        v = infinity_value(c.f)
        assert zeta._planes_at_infinity(c.form) == (
            (0, 0) if v is None else (F.trace(v), 1))


def test_the_widest_lane_counts_exactly():
    # y^2 + y = x^3 over GF(2) has L = 1 + 2T^2, so N_n = 2^n + 1 for odd n
    # and 4^k + 1 - 2(-2)^k for n = 2k; N_16 fills 16-bit lanes
    c = ASCurve(pr2("x^3"))
    expected = [2**n + 1 if n % 2 else 4**(n // 2) + 1 - 2 * (-2)**(n // 2)
                for n in range(1, 17)]
    assert expected[-1] == 65025
    assert [count_points(c, n) for n in range(1, 17)] == expected
    # every table field up to the cap, and every field at all, gets lanes at
    # least as wide as its elements, so raising the cap cannot truncate one
    for bits in range(1, MAX_DEGREE + 1):
        assert struct.calcsize(zeta._lane_code(bits)) * 8 >= bits
    assert struct.calcsize(zeta._lane_code(16)) * 8 == 16


def test_verify_computes_each_plane_once(rng, fresh_zeta_caches):
    for cov in (KleinFourCover(pr2("1/x + x^3"), pr2("1/x + x^5")),
                rand_cover(rng, GF4, max_deg=3)):
        for cache in (zeta._tallies, zeta._planes, zeta._dual):
            cache.cache_clear()
        assert verify(cov).confirmed
        depth = max(sub.genus for sub in cov.quotients) + 1
        # each of the three quotients and the cover is tallied once at each
        # d <= depth; every count N_n reads its tallies at each d | n from
        # the memo, which computed them for N_d
        info = zeta._tallies.cache_info()
        assert info.misses == info.currsize == 4 * depth
        reads = sum(n % d == 0 for n in range(1, depth + 1)
                    for d in range(1, n + 1))
        assert info.hits == 4 * (reads - depth)
        # each quotient's plane at each d is computed once and read twice:
        # by the quotient's own tally and by the cover's
        info = zeta._planes.cache_info()
        assert info.misses == info.currsize == info.hits == 3 * depth
        # each (place, pole order, d) of the three forms once, and only
        # the orders whose digit is nonzero
        duals = {(q, i, d) for form in cov.forms
                 for q, v in form.places.items()
                 for i in nonzero_digits(v, q.bit_length() - 1)
                 for d in range(1, depth + 1)}
        info = zeta._dual.cache_info()
        assert info.misses == info.currsize == len(duals)


def nonzero_digits(v, width):
    """The indices i >= 1 of the nonzero width-bit digits of v."""
    return [i for i in range(1, -(-v.bit_length() // width) + 1)
            if v >> (i - 1) * width & ((1 << width) - 1)]


def test_the_planes_memo_keys_on_the_field(fresh_zeta_caches):
    c1, c2 = (ASCurve(parse_ratfun(F, "x^3 + a*x")) for F in (GF8, GF8_ALT))
    assert (count_points(c1, 1), count_points(c2, 1)) == (9, 13)
    assert zeta._planes.cache_info().currsize == 2
    assert zeta._planes(c1, 1) != zeta._planes(c2, 1)


@pytest.mark.parametrize("F", [BinaryField.default(m) for m in range(1, 9)]
                         + [GF8_ALT], ids=repr)
def test_trace_duals_give_the_trace_of_every_quotient(F):
    W = zeta._tables(F)[2]
    tmask = seed_trace_mask(F)
    assert len(W) == F.order and W[0] == 0
    for v in range(1, F.order):
        c = F.inv(v)
        for u in range(F.order):
            assert (F.mul(u, c) & tmask).bit_count() & 1 == \
                (u & W[v]).bit_count() & 1, (u, v)


@pytest.mark.parametrize("F", [BinaryField.default(m)
                               for m in range(1, MAX_DEGREE + 1)]
                         + [GF8_ALT], ids=repr)
def test_trace_bits_are_the_traces_of_the_powers_of_a(F):
    x = 1  # a^k, where a is 0 in GF(2)
    for k in range(2 * F.degree - 1):
        assert F.trace_bits >> k & 1 == squarings_trace(F, x), k
        x = F.mul(x, 2)
    assert F.trace_bits >> max(2 * F.degree - 1, 1) == 0
    assert F.trace_mask == seed_trace_mask(F)
    # the rows that span W: bit i of row j is Tr(2^i 2^j)
    rows = [sum(squarings_trace(F, F.mul(1 << i, 1 << j)) << i
                for i in range(F.degree)) for j in range(F.degree)]
    assert rows == [F.trace_bits >> j & (F.order - 1)
                    for j in range(F.degree)]
    if F.degree <= 12:  # W[v] = w(1/v)
        W = zeta._tables(F)[2]
        assert rows == [W[F.inv(1 << j)] for j in range(F.degree)]


@pytest.mark.parametrize("m", [12, 16])
def test_trace_duals_on_a_sample_of_the_wide_fields(m):
    F = BinaryField.default(m)
    W = zeta._tables(F)[2]
    rng = random.Random(m)
    assert len(W) == F.order and W[0] == 0
    for _ in range(3000):
        u, v = rng.randrange(F.order), rng.randrange(1, F.order)
        assert F.trace(F.mul(u, F.inv(v))) == (u & W[v]).bit_count() & 1


@pytest.mark.parametrize("width", [8, 16, 32])
def test_fold_reads_each_lane_alone(width):
    # lanes of all ones next to each other and to sparse lanes: a fold that
    # let the next lane's bits reach bit 0 would flip the parity
    rng = random.Random(width)
    full = (1 << width) - 1
    count = 40
    ones = sum(1 << i * width for i in range(count))
    for _ in range(100):
        lanes = [[rng.choice((0, full, full, 1 << rng.randrange(width),
                              rng.getrandbits(width)))
                  for _ in range(count)] for _ in range(2)]
        t, r = (sum(v << i * width for i, v in enumerate(ls))
                for ls in lanes)
        assert zeta._fold(t, r, width, ones) == (
            sum((v.bit_count() & 1) << i * width
                for i, v in enumerate(lanes[0])),
            sum((v != 0) << i * width for i, v in enumerate(lanes[1])))
