"""Verify the witness of every realizable cell with g <= 16 by point counts,
then run the per-element count above the table cap.

Each cell is constructed and verified as `k4 table --verify` does it, at
depth equal to the largest quotient genus.  Every report must be confirmed
and not truncated: at g <= 16 each count fits the table fields, so a
truncated report means a witness left the oracle's reach.  After each
cell is confirmed, the per-curve memos of `zeta` (tallies, planes and
place duals) are emptied and the quotients and the cover are counted again
for n descending: the counts and identity rows must equal the report's
exactly, so no count depends on the order its tallies were filled in.
Each quotient's counts, and one copy of them with a single count raised
by one, must also give `lpoly_from_counts` the L-polynomial or the error
of test_zeta.py's two-pass reference.  Prints the row count and time per
genus, the time spent recounting and checking L-polynomials, and exits 1
on the first failing cell.  The sweep verifies 657 cells in about a
second, and recounts them in about another.

Counts over GF(2^17) are above `zeta.TABLE_MAX_DEGREE`, so they evaluate
every element with the bit-loop arithmetic.  Two of them are checked exactly:
N_17 of y^2 + y = x^3 over GF(2), which is 2^17 + 1 (about 1.5 s), and the
count identity at n = 17 for (1/x + x^3, 1/x + x^5) over GF(2), whose
shared pole at 0 is regular for f3 (about 8 s on one 2-core Xeon).  The
cover's count there computes the planes of its three quotients, and their
own counts after it must compute none again.  The script imports only
the L-polynomial reference from the tests, and its name keeps pytest from
collecting it:

    PYTHONPATH=src python tests/sweep_verify.py
"""

import sys
import time

from kleinfour import zeta
from kleinfour.ascurve import ASCurve
from kleinfour.construct import construct
from kleinfour.field import GF2
from kleinfour.klein4 import KleinFourCover, partitions_of
from kleinfour.ratfun import parse_ratfun
from kleinfour.realize import realizable
from kleinfour.zeta import (TABLE_MAX_DEGREE, count_points,
                            count_points_cover, lpoly_from_counts, verify)
from test_zeta import lpoly_outcome, ref_lpoly_from_counts

MAX_G = 16
N_ELEMENT = 17  # the smallest n over GF(2) above the table cap


def recount_mismatch(cover, report):
    """Where a recount from empty memos, n descending, differs from the
    report, or None."""
    for cache in (zeta._tallies, zeta._planes, zeta._dual):
        cache.cache_clear()
    rows = report.identity_checks
    quotient_counts = [sub.oracle["counts"] for sub in report.quotients]
    q = cover.field.order
    for n in range(len(rows), 0, -1):
        counts = [count_points(sub, n) for sub in cover.quotients]
        if counts != [c[n - 1] for c in quotient_counts]:
            return f"quotient counts at n = {n}: {counts}"
        direct = count_points_cover(cover, n)
        rhs = sum(counts) - 2 * (q**n + 1)
        row = {"n": n, "direct": direct, "from_quotients": rhs,
               "ok": direct == rhs}
        if row != rows[n - 1]:
            return f"identity row {row} against {rows[n - 1]}"
    return None


def lpoly_mismatch(counts, genus, q, at):
    """The first of counts and a copy with count at % len(counts) raised
    by one on which `lpoly_from_counts` differs from the two-pass
    reference, or None."""
    vectors = [counts]
    if counts:
        perturbed = list(counts)
        perturbed[at % len(counts)] += 1
        vectors.append(perturbed)
    for v in vectors:
        if (lpoly_outcome(lpoly_from_counts, v, genus, q)
                != lpoly_outcome(ref_lpoly_from_counts, v, genus, q)):
            return v
    return None


def main():
    start = time.perf_counter()
    total = 0
    recount_s = lpoly_s = 0.0
    vectors = 0
    for g in range(MAX_G + 1):
        rows = 0
        for p in partitions_of(g):
            for s in range(g + 1):
                if not realizable(g, s, p).exists:
                    continue
                cover, _ = construct(g, s, p)
                depth = max(sub.genus for sub in cover.quotients)
                report = verify(cover, depth)
                if not report.confirmed or report.truncated:
                    print(f"FAIL ({g}, {s}, {p}): status {report.status}, "
                          f"truncated {report.truncated}: {report.detail}")
                    return 1
                recount_start = time.perf_counter()
                mismatch = recount_mismatch(cover, report)
                recount_s += time.perf_counter() - recount_start
                if mismatch:
                    print(f"FAIL ({g}, {s}, {p}): recounted {mismatch}")
                    return 1
                lpoly_start = time.perf_counter()
                for sub in report.quotients:
                    vectors += 1
                    bad = lpoly_mismatch(sub.oracle["counts"],
                                         sub.formula["genus"],
                                         cover.field.order, vectors)
                    if bad is not None:
                        print(f"FAIL ({g}, {s}, {p}): L-polynomial of "
                              f"counts {bad} differs from the reference")
                        return 1
                lpoly_s += time.perf_counter() - lpoly_start
                rows += 1
        total += rows
        print(f"g = {g}: {rows} cells confirmed, "
              f"{time.perf_counter() - start:.2f} s", flush=True)
    print(f"every realizable cell with g <= {MAX_G} ({total}) confirmed in "
          f"{time.perf_counter() - start:.1f} s, {recount_s:.1f} s of it "
          f"recounting from empty memos, n descending")
    print(f"L-polynomials of {vectors} quotient count vectors, each as "
          f"counted and perturbed, match the two-pass reference, "
          f"{lpoly_s:.2f} s")
    return per_element_counts()


def per_element_counts():
    n = N_ELEMENT
    if n <= TABLE_MAX_DEGREE:
        print(f"FAIL: GF(2^{n}) is within the table cap {TABLE_MAX_DEGREE}, "
              f"so no count here takes the per-element path")
        return 1
    start = time.perf_counter()
    N = count_points(ASCurve(parse_ratfun(GF2, "x^3")), n)
    if N != 2**n + 1:
        print(f"FAIL: N_{n} of y^2 + y = x^3 is {N}, not {2**n + 1}")
        return 1
    print(f"N_{n} of y^2 + y = x^3 is 2^{n} + 1, "
          f"{time.perf_counter() - start:.1f} s", flush=True)
    start = time.perf_counter()
    cover = KleinFourCover(parse_ratfun(GF2, "1/x + x^3"),
                           parse_ratfun(GF2, "1/x + x^5"))
    misses = zeta._element_planes.cache_info().misses
    direct = count_points_cover(cover, n)
    cover_misses = zeta._element_planes.cache_info().misses - misses
    from_quotients = (sum(count_points(sub, n) for sub in cover.quotients)
                      - 2 * (2**n + 1))
    quotient_misses = (zeta._element_planes.cache_info().misses - misses
                       - cover_misses)
    if (cover_misses, quotient_misses) != (3, 0):
        print(f"FAIL: the cover's count at n = {n} computed {cover_misses} "
              f"planes and its quotients' counts {quotient_misses} more; "
              f"each quotient's planes must be computed once")
        return 1
    if direct != from_quotients:
        print(f"FAIL: count identity at n = {n} for {cover}: direct "
              f"{direct}, from quotients {from_quotients}")
        return 1
    print(f"count identity at n = {n} holds for {cover} ({direct} points), "
          f"{time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
