"""Acceptance suite: the classification reproduced end to end at desk scale.

One test per criterion; each prints a PASS line with its scope so a plain
`pytest -s tests/test_acceptance.py` reads as a checklist.
"""

import random
import time

import pytest

from conftest import mobius, rand_cover, rand_ratfun
from kleinfour.ascurve import ASCurve, reduce_standard
from kleinfour.census import run_census
from kleinfour.construct import construct
from kleinfour.field import GF2, GF4
from kleinfour.klein4 import Partition, partitions_of
from kleinfour.ratfun import parse_ratfun
from kleinfour.realize import realizable, realizable_any
from kleinfour.zeta import (count_points, count_points_cover,
                            lpoly_from_counts, weil_ok)

GMAX = 12


def _reference_clauses(g, sigma, p):
    """Independent restatement of the five exclusion rules."""
    e = sorted(p.entries, reverse=True)
    unbalanced = 2 * e[0] >= g
    fired = []
    if sigma == 0 and e[0] != e[1]:
        fired.append("i")
    if sigma == 1 and (g % 2 == 0 or (g + 1) // 2 not in e):
        fired.append("ii")
    if sigma == 2 and e[0] == e[2]:
        fired.append("iii")
    if sigma == g - 1:
        fired.append("iv")
    if (g + sigma) % 2 == 1 and unbalanced:
        fired.append("v")
    return fired


def test_criterion_1_realizability_table():
    t0 = time.time()
    cells = 0
    for g in range(GMAX + 1):
        for s in range(g + 1):
            per_type = []
            for p in partitions_of(g):
                fired = _reference_clauses(g, s, p)
                v = realizable(g, s, p)
                assert v.exists == (not fired), (g, s, p)
                if fired:
                    assert v.clause == fired[0], (g, s, p)
                per_type.append(v.exists)
                cells += 1
            expected_any = s != g - 1 and not (g % 2 == 0 and s == 1)
            assert realizable_any(g, s) == expected_any
            assert any(per_type) == realizable_any(g, s), (g, s)
    dt = time.time() - t0
    assert dt < 10
    print(f"\nACCEPTANCE 1 PASS: verdict table, {cells} cells, g <= {GMAX}, "
          f"{dt:.2f}s")


def test_criterion_2_witness_completeness():
    t0 = time.time()
    built = 0
    for g in range(GMAX + 1):
        for p in partitions_of(g):
            for s in range(g + 1):
                if not realizable(g, s, p).exists:
                    continue
                cover, _ = construct(g, s, p)
                assert cover.invariants == (g, s), (g, s, p)
                assert cover.type == p, (g, s, p)
                assert cover.field.degree <= 2, (g, s, p)
                built += 1
    dt = time.time() - t0
    assert dt < 60
    print(f"\nACCEPTANCE 2 PASS: {built} witnesses, every realizable cell "
          f"g <= {GMAX}, all over GF(2)/GF(4), {dt:.1f}s")


def test_criterion_3_oracle_confirmation():
    t0 = time.time()
    confirmed = 0
    for g in range(10):
        for p in partitions_of(g):
            for s in range(g + 1):
                if not realizable(g, s, p).exists:
                    continue
                cover, _ = construct(g, s, p)
                q = cover.field.order
                for sub in cover.quotients:
                    counts = [count_points(sub, n)
                              for n in range(1, sub.genus + 1)]
                    if sub.genus == 0:
                        assert counts == []
                        continue
                    assert weil_ok(counts, sub.genus, q)
                    L = lpoly_from_counts(counts, sub.genus, q)
                    assert L.two_rank() == sub.two_rank, (g, s, p)
                confirmed += 1
    dt = time.time() - t0
    assert dt < 300
    print(f"\nACCEPTANCE 3 PASS: {confirmed} witnesses g <= 9 "
          f"oracle-confirmed exactly, {dt:.1f}s")


def test_criterion_4_kani_rosen_identity():
    rng = random.Random(0)
    t0 = time.time()
    for i in range(100):
        field = GF2 if i % 2 == 0 else GF4
        q = field.order
        cover = rand_cover(rng, field, max_deg=5)
        for n in range(1, 7):
            if field.degree * n > 24:
                break
            direct = count_points_cover(cover, n)
            from_quotients = (sum(count_points(sub, n)
                                  for sub in cover.quotients)
                              - 2 * (q**n + 1))
            assert direct == from_quotients, (str(cover), n)
    dt = time.time() - t0
    print(f"\nACCEPTANCE 4 PASS: count identity exact, 100 seeded covers, "
          f"n = 1..6, {dt:.1f}s")


def test_criterion_5_census_soundness():
    t0 = time.time()
    cells2 = run_census(GF2, 3)  # raises CensusViolation on any breach
    cells4 = run_census(GF4, 2)
    cells2_4 = run_census(GF2, 4)
    assert len(cells2_4) == 44
    assert sum(c.witness_count for c in cells2_4) == 39028
    for cells in (cells2, cells4, cells2_4):
        for c in cells:
            assert c.sigma != c.g - 1
            assert not (c.g % 2 == 0 and c.sigma == 1)
            assert realizable(c.g, c.sigma, Partition(*c.type)).exists
    dt = time.time() - t0
    assert dt < 600
    print(f"\nACCEPTANCE 5 PASS: census GF(2) deg<=3 ({len(cells2)} cells), "
          f"GF(4) deg<=2 ({len(cells4)} cells) and GF(2) deg<=4 "
          f"({len(cells2_4)} cells), no impossible cell, {dt:.1f}s")


def test_criterion_6_hyperelliptic_corollary():
    from kleinfour.realize import hyperelliptic_extra_involution
    for g in range(GMAX + 1):
        for s in range(g + 1):
            expected = (g - s) % 2 == 0
            assert hyperelliptic_extra_involution(g, s) == expected
            witnessed = any(realizable(g, s, p).exists
                            for p in partitions_of(g) if 0 in p)
            assert witnessed == expected, (g, s)
    print(f"\nACCEPTANCE 6 PASS: extra-involution parity rule matches the "
          f"zero-entry cells, g <= {GMAX}")


def test_criterion_7_reduction_class_function_suite():
    rng = random.Random(0)
    t0 = time.time()
    fields = (GF2, GF4)
    for i in range(500):
        f = rand_ratfun(rng, fields[i % 2], 8)
        r = reduce_standard(f)
        assert reduce_standard(r) == r
    for i in range(500):
        F = fields[i % 2]
        f = rand_ratfun(rng, F, 8)
        h = rand_ratfun(rng, F, 4)
        assert reduce_standard(f + h * h + h) == reduce_standard(f)
    shifts = 0
    while shifts < 500:
        F = fields[shifts % 2]
        f = rand_ratfun(rng, F, 8)
        if reduce_standard(f).is_constant:
            continue
        shifts += 1
        base = ASCurve(f).invariants
        from kleinfour.poly import Poly
        from kleinfour.ratfun import RatFun
        c = rng.randrange(F.order)
        assert ASCurve(f + RatFun.from_poly(Poly.const(F, c))).invariants == base
    moebius = 0
    while moebius < 500:
        F = fields[moebius % 2]
        f = rand_ratfun(rng, F, 8)
        if reduce_standard(f).is_constant:
            continue
        while True:
            a, b, c_, d = (rng.randrange(F.order) for _ in range(4))
            if F.mul(a, d) ^ F.mul(b, c_):
                break
        moebius += 1
        assert (ASCurve(mobius(f, a, b, c_, d)).invariants
                == ASCurve(f).invariants)
    dt = time.time() - t0
    print(f"\nACCEPTANCE 7 PASS: 4 x 500 seeded reduction/class-function "
          f"trials exact, {dt:.1f}s")


def test_criterion_8_named_examples():
    c = ASCurve(parse_ratfun(GF2, "x^3"))
    n1, n2 = count_points(c, 1), count_points(c, 2)
    assert n1 == 3
    L = lpoly_from_counts([n1, n2], 1)
    assert L.coeffs == (1, 0, 2)  # 1 + 2T^2
    assert L.two_rank() == 0

    c = ASCurve(parse_ratfun(GF2, "1/x + 1/(x+1)"))
    n1, n2 = count_points(c, 1), count_points(c, 2)
    assert n1 == 4
    L = lpoly_from_counts([n1, n2], 1)
    assert L.coeffs == (1, 1, 2)  # 1 + T + 2T^2
    assert L.two_rank() == 1
    print("\nACCEPTANCE 8 PASS: golden curves y^2+y=x^3 (N1=3, L=1+2T^2, "
          "rank 0) and y^2+y=1/x+1/(x+1) (N1=4, L=1+T+2T^2, rank 1)")
