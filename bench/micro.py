"""Layer microbenchmarks on seeded inputs, run in a fresh process.

They reach field degrees (m = 16, 24) that no workload reaches, so a field
change shows at least at layer level there.  The per-call benchmarks of
factor, reduce_standard and KleinFourCover clear the program's lru_caches
first and use distinct inputs, so every call misses the caches.
"""

from __future__ import annotations

import random
import statistics
import time

FIELD_DEGREES = (1, 2, 6, 12, 16, 24)
FIELD_OPS = 20000
COUNT_REPEATS = {6: 51, 12: 5, 16: 1}  # evaluation field degree -> repeats
COUNT_CURVE = "x^3 + 1/x"  # genus 2 over GF(2)
REPEATS = 5


def _median_time(fn, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _field(rng, ops):
    from kleinfour.field import BinaryField
    out = {}
    for m in FIELD_DEGREES:
        F = BinaryField.default(m)
        pairs = [(rng.randrange(1, F.order), rng.randrange(1, F.order))
                 for _ in range(ops)]
        mul, inv = F.mul, F.inv

        def muls():
            for a, b in pairs:
                mul(a, b)

        def invs():
            for a, _ in pairs:
                inv(a)
        out[f"field.mul_ns.m{m}"] = _median_time(muls) / ops * 1e9
        out[f"field.inv_ns.m{m}"] = _median_time(invs) / ops * 1e9
    return out


def _distinct_ratfuns(rng, F, count, max_deg):
    from kleinfour.poly import Poly
    from kleinfour.ratfun import RatFun
    seen, out = set(), []
    while len(out) < count:
        num = Poly.make(F, [rng.randrange(F.order) for _ in range(max_deg)]
                        + [rng.randrange(1, F.order)])
        den = Poly.make(F, [rng.randrange(F.order) for _ in range(max_deg)]
                        + [rng.randrange(1, F.order)])
        f = RatFun(num, den)
        if f.key() not in seen:
            seen.add(f.key())
            out.append(f)
    return out


def _per_call_us(fn, inputs):
    """Mean microseconds per call over inputs that miss every cache."""
    from kleinfour import ascurve, poly
    ascurve.reduce_standard.cache_clear()
    poly._factor_cached.cache_clear()
    t0 = time.perf_counter()
    for x in inputs:
        fn(x)
    return (time.perf_counter() - t0) / len(inputs) * 1e6


def _layers(rng):
    from kleinfour import ascurve, klein4, poly
    from kleinfour.field import GF4
    polys = {}
    while len(polys) < 200:
        p = poly.Poly.make(GF4, [rng.randrange(4) for _ in range(8)] + [1])
        polys[p.coeffs] = p
    funcs = _distinct_ratfuns(rng, GF4, 300, 4)
    pairs = list(zip(_distinct_ratfuns(rng, GF4, 200, 3),
                     _distinct_ratfuns(rng, GF4, 200, 3)))

    def cover(pair):
        try:
            klein4.KleinFourCover(*pair)
        except (klein4.InvalidCover, ascurve.DegenerateCover):
            pass
    return {"poly.factor_us": _per_call_us(poly.factor, list(polys.values())),
            "ascurve.reduce_us": _per_call_us(ascurve.reduce_standard, funcs),
            "klein4.cover_us": _per_call_us(cover, pairs)}


def _counting():
    from kleinfour.ascurve import ASCurve
    from kleinfour.field import GF2, BinaryField
    from kleinfour.ratfun import parse_ratfun
    from kleinfour.zeta import count_points
    curve = ASCurve(parse_ratfun(GF2, COUNT_CURVE))
    out = {}
    for m, repeats in COUNT_REPEATS.items():
        BinaryField.default(m)  # finds and caches the modulus, untimed
        dt = _median_time(lambda: count_points(curve, m), repeats)
        out[f"zeta.count_ns_per_point.m{m}"] = dt / 2**m * 1e9
    return out


def run(seed, size):
    """All microbenchmark metrics; the smoke size times fewer field ops."""
    rng = random.Random(f"micro:{seed}")
    out = _field(rng, FIELD_OPS if size == "full" else FIELD_OPS // 10)
    out.update(_layers(rng))
    out.update(_counting())
    return out
