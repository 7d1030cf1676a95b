"""The benchmark's three workloads: inputs from a seed, items, output checks.

Each workload is split the way the harness times it:

- ``make_inputs`` builds the raw inputs from the seed (counted in setup_s);
- ``run_item`` makes the program calls for one item (counted in run_s);
- ``check_item`` compares one item's outputs with exact facts, outside the
  timer.  ``check_inputs`` does the same once per pass for the inputs.

The program's callables are reached through an ``Api`` namespace so that the
tracer can swap in wrapped versions without touching ``src/``.
"""

from __future__ import annotations

import importlib
import random
import types

DEFAULT_SEED = 0

# Problem sizes.  "full" is what BENCHMARK.json runs; "smoke" is the size the
# benchmark's own tests run in a few seconds.
SIZES = {
    "full": {"census": (("gf2", 3),) * 5 + (("gf4", 2),), "genus": 12,
             "pairs": 25},
    "smoke": {"census": (("gf2", 2),), "genus": 6, "pairs": 2},
}

# identity covers: raw numerator and denominator of exact degree 3, counted
# over GF(q^n) for n = 1..6.  A fixed degree keeps the cost of a cover close
# to the mean, so the seed moves run_s and the item percentiles little.
IDENTITY_DEGREE = 3
IDENTITY_MAX_N = 6
# Raw candidate pairs per cover; the first one that is a valid Klein-four
# cover is used.  About one GF(2) candidate in ten is invalid.
IDENTITY_CANDIDATES = 8


def modules(*names):
    """kleinfour submodules by name.  ``from kleinfour import construct``
    would give the function the package re-exports, not the module."""
    return [importlib.import_module(f"kleinfour.{n}") for n in names]


def load_api():
    """The program's public callables that the workloads use."""
    (ascurve, census, construct, field, klein4, poly, ratfun, realize,
     zeta) = modules("ascurve", "census", "construct", "field", "klein4",
                     "poly", "ratfun", "realize", "zeta")
    return types.SimpleNamespace(
        fields={"gf2": field.GF2, "gf4": field.GF4},
        Poly=poly.Poly,
        RatFun=ratfun.RatFun,
        KleinFourCover=klein4.KleinFourCover,
        invalid_cover=(klein4.InvalidCover, ascurve.DegenerateCover),
        partitions_of=klein4.partitions_of,
        realizable=realize.realizable,
        run_census=census.run_census,
        construct=construct.construct,
        verify=zeta.verify,
        count_points=zeta.count_points,
        count_points_cover=zeta.count_points_cover,
        caches=(ascurve.reduce_standard, poly._factor_cached,
                poly.field_embedding),
    )


def weil_ok(counts, genus, q):
    """|N_n - (q^n + 1)| <= 2 g q^(n/2) for every n, in exact integers."""
    return all((N - q**n - 1) ** 2 <= 4 * genus * genus * q**n
               for n, N in enumerate(counts, start=1))


class Workload:
    @staticmethod
    def prepare_item(api, item):
        """Runs before an item, outside its timer and its trace span."""

    @staticmethod
    def check_inputs(inputs, golden, size):
        """An error message when the pass's inputs are wrong, else None."""
        return None


# -- census: exhaustive, seed-independent ------------------------------------

class Census(Workload):
    """One item per run_census call; its output is the cell fingerprint.

    The GF(2) census runs five times and the GF(4) census once, each with
    the program's caches cleared, as in a fresh `k4 census`.  So
    item_p50_ms is the median of five GF(2) censuses and item_p90_ms is the
    GF(4) census.
    """

    @staticmethod
    def make_inputs(api, seed, size):
        return [(name, deg) for name, deg in SIZES[size]["census"]]

    @staticmethod
    def prepare_item(api, item):
        for cache in api.caches:
            cache.cache_clear()

    @staticmethod
    def run_item(api, item):
        name, deg = item
        cells = api.run_census(api.fields[name], deg)
        return [[c.g, c.sigma, list(c.type), c.witness_count] for c in cells]

    @staticmethod
    def golden_key(item, index):
        return f"{item[0]}-{item[1]}"

    @staticmethod
    def fingerprint(output):
        return output

    @staticmethod
    def check_item(item, output, golden, seed, index):
        expected = golden["census"].get(Census.golden_key(item, index))
        if expected is None:
            return f"no golden fingerprint for census {item}"
        if output != expected:
            return f"census {item} cells differ from the golden fingerprint"
        return None


# -- verify_table: every realizable cell at one genus -------------------------

class VerifyTable(Workload):
    """One item per realizable cell: construct, then verify, as `k4 table
    --verify` does.  The seed only shuffles the visiting order."""

    @staticmethod
    def make_inputs(api, seed, size):
        g = SIZES[size]["genus"]
        cells = [(g, s, p) for p in api.partitions_of(g) for s in range(g + 1)
                 if api.realizable(g, s, p).exists]
        random.Random(seed).shuffle(cells)
        return cells

    @staticmethod
    def run_item(api, item):
        g, s, p = item
        cover, _ = api.construct(g, s, p)
        depth = max(sub.genus for sub in cover.quotients)
        report = api.verify(cover, depth)
        return {"invariants": list(cover.invariants),
                "type": list(cover.type.entries),
                "confirmed": report.confirmed}

    @staticmethod
    def check_item(item, output, golden, seed, index):
        g, s, p = item
        if not output["confirmed"]:
            return f"cell {(g, s, p.entries)}: verify did not confirm"
        if (output["invariants"], output["type"]) != ([g, s], list(p.entries)):
            return (f"cell {(g, s, p.entries)}: witness has invariants "
                    f"{output['invariants']} and type {output['type']}")
        return None

    @staticmethod
    def cell_list(inputs):
        """The cells as sorted [sigma, g1, g2, g3] lists."""
        return sorted([s] + list(p.entries) for _, s, p in inputs)

    @staticmethod
    def check_inputs(inputs, golden, size):
        g = SIZES[size]["genus"]
        if VerifyTable.cell_list(inputs) != golden["verify_table"][str(g)]:
            return f"realizable cells at g={g} differ from the golden list"
        return None


# -- identity: the count identity on seeded random covers --------------------

def _raw_poly(rng, order):
    return ([rng.randrange(order) for _ in range(IDENTITY_DEGREE)]
            + [rng.randrange(1, order)])


class Identity(Workload):
    """One item per pair of random covers, one over GF(2) and one over GF(4).

    A GF(2) cover costs about 1 % of a GF(4) one, so per-cover latencies
    would fall into two clusters with the median between them; a pair is
    one item so the percentiles describe a single population.
    """

    @staticmethod
    def make_inputs(api, seed, size):
        items = []
        for i in range(SIZES[size]["pairs"]):
            pair = []
            for name in ("gf2", "gf4"):
                order = api.fields[name].order
                rng = random.Random(f"identity:{seed}:{i}:{name}")
                pair.append((name, [[_raw_poly(rng, order) for _ in range(4)]
                                    for _ in range(IDENTITY_CANDIDATES)]))
            items.append(pair)
        return items

    @staticmethod
    def _build(api, name, candidates):
        F = api.fields[name]
        for n1, d1, n2, d2 in candidates:
            try:
                return api.KleinFourCover(
                    api.RatFun(api.Poly.make(F, n1), api.Poly.make(F, d1)),
                    api.RatFun(api.Poly.make(F, n2), api.Poly.make(F, d2)))
            except api.invalid_cover:
                continue
        raise RuntimeError(f"no valid {name} cover among "
                           f"{len(candidates)} candidates")

    @staticmethod
    def run_item(api, item):
        out = []
        for name, candidates in item:
            cover = Identity._build(api, name, candidates)
            ns = range(1, IDENTITY_MAX_N + 1)
            out.append({
                "q": cover.field.order,
                "genus": cover.genus,
                "quotient_genera": [sub.genus for sub in cover.quotients],
                "direct": [api.count_points_cover(cover, n) for n in ns],
                "quotients": [[api.count_points(sub, n) for n in ns]
                              for sub in cover.quotients],
            })
        return out

    @staticmethod
    def golden_key(item, index):
        return str(index)

    @staticmethod
    def fingerprint(output):
        """The exact count vectors: per cover, direct then the quotients."""
        return [[c["direct"]] + c["quotients"] for c in output]

    @staticmethod
    def check_item(item, output, golden, seed, index):
        for c in output:
            q = c["q"]
            for n, direct in enumerate(c["direct"], start=1):
                rhs = sum(qc[n - 1] for qc in c["quotients"]) - 2 * (q**n + 1)
                if direct != rhs:
                    return (f"pair {index}: count identity fails at n={n}: "
                            f"direct {direct}, from quotients {rhs}")
            if not weil_ok(c["direct"], c["genus"], q):
                return f"pair {index}: cover counts break the Weil bound"
            for counts, g in zip(c["quotients"], c["quotient_genera"]):
                if not weil_ok(counts, g, q):
                    return f"pair {index}: quotient counts break the Weil bound"
        if seed == DEFAULT_SEED:
            expected = golden["identity"].get(Identity.golden_key(item, index))
            if expected is not None and Identity.fingerprint(output) != expected:
                return f"pair {index}: counts differ from the golden vectors"
        return None


WORKLOADS = {"census": Census, "verify_table": VerifyTable,
             "identity": Identity}
