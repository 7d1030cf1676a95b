"""Spans and counters around kleinfour's public callables, from outside.

``Tracer.install`` rebinds the names the calling modules use (module globals,
class attributes and the workloads' ``Api``) to wrappers, so nothing under
``src/`` changes.  Coarse boundaries get spans: name, start, end and parent.
Boundaries crossed up to millions of times per run (``AGGREGATED``) are kept
as one record per (parent, name) with a call count, total and self time.
Fine boundaries (field and polynomial arithmetic) get counters only.

Spans stay in memory and are written out by ``dump`` at the end of a run.
A span's self time is its duration minus the time of its child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# span name -> layer, the module whose public callable it wraps
LAYER = {
    "item": "bench",
    "run_census": "census",
    "enumerate_functions": "census",
    "KleinFourCover": "klein4",
    "reduce_standard": "ascurve",
    "factor": "poly",
    "field_embedding": "poly",
    "pole_divisor": "ratfun",
    "principal_parts": "ratfun",
    "realizable": "realize",
    "construct": "construct",
    "verify": "zeta",
    "count_points": "zeta",
    "count_points_cover": "zeta",
    "lpoly_from_counts": "zeta",
}
AGGREGATED = {"KleinFourCover", "reduce_standard", "factor",
              "field_embedding", "pole_divisor", "principal_parts",
              "realizable"}
LAYERS = ("census", "klein4", "ascurve", "poly", "ratfun", "realize",
          "construct", "zeta")

# record fields
NAME, PARENT, START, END, CALLS, TOTAL, SELF = range(7)


class Tracer:
    def __init__(self):
        self.records = []        # [name, parent id, start, end, calls, total, self]
        self._aggregate = {}     # (parent id, name) -> record id
        self._stack = []         # frames [record id, child time, start]
        self._depth = defaultdict(int)
        self.inclusive = defaultdict(float)  # outermost spans only
        self.counts = defaultdict(int)
        self._seen_counts = set()

    # -- spans -----------------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        if name in AGGREGATED:
            key = (parent, name)
            rid = self._aggregate.get(key)
            if rid is None:
                rid = self._aggregate[key] = len(self.records)
                self.records.append([name, parent, None, None, 0, 0.0, 0.0])
        else:
            rid = len(self.records)
            self.records.append([name, parent, None, None, 0, 0.0, 0.0])
        self._depth[name] += 1
        frame = [rid, 0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _exit(self, name, frame):
        end = time.perf_counter()
        self._stack.pop()
        rid, child, start = frame
        dur = end - start
        rec = self.records[rid]
        if rec[START] is None:
            rec[START] = start
        rec[END] = end
        rec[CALLS] += 1
        rec[TOTAL] += dur
        rec[SELF] += dur - child
        if self._stack:
            self._stack[-1][1] += dur
        self._depth[name] -= 1
        if not self._depth[name]:
            self.inclusive[name] += dur

    def span(self, name, fn):
        enter, exit_ = self._enter, self._exit

        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(name, frame)
        return wrapper

    def counter(self, key, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    # -- boundaries with extra bookkeeping ----------------------------------------

    def _run_census(self, fn):
        spanned = self.span("run_census", fn)

        def wrapper(field, max_deg):
            cells = spanned(field, max_deg)
            self.counts["census.cells"] += len(cells)
            self.counts["census.covers_distinct"] += sum(
                c.witness_count for c in cells)
            return cells
        return wrapper

    def _enumerate(self, fn):
        spanned = self.span("enumerate_functions", fn)

        def wrapper(field, max_deg):
            out = spanned(field, max_deg)
            self.counts["census.functions"] += len(out)
            return out
        return wrapper

    def _cover(self, cls):
        spanned = self.span("KleinFourCover", cls)
        counts, depth = self.counts, self._depth

        def wrapper(f1, f2):
            in_census = depth["run_census"] > 0
            counts["klein4.cover_attempts"] += 1
            if in_census:
                counts["census.pairs_tried"] += 1
            cover = spanned(f1, f2)
            counts["klein4.cover_valid"] += 1
            if in_census:
                counts["census.covers_valid"] += 1
            return cover
        return wrapper

    def _construct(self, fn):
        spanned = self.span("construct", fn)

        def wrapper(g, sigma, p):
            self.counts["construct.calls"] += 1
            cover, recipe = spanned(g, sigma, p)
            bits = self.counts["construct.witness_field_bits_max"]
            self.counts["construct.witness_field_bits_max"] = max(
                bits, cover.field.degree)
            return cover, recipe
        return wrapper

    def _count(self, name, fn, key_of):
        spanned = self.span(name, fn)

        def wrapper(target, n):
            self.counts[f"zeta.{name}_calls"] += 1
            self.counts["zeta.points_evaluated"] += target.field.order ** n
            key = (name, key_of(target), n)
            if key in self._seen_counts:
                self.counts["zeta.repeat_counts"] += 1
            self._seen_counts.add(key)
            return spanned(target, n)
        return wrapper

    # -- installation --------------------------------------------------------------

    def install(self, api):
        """Rebind every traced name; call once, before the traced pass."""
        from workloads import modules
        (ascurve, census, construct, field, klein4, poly, ratfun, realize,
         zeta) = modules("ascurve", "census", "construct", "field", "klein4",
                         "poly", "ratfun", "realize", "zeta")

        self._caches = {"reduce": ascurve.reduce_standard,
                        "factor": poly._factor_cached}

        api.run_census = self._run_census(api.run_census)
        census.enumerate_functions = self._enumerate(census.enumerate_functions)
        # klein4.KleinFourCover stays the class: isinstance checks use it.
        cover = self._cover(api.KleinFourCover)
        api.KleinFourCover = census.KleinFourCover = cover
        construct.KleinFourCover = cover
        reduce = self.span("reduce_standard", ascurve.reduce_standard)
        ascurve.reduce_standard = census.reduce_standard = reduce
        klein4.reduce_standard = reduce
        factor = self.counter("poly.factor_calls",
                              self.span("factor", poly.factor))
        poly.factor = construct.factor = factor
        embedding = self.span("field_embedding", poly.field_embedding)
        zeta.field_embedding = construct.field_embedding = embedding
        ratfun.RatFun.pole_divisor = self.span("pole_divisor",
                                               ratfun.RatFun.pole_divisor)
        ascurve.principal_parts = self.span("principal_parts",
                                            ascurve.principal_parts)
        realizable = self.counter("realize.calls",
                                  self.span("realizable", realize.realizable))
        census.realizable = construct.realizable = realizable
        api.construct = self._construct(api.construct)
        api.verify = self.span("verify", api.verify)
        api.count_points = zeta.count_points = self._count(
            "count_points", api.count_points, lambda curve: curve)
        api.count_points_cover = zeta.count_points_cover = self._count(
            "count_points_cover", api.count_points_cover,
            lambda cover: cover.key())
        zeta.lpoly_from_counts = self.span("lpoly_from_counts",
                                           zeta.lpoly_from_counts)
        for owner, attr, key in (
                (field.BinaryField, "mul", "field.mul_calls"),
                (field.BinaryField, "inv", "field.inv_calls"),
                (poly.Poly, "__mul__", "poly.mul_calls"),
                (poly.Poly, "__divmod__", "poly.divmod_calls"),
                (ratfun.RatFun, "__init__", "ratfun.init_calls"),
                (ratfun.RatFun, "__add__", "ratfun.add_calls")):
            setattr(owner, attr, self.counter(key, getattr(owner, attr)))

    def item(self, fn):
        """Wrap one workload item in a root span, and add up the cache hits
        and misses made inside it (items may clear the caches before)."""
        spanned = self.span("item", fn)

        def wrapper(*args):
            before = {k: c.cache_info() for k, c in self._caches.items()}
            try:
                return spanned(*args)
            finally:
                for k, c in self._caches.items():
                    info = c.cache_info()
                    self.counts[f"{k}.hits"] += info.hits - before[k].hits
                    self.counts[f"{k}.misses"] += (info.misses
                                                   - before[k].misses)
        return wrapper

    # -- results -----------------------------------------------------------------

    def metrics(self):
        """Per-layer counts and times of everything traced so far."""
        c = self.counts
        m = {key: c[key] for key in (
            "field.mul_calls", "field.inv_calls", "poly.mul_calls",
            "poly.divmod_calls", "poly.factor_calls", "ratfun.init_calls",
            "ratfun.add_calls", "klein4.cover_attempts", "klein4.cover_valid",
            "census.functions", "census.pairs_tried", "census.covers_distinct",
            "census.cells", "realize.calls", "construct.calls",
            "construct.witness_field_bits_max", "zeta.count_points_calls",
            "zeta.count_points_cover_calls", "zeta.points_evaluated",
            "zeta.repeat_counts")}
        hits, misses = c["factor.hits"], c["factor.misses"]
        m["poly.factor_cache_hit_ratio"] = (hits / (hits + misses)
                                            if hits + misses else 0.0)
        hits, misses = c["reduce.hits"], c["reduce.misses"]
        m["ascurve.reduce_calls"] = hits + misses
        m["ascurve.reduce_misses"] = misses
        valid = c["census.covers_valid"]
        m["census.dedup_ratio"] = (c["census.covers_distinct"] / valid
                                   if valid else 0.0)
        for key, name in (
                ("poly.factor_s", "factor"),
                ("poly.embedding_s", "field_embedding"),
                ("ratfun.pole_divisor_s", "pole_divisor"),
                ("ratfun.principal_parts_s", "principal_parts"),
                ("ascurve.reduce_s", "reduce_standard"),
                ("klein4.cover_init_s", "KleinFourCover"),
                ("census.enumerate_s", "enumerate_functions"),
                ("realize.realizable_s", "realizable"),
                ("construct.construct_s", "construct"),
                ("zeta.verify_s", "verify"),
                ("zeta.count_points_s", "count_points"),
                ("zeta.count_points_cover_s", "count_points_cover"),
                ("zeta.lpoly_s", "lpoly_from_counts")):
            m[key] = self.inclusive[name]
        self_s = defaultdict(float)
        for rec in self.records:
            self_s[LAYER[rec[NAME]]] += rec[SELF]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_s[layer]
        m["trace.unattributed_s"] = self_s["bench"]
        m["trace.span_records"] = len(self.records)
        return m

    def dump(self, path):
        """Write the span records as JSON, times relative to the first span."""
        t0 = min((r[START] for r in self.records if r[START] is not None),
                 default=0.0)
        spans = [{"id": i, "name": r[NAME], "layer": LAYER[r[NAME]],
                  "parent": r[PARENT], "start_s": r[START] - t0,
                  "end_s": r[END] - t0, "calls": r[CALLS],
                  "total_s": r[TOTAL], "self_s": r[SELF]}
                 for i, r in enumerate(self.records) if r[START] is not None]
        with open(path, "w") as fh:
            json.dump({"spans": spans}, fh)
