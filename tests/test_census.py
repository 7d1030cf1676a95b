import functools
import hashlib
import time
from collections import Counter
from itertools import compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import raw_pairs
from test_factor import ref_base_digits
from kleinfour import census, poly
from kleinfour.ascurve import (ASCurve, ReducedForm, canonical_form,
                               reduce_form, reduce_standard)
from kleinfour.census import (BasisTables, CensusCell, CensusViolation,
                              coprime_codes, count_covers, enumerate_functions,
                              factored_denominators, fold_keys,
                              max_census_degree, run_census,
                              sum_invariants)
from kleinfour.cli import EXIT_BAD_INPUT, EXIT_MISMATCH, main
from kleinfour.field import GF2, GF4, BinaryField, span
from kleinfour.klein4 import KleinFourCover, Partition
from kleinfour.poly import Poly, factor, gcd, poly_of, unpack, xor_rows
from kleinfour.ratfun import RatFun, parse_ratfun
from kleinfour.realize import Verdict


def pack(tables, f):
    """The packed reduced form of the RatFun f, as the census packs it: the
    XOR of its denominator's basis forms at its numerator's bits."""
    return xor_rows(tables.forms(f.den, factor(f.den)), f.num.code)


def table_for(*fns):
    """BasisTables wide enough for every one of fns."""
    return BasisTables(fns[0].field, 1 + max(
        max(f.num.degree, f.den.degree) for f in fns))


def raw_pair_census(field, max_deg):
    """Slow reference: the census as a loop over every pair of raw
    functions, each sum reduced in full and each cover deduplicated by its
    unordered reduced triple.  Returns the cells as JSON."""
    functions = [r for r in map(reduce_standard,
                                enumerate_functions(field, max_deg))
                 if not r.is_constant]
    cells = {}
    seen_covers = set()
    for i, r1 in enumerate(functions):
        for r2 in functions[i + 1:]:
            r3 = reduce_standard(r1 + r2)
            if r1 == r2 or r3.is_constant:
                continue
            key = frozenset((r1.key(), r2.key(), r3.key()))
            if key in seen_covers:
                continue
            seen_covers.add(key)
            quotients = [ASCurve(r) for r in (r1, r2, r3)]
            p = Partition(*(q.genus for q in quotients))
            sigma = sum(q.two_rank for q in quotients)
            cell = cells.get((p.g, sigma, p.entries))
            if cell is None:
                cells[p.g, sigma, p.entries] = {
                    "g": p.g, "sigma": sigma, "type": list(p.entries),
                    "witness_count": 1,
                    "example": {"f1": str(r1), "f2": str(r2)}}
            else:
                cell["witness_count"] += 1
    return [cells[k] for k in sorted(cells)]


def pair_loop_count_covers(classes, tables):
    """Reference for `count_covers`: every pair of classes visited one by
    one, the loop the census ran before it counted disjoint-pole pairs in
    bulk.  Returns (counts, first)."""
    one = 1 << tables.field.degree
    index = {x: i for i, x in enumerate(classes)}
    invariants = [tables.unpack(x).invariants() for x in classes]
    masks = [tables.places_mask(x) for x in classes]
    slots = tables.slots
    apart = [(g << 16) + (g << 8) + 2 * s for g, s in invariants]
    counts = {}
    first = {}
    n = len(classes)
    for i, a in enumerate(classes):
        inv1 = invariants[i]
        g1, s1 = inv1
        mask1 = masks[i]
        own_apart = (g1 << 24) + (g1 << 8) + 2 * s1 + 257
        for j, b, mask2, key in zip(range(i + 1, n), classes[i + 1:],
                                    masks[i + 1:], apart[i + 1:]):
            s = a ^ b
            k = index.get(s)
            if k is None and not mask1 & mask2:
                key += own_apart
            else:
                if s < one:
                    continue
                if k is None:
                    g3, s3 = sum_invariants(slots, a, b, mask1 & mask2,
                                            inv1, invariants[j])
                elif k < j:
                    continue
                else:
                    g3, s3 = invariants[k]
                g2, s2 = invariants[j]
                key = (g1 << 24) + (g2 << 16) + (g3 << 8) + s1 + s2 + s3
            count = counts.get(key)
            if count is None:
                counts[key] = 1
                first[key] = i, j
            else:
                counts[key] = count + 1
    return counts, first


@functools.lru_cache(maxsize=None)
def census_classes(field, max_deg):
    """The census's classes, in order of first sight, and the tables that
    laid them out."""
    packed, tables = census._packed_functions(field, max_deg)
    one = 1 << field.degree
    return list(dict.fromkeys(x for x in packed if x >= one)), tables


def unfolded_census(field, max_deg):
    """Reference for `run_census`: `count_covers` on every class, not on
    the constant-free parts, so each cell's count is its own and its
    example comes from its earliest pair of classes.  Returns the cells as
    JSON, unchecked against `realizable`."""
    classes, tables = census_classes(field, max_deg)
    cells = fold_keys(*count_covers(classes, tables))
    return [CensusCell(g, sigma, entries, count,
                       KleinFourCover(tables.unpack(classes[i]),
                                      tables.unpack(classes[j]))).to_json()
            for (g, sigma, entries), (count, (i, j)) in sorted(cells.items())]


GF8 = BinaryField.default(3)
GF8_OTHER = BinaryField(3, 0b1101)


@pytest.mark.parametrize("field, max_deg",
                         [(GF2, d) for d in range(5)]
                         + [(GF4, d) for d in range(3)] + [(GF8, 0), (GF8, 1)],
                         ids=str)
def test_bulk_counts_match_the_pair_loop(field, max_deg):
    classes, tables = census_classes(field, max_deg)
    assert count_covers(classes, tables) == \
        pair_loop_count_covers(classes, tables)


def skipped_pairs(classes, tables):
    """{i: {j, ...}}: the pairs i < j of classes with no shared pole whose
    sum is a class k < j, so that their cover's lowest pair is not (i, j).
    Such a k splits along its pole slots: one summand takes a proper subset
    of them, with k's lowest, the other the rest, and the constant goes to
    either side."""
    one = 1 << tables.field.degree
    index = {x: i for i, x in enumerate(classes)}
    fields = [mask << offset for offset, mask, _, _ in tables.slots]
    skipped = {}
    for k, x in enumerate(classes):
        parts = [x & f for f in fields if x & f]
        for rest in span(parts[1:])[:-1]:
            for c in range(one):
                p, q = sorted((index.get(parts[0] ^ rest ^ c, -1),
                               index.get(parts[0] ^ rest ^ c ^ x, -1)))
                if p >= 0 and k < q:
                    skipped.setdefault(p, set()).add(q)
    return skipped


CAP_CASES = [(F, d) for F in [BinaryField.default(m) for m in range(1, 15)]
             + [GF8_OTHER]
             for d in range(max_census_degree(F) + 1)]


def test_census_order_never_skips_a_pair():
    # `count_covers` counts every disjoint-pole pair in bulk, as its
    # cover's lowest pair; that needs each class that is such a sum to come
    # after both summands, at every degree the census accepts
    for field, max_deg in CAP_CASES:
        assert skipped_pairs(*census_classes(field, max_deg)) == {}, \
            (field, max_deg)
    # out of census order the check finds them: x + 1/x before x and 1/x
    fns = [parse_ratfun(GF2, text)
           for text in ("x + 1/x", "x", "1/x", "1/(x+1)")]
    tables = table_for(*fns)
    assert skipped_pairs([pack(tables, f) for f in fns], tables) == {1: {2}}
    classes, tables = census_classes(GF2, 2)
    assert skipped_pairs(classes[::-1], tables)


def test_the_fold_preconditions_hold_at_every_cap():
    # run_census pairs the classes' constant-free parts and counts each
    # part pair four times: that needs the classes closed under adding the
    # trace-one constant c0, two per part, and parts in an order that
    # never skips a pair
    for field, max_deg in CAP_CASES:
        classes, tables = census_classes(field, max_deg)
        m, c0 = field.degree, field.trace_one_element()
        assert {x ^ c0 for x in classes} == set(classes), (field, max_deg)
        sizes = Counter(x >> m << m for x in classes)
        assert set(sizes.values()) <= {2}, (field, max_deg)
        parts = list(census.constant_free_parts(classes, m))
        assert parts == list(sizes)
        assert skipped_pairs(parts, tables) == {}, (field, max_deg)


UNFOLDED_CASES = ([(GF2, d) for d in range(5)] + [(GF4, d) for d in range(3)]
                  + [(F, d) for F in (GF8, GF8_OTHER) for d in (0, 1)])


@pytest.mark.parametrize("field, max_deg", UNFOLDED_CASES,
                         ids=[f"{F}-{F.modulus:#b}-{d}"
                              for F, d in UNFOLDED_CASES])
def test_census_matches_the_unfolded_census(field, max_deg):
    # counts and example strings, cell by cell
    assert [c.to_json() for c in run_census(field, max_deg)] == \
        unfolded_census(field, max_deg)


def test_a_part_without_its_twin_is_refused(monkeypatch):
    # drop one class, every function that reduces to it, from the census
    packed_functions = census._packed_functions

    def drop_one(field, max_deg):
        packed, tables = packed_functions(field, max_deg)
        last = packed[-1]
        return [x for x in packed if x != last], tables

    monkeypatch.setattr(census, "_packed_functions", drop_one)
    with pytest.raises(AssertionError, match="exactly two classes"):
        run_census(GF2, 2)


SUBLIST_CASES = st.sampled_from([(GF2, 4), (GF4, 2)])


@settings(max_examples=30, deadline=None)
@given(SUBLIST_CASES, st.data())
def test_bulk_counts_match_the_pair_loop_on_sublists(case, data):
    # dropping classes turns some sums into non-classes and moves earliest
    # pairs; the bulk rows and the pair loop see the same sub-list
    classes, tables = census_classes(*case)
    keep = data.draw(st.lists(st.booleans(), min_size=len(classes),
                              max_size=len(classes)))
    sub = list(compress(classes, keep))
    assert count_covers(sub, tables) == pair_loop_count_covers(sub, tables)


@pytest.mark.parametrize("field, max_deg",
                         [(GF2, 1), (GF2, 2), (GF2, 3), (GF4, 1)],
                         ids=["gf2-1", "gf2-2", "gf2-3", "gf4-1"])
def test_census_matches_raw_pair_reference(field, max_deg):
    cells = [c.to_json() for c in run_census(field, max_deg)]
    assert cells == raw_pair_census(field, max_deg)


def test_enumerate_functions_normalized():
    fns = enumerate_functions(GF2, 2)
    assert len(fns) == len({f.key() for f in fns})
    for f in fns:
        assert not f.is_zero
        assert f.den.is_monic
        assert f.num.degree <= 2 and f.den.degree <= 2


def old_enumerate_functions(field, max_deg):
    """The enumeration as it was written first: numerators from every
    length block (so each one again in every longer block), duplicates
    dropped by key."""
    def all_polys(max_deg):
        for deg in range(max_deg + 1):
            for enc in range(field.order ** deg):
                cs = []
                for _ in range(deg):
                    cs.append(enc % field.order)
                    enc //= field.order
                yield cs

    out, seen = [], set()
    for den in [Poly.make(field, cs + [1]) for cs in all_polys(max_deg)]:
        for cs in all_polys(max_deg + 1):
            num = Poly.make(field, cs)
            if not num.coeffs:
                continue
            f = RatFun(num, den)
            if f.num != num or f.den != den or f.key() in seen:
                continue
            seen.add(f.key())
            out.append(f)
    return out


@pytest.mark.parametrize("field, max_deg",
                         [(GF2, 1), (GF2, 2), (GF2, 3), (GF2, 4), (GF4, 1),
                          (GF4, 2)])
def test_enumerate_functions_matches_the_old_loop(field, max_deg):
    assert enumerate_functions(field, max_deg) == \
        old_enumerate_functions(field, max_deg)


def code_of(num):
    """The numerator code sum c_i q^i of num."""
    return sum(c * num.field.order ** i for i, c in enumerate(num.coeffs))


def basis_forms(den, n):
    """The tables and the census's packed basis of den for numerators of
    degree < n, read off the per-place tables with den factored by
    `factor`; the tables take numerators up to den's degree at least."""
    tables = BasisTables(den.field, max(n, den.degree + 1))
    return tables, tables.forms(den, factor(den))[:n * den.field.degree]


@settings(max_examples=200, deadline=None)
@given(raw_pairs())
def test_basis_forms_xor_to_the_reduced_form(pair):
    # the census reads each denominator's basis off per-place tables and
    # takes a function's form as the XOR of the basis forms at its
    # numerator's bits
    for f in pair:
        tables, basis = basis_forms(
            f.den, max(f.num.degree, f.den.degree) + 1)
        x = span(basis)[code_of(f.num)]
        assert x == pack(tables, f)
        assert tables.unpack(x) == reduce_form(f)


@st.composite
def monic_denominators(draw):
    """A monic denominator of degree <= 3 over GF(2), GF(4) or GF(8), and a
    numerator length n with at most 6 bits per numerator code."""
    F = draw(st.sampled_from((GF2, GF4, BinaryField.default(3))))
    lower = draw(st.lists(st.integers(0, F.order - 1), max_size=3))
    n = draw(st.integers(1, 6 // F.degree))
    return Poly.make(F, lower + [1]), n


@settings(max_examples=60, deadline=None)
@given(monic_denominators())
def test_coprime_codes_and_the_form_table(case):
    # the kept codes are exactly the numerators prime to den, and the span
    # of the packed basis holds each one's reduced form at its code
    den, n = case
    F = den.field
    keep = coprime_codes(den, factor(den), n)
    nums = [Poly.make(F, unpack(code, F.degree, n))
            for code in range(F.order ** n)]
    assert list(compress(nums, keep)) == [
        num for num in nums if num.coeffs and gcd(num, den).degree == 0]
    tables, basis = basis_forms(den, n)
    forms = span(basis)
    for num, form in compress(zip(nums, forms), keep):
        assert tables.unpack(form) == reduce_form(RatFun(num, den))


def packed_sum_invariants(v1, v2):
    f1, f2 = v1.to_ratfun(), v2.to_ratfun()
    tables = table_for(f1, f2)
    a, b = pack(tables, f1), pack(tables, f2)
    shared = tables.places_mask(a) & tables.places_mask(b)
    return sum_invariants(tables.slots, a, b, shared, v1.invariants(),
                          v2.invariants())


@settings(max_examples=300, deadline=None)
@given(raw_pairs())
def test_shared_place_invariants_of_a_packed_sum(pair):
    # (v1, v1 + v2) share every pole of v1 that v2 does not cancel, so
    # their sum v2 exercises cancellation at shared places
    v1, v2 = map(reduce_form, pair)
    for a, b in ((v1, v2), (v1, v1 + v2), (v2, v1 + v2)):
        if a.is_constant or b.is_constant or (a + b).is_constant:
            continue
        assert packed_sum_invariants(a, b) == tuple((a + b).invariants())


def test_shared_place_invariants_examples():
    def v(text):
        return reduce_form(parse_ratfun(GF2, text))
    # the pole at x cancels; infinity keeps the larger order
    a, b = v("1/x + x^3"), v("1/x + x^5")
    assert packed_sum_invariants(a, b) == (2, 0) == (a + b).invariants()
    # equal orders at x: the top digits cancel and the order drops to 1
    a, b = v("1/x^3 + x"), v("1/x^3 + 1/x")
    assert packed_sum_invariants(a, b) == (1, 1)
    assert packed_sum_invariants(a, b) == (a + b).invariants()


def test_census_violation_names_the_first_cover(monkeypatch, capsys):
    cells = run_census(GF2, 2)
    target = next(c for c in cells if c.witness_count > 1)
    refused = (target.g, target.sigma, target.type)
    real = census.realizable

    def refuse_one(g, sigma, p):
        if (g, sigma, p.entries) == refused:
            return Verdict(False, "i", "refused for the test")
        return real(g, sigma, p)

    monkeypatch.setattr(census, "realizable", refuse_one)
    with pytest.raises(CensusViolation) as err:
        run_census(GF2, 2)
    message = str(err.value)
    assert (f"(g={target.g}, sigma={target.sigma}, "
            f"type={Partition(*target.type)})") in message
    assert f"cover ({target.example.f1}, {target.example.f2})" in message
    code = main(["census", "--field", "gf2", "--max-deg", "2"])
    assert code == EXIT_MISMATCH
    assert "census violation" in capsys.readouterr().err


def test_cells_are_checked_in_the_order_first_reached(monkeypatch):
    checked = []
    real = census.realizable

    def record(g, sigma, p):
        checked.append((g, sigma, p.entries))
        return real(g, sigma, p)

    monkeypatch.setattr(census, "realizable", record)
    cells = run_census(GF2, 3)
    # a cell is first reached at its example, a pair of classes numbered in
    # order of first sight
    classes = {}
    for r in map(reduce_standard, enumerate_functions(GF2, 3)):
        if not r.is_constant:
            classes.setdefault(r, len(classes))
    cells.sort(key=lambda c: (classes[c.example.f1], classes[c.example.f2]))
    assert checked == [(c.g, c.sigma, c.type) for c in cells]


def test_census_small_gf2():
    cells = run_census(GF2, 2)
    found = {(c.g, c.sigma, c.type) for c in cells}
    assert (1, 1, (1, 0, 0)) in found
    for c in cells:
        assert c.witness_count >= 1
        assert c.sigma != c.g - 1
        assert not (c.g % 2 == 0 and c.sigma == 1)


def test_census_small_gf4():
    cells = run_census(GF4, 1)
    found = {(c.g, c.sigma, c.type) for c in cells}
    assert (0, 0, (0, 0, 0)) in found
    assert (1, 1, (1, 0, 0)) in found


def test_census_rejects_big_bound():
    with pytest.raises(ValueError):
        run_census(GF2, 7)


def test_census_caps_each_field():
    assert (max_census_degree(GF2), max_census_degree(GF4)) == (6, 3)
    with pytest.raises(ValueError):
        run_census(GF4, 4)
    start = time.perf_counter()
    code = main(["census", "--field", "gf4", "--max-deg", "4"])
    assert code == EXIT_BAD_INPUT
    assert time.perf_counter() - start < 1


def test_a_folded_cell_keeps_its_earliest_example():
    # (1, 1, {1,0,0}) is reached under three raw keys, one per position of
    # the genus-1 quotient; the earliest first pair is (1, 9)
    def key(g1, g2, g3, sigma):
        return g1 << 24 | g2 << 16 | g3 << 8 | sigma
    counts = {key(1, 0, 0, 1): 2, key(0, 1, 0, 1): 3, key(0, 0, 1, 1): 1,
              key(1, 1, 0, 0): 4}
    first = {key(1, 0, 0, 1): (3, 5), key(0, 1, 0, 1): (1, 9),
             key(0, 0, 1, 1): (2, 0), key(1, 1, 0, 0): (0, 7)}
    assert fold_keys(counts, first) == {(1, 1, (1, 0, 0)): [6, (1, 9)],
                                        (2, 0, (1, 1, 0)): [4, (0, 7)]}


def test_census_rejects_negative_bound():
    with pytest.raises(ValueError):
        run_census(GF2, -1)


def test_census_cell_json():
    cells = run_census(GF4, 1)
    doc = cells[0].to_json()
    assert set(doc) == {"g", "sigma", "type", "witness_count", "example"}


# sha256 of `k4 census --field F --max-deg D --json`, examples included, as
# printed by the census that reduced every pair sum as a RatFun.
CENSUS_JSON_SHA256 = {
    ("gf2", 1): "ebab9d06ccc0b5e0df6e523d4f08b00c"
                "86f8140dc4222887967c3da3e0ac1a0b",
    ("gf2", 2): "8f68a016eeb1ee912ccde45af938a867"
                "90db8bbef5ba12876f36d712a990ca43",
    ("gf2", 3): "c34adac67acc394d9adadbf10afdaa44"
                "5c3193b2949c8d52b38e8f784d57784e",
    ("gf2", 4): "4177c91d571b99e5d9ea66ce2b5cc188"
                "1f0f3fceab0955023b72aeea861bb1d5",
    ("gf4", 1): "7a9cd80092f4f06262394fd7f00e3869"
                "8366f47186ae73f76f0c3e0ea4889d02",
    ("gf4", 2): "b58f5e72fba76f16a2df4f38d3c99d91"
                "1722ab7a64df471f5e162e741f8a4679",
}


@pytest.mark.parametrize("field, max_deg", sorted(CENSUS_JSON_SHA256))
def test_census_json_is_unchanged(capsys, field, max_deg):
    code = main(["census", "--field", field, "--max-deg", str(max_deg),
                 "--json"])
    out = capsys.readouterr().out
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == CENSUS_JSON_SHA256[field, max_deg]


# every monic denominator of degree up to 5 over GF(2), 3 over GF(4) and 2
# over GF(8), multiples of x included
BASIS_CASES = ((GF2, 5), (GF4, 3), (GF8, 2))
BASIS_DENS = [case for F, d in BASIS_CASES
              for case in factored_denominators(F, d)]


def test_basis_forms_match_reduce_form():
    for den, factors in BASIS_DENS:
        F = den.field
        n = den.degree + 2  # past den's degree, so poly parts show up too
        tables = BasisTables(F, n)
        assert list(map(tables.unpack, tables.forms(den, factors))) == [
            reduce_form(RatFun(Poly.monomial(F, i, 1 << b), den))
            for i in range(n) for b in range(F.degree)], den
    # one table per field, shared by all its denominators and sized from
    # the degree bound as the census sizes it, with no room past the bound
    for F, max_deg in BASIS_CASES:
        n = max_deg + 1
        tables = BasisTables(F, n)
        for den, factors in factored_denominators(F, max_deg):
            assert list(map(tables.unpack, tables.forms(den, factors))) == [
                reduce_form(RatFun(Poly.monomial(F, i, 1 << b), den))
                for i in range(n) for b in range(F.degree)], den


@settings(max_examples=300, deadline=None)
@given(raw_pairs())
def test_packed_layout_laws(pair):
    # the census packs forms into ints: unpacking inverts packing, a sum
    # packs to the XOR, equal forms pack equal, constancy is a comparison
    # and the place mask names the poles
    f1, f2 = pair
    fns = (f1, f2, f1 + f2)
    tables = table_for(*fns)
    m = f1.field.degree
    packed = [pack(tables, f) for f in fns]
    for f, x in zip(fns, packed):
        v = reduce_form(f)
        assert tables.unpack(x) == v
        assert (x < 1 << m) == v.is_constant
        poles = {t for t, (offset, mask, _, _) in enumerate(tables.slots)
                 if (x >> offset) & mask}
        assert tables.places_mask(x) == sum(1 << t for t in poles)
        assert len(poles) == len(v.places) + (v.poly >> m > 0)
    assert packed[0] ^ packed[1] == packed[2]
    assert (packed[0] == packed[1]) == (reduce_form(f1) == reduce_form(f2))


def test_slots_are_sized_from_the_degree_bound():
    # n = 4 over GF(2): the polynomial part takes bits 0..3, infinity holds
    # the coefficients of x, x^2, x^3, and a place of degree d gets 3 // d
    # digits of d bits, in the order the places are first met
    tables = BasisTables(GF2, 4)
    for text in ("x^3 + x", "x^2 + x + 1", "x + 1"):
        den = parse_ratfun(GF2, text).num
        tables.forms(den, factor(den))
    assert tables.slots == [(1, 0b111, 1, 1), (4, 0b111, 1, 1),
                            (7, 0b111, 1, 1), (10, 0b11, 2, 2)]


def test_forms_refuse_a_denominator_past_the_bound():
    # slots hold the digits of a denominator of degree < n only, so a
    # larger one is refused before any slot is given, never packed over
    # the next slot
    tables = BasisTables(GF2, 2)
    x = Poly.x(GF2)
    assert list(map(tables.unpack, tables.forms(x, factor(x)))) == [
        reduce_form(parse_ratfun(GF2, text)) for text in ("1/x", "1")]
    slots = list(tables.slots)
    for text in ("x^2", "x^2 + x + 1", "x^3 + 1"):
        den = parse_ratfun(GF2, text).num
        with pytest.raises(ValueError, match="degree < 2"):
            tables.forms(den, factor(den))
    assert tables.slots == slots
    x4 = Poly.monomial(GF4, 4)
    with pytest.raises(ValueError, match="degree < 4"):
        BasisTables(GF4, 4).forms(x4, factor(x4))


def test_the_sieve_factors_as_factor_does():
    # census order, and the sorted factor list of each denominator
    for F, max_deg in CAP_CASES:
        dens = [Poly.make(F, unpack(enc, F.degree, d) + [1])
                for d in range(max_deg + 1) for enc in range(F.order ** d)]
        assert list(factored_denominators(F, max_deg)) == [
            (den, factor(den)) for den in dens], (F, max_deg)


# The census's basis as it was built before the per-place tables: each
# denominator factored, with one CRT inverse per place, x^i / den split
# into partial fractions once per i, and one canonical form per basis
# numerator.

def place_inverses(den):
    """(q, e, q^e, (den / q^e)^-1 mod q^e) for each place q^e of den."""
    out = []
    for (q, e) in factor(den):
        qe = q
        for _ in range(e - 1):
            qe = qe * q
        out.append((q, e, qe, poly.invmod(den // qe, qe)))
    return out


def partial_fractions(num, den, places):
    """The vector of num/den as `principal_parts` builds it, given
    `place_inverses(den)`; a place num/den cancels gets all-zero digits."""
    poly_part, rem = divmod(num, den)
    return ReducedForm(num.field, poly_part.code, {
        q.code: ref_base_digits((rem * inv) % qe, q, e)
        for (q, e, qe, inv) in places})


def reference_basis_forms(den, n):
    """reduce_form(2^b x^i / den) at index i*m + b: partial fractions are
    F-linear, so 2^b x^i / den has the parts of x^i / den scaled by 2^b."""
    F = den.field
    places = place_inverses(den)
    forms = []
    for i in range(n):
        v = partial_fractions(Poly.monomial(F, i), den, places)
        for b in range(F.degree):
            # packed digits are m-bit coefficients, as in a Poly's code
            def scaled(code):
                return poly_of(F, code).scale(1 << b).code
            forms.append(canonical_form(ReducedForm(
                F, scaled(v.poly),
                {q: scaled(d) for q, d in v.places.items()})))
    return forms


def reference_functions(field, max_deg):
    """The forms `census._packed_functions` packs, on the reference basis:
    each denominator's span, by sums of forms, at the coprime codes."""
    n = max_deg + 1
    out = []
    for d in range(max_deg + 1):
        for enc in range(field.order ** d):
            den = Poly.make(field, unpack(enc, field.degree, d) + [1])
            forms = [ReducedForm(field, 0, {})]
            for v in reference_basis_forms(den, n):
                forms += [x + v for x in forms]
            out += compress(forms, coprime_codes(den, factor(den), n))
    return out


@pytest.mark.parametrize("field", [GF2, GF4, GF8, GF8_OTHER],
                         ids=str)
def test_packed_functions_match_the_reference_basis(field):
    for max_deg in range(max_census_degree(field) + 1):
        packed, tables = census._packed_functions(field, max_deg)
        assert list(map(tables.unpack, packed)) == \
            reference_functions(field, max_deg), max_deg


@pytest.mark.parametrize("field, max_deg, forms",
                         [(GF2, 3, 24), (GF4, 2, 54)], ids=str)
def test_the_basis_tables_canonicalise_once_per_row(monkeypatch, field,
                                                    max_deg, forms):
    # one canonical form per residue bit of each place power met and per
    # polynomial-part bit, and no denominator factored
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(census, "canonical_form",
                        counted("canonical_form", canonical_form))
    monkeypatch.setattr(poly, "factor", counted("factor", poly.factor))
    census._packed_functions(field, max_deg)
    assert calls == {"canonical_form": forms}
