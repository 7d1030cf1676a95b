import hashlib
import importlib
import itertools
import json
import random
import time
from types import SimpleNamespace

import pytest

from kleinfour.ascurve import principal_parts, reduce_form
from kleinfour.construct import (NotRealizable, _direct, _fill_degrees,
                                 _inv_xk, _pole, _xk, construct,
                                 construct_half_minus, construct_sigma0,
                                 construct_unbalanced_even,
                                 construct_unbalanced_odd, lift_pair,
                                 make_hyperelliptic, place_step)
from kleinfour.field import GF2, GF4, BinaryField
from kleinfour.klein4 import KleinFourCover, Partition, partitions_of
from kleinfour.poly import Poly, monic_irreducibles
from kleinfour.ratfun import INFINITY, parse_ratfun
from kleinfour.realize import realizable


def _forms(*fs):
    """The reduced forms of RatFuns, as the pair builders take them."""
    return tuple(reduce_form(f) for f in fs)


def _ratfuns(pair):
    return tuple(v.to_ratfun() for v in pair)


def test_lemma_witness_examples():
    c, r = construct(5, 2, Partition(2, 2, 1))
    assert str(c.f1) == "(x^4 + 1) / (x)"      # x^3 + 1/x
    assert str(c.f2) == "(a*x^4 + 1) / (x)"    # a*x^3 + 1/x
    assert r.lemma == "S2" and r.params == {"a": 3, "b": 1, "c": 3}

    c, r = construct(9, 5, Partition(3, 3, 3))
    assert r.lemma == "S5bal" and r.params["a"] == 3
    assert c.f1 == parse_ratfun(GF4, "x^3 + 1/(x^3)")
    assert c.f2 == parse_ratfun(GF4, "x^3 + 1/(x+1) + 1/(x+a)")

    c, r = construct(1, 1, Partition(1, 0, 0))
    assert (str(c.f1), str(c.f2)) == ("x", "(1) / (x)")

    c, r = construct(7, 0, Partition(3, 3, 1))
    assert (str(c.f1), str(c.f2)) == ("x^7", "x^7 + x^3")
    assert r.lemma == "S0"


def test_refuses_impossible_with_verdict():
    with pytest.raises(NotRealizable) as ei:
        construct(9, 2, Partition(3, 3, 3))
    assert ei.value.verdict.clause == "iii"


def test_make_hyperelliptic_examples():
    # x^3 + 1/x
    assert str(make_hyperelliptic(2, 1).to_ratfun()) == "(x^4 + 1) / (x)"
    assert str(make_hyperelliptic(2, 0).to_ratfun()) == "x^5"
    f = make_hyperelliptic(3, 3, at_infinity=False).to_ratfun()
    # a budget of 4 fills from the places of degree 2 and more alone, so
    # no rational point is spent: x^2+x+1 and a cubic leave 1, and only
    # x^4+x+1 fills it
    assert f == parse_ratfun(GF2, "1/(x^4+x+1)")


def test_make_hyperelliptic_contract(rng):
    from kleinfour.ascurve import ASCurve
    from kleinfour.ratfun import INFINITY
    for _ in range(60):
        h = rng.randrange(7)
        s = rng.randrange(h + 1)
        at_inf = rng.random() < 0.5
        f = make_hyperelliptic(h, s, at_infinity=at_inf).to_ratfun()
        curve = ASCurve(f)
        assert curve.invariants == (h, s)
        places = f.pole_divisor().places()
        assert (INFINITY in places) == at_inf
        assert all(n % 2 == 1 for (_, n) in f.pole_divisor())


def _places_of_degree(q, d):
    # necklace count of monic irreducibles of degree d over GF(q)
    def mobius(n):
        sign, k = 1, 2
        while k * k <= n:
            if n % k == 0:
                n //= k
                if n % k == 0:
                    return 0
                sign = -sign
            k += 1
        return -sign if n > 1 else sign
    return sum(mobius(e) * q ** (d // e)
               for e in range(1, d + 1) if d % e == 0) // d


def _has_room(q, h, s, avoided_by_degree, at_infinity, infinity_avoided):
    """Whether places of P^1 over GF(q) outside the avoided ones can carry
    the poles of a genus-h, 2-rank-s pack, judged from place counts."""
    free = {d: _places_of_degree(q, d) - avoided_by_degree.get(d, 0)
            for d in range(1, s + 2)}
    budget = s
    if at_infinity:
        if infinity_avoided:
            return False
    elif h > s:
        if free[1] == 0:
            return False
        free[1] -= 1
    else:
        budget = s + 1
    reach = {0}
    for d, n in free.items():
        for _ in range(min(n, budget // d)):
            reach |= {t + d for t in reach if t + d <= budget}
    return budget in reach


@pytest.mark.parametrize("field", [GF2, GF4], ids=str)
def test_make_hyperelliptic_contract_with_avoid(rng, field):
    from kleinfour.ascurve import ASCurve
    from kleinfour.poly import monic_irreducibles
    from kleinfour.ratfun import INFINITY, Place
    small = [Place(q) for q in monic_irreducibles(field, 2)]
    rational = [pl for pl in small if pl.degree == 1]
    quadratic = [pl for pl in small if pl.degree == 2]
    refused = 0
    for _ in range(60):
        h = rng.randrange(7)
        s = rng.randrange(h + 1)
        at_inf = rng.random() < 0.5
        # any rational points and any number of the places of degree 2, up
        # to all of them, so some budgets need places of degree 3 and more
        avoid = {pl for pl in rational if rng.random() < 0.5}
        avoid |= set(rng.sample(quadratic,
                                rng.randrange(len(quadratic) + 1)))
        if rng.random() < 0.2:
            avoid.add(INFINITY)
        room = _has_room(field.order, h, s,
                         {1: len(avoid & set(rational)),
                          2: len(avoid & set(quadratic))},
                         at_inf, INFINITY in avoid)
        try:
            f = make_hyperelliptic(h, s, avoid=frozenset(avoid),
                                   at_infinity=at_inf, field=field)
            f = f.to_ratfun()
        except ValueError:
            assert not room, (h, s, at_inf, sorted(map(str, avoid)))
            refused += 1
            continue
        assert room
        assert f.field == field
        assert ASCurve(f).invariants == (h, s)
        places = f.pole_divisor().places()
        assert not places & avoid
        assert (INFINITY in places) == at_inf
        assert all(n % 2 == 1 for (_, n) in f.pole_divisor())
    assert 0 < refused < 60


def test_make_hyperelliptic_refuses_a_full_field():
    from kleinfour.ratfun import Place
    avoid = {Place(parse_ratfun(GF2, "x").num),
             Place(parse_ratfun(GF2, "x+1").num)}
    with pytest.raises(ValueError, match="rational"):
        make_hyperelliptic(2, 1, avoid=avoid, at_infinity=False, field=GF2)


def test_make_hyperelliptic_past_its_first_pool():
    # every place of degree 1 and 2 avoided: the first pool holds only
    # places of degree 3, and the budget of 4 needs one of degree 4
    from kleinfour.ascurve import ASCurve
    from kleinfour.poly import monic_irreducibles
    from kleinfour.ratfun import Place
    avoid = frozenset(Place(q) for q in monic_irreducibles(GF4, 2))
    assert len(avoid) == 10
    f = make_hyperelliptic(3, 3, avoid, at_infinity=False, field=GF4)
    f = f.to_ratfun()
    assert ASCurve(f).invariants == (3, 3)
    assert not f.pole_divisor().places() & avoid


def test_make_hyperelliptic_avoid(rng):
    f1 = make_hyperelliptic(3, 2)
    avoid = f1.to_ratfun().pole_divisor().places()
    f2 = make_hyperelliptic(2, 2, avoid=avoid, at_infinity=False)
    shared = avoid & f2.to_ratfun().pole_divisor().places()
    assert not shared


def test_unbalanced_even_examples():
    pair, r = construct_unbalanced_even(4, 2)
    c = KleinFourCover(*pair)
    assert c.type == Partition(2, 2, 0) and c.invariants == (4, 2)
    assert c.f1 == parse_ratfun(GF2, "x^3 + 1/x")
    assert str(c.f2) == "x"
    c = KleinFourCover(*construct_unbalanced_even(2, 0)[0])
    assert str(c.f1) == "x^3" and str(c.f2) == "x"
    c = KleinFourCover(*construct_unbalanced_even(4, 4)[0])
    assert c.type == Partition(2, 2, 0) and c.invariants == (4, 4)
    with pytest.raises(ValueError):
        construct_unbalanced_even(5, 2)


def test_unbalanced_odd_contract():
    for (g, s, p) in [(1, 1, Partition(1, 0, 0)),
                      (5, 3, Partition(3, 1, 1)),
                      (5, 5, Partition(3, 1, 1)),
                      (9, 7, Partition(5, 3, 1)),
                      (11, 11, Partition(6, 4, 1))]:
        pair, r = construct_unbalanced_odd(g, s, p)
        c = KleinFourCover(*pair)
        assert c.invariants == (g, s) and c.type == p
        assert r.lemma == "UNB_ODD"


def test_half_minus_contract():
    for (g, s, p) in [(7, 2, Partition(3, 3, 1)),
                      (7, 4, Partition(3, 3, 1)),
                      (9, 6, Partition(4, 3, 2)),
                      (11, 8, Partition(5, 5, 1))]:
        c = KleinFourCover(*construct_half_minus(g, s, p)[0])
        assert c.invariants == (g, s) and c.type == p
    with pytest.raises(ValueError):
        construct_half_minus(5, 0, Partition(2, 2, 1))


@pytest.mark.parametrize("call, message", [
    (lambda: make_hyperelliptic(2, 3), "2-rank <= genus"),
    (lambda: make_hyperelliptic(2, -1), "2-rank <= genus"),
    (lambda: make_hyperelliptic(2, 1, avoid={INFINITY}), "avoiding it"),
    (lambda: construct_unbalanced_odd(4, 3, Partition(2, 1, 1)), "odd g"),
    (lambda: construct_unbalanced_odd(5, 2, Partition(3, 1, 1)), "odd g"),
    (lambda: construct_unbalanced_odd(5, 3, Partition(2, 2, 1)),
     r"does not contain \(g\+1\)/2"),
    (lambda: construct_unbalanced_odd(5, 7, Partition(3, 1, 1)),
     "does not split"),
    (lambda: construct_half_minus(6, 2, Partition(3, 2, 1)), "odd g"),
    (lambda: construct_half_minus(7, 3, Partition(3, 3, 1)), "even sigma"),
    (lambda: construct_half_minus(7, 0, Partition(3, 3, 1)), r"2\.\.4"),
    (lambda: construct_half_minus(7, 6, Partition(3, 3, 1)), r"2\.\.4"),
    (lambda: construct_half_minus(7, 2, Partition(4, 2, 1)),
     r"does not contain \(g-1\)/2"),
    # k = 1 cannot go to a companion of genus 2 or more and leave the other
    # one a pack: the cell is realizable, and `construct` builds it another way
    (lambda: construct_half_minus(9, 2, Partition(4, 3, 2)),
     "does not split"),
])
def test_families_refuse_input_outside_them(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_sigma0_schemes():
    c = KleinFourCover(*construct_sigma0(Partition(2, 2, 2))[0])
    assert (str(c.f1), str(c.f2)) == ("x^5", "a*x^5")
    c = KleinFourCover(*construct_sigma0(Partition(0, 0, 0))[0])
    assert (str(c.f1), str(c.f2)) == ("x", "a*x")
    with pytest.raises(NotRealizable):
        construct_sigma0(Partition(3, 2, 1))


def test_place_step_examples():
    p0 = _forms(parse_ratfun(GF4, "1/x"), parse_ratfun(GF4, "a/(x)"))
    assert KleinFourCover(*p0).type == Partition(0, 0, 0)
    # k = 1 over GF(4) is the paper's step: x and a*x at infinity
    p1, places = place_step(p0, 1)
    assert [str(pl) for pl in places] == ["infinity"]
    assert _ratfuns(p1) == (parse_ratfun(GF4, "x + 1/x"),
                            parse_ratfun(GF4, "a*x + a/x"))
    c1 = KleinFourCover(*p1)
    assert c1.type == Partition(1, 1, 1) and c1.invariants == (3, 3)
    # k = 2 takes the first free place of degree 2, with r = x
    p2, places = place_step(p0, 2)
    assert [str(pl) for pl in places] == ["x^2 + x + a"]
    assert p2[1].to_ratfun() == parse_ratfun(GF4, "a/x + x/(x^2+x+a)")
    c2 = KleinFourCover(*p2)
    assert c2.type == Partition(2, 2, 2) and c2.invariants == (6, 6)
    # GF(2) has no room at k = 1: its residue fields of degree 1 cannot
    # hold 1, r and 1 + r, so the pair moves to GF(4)
    over_f2 = _forms(parse_ratfun(GF2, "1/x"), parse_ratfun(GF2, "1/(x+1)"))
    stepped, places = place_step(over_f2, 1)
    assert stepped[0].field == GF4 and [str(pl) for pl in places] == [
        "infinity"]
    # at k = 2 it stays over GF(2), at x^2 + x + 1
    stepped, places = place_step(over_f2, 2)
    assert stepped[0].field == GF2 and [str(pl) for pl in places] == [
        "x^2 + x + 1"]
    # poles at all five rational places of GF(4) leave no room at k = 1
    full = _forms(parse_ratfun(GF4, "x + 1/x + 1/(x+1)"),
                  parse_ratfun(GF4, "1/(x+a) + 1/(x+a+1)"))
    base = KleinFourCover(*full)
    stepped, places = place_step(full, 1)
    assert stepped[0].field.order == 16 and places[0].degree == 1
    assert KleinFourCover(*stepped).invariants == tuple(
        v + 3 for v in base.invariants)
    stepped, places = place_step(full, 2)
    assert stepped[0].field == GF4 and places[0].degree == 2


def test_place_step_refuses_a_negative_k():
    # no budget below 0 can be filled, so the search once lifted the pair
    # field after field without end
    pair = _forms(parse_ratfun(GF4, "1/x"), parse_ratfun(GF4, "a/(x)"))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="k >= 0"):
        place_step(pair, -1)
    assert time.perf_counter() - start < 1
    assert place_step(pair, 0) == (pair, [])


def test_lift_pair_reduces_split_places():
    # x^2+x+1 splits over GF(4), where 1/(x^2+x+1)^3 has a term of even
    # order at each factor: the lift is reduced again, not mapped digitwise
    pair = _forms(parse_ratfun(GF2, "1/(x^2+x+1)^3"), parse_ratfun(GF2, "x"))
    lifted = lift_pair(pair, GF4)
    raw = parse_ratfun(GF4, "1/(x^2+x+1)^3")
    assert lifted == (reduce_form(raw), reduce_form(parse_ratfun(GF4, "x")))
    assert lifted[0] != principal_parts(raw) and len(lifted[0].places) == 2
    assert KleinFourCover(*lifted).invariants == KleinFourCover(
        *pair).invariants


def _step_has_room(pair, k):
    """Whether distinct places of total degree k, poles of neither function
    and rational only over a field containing GF(4), exist; judged from
    place counts."""
    F = pair[0].field
    poles = set().union(*(f.to_ratfun().pole_divisor().places()
                          for f in pair))
    reach = {0}
    for d in range(1 if F.degree % 2 == 0 else 2, k + 1):
        # infinity is one more place of degree 1
        free = (_places_of_degree(F.order, d) + (d == 1)
                - sum(pl.degree == d for pl in poles))
        for _ in range(min(free, k // d)):
            reach |= {t + d for t in reach if t + d <= k}
    return k in reach


@pytest.mark.parametrize("field", [GF2, GF4], ids=str)
def test_place_step_contract(rng, field):
    from conftest import rand_cover
    lifted = 0
    for k in range(1, 7):
        for _ in range(200 // k):
            c = rand_cover(rng, field, max_deg=4)
            g, s = c.invariants
            stepped, places = place_step(c.forms[:2], k)
            # the field grows, by doubling, only while there is no room
            pair = c.forms[:2]
            while not _step_has_room(pair, k):
                pair = lift_pair(pair, BinaryField.default(
                    2 * pair[0].field.degree))
            assert stepped[0].field == pair[0].field
            lifted += pair[0].field != field
            poles = set().union(*(f.to_ratfun().pole_divisor().places()
                                  for f in pair))
            assert not poles & set(places)
            assert len(set(places)) == len(places)
            assert sum(pl.degree for pl in places) == k
            cover = KleinFourCover(*stepped)
            assert cover.invariants == (g + 3 * k, s + 3 * k)
            assert cover.type == Partition(*(e + k for e in c.type.entries))
    # every GF(2) pair lifts at k = 1
    assert field != GF2 or lifted >= 200


def _first_fit_by_brute_force(places, budget):
    # the lexicographically first index set: what a first-fit search in
    # list order returns
    found = [idx for n in range(len(places) + 1)
             for idx in itertools.combinations(range(len(places)), n)
             if sum(places[i].degree for i in idx) == budget]
    return [places[i] for i in min(found)] if found else None


def test_fill_degrees_is_first_fit(rng):
    for _ in range(300):
        places = [SimpleNamespace(degree=rng.randint(1, 5))
                  for _ in range(rng.randrange(11))]
        budget = rng.randrange(16)
        assert _fill_degrees(places, budget) == _first_fit_by_brute_force(
            places, budget)


def test_fill_degrees_refuses_an_odd_budget_at_once():
    # 26 places of degree 2 can never sum to an odd budget; without the
    # record of failed (start, budget) pairs this search took seconds
    places = [SimpleNamespace(degree=2) for _ in range(26)]
    start = time.perf_counter()
    assert _fill_degrees(places, 27) is None
    assert _fill_degrees(places, 26) == places[:13]
    assert time.perf_counter() - start < 0.1


def test_exhaustive_roundtrip_small():
    for g in range(9):
        for p in partitions_of(g):
            for s in range(g + 1):
                if not realizable(g, s, p).exists:
                    continue
                cover, recipe = construct(g, s, p)
                assert cover.invariants == (g, s)
                assert cover.type == p
                assert cover.field.degree <= 2


def test_recipe_params_odd_and_positive():
    # scheme parameters that name pole orders are odd and at least 1
    order_params = {"a", "b", "c", "d"}
    for g in range(11):
        for p in partitions_of(g):
            for s in range(g + 1):
                if not realizable(g, s, p).exists:
                    continue
                _, recipe = construct(g, s, p)
                stack = [recipe]
                while stack:
                    r = stack.pop()
                    if r.base is not None:
                        stack.append(r.base)
                    if r.lemma.startswith("S"):
                        for k, v in r.params.items():
                            if k in order_params:
                                assert v >= 1 and v % 2 == 1, (r.lemma, k, v)


def test_recipe_json_roundtrip():
    _, recipe = construct(12, 9, Partition(5, 4, 3))
    doc = recipe.to_json()
    assert doc["lemma"] == recipe.lemma
    tags = recipe.tags()
    assert tags[0] == "INDUCT" or tags[0] in {"UNB_ODD", "HALF_MINUS"}


def test_witness_fields_from_genus_13():
    for g in range(13, 17):
        for p in partitions_of(g):
            for s in range(g + 1):
                if realizable(g, s, p).exists:
                    cover, recipe = construct(g, s, p)
                    assert cover.field.degree <= 2, (g, s, p, recipe.tags())


def _realizable_cells(max_g):
    for g in range(max_g + 1):
        for p in partitions_of(g):
            for s in range(g + 1):
                if realizable(g, s, p).exists:
                    yield g, s, p


# sha256 over the witness and recipe JSON of the 255 realizable cells with
# g <= 12, in the order of _realizable_cells; recorded when one place step
# replaced the +3 chain and pole packs began to fill from places of degree
# 2 and more before rational ones
WITNESSES_SHA256_G12 = (
    "f82a1cbbea90b84d48e29e4e5a1c5a54568eb22b4147cfabbc938f9470b637fd")


def test_witnesses_pinned_through_g12():
    digest = hashlib.sha256()
    cells = 0
    for g, s, p in _realizable_cells(12):
        cover, recipe = construct(g, s, p)
        digest.update(json.dumps({"w": cover.to_json(),
                                  "r": recipe.to_json()},
                                 sort_keys=True).encode())
        cells += 1
    assert cells == 255
    assert digest.hexdigest() == WITNESSES_SHA256_G12


def test_term_builders_match_reduce_form():
    # each term construct writes is already canonical: it equals the
    # reduction of the same term parsed as a RatFun
    for F in (GF2, GF4, BinaryField.default(3)):
        for k in (1, 3, 5, 9):
            for c in range(1, F.order):
                elt = f"({F.format_elt(c)})"
                assert _xk(F, k, c) == reduce_form(
                    parse_ratfun(F, f"{elt}*x^{k}"))
                assert _inv_xk(F, k, c) == reduce_form(
                    parse_ratfun(F, f"{elt}/x^{k}"))
        for q in monic_irreducibles(F, 3 if F.order < 8 else 2):
            residues = [None] + [Poly.const(F, c) for c in range(1, F.order)]
            residues += [Poly.monomial(F, d) for d in range(1, q.degree)]
            for e in (1, 3, 5):
                for r in residues:
                    text = "1" if r is None else str(r)
                    assert _pole(q, e, r) == reduce_form(
                        parse_ratfun(F, f"({text})/({q})^{e}")), (q, e, r)


def test_scheme_and_step_forms_are_reduced():
    # construct sums terms as reduced forms and never reduces them; every
    # pair a scheme or the step returns must already be canonical
    for g, s, p in _realizable_cells(12):
        k = 0
        while (built := _direct(g - 3 * k, s - 3 * k, Partition(
                *(e - k for e in p.entries)))) is None:
            k += 1
        pairs = [built[0]]
        if k:
            pairs.append(place_step(built[0], k)[0])
        for pair in pairs:
            for v in pair:
                assert reduce_form(v.to_ratfun()) == v, (g, s, p, k)


def test_one_cover_per_induction_level(monkeypatch):
    module = importlib.import_module("kleinfour.construct")
    built = []

    def counting(f1, f2):
        built.append((f1, f2))
        return KleinFourCover(f1, f2)

    monkeypatch.setattr(module, "KleinFourCover", counting)
    for g, s, p in _realizable_cells(12):
        built.clear()
        _, recipe = construct(g, s, p)
        assert recipe.tags().count("INDUCT") <= 1
        # the base and the step are built as pairs; only the witness is a
        # cover
        assert len(built) == 1, (g, s, p, recipe.tags())


def test_construct_stops_at_the_genus_cap():
    from kleinfour.klein4 import MAX_GENUS
    g = MAX_GENUS
    third = g // 3
    cover, recipe = construct(g, 0, Partition(third, third, g - 2 * third))
    assert cover.invariants == (g, 0) and recipe.lemma == "S0"
    with pytest.raises(ValueError, match=f"up to {MAX_GENUS}"):
        construct(g + 1, g + 1, Partition(g + 1 - 2 * third, third, third))
    with pytest.raises(ValueError, match=f"up to {MAX_GENUS}"):
        construct(10 * g, 0, Partition(5 * g, 5 * g, 0))


# each raised ValueError ("no room in GF(4) for simple poles") while the
# pole packs filled their budgets first-fit over rational points too
ONCE_REFUSED = [(33, 31, (17, 13, 3)), (37, 31, (19, 13, 5)),
                (38, 34, (19, 14, 5)), (53, 31, (27, 13, 13)),
                (90, 88, (45, 41, 4))]


@pytest.mark.parametrize("cell", ONCE_REFUSED, ids=str)
def test_once_refused_cells_construct(cell):
    g, s, entries = cell
    cover, _ = construct(g, s, Partition(*entries))
    assert cover.invariants == (g, s) and cover.field.degree <= 2


def test_long_step_is_quick():
    # a step of k = 88 once spent most of a minute in the place fill
    start = time.perf_counter()
    cover, recipe = construct(305, 275, Partition(109, 102, 94))
    assert recipe.params["k"] == 88
    assert time.perf_counter() - start < 1


def _sampled_cells(seed, count, lo, hi):
    """count realizable cells with lo <= g <= hi, drawn from one seed."""
    rng = random.Random(seed)
    cells = []
    while len(cells) < count:
        g = rng.randint(lo, hi)
        p = rng.choice(list(partitions_of(g)))
        s = rng.randint(0, g)
        if realizable(g, s, p).exists:
            cells.append((g, s, p))
    return cells


def test_sampled_cells_up_to_the_cap_construct():
    from kleinfour.klein4 import MAX_GENUS
    slowest = total = 0
    for g, s, p in _sampled_cells(16, 120, 53, MAX_GENUS):
        start = time.perf_counter()
        cover, recipe = construct(g, s, p)
        took = time.perf_counter() - start
        slowest, total = max(slowest, took), total + took
        assert cover.field.degree <= 4, (g, s, p, recipe.tags())
    # about 3 s in all and 0.2 s for the slowest cell on a 2-core Xeon
    assert slowest < 2 and total < 30, (slowest, total)
