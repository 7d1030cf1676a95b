import hashlib
import importlib
import json

import pytest

from kleinfour.construct import (NotRealizable, construct,
                                 construct_half_minus, construct_sigma0,
                                 construct_unbalanced_even,
                                 construct_unbalanced_odd, induct_step,
                                 lift_pair, make_hyperelliptic,
                                 normalize_infinity)
from kleinfour.field import GF2, GF4, BinaryField
from kleinfour.klein4 import KleinFourCover, Partition, partitions_of
from kleinfour.ratfun import parse_ratfun
from kleinfour.realize import realizable


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
    assert str(make_hyperelliptic(2, 1)) == "(x^4 + 1) / (x)"  # x^3 + 1/x
    assert str(make_hyperelliptic(2, 0)) == "x^5"
    f = make_hyperelliptic(3, 3, at_infinity=False)
    # 1/x + 1/(x+1) + 1/(x^2+x+1) collapses to a single clean fraction
    assert f == parse_ratfun(GF2, "1/x + 1/(x+1) + 1/(x^2+x+1)")


def test_make_hyperelliptic_contract(rng):
    from kleinfour.ascurve import ASCurve
    from kleinfour.ratfun import INFINITY
    for _ in range(60):
        h = rng.randrange(7)
        s = rng.randrange(h + 1)
        at_inf = rng.random() < 0.5
        f = make_hyperelliptic(h, s, at_infinity=at_inf)
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
    assert ASCurve(f).invariants == (3, 3)
    assert not f.pole_divisor().places() & avoid


def test_make_hyperelliptic_avoid(rng):
    f1 = make_hyperelliptic(3, 2)
    avoid = f1.pole_divisor().places()
    f2 = make_hyperelliptic(2, 2, avoid=avoid, at_infinity=False)
    shared = avoid & f2.pole_divisor().places()
    assert not shared


def test_unbalanced_even_examples():
    c, r = construct_unbalanced_even(4, 2)
    assert c.type == Partition(2, 2, 0) and c.invariants == (4, 2)
    assert c.f1 == parse_ratfun(GF2, "x^3 + 1/x")
    assert str(c.f2) == "x"
    c, _ = construct_unbalanced_even(2, 0)
    assert str(c.f1) == "x^3" and str(c.f2) == "x"
    c, _ = construct_unbalanced_even(4, 4)
    assert c.type == Partition(2, 2, 0) and c.invariants == (4, 4)
    with pytest.raises(ValueError):
        construct_unbalanced_even(5, 2)


def test_unbalanced_odd_contract():
    for (g, s, p) in [(1, 1, Partition(1, 0, 0)),
                      (5, 3, Partition(3, 1, 1)),
                      (5, 5, Partition(3, 1, 1)),
                      (9, 7, Partition(5, 3, 1)),
                      (11, 11, Partition(6, 4, 1))]:
        c, r = construct_unbalanced_odd(g, s, p)
        assert c.invariants == (g, s) and c.type == p
        assert r.lemma == "UNB_ODD"


def test_half_minus_contract():
    for (g, s, p) in [(7, 2, Partition(3, 3, 1)),
                      (7, 4, Partition(3, 3, 1)),
                      (9, 6, Partition(4, 3, 2)),
                      (11, 8, Partition(5, 5, 1))]:
        c, r = construct_half_minus(g, s, p)
        assert c.invariants == (g, s) and c.type == p
    with pytest.raises(ValueError):
        construct_half_minus(5, 0, Partition(2, 2, 1))


def test_sigma0_schemes():
    c, _ = construct_sigma0(Partition(2, 2, 2))
    assert (str(c.f1), str(c.f2)) == ("x^5", "a*x^5")
    c, _ = construct_sigma0(Partition(0, 0, 0))
    assert (str(c.f1), str(c.f2)) == ("x", "a*x")
    with pytest.raises(NotRealizable):
        construct_sigma0(Partition(3, 2, 1))


def test_induct_step_examples():
    p0 = (parse_ratfun(GF4, "1/x"), parse_ratfun(GF4, "a/(x)"))
    p1 = induct_step(p0)
    c1 = KleinFourCover(*p1)
    assert c1.type == Partition(1, 1, 1) and c1.invariants == (3, 3)
    p1n, _ = normalize_infinity(p1)
    c2 = KleinFourCover(*induct_step(p1n))
    assert c2.type == Partition(2, 2, 2) and c2.invariants == (6, 6)


def test_induct_step_preconditions():
    over_f2 = (parse_ratfun(GF2, "1/x"), parse_ratfun(GF2, "1/(x+1)"))
    with pytest.raises(ValueError, match="GF"):
        induct_step(over_f2)
    with_inf = (parse_ratfun(GF4, "x"), parse_ratfun(GF4, "a*x"))
    with pytest.raises(ValueError, match="infinity"):
        induct_step(with_inf)


def test_induct_coherence_random(rng):
    from conftest import rand_cover
    done = 0
    while done < 200:
        c = rand_cover(rng, GF4, max_deg=4)
        base_g, base_s = c.invariants
        base_type = c.type
        work, _ = normalize_infinity((c.f1, c.f2))
        F = work[0].field
        if F.degree % 2:
            work = lift_pair(work, BinaryField.default(F.degree * 2))
        if work[0].field.degree > 4:
            continue
        done += 1
        stepped = KleinFourCover(*induct_step(work))
        assert stepped.invariants == (base_g + 3, base_s + 3)
        assert stepped.type == Partition(*(e + 1 for e in base_type.entries))


def test_normalize_infinity():
    pair = (parse_ratfun(GF4, "x"), parse_ratfun(GF4, "a*x"))
    moved, beta = normalize_infinity(pair)
    assert beta == 0
    cn = KleinFourCover(*moved)
    assert cn.type == Partition(0, 0, 0)
    assert all(f.num.degree <= f.den.degree for f in (cn.f1, cn.f2, cn.f3))

    pair = (parse_ratfun(GF4, "x^3 + 1/x"), parse_ratfun(GF4, "a*x^3 + 1/x"))
    moved, beta = normalize_infinity(pair)
    assert beta == 1  # 0 is a pole, 1 is the smallest free point
    assert KleinFourCover(*moved).invariants == (5, 2)

    # every point of GF(2) is a pole, so the pair moves over GF(4)
    pair = (parse_ratfun(GF2, "x^3 + 1/x"), parse_ratfun(GF2, "1/(x+1)"))
    moved, beta = normalize_infinity(pair)
    assert beta == 2 and moved[0].field == moved[1].field == GF4
    c, cn = KleinFourCover(*pair), KleinFourCover(*moved)
    assert (cn.invariants, cn.type) == (c.invariants, c.type)

    no_inf = (parse_ratfun(GF2, "1/x"), parse_ratfun(GF2, "1/(x+1)"))
    same, beta = normalize_infinity(no_inf)
    assert beta is None and same is no_inf


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
                    if r.lemma.startswith("S") and r.lemma != "S5gen":
                        for k, v in r.params.items():
                            if k in order_params:
                                assert v >= 1 and v % 2 == 1, (r.lemma, k, v)


def test_recipe_json_roundtrip():
    _, recipe = construct(12, 9, Partition(5, 4, 3))
    doc = recipe.to_json()
    assert doc["lemma"] == recipe.lemma
    tags = recipe.tags()
    assert tags[0] == "INDUCT" or tags[0] in {"UNB_ODD", "HALF_MINUS"}


# GF(16) witnesses per genus before make_hyperelliptic stopped doubling
# the field: a bound, not a target
GF16_WITNESSES_BEFORE = {13: 4, 14: 5, 15: 11, 16: 13}


def test_witness_fields_from_genus_13():
    for g, before in GF16_WITNESSES_BEFORE.items():
        over_gf16 = 0
        for p in partitions_of(g):
            for s in range(g + 1):
                if not realizable(g, s, p).exists:
                    continue
                cover, recipe = construct(g, s, p)
                if "INDUCT" not in recipe.tags():
                    assert cover.field.degree <= 2, (g, s, p, recipe.tags())
                over_gf16 += cover.field.degree > 2
        assert over_gf16 <= before, (g, over_gf16)


def _realizable_cells(max_g):
    for g in range(max_g + 1):
        for p in partitions_of(g):
            for s in range(g + 1):
                if realizable(g, s, p).exists:
                    yield g, s, p


# sha256 over the witness and recipe JSON of the 255 realizable cells with
# g <= 12, in the order of _realizable_cells; recorded while the induction
# chain still ran on reduced covers, so running it on the unreduced pair
# must change no witness
WITNESSES_SHA256_G12 = (
    "c63503ffce820ee51209d97ea1cda4e3f1700bc236db10605c7689f5bb1df993")


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
        levels = sum(t in ("INDUCT", "S5gen") for t in recipe.tags())
        assert len(built) == 1 + levels, (g, s, p, recipe.tags())


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
