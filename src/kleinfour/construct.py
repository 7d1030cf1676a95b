"""Explicit witnesses for every realizable (genus, 2-rank, type) cell.

Each small 2-rank has its own scheme of defining pairs built from monomial
poles at 0, 1, infinity (and, when a fourth rational point is needed, the
generator of GF(4)); 2-ranks of 6 and above reduce by 3 through the
induction f1 -> f1 + x, f2 -> f2 + a*x, which raises every quotient genus
by 1 and the 2-rank by 3.  The induction chain (lift, move the poles off
infinity, add x and a*x) runs on the defining pair itself, so each level
builds one KleinFourCover.  Every witness is checked against its target
invariants before it is returned; a failure raises InternalMismatch and
means a bug, not bad input.  Hyperelliptic pole packs come from one
builder, make_hyperelliptic, over the field it is given.

The recipes returned alongside the covers record which scheme fired and
with what parameters, nested through induction steps, so a derivation can
be replayed.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

from .field import GF2, GF4, BinaryField
from .klein4 import MAX_GENUS, KleinFourCover, Partition
from .poly import Poly, field_embedding, monic_irreducibles
from .ratfun import INFINITY, Place, RatFun
from .realize import realizable


class NotRealizable(ValueError):
    """Asked to construct an impossible cell; carries the verdict."""

    def __init__(self, g, sigma, p, verdict):
        super().__init__(
            f"no cover exists for (g={g}, sigma={sigma}, type={p}): "
            f"{verdict.citation}")
        self.verdict = verdict


class InternalMismatch(RuntimeError):
    """A constructed witness missed its target invariants (a bug)."""


@dataclass(frozen=True)
class Recipe:
    """Derivation record: scheme tag, integer parameters, nested base."""

    lemma: str
    params: dict = dfield(default_factory=dict)
    base: "Recipe | None" = None

    def to_json(self):
        out = {"lemma": self.lemma, "params": dict(self.params)}
        if self.base is not None:
            out["base"] = self.base.to_json()
        return out

    def tags(self):
        t = [self.lemma]
        if self.base is not None:
            t.extend(self.base.tags())
        return t


# -- small builders ---------------------------------------------------------

def _xk(F, k, c=1):
    """c * x^k as a RatFun."""
    return RatFun.from_poly(Poly.monomial(F, k, c))


def _inv_xk(F, k, c=1):
    """c / x^k."""
    return RatFun(Poly.const(F, c), Poly.monomial(F, k))


def _x_plus(F, cbits):
    return Poly.make(F, (cbits, 1))


def _alpha(F):
    """Image of the GF(4) generator in F (degree must be even)."""
    return field_embedding(GF4, F)(2)


def lift_pair(pair, target):
    """Re-express a defining pair (f1, f2) over a larger field."""
    emb = field_embedding(pair[0].field, target)
    return tuple(RatFun(f.num.map_field(target, emb),
                        f.den.map_field(target, emb)) for f in pair)


# -- pole packs (hyperelliptic building blocks) -----------------------------

def _fill_degrees(places, budget):
    # first-fit with backtracking, in list order
    if budget == 0:
        return []
    for i, pl in enumerate(places):
        d = pl.degree
        if d > budget:
            continue
        rest = _fill_degrees(places[i + 1:], budget - d)
        if rest is not None:
            return [pl] + rest
    return None


def make_hyperelliptic(h, s, avoid=frozenset(), at_infinity=True, field=GF2):
    """A reduced f over field with genus h, 2-rank s, and no pole in avoid.

    A pole of order 2(h-s)+1 goes at infinity when requested, else at the
    first free rational point (no such anchor when h = s), and simple poles
    of total degree s (s+1 without the infinity pole) supply the remaining
    geometric poles.  The simple poles go on places of degree 2 and more
    before rational ones, because each +3 induction step spends a rational
    point of the line on its new pole at infinity and GF(4) has only five.
    Raises ValueError when field has no room for the poles.
    """
    if not 0 <= s <= h:
        raise ValueError(f"need 0 <= 2-rank <= genus, got ({h}, {s})")
    if at_infinity and INFINITY in avoid:
        raise ValueError("asked for a pole at infinity while avoiding it")
    avoid_polys = {pl.poly for pl in avoid if pl.poly is not None}
    rational = [Place(q) for c in range(field.order)
                if (q := _x_plus(field, c)) not in avoid_polys]
    deep = 2 * (h - s) + 1
    budget = s
    if at_infinity:
        f = _xk(field, deep)
    elif h > s:
        if not rational:
            raise ValueError(f"no free rational point of {field} for the "
                             f"pole of order {deep}")
        f = RatFun.pole_at(rational.pop(0).poly, deep)
    else:
        f = RatFun.zero(field)
        budget = s + 1
    # the pool is a short ascending run of places of degree 2 and more; it
    # widens, in the same order, only when it cannot fill the budget
    wider = (Place(q) for q in monic_irreducibles(field, max(budget, 2))
             if q.degree > 1 and q not in avoid_polys)
    pool = []
    for pl in wider:
        pool.append(pl)
        if sum(q.degree for q in pool) >= 3 * (s + 2):
            break
    while (chosen := _fill_degrees(pool + rational, budget)) is None:
        pl = next(wider, None)
        if pl is None:
            raise ValueError(f"no room in {field} for simple poles of total "
                             f"degree {budget}")
        pool.append(pl)
    for pl in chosen:
        f = f + RatFun.pole_at(pl.poly, 1)
    return f


# -- the per-rank schemes ----------------------------------------------------

def construct_sigma0(p):
    """2-rank 0: all three quotients get a single pole at infinity."""
    g1, g2, g3 = p.entries
    if g1 != g2:
        raise NotRealizable(p.g, 0, p, realizable(p.g, 0, p))
    a = 2 * g1 + 1
    if g3 == g1:
        F = GF4
        f1 = _xk(F, a)
        f2 = _xk(F, a, 2)
        recipe = Recipe("S0", {"a": a})
    else:
        F = GF2
        c = 2 * g3 + 1
        f1 = _xk(F, a)
        f2 = _xk(F, a) + _xk(F, c)
        recipe = Recipe("S0", {"a": a, "c": c})
    return KleinFourCover(f1, f2), recipe


def _construct_sigma1(p):
    """2-rank 1: two single-pole quotients at distinct points."""
    _, p2, p3 = p.entries
    a = 2 * p2 + 1
    b = 2 * p3 + 1
    F = GF2
    return (KleinFourCover(_xk(F, a), _inv_xk(F, b)),
            Recipe("S1", {"a": a, "b": b}))


def _construct_sigma2(p):
    """2-rank 2: poles at 0 and infinity with a shared 1/x^b tail."""
    g1, g2, g3 = p.entries
    a = 2 * g3 + 1
    b = 2 * (g1 - g3) - 1
    c = 2 * (g2 + g3 - g1) + 1
    F = GF4
    f1 = _xk(F, a) + _inv_xk(F, b)
    f2 = _xk(F, c, 2) + _inv_xk(F, b)
    return KleinFourCover(f1, f2), Recipe("S2", {"a": a, "b": b, "c": c})


def _construct_sigma3(p):
    """2-rank 3: two shared places (0 and infinity) with partial
    cancellation at both."""
    g1, g2, g3 = p.entries
    s = 2 * g2 - 1
    t = 2 * (g2 + g3 - g1) - 1
    m = 2 * (g1 - g2) + 1
    F = GF4
    f1 = _xk(F, s) + _inv_xk(F, m)
    f2 = _xk(F, s) + _xk(F, t, 2) + _inv_xk(F, 1, 2)
    return KleinFourCover(f1, f2), Recipe("S3b", {"a": s, "b": m, "c": t})


def _construct_sigma4(p):
    g = p.g
    g1, g2, g3 = p.entries
    if g1 > g2:
        a = 2 * g2 - 1
        b = 2 * (g1 - g2) - 1
        c = 2 * (g2 + g3 - g1) + 1
        if a > c:
            F = GF2
            f1 = _xk(F, a) + _inv_xk(F, b) + RatFun.pole_at(_x_plus(F, 1), 1)
            f3 = _xk(F, c) + _inv_xk(F, b)
            return (KleinFourCover(f1, f1 + f3),
                    Recipe("S4a", {"a": a, "b": b, "c": c}))
        # a == c makes f1 + f3 drop its infinity pole; share the top
        # monomial with distinct leading coefficients instead
        F = GF4
        top = 2 * (g2 + g3 - g1) + 1
        u = 2 * (g1 - g3) - 1
        v = 2 * (g1 - g2) - 1
        f1 = _xk(F, top) + _inv_xk(F, u) + RatFun.pole_at(_x_plus(F, 1), v)
        f2 = _xk(F, top, 2) + _inv_xk(F, u)
        return (KleinFourCover(f1, f2),
                Recipe("S4a", {"a": top, "b": u, "c": v, "variant": 1}))
    if g3 >= 2:
        a = 2 * g1 - 1
        b = 2 * g3 - 3
        F = GF2
        f1 = _xk(F, a) + _inv_xk(F, 1)
        f3 = _xk(F, b) + _inv_xk(F, 1) + RatFun.pole_at(_x_plus(F, 1), 1)
        return KleinFourCover(f1, f1 + f3), Recipe("S4b", {"a": a, "b": b})
    if g3 == 0:
        # {g/2, g/2, 0}, g even
        F = GF4
        f1 = _xk(F, g - 3) + _inv_xk(F, 1) + RatFun.pole_at(_x_plus(F, 1), 1)
        f2 = _xk(F, 1, 2)
        return KleinFourCover(f1, f2), Recipe("S4c", {"a": g - 3})
    # {(g-1)/2, (g-1)/2, 1}, g odd >= 7; the second function must be a
    # cubic, not linear, to keep its quotient at genus 1
    F = GF4
    f1 = _xk(F, g - 4) + _inv_xk(F, 1) + RatFun.pole_at(_x_plus(F, 1), 1)
    f2 = _xk(F, 3, 2)
    return (KleinFourCover(f1, f2),
            Recipe("S4d", {"a": g - 4, "c": 3, "corrected": 1}))


def _construct_sigma5(p):
    g1, g2, g3 = p.entries
    if p.is_totally_balanced:
        a = g1
        if a % 2 == 1:
            F = GF4
            f1 = _xk(F, a) + _inv_xk(F, a)
            f2 = (_xk(F, a) + RatFun.pole_at(_x_plus(F, 1), a - 2)
                  + RatFun.pole_at(_x_plus(F, 2), 1))
            return KleinFourCover(f1, f2), Recipe("S5bal", {"a": a})
        # even a: partial cancellation at two points, all over GF(2)
        F = GF2
        f1 = (_xk(F, 1) + _inv_xk(F, a - 1)
              + RatFun.pole_at(_x_plus(F, 1), a - 1))
        f2 = (_xk(F, 1) + _inv_xk(F, a - 3)
              + RatFun.pole_at(_x_plus(F, 1), a + 1))
        return (KleinFourCover(f1, f2),
                Recipe("S5bal", {"a": a, "variant": 1}))
    phat = Partition(g1 - 1, g2 - 1, g3 - 1)
    base_cover, base_recipe = _construct_sigma2(phat)
    cover, params = _inducted(base_cover)
    return cover, Recipe("S5gen", params, base=base_recipe)


# -- the unbalanced families and the (g-1)/2 family --------------------------

def construct_unbalanced_even(g, sigma):
    """Type {g/2, g/2, 0}: a hyperelliptic quotient plus a linear twist.

    The twist is x over GF(2) while the hyperelliptic pole at infinity has
    order 3 or more; at sigma = g that pole is simple and x would cancel
    it, so the twist is a*x over GF(4).
    """
    if g % 2 or sigma % 2 or not 0 <= sigma <= g:
        raise ValueError(f"need even g and even 0 <= sigma <= g, "
                         f"got ({g}, {sigma})")
    k = sigma // 2
    F, c = (GF2, 1) if 2 * k < g else (GF4, _alpha(GF4))
    f1 = make_hyperelliptic(g // 2, k, field=F)
    return (KleinFourCover(f1, _xk(F, 1, c)),
            Recipe("UNB_EVEN", {"k1": k}))


def construct_unbalanced_odd(g, sigma, p):
    """Unbalanced odd type: two hyperelliptic quotients with disjoint poles.

    Both functions are pole packs over GF(4) with no pole at infinity, so
    the third quotient, their sum, has genus (g+1)/2.  At sigma = 3 the
    paper's pair is x^a + 1/(x+1) and 1/x^b over GF(2), with a = 2*g2 - 1
    and b = 2*g3 + 1; the packs put the same pole orders at finite points.
    """
    if g % 2 == 0 or sigma % 2 == 0:
        raise ValueError(f"need odd g and odd sigma, got ({g}, {sigma})")
    if p.g != g or 2 * p.entries[0] != g + 1:
        raise ValueError(f"type {p} does not contain (g+1)/2 for g={g}")
    _, ga, gb = p.entries
    k = (sigma - 1) // 2
    ka = min(ga, k)
    kb = k - ka
    if kb > gb:
        raise ValueError(f"2-rank {sigma} does not split over type {p}")
    f1 = make_hyperelliptic(ga, ka, at_infinity=False, field=GF4)
    f2 = make_hyperelliptic(gb, kb, avoid=f1.pole_divisor().places(),
                            at_infinity=False, field=GF4)
    return (KleinFourCover(f1, f2),
            Recipe("UNB_ODD", {"k1": ka, "k2": kb}))


def construct_half_minus(g, sigma, p):
    """Type containing (g-1)/2, even 2-rank: cubic poles at infinity plus
    disjoint proper-fraction pole packs."""
    if g % 2 == 0 or sigma % 2:
        raise ValueError(f"need odd g and even sigma, got ({g}, {sigma})")
    if sigma == 0 or sigma > g - 3:
        raise ValueError(
            f"this family only reaches even 2-ranks 2..{g - 3}, not {sigma}")
    if p.g != g or 2 * p.entries[0] != g - 1:
        raise ValueError(f"type {p} does not contain (g-1)/2 for g={g}")
    _, ga, gb = p.entries
    if gb < 1:
        raise ValueError(f"type {p} needs two positive companion genera")
    k = sigma // 2
    split = None
    for ka in range(min(ga - 1, k), -1, -1):
        kb = k - ka
        if kb < 0 or kb > max(gb - 1, 0):
            continue
        if (ka == 0 and ga != 1) or (kb == 0 and gb != 1):
            continue
        split = (ka, kb)
        break
    if split is None:
        raise ValueError(f"2-rank {sigma} does not split over type {p}")
    ka, kb = split
    F = GF4
    if ka == 0:
        h1 = RatFun.zero(F)
    else:
        h1 = make_hyperelliptic(ga - 2, ka - 1, at_infinity=False, field=F)
    if kb == 0:
        h2 = RatFun.zero(F)
    else:
        h2 = make_hyperelliptic(gb - 2, kb - 1,
                                avoid=h1.pole_divisor().places(),
                                at_infinity=False, field=F)
    f1 = _xk(F, 3) + h1
    f2 = _xk(F, 3, _alpha(F)) + h2
    return (KleinFourCover(f1, f2),
            Recipe("HALF_MINUS", {"k1": ka, "k2": kb}))


# -- normalization and induction ---------------------------------------------

def normalize_infinity(pair):
    """Mobius-move so that neither defining function has a pole at infinity.

    Substitutes x -> beta + 1/x for the smallest field point beta that is
    a pole of neither f1 nor f2 (a pole of f1 + f2 is a pole of one of
    them), extending the base field when every point is taken.  Returns
    (pair, beta_bits); invariants and type are untouched.
    """
    if all(f.num.degree <= f.den.degree for f in pair):
        return pair, None
    while True:
        F = pair[0].field
        for beta in range(F.order):
            if all(f.den.eval_at(beta) != 0 for f in pair):
                return tuple(f.mobius(beta, 1, 1, 0) for f in pair), beta
        pair = lift_pair(pair, BinaryField.default(F.degree * 2))


def induct_step(pair):
    """From (g, sigma, {g1,g2,g3}) to (g+3, sigma+3, {g1+1,g2+1,g3+1}).

    Adds x, a*x and (a+1)*x to the three defining functions; each quotient
    picks up one more simple pole at infinity.  Neither function of the
    pair may have a pole at infinity already, and they must live over a
    field containing GF(4).
    """
    f1, f2 = pair
    F = f1.field
    if F.degree % 2:
        raise ValueError("induction needs the GF(4) generator; lift first")
    if any(f.num.degree > f.den.degree for f in pair):
        raise ValueError(
            "a defining function has a pole at infinity; apply "
            "normalize_infinity first")
    return f1 + _xk(F, 1), f2 + _xk(F, 1, _alpha(F))


def _inducted(base_cover):
    """Lift, normalize, and induct the base's defining pair; returns
    (cover, recipe params), building the one cover of this level."""
    pair = (base_cover.f1, base_cover.f2)
    F = base_cover.field
    if F.degree % 2:
        pair = lift_pair(pair, BinaryField.default(F.degree * 2))
    params = {}
    pair, beta = normalize_infinity(pair)
    if beta is not None:
        params["n0"] = beta
    return KleinFourCover(*induct_step(pair)), params


# -- the dispatcher -----------------------------------------------------------

def construct(g, sigma, p):
    """Witness cover plus recipe for any realizable (g, sigma, p).

    Raises NotRealizable on impossible cells, ValueError above MAX_GENUS,
    and InternalMismatch if a produced witness misses its target (which
    would be a bug).
    """
    if g > MAX_GENUS:
        raise ValueError(f"construct accepts g up to {MAX_GENUS}, got {g}")
    verdict = realizable(g, sigma, p)
    if not verdict.exists:
        raise NotRealizable(g, sigma, p, verdict)
    cover, recipe = _dispatch(g, sigma, p)
    got = (cover.invariants, cover.type)
    if got != ((g, sigma), p):
        raise InternalMismatch(
            f"scheme {recipe.lemma} produced invariants {got[0]} and type "
            f"{got[1]} instead of ({g}, {sigma}) and {p}")
    return cover, recipe


def _dispatch(g, sigma, p):
    g1, g2, g3 = p.entries
    if sigma >= 3 and sigma % 2 and 2 * g1 == g + 1:
        return construct_unbalanced_odd(g, sigma, p)
    if sigma == 0:
        return construct_sigma0(p)
    if sigma == 1:
        return _construct_sigma1(p)
    if sigma == 2:
        return _construct_sigma2(p)
    if sigma == 3:
        return _construct_sigma3(p)
    if sigma == 4:
        return _construct_sigma4(p)
    if sigma == 5:
        return _construct_sigma5(p)
    if g3 == 0:
        return construct_unbalanced_even(g, sigma)
    if 2 * g1 == g - 1 and sigma % 2 == 0:
        return construct_half_minus(g, sigma, p)
    phat = Partition(g1 - 1, g2 - 1, g3 - 1)
    base_cover, base_recipe = _dispatch(g - 3, sigma - 3, phat)
    cover, params = _inducted(base_cover)
    return cover, Recipe("INDUCT", params, base=base_recipe)
