"""Explicit witnesses for every realizable (genus, 2-rank, type) cell.

Each small 2-rank has its own scheme of defining pairs built from monomial
poles at 0, 1, infinity (and, when a fourth rational point is needed, the
generator of GF(4)); the unbalanced and (g-1)/2 families use hyperelliptic
pole packs from one builder, make_hyperelliptic.  Every other cell lies k
steps of (+3, +3, +1 each) above a cell a scheme builds, and one
place_step reaches it: simple poles at places of total degree k raise each
quotient's genus and 2-rank by k.  The packs and the step choose their
places with one helper.  Every term, c*x^k or r/P^e with k and e odd, is
already reduced, so pairs are reduced forms: a sum is an XOR and poles are
read from the vector.  The cell builds one KleinFourCover, checked against
its target invariants; a failure raises InternalMismatch and means a bug,
not bad input.  The recipes record which scheme fired, with its parameters
and the step's places, so a derivation can be replayed.
"""

from __future__ import annotations

from .ascurve import ReducedForm, reduce_form
from .field import GF2, GF4, BinaryField, Frozen
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


class Recipe(Frozen):
    """Derivation record: scheme tag, integer parameters, nested base.
    Immutable (see `Frozen`), and unhashable, as params is a dict."""

    __slots__ = ("lemma", "params", "base")
    __hash__ = None

    def __init__(self, lemma, params=None, base=None):
        object.__setattr__(self, "lemma", lemma)
        object.__setattr__(self, "params", {} if params is None else params)
        object.__setattr__(self, "base", base)

    def __eq__(self, other):
        if other.__class__ is not Recipe:
            return NotImplemented
        return ((self.lemma, self.params, self.base)
                == (other.lemma, other.params, other.base))

    def __repr__(self):
        return (f"Recipe(lemma={self.lemma!r}, params={self.params!r}, "
                f"base={self.base!r})")

    def to_json(self):
        out = {"lemma": self.lemma, "params": dict(self.params)}
        if self.base is not None:
            out["base"] = self.base.to_json()
        return out

    def tags(self):
        return [self.lemma] + (self.base.tags() if self.base else [])


# -- small builders ---------------------------------------------------------

def _xk(F, k, c=1):
    """c * x^k, k odd, as a reduced form."""
    return ReducedForm(F, Poly.monomial(F, k, c).code, {})


def _pole(q, e=1, r=None):
    """r / q^e, e odd, as a reduced form; r is a nonzero residue mod q, 1
    if None, and the one digit r_e, at bit (e - 1) * m * deg q."""
    top = 1 if r is None else r.code
    width = q.field.degree * q.degree
    return ReducedForm(q.field, 0, {q.code: top << (e - 1) * width})


def _inv_xk(F, k, c=1):
    """c / x^k, k odd."""
    return _pole(Poly.monomial(F, 1), k, Poly.const(F, c))


def _x_plus(F, cbits):
    return Poly.make(F, (cbits, 1))


def _alpha(F):
    """Image of the GF(4) generator in F (degree must be even)."""
    return field_embedding(GF4, F)(2)


def lift_pair(pair, target):
    """Re-express a pair of reduced forms over a larger field, through
    RatFun: a place of even degree splits in the quadratic extension, so
    the lifted digits must be found and reduced again over target."""
    emb = field_embedding(pair[0].field, target)
    return tuple(
        reduce_form(RatFun.lowest_terms(f.num.map_field(target, emb),
                                        f.den.map_field(target, emb)))
        for f in (v.to_ratfun() for v in pair))


# -- places (shared by the pole packs and the place step) -------------------

def _fill_degrees(places, budget):
    """The first sublist of places, in list order, whose degrees sum to
    budget, or None.  Bit b of reach[i] is set when some sublist of
    places[i:] sums to b, so the first fit takes each place whose degree
    leaves a remainder that the places after it still reach."""
    degrees = [pl.degree for pl in places]
    full = (1 << (budget + 1)) - 1
    reach = [1]
    for d in reversed(degrees):
        reach.append((reach[-1] | reach[-1] << d) & full)
    reach.reverse()
    if not reach[0] >> budget & 1:
        return None
    chosen = []
    for i, d in enumerate(degrees):
        if not budget:
            break
        if d <= budget and reach[i + 1] >> (budget - d) & 1:
            chosen.append(places[i])
            budget -= d
    return chosen


def _free_rational(field, avoid):
    """The finite rational places of field outside avoid, by coefficient."""
    return [pl for c in range(field.order)
            if (pl := Place(_x_plus(field, c))) not in avoid]


def _choose_places(field, budget, avoid, rational):
    """Distinct places outside avoid whose degrees sum to budget, or None:
    from a short ascending run of places of degree 2 and more, joined by
    the degree-1 places in rational only when the run alone cannot fill
    the budget; the run widens, in the same order, while neither fills.
    Bit b of sums is set when some sublist of the run sums to b, so
    `_fill_degrees` runs only on a list that fills the budget."""
    wider = (pl for q in monic_irreducibles(field, max(budget, 2))
             if q.degree > 1 and (pl := Place(q)) not in avoid)
    full = (1 << (budget + 1)) - 1

    def widen(sums, places):
        for pl in places:
            sums = (sums | sums << pl.degree) & full
        return sums

    pool, total = [], 0
    for pl in wider:
        pool.append(pl)
        total += pl.degree
        if total >= 3 * (budget + 2):
            break
    sums = widen(1, pool)
    while True:
        for places, reach in ((pool, sums),
                              (pool + rational, widen(sums, rational))):
            if reach >> budget & 1:
                return _fill_degrees(places, budget)
        if (pl := next(wider, None)) is None:
            return None
        pool.append(pl)
        sums = widen(sums, [pl])


# -- pole packs (hyperelliptic building blocks) -----------------------------

def make_hyperelliptic(h, s, avoid=frozenset(), at_infinity=True, field=GF2):
    """A reduced form over field: genus h, 2-rank s, no pole in avoid.

    A pole of order 2(h-s)+1 goes at infinity when requested, else at the
    first free rational point (no such anchor when h = s), and simple poles
    of total degree s (s+1 without the infinity pole) supply the remaining
    geometric poles.  The simple poles go on places of degree 2 and more
    before rational ones, because rational points are scarce: GF(4) has
    four finite ones, and the two packs of an unbalanced odd cover anchor
    their deep poles there.  Raises ValueError when field has no room for
    the poles.
    """
    if not 0 <= s <= h:
        raise ValueError(f"need 0 <= 2-rank <= genus, got ({h}, {s})")
    if at_infinity and INFINITY in avoid:
        raise ValueError("asked for a pole at infinity while avoiding it")
    rational = _free_rational(field, avoid)
    deep = 2 * (h - s) + 1
    budget = s
    if at_infinity:
        f = _xk(field, deep)
    elif h > s:
        if not rational:
            raise ValueError(f"no free rational point of {field} for the "
                             f"pole of order {deep}")
        f = _pole(rational.pop(0).poly, deep)
    else:
        f = ReducedForm(field, 0, {})
        budget = s + 1
    chosen = _choose_places(field, budget, avoid, rational)
    if chosen is None:
        raise ValueError(f"no room in {field} for simple poles of total "
                         f"degree {budget}")
    return sum((_pole(pl.poly) for pl in chosen), f)


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
    return (f1, f2), recipe


def _construct_sigma1(p):
    """2-rank 1: two single-pole quotients at distinct points."""
    _, p2, p3 = p.entries
    a = 2 * p2 + 1
    b = 2 * p3 + 1
    F = GF2
    return (_xk(F, a), _inv_xk(F, b)), Recipe("S1", {"a": a, "b": b})


def _construct_sigma2(p):
    """2-rank 2: poles at 0 and infinity with a shared 1/x^b tail."""
    g1, g2, g3 = p.entries
    a = 2 * g3 + 1
    b = 2 * (g1 - g3) - 1
    c = 2 * (g2 + g3 - g1) + 1
    F = GF4
    f1 = _xk(F, a) + _inv_xk(F, b)
    f2 = _xk(F, c, 2) + _inv_xk(F, b)
    return (f1, f2), Recipe("S2", {"a": a, "b": b, "c": c})


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
    return (f1, f2), Recipe("S3b", {"a": s, "b": m, "c": t})


def _construct_sigma4(p):
    g = p.g
    g1, g2, g3 = p.entries
    if g1 > g2:
        a = 2 * g2 - 1
        b = 2 * (g1 - g2) - 1
        c = 2 * (g2 + g3 - g1) + 1
        if a > c:
            F = GF2
            f1 = _xk(F, a) + _inv_xk(F, b) + _pole(_x_plus(F, 1))
            f3 = _xk(F, c) + _inv_xk(F, b)
            return (f1, f1 + f3), Recipe("S4a", {"a": a, "b": b, "c": c})
        # a == c makes f1 + f3 drop its infinity pole; share the top
        # monomial with distinct leading coefficients instead
        F = GF4
        top = 2 * (g2 + g3 - g1) + 1
        u = 2 * (g1 - g3) - 1
        v = 2 * (g1 - g2) - 1
        f1 = _xk(F, top) + _inv_xk(F, u) + _pole(_x_plus(F, 1), v)
        f2 = _xk(F, top, 2) + _inv_xk(F, u)
        return (f1, f2), Recipe("S4a", {"a": top, "b": u, "c": v,
                                        "variant": 1})
    if g3 >= 2:
        a = 2 * g1 - 1
        b = 2 * g3 - 3
        F = GF2
        f1 = _xk(F, a) + _inv_xk(F, 1)
        f3 = _xk(F, b) + _inv_xk(F, 1) + _pole(_x_plus(F, 1))
        return (f1, f1 + f3), Recipe("S4b", {"a": a, "b": b})
    if g3 == 0:
        # {g/2, g/2, 0}, g even
        F = GF4
        f1 = _xk(F, g - 3) + _inv_xk(F, 1) + _pole(_x_plus(F, 1))
        f2 = _xk(F, 1, 2)
        return (f1, f2), Recipe("S4c", {"a": g - 3})
    # {(g-1)/2, (g-1)/2, 1}, g odd >= 7; the second function must be a
    # cubic, not linear, to keep its quotient at genus 1
    F = GF4
    f1 = _xk(F, g - 4) + _inv_xk(F, 1) + _pole(_x_plus(F, 1))
    f2 = _xk(F, 3, 2)
    return (f1, f2), Recipe("S4d", {"a": g - 4, "c": 3, "corrected": 1})


def _construct_sigma5(p):
    """2-rank 5 on a totally balanced type; None on the other types, which
    the place step reaches from 2-rank 2."""
    if not p.is_totally_balanced:
        return None
    a = p.entries[0]
    if a % 2 == 1:
        F = GF4
        f1 = _xk(F, a) + _inv_xk(F, a)
        f2 = _xk(F, a) + _pole(_x_plus(F, 1), a - 2) + _pole(_x_plus(F, 2))
        return (f1, f2), Recipe("S5bal", {"a": a})
    # even a: partial cancellation at two points, all over GF(2)
    F = GF2
    f1 = _xk(F, 1) + _inv_xk(F, a - 1) + _pole(_x_plus(F, 1), a - 1)
    f2 = _xk(F, 1) + _inv_xk(F, a - 3) + _pole(_x_plus(F, 1), a + 1)
    return (f1, f2), Recipe("S5bal", {"a": a, "variant": 1})


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
    return (f1, _xk(F, 1, c)), Recipe("UNB_EVEN", {"k1": k})


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
    f2 = make_hyperelliptic(gb, kb, avoid=f1.pole_places(),
                            at_infinity=False, field=GF4)
    return (f1, f2), Recipe("UNB_ODD", {"k1": ka, "k2": kb})


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
    _, ga, gb = p.entries  # gb >= 1, since ga <= (g-1)/2 = g - ga - gb
    k = sigma // 2
    # the largest ka < ga with kb < gb; a companion of genus 1 alone may
    # take no pack
    splits = [(ka, k - ka) for ka in range(min(ga - 1, k), -1, -1)
              if k - ka < gb and (ka or ga == 1) and (k - ka or gb == 1)]
    if not splits:
        raise ValueError(f"2-rank {sigma} does not split over type {p}")
    ka, kb = splits[0]
    F = GF4
    zero = ReducedForm(F, 0, {})
    h1 = (make_hyperelliptic(ga - 2, ka - 1, at_infinity=False, field=F)
          if ka else zero)
    h2 = (make_hyperelliptic(gb - 2, kb - 1, avoid=h1.pole_places(),
                             at_infinity=False, field=F) if kb else zero)
    f1 = _xk(F, 3) + h1
    f2 = _xk(F, 3, _alpha(F)) + h2
    return (f1, f2), Recipe("HALF_MINUS", {"k1": ka, "k2": kb})


# -- the place step -----------------------------------------------------------

def place_step(pair, k):
    """From (g, sigma, {g1,g2,g3}) to (g+3k, sigma+3k, {g1+k,g2+k,g3+k}).

    Adds 1/P to f1 and r/P to f2 at distinct places P, poles of neither,
    whose degrees sum to k; r is x at a place of degree 2 or more and the
    GF(4) generator a at a rational one (infinity first, where the terms
    are x and a*x: the paper's +3 step), so 1, r, 1 + r are nonzero mod P.
    Each quotient gains a simple pole of degree deg P at each P, so its
    genus and, by Deuring-Shafarevich, its 2-rank rise by k.  A pair with
    no room moves to the field of twice the degree.  Returns the stepped
    pair and the places; k = 0 returns the pair with no places.
    """
    if k < 0:
        raise ValueError(f"a place step needs k >= 0, got {k}")
    while True:
        F = pair[0].field
        poles = pair[0].pole_places() | pair[1].pole_places()
        rational = []
        if F.degree % 2 == 0:
            rational = _free_rational(F, poles)
            if INFINITY not in poles:
                rational.insert(0, INFINITY)
        places = _choose_places(F, k, poles, rational)
        if places is not None:
            break
        pair = lift_pair(pair, BinaryField.default(F.degree * 2))
    f1, f2 = pair
    for pl in places:
        if pl.is_infinity:
            t1, t2 = _xk(F, 1), _xk(F, 1, _alpha(F))
        else:
            r = (Poly.monomial(F, 1) if pl.degree > 1
                 else Poly.const(F, _alpha(F)))
            t1, t2 = _pole(pl.poly), _pole(pl.poly, 1, r)
        f1, f2 = f1 + t1, f2 + t2
    return (f1, f2), places


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
    # walk down by 3 to a directly built base, then take one step of k
    k, base = 0, p
    while (built := _direct(g - 3 * k, sigma - 3 * k, base)) is None:
        k, base = k + 1, Partition(*(e - 1 for e in base.entries))
    pair, recipe = built
    if k:
        pair, places = place_step(pair, k)
        recipe = Recipe("INDUCT", {"k": k, "places": list(map(str, places))},
                        base=recipe)
    cover = KleinFourCover(*pair)
    got = (cover.invariants, cover.type)
    if got != ((g, sigma), p):
        raise InternalMismatch(
            f"scheme {recipe.lemma} produced invariants {got[0]} and type "
            f"{got[1]} instead of ({g}, {sigma}) and {p}")
    return cover, recipe


def _direct(g, sigma, p):
    """(pair, recipe) from the scheme that builds the cell directly, or
    None for a cell that only the place step reaches."""
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
    return None

