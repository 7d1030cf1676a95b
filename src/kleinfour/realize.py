"""Which (genus, 2-rank, type) triples occur for Klein-four covers of P^1.

A cell (g, sigma, p) is empty exactly when one of five exclusion rules
applies; everything else is realized by an explicit witness (see
construct).  The rules, checked in order with the first match cited:

  i    sigma = 0 and the two largest entries of p differ
  ii   sigma = 1 and (g+1)/2 is not an entry of p
  iii  sigma = 2 and p is totally balanced
  iv   sigma = g-1 (no almost-ordinary covers)
  v    sigma and g of different parity while p is unbalanced

The rank-only question is simpler: some type works for (g, sigma) unless
sigma = g-1, or g is even and sigma = 1.
"""

from __future__ import annotations

from collections import namedtuple

from .klein4 import InvalidPartition, Partition, check_genus

_CITATIONS = {
    "i": "2-rank 0 forces the two largest quotient genera to coincide",
    "ii": "2-rank 1 occurs only when g is odd and (g+1)/2 is a quotient genus",
    "iii": "2-rank 2 never occurs for a totally balanced type",
    "iv": "2-rank g-1 (almost ordinary) never occurs",
    "v": "an unbalanced type forces 2-rank = genus (mod 2)",
    "none": "realizable: no exclusion rule applies",
}
RANK_ONLY_CITATION = ("some type works unless 2-rank is g-1, or g is even "
                      "with 2-rank 1")


class Verdict(namedtuple("Verdict", "exists clause citation")):
    """Whether a cell exists, the clause deciding it ("i".."v" or "none")
    and that clause's citation."""

    __slots__ = ()

    def to_json(self):
        return {"exists": self.exists, "clause": self.clause,
                "citation": self.citation}


def partition_validate(g, raw):
    """Build the sorted Partition for g, or raise InvalidPartition."""
    check_genus(g)
    entries = tuple(raw)
    if len(entries) != 3:
        raise InvalidPartition(f"need exactly three entries, got {entries}")
    p = Partition(*entries)
    if p.g != g:
        raise InvalidPartition(f"{p} sums to {p.g}, not {g}")
    return p


def _check_two_rank(g, sigma):
    check_genus(g)
    if not 0 <= sigma <= g:
        raise ValueError(f"2-rank must be in 0..{g}, got {sigma}")


def _fired_clauses(g, sigma, p):
    fired = []
    if sigma == 0 and p.entries[0] != p.entries[1]:
        fired.append("i")
    if sigma == 1 and not any(2 * e == g + 1 for e in p):
        fired.append("ii")
    if sigma == 2 and p.is_totally_balanced:
        fired.append("iii")
    if sigma == g - 1:
        fired.append("iv")
    if (sigma - g) % 2 == 1 and p.is_unbalanced:
        fired.append("v")
    return fired


def realizable(g, sigma, p):
    """Verdict for the cell (g, sigma, p); p must be a valid partition of g."""
    if p.g != g:
        raise InvalidPartition(f"{p} is not a partition of {g}")
    _check_two_rank(g, sigma)
    fired = _fired_clauses(g, sigma, p)
    if fired:
        clause = fired[0]
        return Verdict(False, clause, _CITATIONS[clause])
    return Verdict(True, "none", _CITATIONS["none"])


def realizable_any(g, sigma):
    """True when some valid type realizes (g, sigma)."""
    _check_two_rank(g, sigma)
    return sigma != g - 1 and not (g % 2 == 0 and sigma == 1)


def hyperelliptic_extra_involution(g, sigma):
    """Whether a genus-g, 2-rank-sigma hyperelliptic curve can carry an
    involution besides the hyperelliptic one."""
    _check_two_rank(g, sigma)
    return (g - sigma) % 2 == 0
