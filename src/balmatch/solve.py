"""Stable matchings by direct search, and a market's certificates.

``solve(m)`` is a complete backtracking search: every firm takes one of
its acceptable sets or nothing, sets pairwise disjoint, and the first
selection whose induced matching is stable is returned (a stable matching
always has this shape, so None proves nonexistence).
``market_certificates(m)`` reports which of the paper's sufficient
conditions the market meets; it is independent of the search.
"""

from __future__ import annotations

from typing import Optional

from .market import Market, Matching, _first_block, acceptable_set_family
from .matrices import DEFAULT_CAP, PASS, is_balanced, matrix_of_sets
from .prefs import is_additive, is_complementary, primitive_acceptable_sets


def market_certificates(m: Market) -> dict[str, str]:
    """Which of the sufficient conditions the market satisfies, at the default cap.

    A PASS of the acceptable sets decides the primitive sets' verdict: they
    are a sub-family, balancedness survives deleting columns, and deleting
    columns only shrinks the reduced matrix, so its cap cannot be hit
    either. Otherwise the primitive family is built, and searched only
    when it differs from the acceptable one.
    """
    acceptable = acceptable_set_family(m)
    balanced = is_balanced(matrix_of_sets(acceptable, m.workers), DEFAULT_CAP).verdict
    primitive_balanced = balanced
    if balanced != PASS:
        primitive = list(
            dict.fromkeys(s for f in m.firms for s in primitive_acceptable_sets(f, m))
        )
        if primitive != acceptable:
            primitive_balanced = is_balanced(
                matrix_of_sets(primitive, m.workers), DEFAULT_CAP
            ).verdict
    return {
        "complementary": str(all(is_complementary(f, m) for f in m.firms)),
        "additive": str(all(is_additive(f, m) for f in m.firms)),
        "acceptable_sets_balanced": balanced,
        "primitive_sets_balanced": primitive_balanced,
    }


def solve(m: Market) -> Optional[Matching]:
    """A stable matching, or None when the market has none.

    Firms are tried in market order, each with its individually rational
    sets in chain order and then empty. The search is a loop over one
    choice index per firm, so its depth is not bounded by the recursion
    limit.
    """
    options = []
    for f in m.firms:
        acc = [
            s
            for s in m.firm_prefs[f].acceptable
            # a stable matching is individually rational, so skip sets
            # containing a worker that finds the firm unacceptable
            if all(f in m._prefers[w] for w in s)
        ]
        options.append((f, acc))
    # every leaf is total and individually rational by construction, so
    # it only needs the blocking scan, fed the inverse kept alongside
    assignment: dict[str, Optional[str]] = {w: None for w in m.workers}
    inv: dict[Optional[str], frozenset[str]] = {}
    taken: set[str] = set()
    pick = [-1] * len(options)  # index into acc; len(acc) is empty, -1 untried
    i = 0
    while i >= 0:
        if i == len(options):
            if _first_block(m, assignment, inv) is None:
                return Matching(dict(assignment))
            i -= 1
            continue
        f, acc = options[i]
        k = pick[i]
        if 0 <= k < len(acc):  # release the set firm i holds
            taken.difference_update(acc[k])
            assignment.update(dict.fromkeys(acc[k]))
            del inv[f]
        k += 1
        while k < len(acc) and acc[k] & taken:
            k += 1
        if k > len(acc):  # every choice tried: back up
            pick[i] = -1
            i -= 1
            continue
        pick[i] = k
        if k < len(acc):
            taken.update(acc[k])
            assignment.update(dict.fromkeys(acc[k], f))
            inv[f] = acc[k]
        i += 1
    return None
