"""End-to-end stable-matching computation by direct search.

``solve`` is a complete backtracking search: every firm takes one of its
acceptable sets or nothing, sets pairwise disjoint, and the first
selection whose induced matching is stable wins (a stable matching always
has this shape, so exhausting the space proves nonexistence).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .market import Market, Matching, _first_block, acceptable_set_family
from .matrices import DEFAULT_CAP, PASS, is_balanced, matrix_of_sets
from .prefs import is_additive, is_complementary, primitive_acceptable_sets


@dataclass
class SolveResult:
    matching: Optional[Matching]
    certificates: dict[str, str] = field(default_factory=dict)

    @property
    def found(self) -> bool:
        return self.matching is not None


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


def _direct_search(m: Market) -> Optional[Matching]:
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

    def rec(i: int) -> Optional[Matching]:
        if i == len(options):
            if _first_block(m, assignment, inv) is None:
                return Matching(dict(assignment))
            return None
        f, acc = options[i]
        for s in acc:
            if s & taken:
                continue
            for w in s:
                assignment[w] = f
            inv[f] = s
            taken.update(s)
            hit = rec(i + 1)
            if hit is not None:
                return hit
            taken.difference_update(s)
            del inv[f]
            for w in s:
                assignment[w] = None
        return rec(i + 1)  # firm stays empty

    return rec(0)


def solve(m: Market, with_certificates: bool = True) -> SolveResult:
    """Find a stable matching, or prove there is none."""
    certs = market_certificates(m) if with_certificates else {}
    return SolveResult(matching=_direct_search(m), certificates=certs)
