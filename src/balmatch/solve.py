"""Stable matchings by direct search, and a market's certificates.

``solve(m)`` is a complete backtracking search: every firm takes one of
its acceptable sets or nothing, sets pairwise disjoint, and the first
selection whose induced matching is stable is returned (a stable matching
always has this shape, so None proves nonexistence). ``_Coalitions``
holds that search, the package's only one over firm selections: the
worker-profile sweep of ``oracle`` calls it too, on each profile's
coalition tables.
``market_certificates(m)`` reports which of the paper's sufficient
conditions the market meets; it is independent of the search.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .market import Market, Matching, acceptable_set_family
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


class _Coalitions:
    """A market's firm side, numbered once, and the one firm-selection search.

    Each (firm, acceptable set) is one coalition bit, 1, 2, 4, ... in firm
    order and then chain order. A firm selection gives each firm one
    acceptable set or nothing, the sets pairwise disjoint. Its candidate
    coalitions are, per firm, the sets ranked above the one it holds, or
    all of them if it holds none: one mask, ``cand``. The numbering keeps:

    - ``choices[j]``: firm j's choices in search order, its acceptable sets
      in chain order and then nothing, each as (its part of ``cand``,
      member bitmask, member indices);
    - ``fin[i]``: the coalitions whose last member is worker i;
    - ``of[f]``: firm f's coalitions;
    - ``out[i]``: the complement of the coalitions holding worker i.

    ``table(ranking)`` is a worker ranking's coalition table. Worker i's
    keep row at firm g (None for the null firm) is ``out[i] | table[g]``:
    it drops exactly the coalitions holding i whose firm she does not
    weakly prefer to g. When g is missing from the table she finds it
    unacceptable, so worker IR fails; ``row`` lists that row under several
    tables. A selection is stable on a profile iff every worker is IR at
    the firm she holds and ``cand`` ANDed with every worker's keep row
    there is 0: a coalition that survives every member's row blocks.
    """

    def __init__(self, m: Market):
        index = {w: i for i, w in enumerate(m.workers)}
        self.firms = m.firms
        self.fin = fin = [0] * len(index)
        self.out = out = [-1] * len(index)
        self.of = of = {}
        self.choices = firm_choices = []
        prefs = m.firm_prefs
        c = 1
        for f in m.firms:
            first, choices = c, []
            for s in prefs[f].acceptable:
                members, people = [], 0
                for w in s:
                    i = index[w]
                    members.append(i)
                    out[i] ^= c  # clears c, set in out[i] until now
                    people |= 1 << i
                fin[people.bit_length() - 1] |= c  # the last member's bit is the highest
                choices.append((c - first, people, members))
                c <<= 1
            of[f] = c - first
            choices.append((c - first, 0, []))
            firm_choices.append(choices)

    def table(self, ranking: Iterable[str]) -> dict[Optional[str], int]:
        """A worker ranking as a coalition table: each firm g on it maps to
        the coalitions of the firms she weakly prefers to g, g and those
        ranked above it, and None to those of every listed firm."""
        table, mask = {}, 0
        for f in ranking:
            mask |= self.of[f]
            table[f] = mask
        table[None] = mask
        return table

    def row(self, i: int, tables: list[dict[Optional[str], int]], g: Optional[str]) -> list[Optional[int]]:
        """Worker i's keep row at firm g under each of the coalition
        tables, None where a table lacks g."""
        out = self.out[i]
        return [None if g not in table else out | table[g] for table in tables]

    def search(self, tables: list[dict[Optional[str], int]]) -> Optional[tuple[list[Optional[str]], int]]:
        """The first stable selection on the profile whose workers have the
        coalition tables ``tables``, as each worker's firm and the
        selection's ``cand``, or None when there is none.

        Firms are tried in market order, each with its IR sets in chain
        order and then nothing; a set a member does not list is left out,
        since no stable matching holds it. The search is a loop over one
        choice index per firm, so its depth is not bounded by the
        recursion limit.
        """
        out = self.out
        # a worker's row at a firm lies inside her row at the null firm, so
        # every worker's null row is ANDed in once, before the walk
        alone = -1
        for o, table in zip(out, tables):
            alone &= o | table[None]
        firms, choices = self.firms, self.choices
        n = len(choices)
        # per firm and choice, the AND of its members' keep rows, built on
        # first use; 0 when a member does not list the firm, which no AND
        # of keep rows is, since every keep row is negative
        rows = [[None] * len(acc) for acc in choices]
        pick = [-1] * n  # index into choices[j], -1 untried
        state = [(0, alone, 0)] * (n + 1)  # per depth: (taken, keep, cand)
        j = 0
        while j >= 0:
            if j == n:
                taken, keep, cand = state[n]
                if not cand & keep:
                    held: list[Optional[str]] = [None] * len(tables)
                    for f, acc, t in zip(firms, choices, pick):
                        for i in acc[t][2]:
                            held[i] = f
                    return held, cand
                j -= 1
                continue
            acc, row = choices[j], rows[j]
            taken, keep, cand = state[j]
            t = pick[j] + 1
            while t < len(acc):
                above, people, members = acc[t]
                if not people & taken:
                    mask = row[t]
                    if mask is None:
                        f, mask = firms[j], -1
                        for i in members:
                            g = tables[i].get(f)
                            if g is None:
                                mask = 0
                                break
                            mask &= out[i] | g
                        row[t] = mask
                    if mask:
                        break
                t += 1
            else:  # every choice tried: back up
                pick[j] = -1
                j -= 1
                continue
            pick[j] = t
            state[j + 1] = (taken | people, keep & mask, cand | above)
            j += 1
        return None


def solve(m: Market) -> Optional[Matching]:
    """A stable matching, or None when the market has none: the first
    stable selection of ``_Coalitions.search`` on the market's own worker
    lists."""
    coalitions = _Coalitions(m)
    hit = coalitions.search([coalitions.table(m.worker_prefs[w]) for w in m.workers])
    return None if hit is None else Matching(dict(zip(m.workers, hit[0])))
