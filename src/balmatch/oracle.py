"""Brute-force ground truth: enumerate matchings and sweep preference space."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .market import FirmPreference, Market, Matching, is_stable
from .solve import solve

MAX_WORKERS = 10
MAX_FIRMS = 8
SWEEP_BUDGET = 10_000_000


class BudgetError(RuntimeError):
    """Enumeration would exceed the desk-scale budget; failing loudly."""


def all_matchings(m: Market, restrict: bool = True) -> Iterable[Matching]:
    """Every assignment of workers to firms-or-null, in canonical order.

    With ``restrict`` each worker only ranges over her listed firms plus
    the null firm; assignments outside that range are never individually
    rational, so no stable matching is lost.
    """
    if restrict:
        options = [list(m.worker_prefs[w]) + [None] for w in m.workers]
    else:
        options = [list(m.firms) + [None] for w in m.workers]
    for combo in itertools.product(*options):
        yield Matching(dict(zip(m.workers, combo)))


def all_stable_matchings(m: Market, restrict: bool = True) -> list[Matching]:
    """All stable matchings by exhaustive enumeration."""
    if len(m.workers) > MAX_WORKERS or len(m.firms) > MAX_FIRMS:
        raise BudgetError(
            f"market of {len(m.workers)} workers / {len(m.firms)} firms "
            f"exceeds the {MAX_WORKERS}/{MAX_FIRMS} enumeration budget"
        )
    return [mu for mu in all_matchings(m, restrict) if is_stable(mu, m)]


def worker_pref_options(firms: list[str]) -> list[tuple[str, ...]]:
    """All strict rankings of every subset of the given firms (truncations
    included), the empty ranking first."""
    out: list[tuple[str, ...]] = []
    for r in range(len(firms) + 1):
        for combo in itertools.combinations(firms, r):
            out.extend(itertools.permutations(combo))
    return out


def worker_pref_space(m: Market) -> list[list[tuple[str, ...]]]:
    """Per worker, in market order, the rankings a sweep tries: every
    ranking of the firms with her in some acceptable set, the only firms
    whose place on her list can matter."""
    return [
        worker_pref_options([f for f in m.firms if any(w in s for s in m.firm_prefs[f].acceptable)])
        for w in m.workers
    ]


@dataclass
class SweepResult:
    """Outcome of an exhaustive sweep: ``checked`` of ``total`` profiles,
    the first one without a stable matching (if any), and ``solved``, the
    profiles no earlier matching settled, so the sweep searched.
    ``sampled`` is always False: every sweep is exhaustive."""

    ok: bool
    total: int
    checked: int
    sampled: bool = False
    counterexample: Optional[dict[str, tuple[str, ...]]] = None
    solved: int = 0


class _Coalitions:
    """One sweep's coalition numbering, its keep rows, and its search.

    Each (firm, acceptable set) is one bit, 1, 2, 4, ... in firm order and
    then chain order, and ``fin[i]`` masks the coalitions whose last
    member is worker i. A firm selection gives each firm one acceptable
    set or nothing, the sets pairwise disjoint. Its candidate coalitions
    are, per firm, the sets ranked above the one it holds, or all of them
    if it holds none: one mask, ``cand``. ``choices[j]`` lists firm j's
    choices in ``solve``'s order, its acceptable sets in chain order and
    then nothing, each as (its part of ``cand``, member bitmask, member
    indices).

    ``row(i, g)`` is worker i's keep row when she holds firm g (None for
    the null firm), one entry per option in ``tables[i]``: None when the
    option does not list g (worker IR fails), else ``~kill``, where kill
    masks the coalitions holding i whose firm the option does not weakly
    prefer to g. A selection is stable on the profile with option indices
    ks iff no ``row(i, g_i)[k_i]`` is None and ``cand`` ANDed with all of
    them is 0. Each row is built on first use, once per (i, g) per sweep.
    """

    def __init__(self, base: Market, tables: list[list[dict[Optional[str], int]]]):
        index = {w: i for i, w in enumerate(base.workers)}
        self.firms = base.firms
        self.tables = tables
        self.fin = [0] * len(base.workers)
        self.choices: list[list[tuple[int, int, list[int]]]] = []
        self._held: list[list[tuple[int, int]]] = [[] for _ in base.workers]  # (firm bit, coalition)
        self._rows: list[dict[Optional[str], list[Optional[int]]]] = [{} for _ in base.workers]
        self._kept: list[dict[int, int]] = [{} for _ in base.workers]  # ranking mask -> ~kill
        c = 1
        for f in base.firms:
            bit, first, choices = base._bit[f], c, []
            for s in base.firm_prefs[f].acceptable:
                members = sorted(index[w] for w in s)
                for i in members:
                    self._held[i].append((bit, c))
                self.fin[members[-1]] |= c
                choices.append((c - first, sum(1 << i for i in members), members))
                c <<= 1
            choices.append((c - first, 0, []))
            self.choices.append(choices)

    def row(self, i: int, g: Optional[str]) -> list[Optional[int]]:
        row = self._rows[i].get(g)
        if row is None:
            row = self._rows[i][g] = []
            kept = self._kept[i]
            for table in self.tables[i]:
                mask = table.get(g)
                if mask is None:
                    row.append(None)
                    continue
                keep = kept.get(mask)
                if keep is None:
                    kill = 0
                    for bit, coalition in self._held[i]:
                        if not bit & mask:
                            kill |= coalition
                    keep = kept[mask] = ~kill
                row.append(keep)
        return row

    def search(self, ks: list[int]) -> Optional[tuple[list[Optional[str]], int]]:
        """The first stable selection on the profile with option indices
        ks, as each worker's firm and the selection's ``cand``, or None.

        The order is ``solve``'s. ``solve`` leaves out the sets a member
        does not list, so it only skips selections that fail the row IR
        test, and the row test is ``is_stable``: the result is the
        matching of ``solve(market)``. Like ``solve``, it is a loop over
        one choice index per firm.
        """
        # a worker's row at a firm lies inside her row at the null firm, so
        # every worker's null row is ANDed in once, before the walk
        row = self.row
        alone = -1
        for i, k in enumerate(ks):
            alone &= row(i, None)[k]
        # per firm, its IR choices: (part of cand, member bitmask, AND of
        # the members' rows, member indices)
        options = []
        for f, choices in zip(self.firms, self.choices):
            acc = []
            for above, people, members in choices:
                joined = -1
                for i in members:
                    mask = row(i, f)[ks[i]]
                    if mask is None:
                        break
                    joined &= mask
                else:
                    acc.append((above, people, joined, members))
            options.append(acc)
        n = len(options)
        pick = [-1] * n  # index into acc, -1 untried
        taken, keep, cand = [0] * (n + 1), [alone] * (n + 1), [0] * (n + 1)
        j = 0
        while j >= 0:
            if j == n:
                if not cand[n] & keep[n]:
                    held: list[Optional[str]] = [None] * len(ks)
                    for f, acc, t in zip(self.firms, options, pick):
                        for i in acc[t][3]:
                            held[i] = f
                    return held, cand[n]
                j -= 1
                continue
            acc = options[j]
            t = pick[j] + 1
            while t < len(acc) and acc[t][1] & taken[j]:
                t += 1
            if t == len(acc):  # every choice tried: back up
                pick[j] = -1
                j -= 1
                continue
            pick[j] = t
            above, people, mask, _ = acc[t]
            taken[j + 1], keep[j + 1], cand[j + 1] = taken[j] | people, keep[j] & mask, cand[j] | above
            j += 1
        return None


def exists_for_all_worker_prefs(
    firm_prefs: dict[str, FirmPreference],
    workers: Iterable[str],
) -> SweepResult:
    """Does a stable matching exist for every worker preference profile?

    Each worker's ranking only matters on the firms that could ever hire
    her (firms with her in some acceptable set): an acceptable set whose
    firm is unranked by a member can never match or block. The sweep
    therefore enumerates rankings over those firms only, truncations
    included, which covers all profiles up to irrelevant reshuffling.

    ``BudgetError`` if there are more than ``SWEEP_BUDGET`` profiles.

    The firm side is checked once, in a base market, each option's
    ranking table is built once, and the coalitions are numbered once
    (``_Coalitions``): every stable matching found is kept as its workers'
    shared keep rows and its candidate mask. The profiles are walked in
    ``itertools.product`` order as an odometer: workers 0..n-2 are its
    digits and the last worker is the innermost loop. Depth d keeps a
    list of the found matchings still possible after workers 0..d-1, each
    with its live coalitions, those every member seen so far would join;
    live starts at the matching's ``cand``. Moving a digit rebuilds the
    lists below it: a matching is dropped when the worker is not IR or a
    coalition ending at her stays live, since it blocks on every
    completion. A profile then reads only its last worker against the
    deepest list, and a matching settles it exactly when it is
    ``is_stable`` on the profile's market. When none does, the sweep
    searches the firm selections in ``solve``'s order for the first
    stable one; its matching is re-checked with ``is_stable`` on the
    profile's market (``Market.with_worker_prefs``) and appended to every
    depth's list through the current prefix. A profile the search finds
    nothing for still goes to ``solve``, whose None is the
    counterexample; a disagreement raises ``RuntimeError``, never a
    verdict. So every settled profile is backed by a matching stable on
    it, and ``solve`` confirms every counterexample.
    """
    workers = list(workers)
    base = Market(
        workers=tuple(workers),
        firms=tuple(firm_prefs),
        worker_prefs={w: () for w in workers},
        firm_prefs=firm_prefs,
    )
    options = worker_pref_space(base)
    total = math.prod(map(len, options))
    if total > SWEEP_BUDGET:
        raise BudgetError(
            f"{total} worker preference profiles exceed the budget of {SWEEP_BUDGET}"
        )
    by_ranking = {r: base.ranking_table(r) for opts in options for r in opts}
    coalitions = _Coalitions(base, [[by_ranking[r] for r in opts] for opts in options])

    def found(ks: list[int]) -> tuple[Optional[tuple[int, list[list[Optional[int]]]]], Market]:
        """The profile's market, and the ``cand`` and keep rows of the
        search's matching on it, re-checked, or None when it has no stable
        matching."""
        market = base.with_worker_prefs(
            {w: opts[k] for w, opts, k in zip(workers, options, ks)}
        )
        hit = coalitions.search(ks)
        if hit is None:
            if solve(market) is not None:
                raise RuntimeError(f"the sweep's search missed solve's matching on {market.worker_prefs}")
            return None, market
        held, cand = hit
        if not is_stable(Matching(dict(zip(workers, held))), market):
            raise RuntimeError(f"the sweep's search returned an unstable matching on {market.worker_prefs}")
        return (cand, [coalitions.row(i, g) for i, g in enumerate(held)]), market

    if not workers:  # no worker to walk: the one profile is the base market
        entry, market = found([])
        return SweepResult(ok=entry is not None, total=1, checked=1, solved=1,
                           counterexample=None if entry is not None else market.worker_prefs)
    fin = coalitions.fin
    checked = solved = 0
    last = len(workers) - 1
    digits = [0] * last
    # levels[d]: (rows, live) of each found matching still possible after
    # workers 0..d-1 of the current prefix
    levels: list[list[tuple[list[list[Optional[int]]], int]]] = [[] for _ in workers]
    d = 0  # the shallowest digit that moved: the lists below it are stale
    while True:
        for depth in range(d, last):
            k, ending, below = digits[depth], fin[depth], []
            for rows, live in levels[depth]:
                mask = rows[depth][k]
                if mask is not None:
                    live &= mask
                    if not live & ending:
                        below.append((rows, live))
            levels[depth + 1] = below
        # the last worker: a matching settles option k iff it is IR there
        # and she kills every live coalition ending at her
        leaf = [(rows[last], live & fin[last]) for rows, live in levels[last]]
        for k in range(len(options[last])):
            checked += 1
            for row, ending in leaf:
                mask = row[k]
                if mask is not None and not ending & mask:
                    break
            else:
                solved += 1
                entry, market = found(digits + [k])
                if entry is None:
                    return SweepResult(
                        ok=False, total=total, checked=checked,
                        counterexample=market.worker_prefs, solved=solved,
                    )
                if checked == total:  # no profile is left for it to settle
                    continue
                live, rows = entry
                for depth, j in enumerate(digits):
                    levels[depth].append((rows, live))
                    live &= rows[depth][j]
                levels[last].append((rows, live))
                leaf.append((rows[last], live & fin[last]))
        d = last - 1
        while d >= 0 and digits[d] == len(options[d]) - 1:
            digits[d] = 0
            d -= 1
        if d < 0:
            return SweepResult(ok=True, total=total, checked=checked, solved=solved)
        digits[d] += 1


def cyclic_market(n: int) -> Market:
    """n firms each wanting a consecutive worker pair around a cycle, with
    the matching worker preferences."""
    if n < 3:
        raise ValueError("cyclic market needs n >= 3")
    workers = [f"w{i}" for i in range(1, n + 1)]
    firms = [f"f{i}" for i in range(1, n + 1)]
    chains = {
        firms[i]: [{workers[i], workers[(i + 1) % n]}] for i in range(n)
    }
    worker_prefs = {
        workers[i]: (firms[i], firms[(i - 1) % n]) for i in range(n)
    }
    return Market.build(workers, chains, worker_prefs)
