"""Brute-force ground truth: enumerate matchings and sweep preference space.

The sweep runs ``solve``'s firm-selection search (``solve._Coalitions``)
on each profile that no matching it found settles, reading the last
worker's options as one bitmask per matching in its one digit loop,
which stops once every option is settled; it re-checks each matching
found with ``is_stable`` on the profile's ``Market``, built by the plain
constructor, and confirms a counterexample with ``all_matchings`` and
``is_stable`` alone, so no verdict rests on the search it checks. Every
enumeration is bounded by ``SWEEP_BUDGET`` before it starts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .market import FirmPreference, Market, Matching, is_stable
from .solve import _Coalitions

SWEEP_BUDGET = 10_000_000


class BudgetError(RuntimeError):
    """Enumeration would exceed the desk-scale budget; failing loudly."""


def all_matchings(m: Market) -> Iterable[Matching]:
    """Every assignment of each worker to a firm on her list or to the null
    firm, in canonical order. An assignment outside that range is never
    individually rational, so no stable matching is lost."""
    options = [list(m.worker_prefs[w]) + [None] for w in m.workers]
    for combo in itertools.product(*options):
        yield Matching(dict(zip(m.workers, combo)))


def all_stable_matchings(m: Market) -> list[Matching]:
    """All stable matchings by exhaustive enumeration.

    ``BudgetError``, before any is enumerated, if ``all_matchings`` would
    yield more than ``SWEEP_BUDGET`` assignments: the product over workers
    of her list's length plus one."""
    count = math.prod(len(m.worker_prefs[w]) + 1 for w in m.workers)
    if count > SWEEP_BUDGET:
        raise BudgetError(
            f"{count} assignments of {len(m.workers)} workers exceed the "
            f"enumeration budget of {SWEEP_BUDGET}"
        )
    return [mu for mu in all_matchings(m) if is_stable(mu, m)]


def worker_pref_options(firms: list[str]) -> list[tuple[str, ...]]:
    """All strict rankings of every subset of the given firms (truncations
    included), the empty ranking first."""
    out: list[tuple[str, ...]] = []
    for r in range(len(firms) + 1):
        for combo in itertools.combinations(firms, r):
            out.extend(itertools.permutations(combo))
    return out


def worker_pref_count(n: int) -> int:
    """How many rankings ``worker_pref_options`` gives for n firms,
    sum over r of n!/(n - r)!, counted without building them."""
    return sum(math.perm(n, r) for r in range(n + 1))


def worker_pref_firms(m: Market) -> list[list[str]]:
    """Per worker, in market order, the firms with her in some acceptable
    set, the only firms whose place on her list can matter."""
    return [[f for f in m.firms if any(w in s for s in m.firm_prefs[f].acceptable)] for w in m.workers]


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


class _Settled(dict):
    """The last worker's options one found matching settles, keyed by its
    live coalitions ending at her: those where she is IR at the firm she
    holds and her keep row there meets none of them. The row's value is
    fixed by the firms an option ranks at or above that firm, so options
    are grouped by value once, and a new key costs one step per value."""

    __slots__ = ("groups",)

    def __init__(self, row: list[Optional[int]]):
        self.groups = groups = {}
        for k, keep in enumerate(row):
            if keep is not None:
                groups[keep] = groups.get(keep, 0) | 1 << k

    def __missing__(self, ending: int) -> int:
        mask = 0
        for keep, bits in self.groups.items():
            if not ending & keep:
                mask |= bits
        self[ending] = mask
        return mask


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

    The firm side is checked in a base market, its coalitions are
    numbered once (``solve._Coalitions``), each worker's firms are read
    off that numbering, each option's coalition table is built once, and
    each worker's keep row at a firm on first use.
    Every stable matching found is kept as its workers' shared keep rows
    and its candidate mask. The profiles are walked in
    ``itertools.product`` order as an odometer: workers 0..n-2 are its
    digits and the last worker is the innermost loop. Depth d keeps a
    list of the found matchings still possible after workers 0..d-1, each
    with its live coalitions, those every member seen so far would join;
    live starts at the matching's ``cand``. Moving a digit rebuilds the
    lists below it: a matching is dropped when the worker is not IR or a
    coalition ending at her stays live, since it blocks on every
    completion. Under a prefix, each matching still possible after the
    whole prefix settles a bitmask of the last worker's options
    (``_Settled``), exactly the profiles on which it is ``is_stable``.
    One loop filters every digit's list, the deepest included: there a
    survivor clears its options from that bitmask instead of being
    stored, and the loop stops once every option is settled. Each option left is searched, in
    option order: ``solve``'s search runs on the profile's tables; its
    matching is re-checked with ``is_stable`` on the profile's market,
    built by the plain constructor, appended to every depth's list
    through the current prefix, and its options leave the bitmask. A
    profile the search finds nothing for is the counterexample once no
    assignment of ``all_matchings`` is ``is_stable``: at most ``total``
    assignments, since a list of L firms is one of at least L + 1
    options. A disagreement raises ``RuntimeError``, never a verdict.
    """
    workers = list(workers)
    base = Market(
        workers=tuple(workers),
        firms=tuple(firm_prefs),
        worker_prefs={w: () for w in workers},
        firm_prefs=firm_prefs,
    )
    coalitions = _Coalitions(base)
    # worker_pref_firms, read off the numbering: the firms with a
    # coalition that holds her
    of = coalitions.of
    firms = [[f for f in base.firms if of[f] & ~out] for out in coalitions.out]
    total = math.prod(worker_pref_count(len(fs)) for fs in firms)
    if total > SWEEP_BUDGET:
        raise BudgetError(
            f"{total} worker preference profiles exceed the budget of {SWEEP_BUDGET}"
        )
    options = [worker_pref_options(fs) for fs in firms]
    by_ranking = {r: coalitions.table(r) for opts in options for r in opts}
    tables = [[by_ranking[r] for r in opts] for opts in options]
    keeps: list[dict[Optional[str], list]] = [{} for _ in workers]
    last = len(workers) - 1

    def keep_row(i: int, g: Optional[str]) -> list:
        """Worker i's keep row at firm g across her options, built once; the
        last worker's as the options it settles (``_Settled``)."""
        keep = keeps[i].get(g)
        if keep is None:
            keep = coalitions.row(i, tables[i], g)
            keep = keeps[i][g] = keep if i < last else _Settled(keep)
        return keep

    def found(ks: list[int]) -> tuple[Optional[tuple[list[Optional[str]], int]], Market]:
        """The profile's market, and the search's matching on it as each
        worker's firm and its ``cand``, re-checked, or None when it has no
        stable matching."""
        market = Market(
            base.workers, base.firms,
            {w: opts[k] for w, opts, k in zip(workers, options, ks)},
            base.firm_prefs,
        )
        hit = coalitions.search([t[k] for t, k in zip(tables, ks)])
        if hit is None:
            if any(is_stable(mu, market) for mu in all_matchings(market)):
                raise RuntimeError(f"the sweep's search missed a stable matching on {market.worker_prefs}")
            return None, market
        if not is_stable(Matching(dict(zip(workers, hit[0]))), market):
            raise RuntimeError(f"the sweep's search returned an unstable matching on {market.worker_prefs}")
        return hit, market

    if not workers:  # no worker to walk: the one profile is the base market
        hit, market = found([])
        return SweepResult(ok=hit is not None, total=1, checked=1, solved=1,
                           counterexample=None if hit is not None else market.worker_prefs)
    fin = coalitions.fin
    checked = solved = 0
    width, at_last = len(options[last]), fin[last]
    digits = [0] * last
    # levels[d]: (rows, live) of each found matching still possible after
    # workers 0..d-1 of the current prefix
    levels: list[list[tuple[list, int]]] = [[] for _ in digits]
    d = 0  # the shallowest digit that moved: the lists below it are stale
    while True:
        # every digit filters its depth's list; at the deepest a survivor
        # settles last-worker options instead of being stored, and once
        # every option is settled the rest of the list is not read
        free = (1 << width) - 1
        for depth in range(d, last):
            k, ending, below, deepest = digits[depth], fin[depth], [], depth == last - 1
            for rows, live in levels[depth]:
                mask = rows[depth][k]
                if mask is not None:
                    live &= mask
                    if not live & ending:
                        if not deepest:
                            below.append((rows, live))
                        else:
                            free &= ~rows[last][live & at_last]
                            if not free:
                                break
            if not deepest:
                levels[depth + 1] = below
        # each option no found matching settles is a search, in option order
        while free:
            k = (free & -free).bit_length() - 1
            free ^= 1 << k
            solved += 1
            hit, market = found(digits + [k])
            if hit is None:
                return SweepResult(
                    ok=False, total=total, checked=checked + k + 1,
                    counterexample=market.worker_prefs, solved=solved,
                )
            if checked + k + 1 == total:  # no profile is left for it to settle
                break
            held, live = hit
            rows = [keep_row(i, g) for i, g in enumerate(held)]
            for depth, j in enumerate(digits):
                levels[depth].append((rows, live))
                live &= rows[depth][j]
            if free:
                free &= ~rows[last][live & at_last]
        checked += width
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
