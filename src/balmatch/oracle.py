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
    profiles no earlier matching settled, so ``solve`` ran. ``sampled`` is
    always False: every sweep is exhaustive."""

    ok: bool
    total: int
    checked: int
    sampled: bool = False
    counterexample: Optional[dict[str, tuple[str, ...]]] = None
    solved: int = 0


# A stored matching, compiled for the sweep. Its candidate coalitions,
# each acceptable set its firm ranks above the set it holds, are the bits
# 1, 2, 4, ... ``keep[i][k]`` is None when worker i's firm is unlisted on
# her option k (worker IR fails), else ``~kill``, where kill masks the
# coalitions holding i whose firm bit is missing from option k's ranking
# table at i's firm: those she kills. ``fin[i]`` masks the coalitions
# whose last member is i.
_Compiled = tuple[list[list[Optional[int]]], list[int]]


def _stored(mu: Matching, base: Market, tables: list[list[dict[Optional[str], int]]]) -> _Compiled:
    """Compile ``mu`` against each worker's option tables; ``mu`` must be
    stable on some market with the firm side and workers of ``base``, so
    its candidate coalitions are the acceptable sets each firm ranks
    above the set it holds."""
    index = {w: i for i, w in enumerate(base.workers)}
    inv = mu.inverse()
    held: list[list[tuple[int, int]]] = [[] for _ in base.workers]  # (firm bit, coalition) holding i
    fin = [0] * len(base.workers)
    c = 1
    for f in base.firms:
        bit = base._bit[f]
        current = inv.get(f)
        for s in base.firm_prefs[f].acceptable:
            if s == current:
                break
            members = [index[w] for w in s]
            for i in members:
                held[i].append((bit, c))
            fin[max(members)] |= c
            c <<= 1
    keep = []
    for w, own, opts in zip(base.workers, held, tables):
        g = mu.assignment[w]
        row = []
        for table in opts:
            mask = table.get(g)
            if mask is None:
                row.append(None)
                continue
            kill = 0
            for bit, coalition in own:
                if not bit & mask:
                    kill |= coalition
            row.append(~kill)
        keep.append(row)
    return keep, fin


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

    The firm side is checked once, in a base market, and each option's
    ranking table is built once. The profiles are walked in
    ``itertools.product`` order as an odometer: workers 0..n-2 are its
    digits and the last worker is the innermost loop. Each stable
    matching found so far is stored compiled (``_stored``): per worker
    and option, whether her firm is listed (worker IR) and which of the
    matching's candidate coalitions she kills, and per worker the
    coalitions whose last member she is. Depth d keeps a list of the
    stored matchings still possible after workers 0..d-1, each with its
    live coalitions, those every member seen so far would join. Moving a
    digit rebuilds the lists below it: a matching is dropped when the
    worker is not IR or a coalition ending at her stays live, since it
    blocks on every completion. A profile then reads only its last
    worker against the deepest list, and a matching settles it exactly
    when it is ``is_stable`` on the profile's market. Only when none
    does is that market built, with ``Market.with_worker_prefs``, and
    ``solve`` called; the matching it returns is re-checked with
    ``is_stable``, compiled and appended to every depth's list through
    the current prefix, and None is the counterexample. So every settled
    profile is backed by a matching stable on it, and a profile without
    one still reaches ``solve``.
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
    tables = [[by_ranking[r] for r in opts] for opts in options]
    if not workers:  # no worker to walk: the one profile is the base market
        mu = solve(base)
        ok = mu is not None and is_stable(mu, base)
        return SweepResult(ok=ok, total=1, checked=1, solved=1,
                           counterexample=None if ok else {})
    checked = solved = 0
    last = len(workers) - 1
    digits = [0] * last
    # levels[d]: (keep, fin, live) of each stored matching still possible
    # after workers 0..d-1 of the current prefix
    levels: list[list[tuple[list, list[int], int]]] = [[] for _ in workers]
    d = 0  # the shallowest digit that moved: the lists below it are stale
    while True:
        for depth in range(d, last):
            k, below = digits[depth], []
            for keep, fin, live in levels[depth]:
                mask = keep[depth][k]
                if mask is not None:
                    live &= mask
                    if not live & fin[depth]:
                        below.append((keep, fin, live))
            levels[depth + 1] = below
        # the last worker: a matching settles option k iff it is IR there
        # and she kills every live coalition ending at her
        leaf = [(keep[last], live & fin[last]) for keep, fin, live in levels[last]]
        for k, ranking in enumerate(options[last]):
            checked += 1
            for row, ending in leaf:
                mask = row[k]
                if mask is not None and not ending & mask:
                    break
            else:
                solved += 1
                profile = [opts[j] for opts, j in zip(options, digits)] + [ranking]
                market = base.with_worker_prefs(dict(zip(workers, profile)))
                mu = solve(market)
                if mu is None or not is_stable(mu, market):
                    return SweepResult(
                        ok=False, total=total, checked=checked,
                        counterexample=market.worker_prefs, solved=solved,
                    )
                if checked == total:  # no profile is left for it to settle
                    continue
                keep, fin = _stored(mu, base, tables)
                live = -1
                for depth, j in enumerate(digits):
                    levels[depth].append((keep, fin, live))
                    live &= keep[depth][j]
                levels[last].append((keep, fin, live))
                leaf.append((keep[last], live & fin[last]))
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
