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


# A stored matching: each worker's firm in market order, and its candidate
# coalitions (firm bit, member worker indices): every acceptable set its
# firm ranks above the set it holds.
_Stored = tuple[tuple[Optional[str], ...], tuple[tuple[int, tuple[int, ...]], ...]]


def _stored(mu: Matching, base: Market) -> _Stored:
    """What a try of ``mu`` reads; ``mu`` must be stable on some market
    with the firm side and workers of ``base``, so its firm side is
    individually rational."""
    index = {w: i for i, w in enumerate(base.workers)}
    inv = mu.inverse()
    coalitions = []
    for f in base.firms:
        current = inv.get(f, frozenset())
        for s in base.firm_prefs[f].acceptable:
            if s == current:
                break
            coalitions.append((base._bit[f], tuple(index[w] for w in s)))
    return tuple(mu.assignment[w] for w in base.workers), tuple(coalitions)


def _settles(stored: _Stored, tables: list[dict[Optional[str], int]]) -> bool:
    """``is_stable`` of a stored matching on the profile whose workers'
    ranking tables are ``tables``, in market order: every worker's firm
    is in its table (worker IR), and no candidate coalition has its firm
    bit in every member's mask."""
    firms, coalitions = stored
    masks = list(map(dict.get, tables, firms))
    if None in masks:
        return False
    for bit, members in coalitions:
        for i in members:
            bit &= masks[i]
        if bit:
            return False
    return True


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

    The firm side is checked once, in a base market. Each profile first
    tries the stable matchings found so far in this call, most recently
    confirmed first. Only the worker lists change from one profile to the
    next, so a try (``_settles``) reads the profile's ranking tables, the
    ones ``Market.ranking_table`` builds for every market, against what
    was stored of the matching: each worker's firm (worker IR), then its
    candidate coalitions. It equals ``is_stable`` on the profile's market.
    Only when no stored matching settles the profile is that market built,
    with ``Market.with_worker_prefs``, and ``solve`` called; the matching
    it returns is re-checked with ``is_stable`` and stored, and None is
    the counterexample. So every settled profile is backed by a matching
    stable on it, and a profile without one still reaches ``solve``.
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
    tables = {r: base.ranking_table(r) for opts in options for r in opts}
    found: list[_Stored] = []  # distinct: one is added only when all fail
    checked = solved = 0
    for profile in itertools.product(*options):
        checked += 1
        row = [tables[r] for r in profile]
        for i, stored in enumerate(found):
            if _settles(stored, row):
                found.insert(0, found.pop(i))
                break
        else:
            solved += 1
            market = base.with_worker_prefs(dict(zip(workers, profile)))
            mu = solve(market)
            if mu is None or not is_stable(mu, market):
                return SweepResult(
                    ok=False, total=total, checked=checked,
                    counterexample=market.worker_prefs, solved=solved,
                )
            found.insert(0, _stored(mu, base))
    return SweepResult(ok=True, total=total, checked=checked, solved=solved)


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
