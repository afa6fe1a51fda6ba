"""Brute-force ground truth: enumerate matchings and sweep preference space."""

from __future__ import annotations

import itertools
import math
import random
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
    ok: bool
    total: int
    checked: int
    sampled: bool
    counterexample: Optional[dict[str, tuple[str, ...]]] = None
    solved: int = 0  # profiles no earlier matching settled, so ``solve`` ran


def exists_for_all_worker_prefs(
    firm_prefs: dict[str, FirmPreference],
    workers: Iterable[str],
    budget: int = SWEEP_BUDGET,
    sample: Optional[int] = None,
    seed: int = 0,
) -> SweepResult:
    """Does a stable matching exist for every worker preference profile?

    Each worker's ranking only matters on the firms that could ever hire
    her (firms with her in some acceptable set): an acceptable set whose
    firm is unranked by a member can never match or block. The sweep
    therefore enumerates rankings over those firms only, truncations
    included, which covers all profiles up to irrelevant reshuffling.

    The firm side is checked once, in a base market that every profile's
    market shares. Each profile first tries the stable matchings found so
    far in this call, most recently confirmed first, with the full
    ``is_stable`` on its own market; only when none is stable does it call
    the complete ``solve``, whose result is re-checked with ``is_stable``
    and stored. So every settled profile is backed by a matching checked
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
    if total > budget and sample is None:
        raise BudgetError(
            f"{total} worker preference profiles exceed the budget of {budget}; "
            "pass a sample size to proceed"
        )
    if sample is None:
        profiles = itertools.product(*options)
    else:
        rng = random.Random(seed)
        profiles = (tuple(rng.choice(opts) for opts in options) for _ in range(sample))
    found: list[Matching] = []  # distinct: one is added only when all fail
    checked = solved = 0
    for profile in profiles:
        checked += 1
        market = base.with_worker_prefs(dict(zip(workers, profile)))
        for i, mu in enumerate(found):
            if is_stable(mu, market):
                found.insert(0, found.pop(i))
                break
        else:
            solved += 1
            mu = solve(market, with_certificates=False).matching
            if mu is None or not is_stable(mu, market):
                return SweepResult(
                    ok=False, total=total, checked=checked, sampled=sample is not None,
                    counterexample=market.worker_prefs, solved=solved,
                )
            found.insert(0, mu)
    return SweepResult(
        ok=True, total=total, checked=checked, sampled=sample is not None, solved=solved
    )


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
