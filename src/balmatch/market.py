"""Matching markets, choice functions, and discrete stability checking.

Firms rank whole worker sets through a finite chain of candidate sets
(best first); every set not on the chain is worse than the empty set.
Workers rank firms through a partial list; unlisted firms are worse
than staying unmatched.

``find_block`` and ``is_stable`` share one individual-rationality scan
and one block scan: ``find_block`` reports every IR violation, with its
message, in market order, and ``is_stable`` stops at the first IR
violation or block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional


class MarketError(ValueError):
    """Malformed market, matching, or identifier."""


@dataclass(frozen=True)
class FirmPreference:
    """A firm's preference as a strict chain of candidate worker sets.

    ``acceptable`` is computed once, at construction: the chain sets, in
    chain order, with no earlier chain set inside them, i.e. exactly the
    sets s with ``choose(f, s) == s``. It depends on the chain alone, so
    every market sharing this preference reads it without recomputing.
    It takes no part in ``==``, ``hash`` or ``repr``.

    Construction checks the chain at set level, in one pass that also
    builds ``acceptable``: the first set, in chain order, that is empty or
    repeats an earlier set is rejected. Each set is tested for inclusion
    only against the earlier *acceptable* sets, and that is exact: an
    earlier chain set inside s is either acceptable or, by induction along
    the chain, holds an earlier acceptable set, which then lies inside s.
    """

    chain: tuple[frozenset[str], ...]
    acceptable: tuple[frozenset[str], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        seen, acceptable = set(), []
        for s in self.chain:
            if not s:
                raise MarketError("empty set in preference chain")
            if s in seen:
                raise MarketError(f"duplicate set in preference chain: {sorted(s)}")
            seen.add(s)
            for a in acceptable:
                if a <= s:
                    break
            else:
                acceptable.append(s)
        object.__setattr__(self, "acceptable", tuple(acceptable))

    @staticmethod
    def of(*sets: Iterable[str]) -> "FirmPreference":
        return FirmPreference(tuple(frozenset(s) for s in sets))


@dataclass(frozen=True)
class Market:
    """A two-sided many-to-one matching market.

    ``worker_prefs[w]`` lists acceptable firms best-first; ``firm_prefs[f]``
    is the firm's chain. Immutable after construction, and nothing but its
    four fields: the stability checks read the worker lists themselves,
    and ``solve`` reads coalition tables of its own.

    Construction checks identifiers (no firm may be named ``null``), firm
    keys and every chain's workers, then worker keys and lists. Each chain
    set is checked whole, with one ``s <= workers``; only a set that fails
    is read element by element, to name its smallest unknown worker, so
    the message does not depend on set iteration order
    (``PYTHONHASHSEED``). Each list's set, built once for the duplicate
    test, is checked whole with one ``<= firms``; only a list that fails
    is read in order, to name its first unknown firm.
    """

    workers: tuple[str, ...]
    firms: tuple[str, ...]
    worker_prefs: dict[str, tuple[str, ...]]
    firm_prefs: dict[str, FirmPreference]

    def __post_init__(self):
        wset = set(self.workers)
        if len(wset) != len(self.workers):
            raise MarketError("duplicate worker identifiers")
        fset = set(self.firms)
        if len(fset) != len(self.firms):
            raise MarketError("duplicate firm identifiers")
        if not wset.isdisjoint(fset):
            raise MarketError("identifier used as both worker and firm")
        if "null" in fset:  # the unmatched, in the text matching and the .frac table
            raise MarketError("firm name null is reserved for the unmatched")
        if set(self.firm_prefs) != fset:
            raise MarketError("firm_prefs keys must match firms")
        for f, pref in self.firm_prefs.items():
            for s in pref.chain:
                if not s <= wset:
                    raise MarketError(f"unknown worker {min(s - wset)} in chain of firm {f}")
        if set(self.worker_prefs) != wset:
            raise MarketError("worker_prefs keys must match workers")
        for w, lst in self.worker_prefs.items():
            listed = set(lst)
            if len(listed) != len(lst):
                raise MarketError(f"duplicate firm in preference list of {w}")
            if not listed <= fset:
                f = next(f for f in lst if f not in fset)
                raise MarketError(f"unknown firm {f} in preference list of {w}")

    @staticmethod
    def build(
        workers: Iterable[str],
        firm_chains: dict[str, Iterable[Iterable[str]]],
        worker_prefs: dict[str, Iterable[str]],
    ) -> "Market":
        return Market(
            workers=tuple(workers),
            firms=tuple(firm_chains),
            worker_prefs={w: tuple(p) for w, p in worker_prefs.items()},
            firm_prefs={f: FirmPreference.of(*c) for f, c in firm_chains.items()},
        )

    def require_firm(self, f: str):
        if f not in self.firm_prefs:
            raise MarketError(f"unknown firm: {f}")


@dataclass(frozen=True)
class Matching:
    """A total assignment of workers to firms; None is the null firm."""

    assignment: dict[str, Optional[str]]

    def firm_of(self, w: str) -> Optional[str]:
        return self.assignment[w]

    def inverse(self) -> dict[Optional[str], frozenset[str]]:
        out: dict[Optional[str], set[str]] = {}
        for w, f in self.assignment.items():
            out.setdefault(f, set()).add(w)
        return {f: frozenset(s) for f, s in out.items()}


@dataclass(frozen=True)
class BlockReport:
    """Outcome of a stability check: at most one block, plus IR violations."""

    blocking: Optional[tuple[str, frozenset[str]]] = None
    ir_violations: tuple[tuple[str, str], ...] = ()

    @property
    def empty(self) -> bool:
        return self.blocking is None and not self.ir_violations


def choose(f: Optional[str], available: Iterable[str], m: Market) -> frozenset[str]:
    """The firm's choice from an available set.

    The null firm (None) takes everything; a real firm takes its
    best-ranked chain set contained in the available set, or nothing.
    """
    s = frozenset(available)
    if unknown := s - m.worker_prefs.keys():  # the smallest, whatever the hash seed
        raise MarketError(f"unknown worker: {min(unknown)}")
    if f is None:
        return s
    m.require_firm(f)
    for cand in m.firm_prefs[f].chain:
        if cand <= s:
            return cand
    return frozenset()


def acceptable_sets(f: str, m: Market) -> list[frozenset[str]]:
    """All sets s on f's chain with choose(f, s) == s, in chain order."""
    m.require_firm(f)
    return list(m.firm_prefs[f].acceptable)


def acceptable_set_family(m: Market) -> list[frozenset[str]]:
    """Every firm's acceptable sets, each once: firm order, then chain order.

    A set acceptable to several firms keeps its first position, so matrix
    columns and the witness indices that name them are stable.
    """
    return list(dict.fromkeys(s for f in m.firms for s in acceptable_sets(f, m)))


def _check_matching(mu: Matching, m: Market) -> dict[str, set[str]]:
    """Each firm's matched workers, as a plain set, in one pass over the
    assignment; a firm that holds nothing is absent. Raises ``MarketError``
    unless every worker is assigned exactly once, to a firm of the market
    or to the null firm."""
    assignment = mu.assignment
    if assignment.keys() != m.worker_prefs.keys():
        raise MarketError("matching must assign every worker exactly once")
    firms = m.firm_prefs
    held: dict[str, set[str]] = {}
    for w, f in assignment.items():
        if f is not None:
            if f not in firms:
                m.require_firm(f)
            s = held.get(f)
            if s is None:
                held[f] = {w}
            else:
                s.add(w)
    return held


def _ir_violations(
    m: Market, assignment: dict[str, Optional[str]], held: dict[str, set[str]], first: bool
) -> list[tuple[str, str | set[str]]]:
    """The IR violations of a checked matching in market order, workers
    then firms: (worker, firm) for a worker at a firm she does not list,
    (firm, set) for a firm whose matched set is not acceptable to it. With
    ``first``, the scan stops at the first one."""
    out: list[tuple[str, str | set[str]]] = []
    prefs = m.worker_prefs
    for w in m.workers:
        f = assignment[w]
        if f is not None and f not in prefs[w]:
            out.append((w, f))
            if first:
                return out
    firm_prefs = m.firm_prefs
    for f in m.firms:
        s = held.get(f)
        if s and s not in firm_prefs[f].acceptable:
            out.append((f, s))
            if first:
                return out
    return out


def find_block(mu: Matching, m: Market) -> BlockReport:
    """Every IR violation, else the first blocking pair in canonical order.

    Canonical order: firms in market order, each firm's acceptable sets
    best-first. A coalition (f, S) blocks iff S is acceptable to f,
    S > mu(f) for f, and every worker in S weakly prefers f to her match.

    Once the matching is individually rational, each firm holds nothing
    or one of its acceptable sets, so the scan reads the firm's
    precomputed ``acceptable`` tuple best-first and stops at its current
    set: no later set is strictly preferred to it.
    """
    held = _check_matching(mu, m)
    ir = _ir_violations(m, mu.assignment, held, False)
    if ir:  # worker and firm names are disjoint, so the name tells the kind
        return BlockReport(ir_violations=tuple(
            (who, f"matched to unacceptable firm {what}") if who in m.worker_prefs
            else (who, f"assignment {sorted(what)} is not its own choice")
            for who, what in ir
        ))
    return BlockReport(blocking=_first_block(m, mu.assignment, held))


def _first_block(
    m: Market,
    assignment: dict[str, Optional[str]],
    held: dict[str, set[str]],
) -> Optional[tuple[str, frozenset[str]]]:
    """First blocking coalition of a total, individually rational
    assignment in canonical order, or None; ``held`` maps each firm to
    its matched set (a firm that holds nothing may be absent)."""
    prefs = m.worker_prefs
    for f in m.firms:
        current = held.get(f)
        for s in m.firm_prefs[f].acceptable:
            if s == current:
                break
            # s blocks unless a member does not weakly prefer f to her firm g:
            # f is unlisted, or g (listed, by IR) comes before f
            for w in s:
                lst = prefs[w]
                if f not in lst or assignment[w] in lst[:lst.index(f)]:
                    break
            else:
                return f, s
    return None


def is_stable(mu: Matching, m: Market) -> bool:
    """``find_block(mu, m).empty``, by the same two scans, but stopping at
    the first IR violation or block: no message and no report is built."""
    held = _check_matching(mu, m)
    assignment = mu.assignment
    return not _ir_violations(m, assignment, held, True) and _first_block(m, assignment, held) is None
