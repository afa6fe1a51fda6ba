"""Preference classification, complementarity graphs, and firm decompositions.

``decompose_by_sets`` also indexes fractional matchings: split firm f#k
names the column (f, S_k), and ``origin`` maps it back to f.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .market import (
    FirmPreference,
    Market,
    MarketError,
    acceptable_sets,
    choose,
)


@dataclass(frozen=True)
class ComplementarityGraph:
    """Undirected graph joining workers that are complements for one firm."""

    firm: str
    vertices: frozenset[str]
    edges: frozenset[frozenset[str]]

    def components(self) -> list[frozenset[str]]:
        """Connected components as vertex sets (order unspecified)."""
        seen: set[str] = set()
        comps = []
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for e in self.edges:
            a, b = tuple(e)
            adj[a].add(b)
            adj[b].add(a)
        for v in self.vertices:
            if v in seen:
                continue
            comp, stack = {v}, [v]
            while stack:
                u = stack.pop()
                for x in adj[u] - comp:
                    comp.add(x)
                    stack.append(x)
            seen |= comp
            comps.append(frozenset(comp))
        return comps


@dataclass(frozen=True)
class DecomposedMarket:
    """A market whose firms were split from an original market's firms."""

    market: Market
    origin: dict[str, tuple[str, int]]  # new firm -> (original firm, 1-based index)

    def siblings(self, original: str) -> list[str]:
        return [f for f in self.market.firms if self.origin[f][0] == original]


def potential_employees(f: str, m: Market) -> frozenset[str]:
    """Workers appearing in some acceptable set of f."""
    out: set[str] = set()
    for s in acceptable_sets(f, m):
        out |= s
    return frozenset(out)


def _switches(
    f: str, m: Market, pairs: Iterable[tuple[frozenset[str], frozenset[str]]]
) -> Iterator[tuple[frozenset[str], frozenset[str], str]]:
    """Yield every (A, D, h) among the given pairs of choice sets such that
    ``choose((A | D) - {h}) == A``, ``choose(A | D) == D`` and h is in D - A.

    With S = (A | D) - {h}, making h available switches f's choice from A
    to D. Every single-worker expansion T -> T | {h} that changes f's
    choice gives such a triple, with A = choose(T) and D = choose(T | {h}):
    D holds h and ranks before A (an empty A ranks last), and
    ``(A | D) - {h}`` and ``A | D`` choose like T and T | {h}, since each
    lies between the set chosen and the set available. Each pair costs at
    most |D - A| + 1 ``choose`` calls.
    """
    for a, d in pairs:
        u = a | d
        if choose(f, u, m) != d:
            continue
        for h in sorted(d - a):
            if choose(f, u - {h}, m) == a:
                yield a, d, h


def complementarity_witness(f: str, m: Market) -> Optional[tuple[frozenset[str], str]]:
    """A pair (S, x) with ``choose(S)`` not a subset of ``choose(S | {x})``, or None.

    Such a pair exists exactly when an acceptable set A is dropped by a
    switch to an acceptable set D ranked before it with A not inside D:
    every chosen set is acceptable, and a switch from A to D keeps A only
    when A is a subset of D. Over a chain of L acceptable sets and n
    workers this takes O(L^2 * n) ``choose`` calls.
    """
    acc = acceptable_sets(f, m)
    pairs = ((a, d) for i, d in enumerate(acc) for a in acc[i + 1 :] if not a <= d)
    for a, d, h in _switches(f, m, pairs):
        return (a | d) - {h}, h
    return None


def is_complementary(f: str, m: Market) -> bool:
    """Choice membership never shrinks as the available set expands.

    True exactly when ``complementarity_witness`` finds no pair.
    """
    return complementarity_witness(f, m) is None


def is_additive(f: str, m: Market) -> bool:
    """Every disjoint pair of acceptable sets has an acceptable union."""
    acc = acceptable_sets(f, m)
    accset = set(acc)
    for a, b in itertools.combinations(acc, 2):
        if not (a & b) and (a | b) not in accset:
            return False
    return True


def complementarity_graph(f: str, m: Market) -> ComplementarityGraph:
    """Edges join pairs where one worker's availability makes the other chosen.

    Vertices are f's potential employees. {w, h} is an edge when, for some
    set S without h, w is outside ``choose(S)`` but inside
    ``choose(S | {h})``. That happens exactly at a switch (A, D, h) of
    ``_switches`` with w in D - A, where D is acceptable and A is empty or
    an acceptable set ranked after D. Over a chain of L acceptable sets
    and n workers this takes O(L^2 * n) ``choose`` calls.
    """
    acc = acceptable_sets(f, m)
    pairs = ((a, d) for i, d in enumerate(acc) for a in (frozenset(), *acc[i + 1 :]))
    edges: set[frozenset[str]] = set()
    for a, d, h in _switches(f, m, pairs):
        edges.update(frozenset({h, w}) for w in d - a if w != h)
    return ComplementarityGraph(
        firm=f, vertices=potential_employees(f, m), edges=frozenset(edges)
    )


def primitive_acceptable_sets(f: str, m: Market) -> list[frozenset[str]]:
    """Acceptable sets whose workers all lie in one component of the graph."""
    comps = complementarity_graph(f, m).components()
    out = []
    for s in acceptable_sets(f, m):
        if any(s <= c for c in comps):
            out.append(s)
    return out


def _split_firms(
    m: Market, parts: Callable[[str], list[tuple[frozenset[str], ...]]]
) -> DecomposedMarket:
    """Replace every firm f by one sibling firm per chain in ``parts(f)``.

    Siblings keep the firm's old slot in each worker list, in the order of
    ``parts(f)``. A firm with a single part keeps its name.
    """
    replacement: dict[str, list[str]] = {}
    chains: dict[str, FirmPreference] = {}
    origin: dict[str, tuple[str, int]] = {}
    for f in m.firms:
        chain_parts = parts(f)
        if not chain_parts:
            raise MarketError(f"firm {f} has no acceptable set")
        count = len(chain_parts)
        names = [f] if count == 1 else [f"{f}#{k}" for k in range(1, count + 1)]
        replacement[f] = names
        for k, (name, chain) in enumerate(zip(names, chain_parts), start=1):
            if name in chains or (name != f and name in m.firm_prefs):
                raise MarketError(f"decomposed firm name collides: {name}")
            chains[name] = FirmPreference(chain)
            origin[name] = (f, k)
    worker_prefs = {
        w: tuple(g for f in lst for g in replacement[f]) for w, lst in m.worker_prefs.items()
    }
    new = Market(
        workers=m.workers, firms=tuple(chains), worker_prefs=worker_prefs, firm_prefs=chains
    )
    return DecomposedMarket(market=new, origin=origin)


def decompose_by_sets(m: Market) -> DecomposedMarket:
    """Split every firm into one single-acceptable-set firm per acceptable set.

    Siblings keep the firm's old slot in each worker list, ordered like
    their sets on the firm's chain. A firm with a single acceptable set
    keeps its name.
    """
    return _split_firms(m, lambda f: [(s,) for s in acceptable_sets(f, m)])


def decompose_by_components(m: Market) -> DecomposedMarket:
    """Split every firm into one firm per component of its complementarity graph.

    Each new firm's chain holds the original firm's acceptable sets inside
    that component, in the original chain order; components are ordered by
    their smallest worker (market order) so sibling order is deterministic.
    """
    windex = {w: i for i, w in enumerate(m.workers)}

    def parts(f: str) -> list[tuple[frozenset[str], ...]]:
        if not is_complementary(f, m):
            raise MarketError(f"firm {f} does not have a complementary preference")
        comps = sorted(
            complementarity_graph(f, m).components(),
            key=lambda c: min(windex[w] for w in c),
        )
        acc = acceptable_sets(f, m)
        return [tuple(s for s in acc if s <= comp) for comp in comps]

    return _split_firms(m, parts)

