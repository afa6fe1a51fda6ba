"""Preference classification, complementarity graphs, and firm decompositions.

Classification reads switches. A switch (A, D, h) of firm f has h in
D - A, ``choose(A | D) == D`` and ``choose((A | D) - {h}) == A``: making h
available switches f's choice from A to D. Every single-worker expansion
T -> T | {h} that changes f's choice gives one, with A = choose(T) and
D = choose(T | {h}): D holds h and ranks before A (an empty A ranks
last), and (A | D) - {h} and A | D choose like T and T | {h}, since each
lies between the set chosen and the set available.

Switches are read off bitmasks, with no ``choose`` call. A firm's
potential employees (the workers of its acceptable sets) are numbered
once, in sorted-name order, one bit each, and its acceptable sets
A_0..A_{L-1}, in chain order, become masks. A set chosen from u is the
first acceptable set inside u. Take D = A_i and A = A_j with i < j, or
A empty with j = L, and u = A | D:

- ``choose(u) == D`` iff no A_k with k < i lies inside u;
- then ``choose(u - {h}) == A`` iff h is in D - A and in every A_k inside
  u with i <= k < j: each of those comes before A, so each must lose a
  worker, and h is the only worker gone.

So a pair's valid h form one mask, ``(D & ~A) & AND{A_k : i <= k < j, A_k
inside u}``, at O(L) mask operations per pair and O(L^3) per firm. On
``nested_market(120)``, one chain of 120 nested sets, ``balmatch solve
--decompose components`` takes 0.4 s where ``choose`` calls took 22 s
(one shell call each, Python 3.11 on a shared 2-vCPU x86-64 host).

``decompose_by_sets`` also indexes fractional matchings: split firm f#k
names the column (f, S_k), and ``origin`` maps it back to f.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .market import FirmPreference, Market, MarketError, acceptable_sets


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


def _numbering(acc: list[frozenset[str]]) -> tuple[list[str], list[int]]:
    """The workers of a firm's acceptable sets in sorted-name order, and
    each set as a mask with bit k for the k-th of those workers."""
    names = sorted(set().union(*acc))
    bit = {w: 1 << k for k, w in enumerate(names)}
    return names, [sum(map(bit.__getitem__, s)) for s in acc]


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _switches(masks: list[int], dropping: bool) -> Iterator[tuple[int, int, int, int]]:
    """Every switch (A, D, h) of a firm whose acceptable sets are ``masks``,
    by the module's mask rule, grouped by pair as (i, j, D - A, valid h):
    two indices, then two masks.

    D is A_i and A is A_j with i < j, or empty with j = L; pairs come i
    ascending, then j ascending, and only those with a valid h. With
    ``dropping``, only the pairs whose A is not inside D are read.
    """
    last = len(masks)
    for i, d in enumerate(masks):
        for j in range(i + 1, last + (not dropping)):
            a = masks[j] if j < last else 0
            if dropping and not a & ~d:
                continue
            off = ~(a | d)
            for s in masks[:i]:
                if not s & off:  # an earlier set lies inside A | D
                    break
            else:
                gain = hs = d & ~a
                for s in masks[i + 1 : j]:
                    if not s & off:
                        hs &= s
                if hs:
                    yield i, j, gain, hs


def complementarity_witness(f: str, m: Market) -> Optional[tuple[frozenset[str], str]]:
    """A pair (S, x) with ``choose(S)`` not a subset of ``choose(S | {x})``, or None.

    Such a pair exists exactly when an acceptable set A is dropped by a
    switch to an acceptable set D ranked before it with A not inside D:
    every chosen set is acceptable, and a switch from A to D keeps A only
    when A is a subset of D. The first such switch, in the scan's order,
    gives S = (A | D) - {x}, with x its valid h of smallest name.

    Switches come off the masks by the module's rule: no earlier set lies
    inside A | D, and h lies in every A_k inside it with i <= k < j. Over
    a chain of L acceptable sets that is O(L^3) mask operations and no
    ``choose`` call.
    """
    acc = acceptable_sets(f, m)
    if len(acc) < 2:  # no pair to switch between
        return None
    names, masks = _numbering(acc)
    for i, j, _, hs in _switches(masks, dropping=True):
        x = names[next(_bits(hs))]
        return (acc[i] | acc[j]) - {x}, x
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

    Vertices are the workers of f's acceptable sets. {w, h} is an edge
    when, for some set S without h, w is outside ``choose(S)`` but inside
    ``choose(S | {h})``. That happens exactly at a switch (A, D, h) with w
    in D - A, where D is acceptable and A is empty or an acceptable set
    ranked after D.

    Switches come off the masks by the module's rule, as for
    ``complementarity_witness``: O(L^3) mask operations over a chain of L
    acceptable sets, and no ``choose`` call.
    """
    names, masks = _numbering(acceptable_sets(f, m))
    gains = [0] * len(names)  # gains[h]: the workers h's arrival can make chosen
    for _, _, gain, hs in _switches(masks, dropping=False):
        for h in _bits(hs):
            gains[h] |= gain
    edges = frozenset(
        frozenset({names[h], names[w]})
        for h, gain in enumerate(gains)
        for w in _bits(gain & ~(1 << h))
    )
    return ComplementarityGraph(firm=f, vertices=frozenset(names), edges=edges)


def _components(masks: list[int], firm: Optional[str] = None) -> list[int]:
    """The components of the complementarity graph of a firm whose
    acceptable sets are ``masks``, as masks, in no fixed order.

    A switch joins its h to every worker of D - A, so D - A lies in one
    component, and no other edge exists. Every vertex lies in some D - A:
    a worker w of A_k switches the choice from A_k - {w} to A_k.

    With ``firm`` named, the same scan checks that the firm is
    complementary: its first pair with j < L and A_j not inside A_i (the
    first pair the dropping scan yields) raises the ``MarketError`` that
    names ``firm``.
    """
    last = len(masks)
    comps: list[int] = []
    for i, j, gain, _ in _switches(masks, dropping=False):
        if firm is not None and j < last and masks[j] & ~masks[i]:
            raise MarketError(f"firm {firm} does not have a complementary preference")
        rest = []
        for c in comps:
            if c & gain:
                gain |= c
            else:
                rest.append(c)
        comps = rest + [gain]
    return comps


def primitive_acceptable_sets(f: str, m: Market) -> list[frozenset[str]]:
    """Acceptable sets whose workers all lie in one component of the graph."""
    acc = acceptable_sets(f, m)
    _, masks = _numbering(acc)
    comps = _components(masks)
    return [s for s, mask in zip(acc, masks) if any(not mask & ~c for c in comps)]


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
    One switch scan per firm reads both its components and whether it is
    complementary; the first firm that is not raises ``MarketError``.
    """
    windex = {w: i for i, w in enumerate(m.workers)}

    def parts(f: str) -> list[tuple[frozenset[str], ...]]:
        acc = acceptable_sets(f, m)
        names, masks = _numbering(acc)
        comps = sorted(
            _components(masks, firm=f), key=lambda c: min(windex[names[k]] for k in _bits(c))
        )
        return [tuple(s for s, mask in zip(acc, masks) if not mask & ~c) for c in comps]

    return _split_firms(m, parts)
