"""Technology trees: nested worker requirements with ordered upgrades.

A tree vertex is a technology carrying the worker set needed to run it;
an edge is an upgrade to a strictly larger requirement. The certified
condition is that every worker's upgrades sit under a single vertex and
form a contiguous run of that vertex's ordered children.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Optional

from .matrices import ZeroOneMatrix, matrix_of_sets

Edge = tuple[str, str]  # (parent, child)


class TreeError(ValueError):
    """Malformed technology tree."""


def _breaks_line(name: str) -> bool:
    """Whether name holds a character that ``str.splitlines`` splits on."""
    return "".join(name.splitlines()) != name


@dataclass(frozen=True)
class TechnologyTree:
    """Rooted ordered tree; ``children`` order is the left-to-right order.

    Construction checks the root, the children keys, that every vertex is
    reached once by upgrades that strictly enlarge the worker set, and
    then that every name can be written in the outline ``parse_tree``
    reads: no vertex name holds ``:`` or a line boundary, starts with
    ``#`` or has surrounding whitespace, and no worker name is empty,
    holds ``,`` or a line boundary, or has surrounding whitespace.

    That check is the one walk over the tree: a stack walk in outline order
    (preorder, children left to right), so of several bad upgrades it names
    the first in that order. It is kept as ``outline``, the (vertex, depth)
    pairs every reader and writer uses, outside ``==`` and ``repr``.
    """

    root: str
    worker_sets: dict[str, frozenset[str]]
    children: dict[str, tuple[str, ...]]
    outline: tuple[tuple[str, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.root not in self.worker_sets:
            raise TreeError("root has no worker set")
        if self.worker_sets[self.root]:
            raise TreeError("the root technology must require no worker")
        for v in self.children:
            if v not in self.worker_sets:
                raise TreeError(f"children key {v} names no vertex")
        outline, seen, stack = [], {self.root}, [(self.root, 0)]
        while stack:
            v, depth = stack.pop()
            outline.append((v, depth))
            kids = self.children.get(v, ())
            for c in kids:
                if c in seen:
                    raise TreeError(f"vertex {c} reachable twice")
                if c not in self.worker_sets:
                    raise TreeError(f"vertex {c} has no worker set")
                if not self.worker_sets[v] < self.worker_sets[c]:
                    raise TreeError(
                        f"upgrade {v}->{c} must strictly enlarge the worker set"
                    )
                seen.add(c)
            stack.extend((c, depth + 1) for c in reversed(kids))
        if seen != set(self.worker_sets):
            raise TreeError("tree is not connected")
        object.__setattr__(self, "outline", tuple(outline))
        for v in self.worker_sets:
            if ":" in v or v.startswith("#") or v != v.strip() or _breaks_line(v):
                raise TreeError(f"vertex name {v!r} cannot be written in a tree outline")
        bad = [
            w
            for w in set().union(*self.worker_sets.values())
            if not w or "," in w or w != w.strip() or _breaks_line(w)
        ]
        if bad:
            raise TreeError(f"worker name {min(bad)!r} cannot be written in a tree outline")

    def vertices(self) -> list[str]:
        """Vertices in outline order."""
        return [v for v, _ in self.outline]

    def edges(self) -> list[Edge]:
        out = []
        for v in self.vertices():
            out.extend((v, c) for c in self.children.get(v, ()))
        return out

    def workers(self) -> list[str]:
        """All workers, in first-appearance (outline) order."""
        seen: set[str] = set()
        out = []
        for v in self.vertices():
            for w in sorted(self.worker_sets[v]):
                if w not in seen:
                    seen.add(w)
                    out.append(w)
        return out

    def reordered(self, orders: dict[str, tuple[str, ...]]) -> "TechnologyTree":
        """This tree with the children of each vertex of ``orders`` in the
        given order; a vertex missing from ``children`` is childless."""
        new = dict(self.children)
        for v, order in orders.items():
            if v not in self.worker_sets:
                raise TreeError(f"unknown vertex: {v}")
            if sorted(order) != sorted(self.children.get(v, ())):
                raise TreeError(f"reordering of {v} is not a permutation")
            new[v] = tuple(order)
        return TechnologyTree(self.root, self.worker_sets, new)


def engagements(t: TechnologyTree) -> dict[str, list[Edge]]:
    """Every worker's upgrades, in outline order, keyed in ``t.workers()``
    order; one walk over the edges, so the table is built once per tree."""
    table: dict[str, list[Edge]] = {w: [] for w in t.workers()}
    for v, c in t.edges():
        for w in t.worker_sets[c] - t.worker_sets[v]:
            table[w].append((v, c))
    return table


@dataclass(frozen=True)
class NeighbourCertificate:
    verdict: str  # PASS | FAIL
    worker: Optional[str] = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.verdict == "PASS"

    def render(self) -> str:
        if self.ok:
            return "PASS"
        return f"FAIL: worker {self.worker}: {self.detail}"

    def as_dict(self) -> dict:
        return {"verdict": self.verdict, "worker": self.worker, "detail": self.detail}


def _engaged(eng: list[Edge], t: TechnologyTree) -> tuple[list[str], list[int]]:
    """The sorted vertices a worker's upgrades ``eng`` leave and, when there
    is exactly one, the sorted positions of its engaged children there."""
    sources = sorted({v for v, _ in eng})
    if len(sources) != 1:
        return sources, []
    kids = t.children[sources[0]]
    return sources, sorted(kids.index(c) for _, c in eng)


def _first_gap(positions: list[int]) -> Optional[tuple[int, int, int]]:
    """The first (lo, mid, hi) with mid missing between neighbours lo and hi
    of the sorted, distinct positions; None when they are contiguous."""
    for lo, hi in zip(positions, positions[1:]):
        if hi > lo + 1:
            return lo, lo + 1, hi
    return None


def check_neighbour_condition(t: TechnologyTree) -> NeighbourCertificate:
    """Every worker's upgrades come from one vertex and are contiguous there."""
    for w, eng in engagements(t).items():
        sources, positions = _engaged(eng, t)
        if len(sources) > 1:
            a, b = sources[:2]
            return NeighbourCertificate(
                verdict="FAIL",
                worker=w,
                detail=f"engages in upgrades from distinct vertices {a} and {b}",
            )
        gap = _first_gap(positions)
        if gap is not None:
            v, (lo, mid, hi) = sources[0], gap
            kids = t.children[v]
            return NeighbourCertificate(
                verdict="FAIL",
                worker=w,
                detail=(
                    f"upgrades {v}->{kids[lo]} and {v}->{kids[hi]} are separated "
                    f"by {v}->{kids[mid]}"
                ),
            )
    return NeighbourCertificate(verdict="PASS")


MAX_PERMUTE_CHILDREN = 6


def find_neighbour_ordering(t: TechnologyTree) -> Optional[TechnologyTree]:
    """Exhaustive child-reordering search for an order satisfying the
    contiguity condition, or None when no ordering works.

    Reordering cannot merge engagement sources, so a worker engaging at
    two vertices rules out every ordering immediately. Otherwise each
    vertex is solved independently.
    """
    per_vertex: dict[str, list[list[int]]] = {}
    for eng in engagements(t).values():
        sources, positions = _engaged(eng, t)
        if len(sources) > 1:
            return None
        if len(positions) > 1:
            per_vertex.setdefault(sources[0], []).append(positions)
    orders: dict[str, tuple[str, ...]] = {}
    for v, groups in per_vertex.items():
        kids = t.children[v]
        if len(kids) > MAX_PERMUTE_CHILDREN:
            raise TreeError(
                f"vertex {v} has more than {MAX_PERMUTE_CHILDREN} children; "
                "permutation search capped"
            )
        found = None
        for perm in itertools.permutations(range(len(kids))):
            pos = {orig: where for where, orig in enumerate(perm)}
            if all(_first_gap(sorted(pos[i] for i in g)) is None for g in groups):
                found = tuple(kids[i] for i in perm)
                break
        if found is None:
            return None
        orders[v] = found
    return t.reordered(orders)


def worker_set_matrix(t: TechnologyTree) -> ZeroOneMatrix:
    """Indicator matrix of the distinct nonempty technology worker sets.

    Each column is labelled by the first vertex, in outline order, that
    carries its set, so a label is as short as a vertex name however many
    workers the set holds, and the rendered matrix grows as workers x sets.
    """
    first: dict[frozenset[str], str] = {}
    for v in t.vertices():
        if t.worker_sets[v]:
            first.setdefault(t.worker_sets[v], v)
    return replace(matrix_of_sets(first, t.workers()), cols=tuple(first.values()))
