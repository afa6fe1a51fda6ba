"""Hypergraph views of a market and odd-cycle balancedness checks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .market import Market, acceptable_set_family, acceptable_sets
from .matrices import is_balanced, matrix_of_sets, set_label


@dataclass(frozen=True)
class Hypergraph:
    """Vertices with labelled edges (vertex sets), deduplicated by content."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, frozenset[str]], ...]

    def __post_init__(self):
        vs = set(self.vertices)
        seen: set[frozenset[str]] = set()
        for label, members in self.edges:
            if not members <= vs:
                raise ValueError(f"edge {label} leaves the vertex set")
            if members in seen:
                raise ValueError(f"duplicate edge content: {label}")
            seen.add(members)


@dataclass(frozen=True)
class HyperCycle:
    """Alternating cycle (v1, E1, v2, E2, ..., vk, Ek) of distinct parts, k >= 2."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, frozenset[str]], ...]

    def __post_init__(self):
        k = len(self.vertices)
        if k < 2 or len(self.edges) != k:
            raise ValueError("a cycle needs k >= 2 vertices and as many edges")
        if len(set(self.vertices)) != k:
            raise ValueError("cycle vertices must be distinct")
        if len({members for _, members in self.edges}) != k:
            raise ValueError("cycle edges must be distinct")
        for i in range(k):
            a, b = self.vertices[i], self.vertices[(i + 1) % k]
            if a not in self.edges[i][1] or b not in self.edges[i][1]:
                raise ValueError("consecutive vertices must share the linking edge")

    @property
    def length(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class HypergraphCertificate:
    verdict: str  # PASS | FAIL
    cycle: Optional[HyperCycle] = None

    @property
    def ok(self) -> bool:
        return self.verdict == "PASS"

    def as_dict(self) -> dict:
        data = {"verdict": self.verdict}
        if self.cycle is not None:
            data["cycle_vertices"] = list(self.cycle.vertices)
            data["cycle_edges"] = [label for label, _ in self.cycle.edges]
        return data

    def render(self) -> str:
        if self.cycle is None:
            return self.verdict
        parts = []
        for v, (label, _) in zip(self.cycle.vertices, self.cycle.edges):
            parts.append(v)
            parts.append(label)
        return f"{self.verdict}\nodd cycle: ({', '.join(parts)})"


def acceptable_set_hypergraph(m: Market) -> Hypergraph:
    """Workers as vertices; non-singleton acceptable sets as edges."""
    edges = tuple((set_label(s), s) for s in acceptable_set_family(m) if len(s) >= 2)
    return Hypergraph(vertices=m.workers, edges=edges)


def firm_worker_hypergraph(m: Market) -> Hypergraph:
    """Firms and workers as vertices; one edge {f} | S per acceptable set, all
    distinct since a chain repeats no set and no firm is also a worker."""
    edges = tuple((f + ":" + set_label(s), s | {f}) for f in m.firms for s in acceptable_sets(f, m))
    return Hypergraph(vertices=m.firms + m.workers, edges=edges)


def check_hypergraph_balanced(h: Hypergraph) -> HypergraphCertificate:
    """PASS iff every odd cycle has an edge with three or more cycle vertices.

    Decided by ``is_balanced`` on the incidence matrix (Berge), uncapped; a
    FAIL names a shortest bad odd cycle.
    """
    mat = matrix_of_sets((members for _, members in h.edges), h.vertices)
    cert = is_balanced(mat, cap=max(mat.shape))
    if cert.ok:
        return HypergraphCertificate(verdict="PASS")
    return HypergraphCertificate(
        verdict="FAIL", cycle=_cycle(h, cert.witness_rows, cert.witness_cols)
    )


def _cycle(h: Hypergraph, rows: tuple[int, ...], cols: tuple[int, ...]) -> HyperCycle:
    """Walk a two-per-line witness as one cycle, from its first row.

    The first witness has the smallest odd order, so it is a single
    cycle: an odd component of a larger one would have been found first.
    """
    on = {h.vertices[i] for i in rows}
    left = [h.edges[j] for j in cols]
    cur, vs, es = h.vertices[rows[0]], [], []
    while left:
        edge = next(e for e in left if cur in e[1])
        left.remove(edge)
        vs.append(cur)
        es.append(edge)
        (cur,) = edge[1] & (on - {cur})
    return HyperCycle(vertices=tuple(vs), edges=tuple(es))
