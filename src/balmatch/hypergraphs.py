"""Hypergraph views of a market and odd-cycle balancedness checks."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .market import Market, acceptable_set_family, acceptable_sets
from .matrices import set_label


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

    def to_json(self) -> str:
        data = {"verdict": self.verdict}
        if self.cycle is not None:
            data["cycle_vertices"] = list(self.cycle.vertices)
            data["cycle_edges"] = [label for label, _ in self.cycle.edges]
        return json.dumps(data, indent=2)

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
    """Firms and workers as vertices; one edge {f} | S per acceptable set."""
    seen: set[frozenset[str]] = set()
    edges = []
    for f in m.firms:
        for s in acceptable_sets(f, m):
            members = s | {f}
            if members not in seen:
                seen.add(members)
                edges.append((f + ":" + set_label(s), members))
    return Hypergraph(vertices=m.firms + m.workers, edges=tuple(edges))


def _find_bad_odd_cycle(h: Hypergraph) -> Optional[HyperCycle]:
    """First odd cycle (k >= 3) whose every edge holds exactly two cycle vertices.

    DFS over the alternating vertex/edge structure in canonical order;
    duplicate traversals are avoided by anchoring each cycle at its
    smallest vertex.
    """
    vindex = {v: i for i, v in enumerate(h.vertices)}
    incident: dict[str, list[int]] = {v: [] for v in h.vertices}
    for ei, (_, members) in enumerate(h.edges):
        for v in members:
            incident[v].append(ei)

    def close_check(path_vs: list[str], path_es: list[int]) -> Optional[HyperCycle]:
        k = len(path_vs)
        if k < 3 or k % 2 == 0:
            return None
        vs = set(path_vs)
        for ei in path_es:
            if len(h.edges[ei][1] & vs) != 2:
                return None
        return HyperCycle(
            vertices=tuple(path_vs),
            edges=tuple(h.edges[ei] for ei in path_es),
        )

    for start in h.vertices:
        hit = _dfs_cycle(h, incident, vindex, start, close_check)
        if hit is not None:
            return hit
    return None


def _dfs_cycle(h, incident, vindex, start, close_check):
    path_vs = [start]
    path_es: list[int] = []
    used_v = {start}
    used_e: set[int] = set()

    def rec() -> Optional["HyperCycle"]:
        cur = path_vs[-1]
        for ei in incident[cur]:
            if ei in used_e:
                continue
            members = h.edges[ei][1]
            if start in members and len(path_vs) >= 2:
                path_es.append(ei)
                used_e.add(ei)
                hit = close_check(path_vs, path_es)
                used_e.discard(ei)
                path_es.pop()
                if hit is not None:
                    return hit
            for nxt in sorted(members, key=vindex.get):
                if nxt in used_v or vindex[nxt] < vindex[start]:
                    continue
                path_vs.append(nxt)
                path_es.append(ei)
                used_v.add(nxt)
                used_e.add(ei)
                hit = rec()
                used_e.discard(ei)
                used_v.discard(nxt)
                path_es.pop()
                path_vs.pop()
                if hit is not None:
                    return hit
        return None

    return rec()


def check_hypergraph_balanced(h: Hypergraph) -> HypergraphCertificate:
    """PASS iff every odd cycle has an edge with three or more cycle vertices."""
    cycle = _find_bad_odd_cycle(h)
    if cycle is None:
        return HypergraphCertificate(verdict="PASS")
    return HypergraphCertificate(verdict="FAIL", cycle=cycle)


def check_odd_cycle_condition(h: Hypergraph) -> HypergraphCertificate:
    """The acceptable-set form of the balanced-hypergraph check."""
    return check_hypergraph_balanced(h)
