"""Hypergraph views of a market and odd-cycle balancedness checks.

A hypergraph is its incidence matrix: a ``ZeroOneMatrix`` with one row
per vertex and one labelled column per edge, balanced exactly when the
matrix is (Berge, "Balanced matrices", Math. Programming 1972).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .market import Market, acceptable_set_family, acceptable_sets
from .matrices import MatrixCertificate, ZeroOneMatrix, cycle_walk, is_balanced, matrix_of_sets, set_label


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


def acceptable_set_hypergraph(m: Market) -> ZeroOneMatrix:
    """Workers as rows; one column per acceptable set, labelled by its set.

    Singleton sets stay: each is a column with one 1, so it lies on no cycle.
    """
    return matrix_of_sets(acceptable_set_family(m), m.workers)


def firm_worker_hypergraph(m: Market) -> ZeroOneMatrix:
    """Firms then workers as rows; one column {f} | S per acceptable set S
    of f, labelled ``f:{S}``, all distinct since a chain repeats no set and
    no firm is also a worker."""
    pairs = [(f, s) for f in m.firms for s in acceptable_sets(f, m)]
    h = matrix_of_sets((s | {f} for f, s in pairs), m.firms + m.workers)
    return replace(h, cols=tuple(f + ":" + set_label(s) for f, s in pairs))


def check_hypergraph_balanced(h: ZeroOneMatrix) -> HypergraphCertificate:
    """PASS iff every odd cycle has an edge with three or more cycle vertices.

    Decided by ``is_balanced`` on the incidence matrix (Berge), uncapped; a
    FAIL names a shortest bad odd cycle.
    """
    cert = is_balanced(h, cap=max(h.shape))
    if cert.ok:
        return HypergraphCertificate(verdict="PASS")
    return HypergraphCertificate(verdict="FAIL", cycle=_cycle(h, cert))


def _cycle(h: ZeroOneMatrix, cert: MatrixCertificate) -> HyperCycle:
    """Walk a two-per-line FAIL witness as one cycle, from its first row
    and that row's first column, in O(k) steps; each edge's vertices are
    read off its mask bits.

    The first witness has the smallest odd order, so it is a single
    cycle: an odd component of a larger one would have been found first.
    """
    vs, es = [], []
    for p, q in cycle_walk(cert.witness.masks):
        j = cert.witness_cols[q]
        x, members = h.masks[j], []
        while x:
            low = x & -x
            x ^= low
            members.append(h.rows[low.bit_length() - 1])
        vs.append(h.rows[cert.witness_rows[p]])
        es.append((h.cols[j], frozenset(members)))
    return HyperCycle(vertices=tuple(vs), edges=tuple(es))
