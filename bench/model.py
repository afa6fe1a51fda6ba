"""The benchmark's own reading of markets and trees, written from the
definitions and sharing no code with balmatch, so that the output checks
never call the function they check.

A market is held as plain data: firm chains of frozensets (best first)
and worker lists of firms (best first).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Mkt:
    workers: tuple
    firms: tuple
    chains: dict  # firm -> tuple of frozensets, best first
    prefs: dict  # worker -> tuple of firms, best first


def read_market(text: str) -> Mkt:
    data = json.loads(text)
    return Mkt(
        workers=tuple(data["workers"]),
        firms=tuple(data["firms"]),
        chains={f: tuple(frozenset(s) for s in c) for f, c in data["firms"].items()},
        prefs={w: tuple(p) for w, p in data["worker_prefs"].items()},
    )


def choice(chain, available) -> frozenset:
    """Chain-choice rule: the best chain set inside the available set."""
    for s in chain:
        if s <= available:
            return s
    return frozenset()


def acceptable(chain) -> list:
    return [s for s in chain if choice(chain, s) == s]


def set_family(m: Mkt) -> list:
    """Distinct acceptable sets, firms in market order, chain order inside."""
    out = []
    for f in m.firms:
        for s in acceptable(m.chains[f]):
            if s not in out:
                out.append(s)
    return out


def incidence(sets, ground) -> list:
    return [[1 if g in s else 0 for s in sets] for g in ground]


def weakly_prefers(m: Mkt, w, f, g) -> bool:
    """Worker w likes firm f at least as much as g (None: unmatched)."""
    if f == g:
        return True
    lst = m.prefs[w]
    if f not in lst:
        return False
    return g is None or g not in lst or lst.index(f) < lst.index(g)


def stability_violation(m: Mkt, assignment: dict) -> Optional[str]:
    """None when the matching is stable, else a description of the fault.

    Individual rationality: each worker lists its firm and each firm's
    worker set is its own choice. A block is a firm plus an acceptable set
    the firm ranks above its current set that every member weakly prefers.
    """
    if set(assignment) != set(m.workers):
        return "matching does not assign every worker once"
    held = {f: frozenset(w for w, g in assignment.items() if g == f) for f in m.firms}
    for w, f in assignment.items():
        if f is not None and (f not in m.chains or f not in m.prefs[w]):
            return f"{w} is matched to {f}, which it does not list"
    for f, s in held.items():
        if s and choice(m.chains[f], s) != s:
            return f"{f} holds {sorted(s)}, not its own choice"
    for f in m.firms:
        chain = m.chains[f]
        cur = held[f]
        for s in acceptable(chain):
            if cur and chain.index(s) >= chain.index(cur):
                break
            if all(weakly_prefers(m, w, f, assignment[w]) for w in s):
                return f"{f} and {sorted(s)} block"
    return None


def has_stable_matching(m: Mkt, limit: int = 200_000) -> Optional[bool]:
    """Exhaustive search over one acceptable set (or none) per firm.

    A stable matching is individually rational, so every firm holds an
    acceptable set or nothing. Returns None past ``limit`` selections.
    """
    options = [[None] + acceptable(m.chains[f]) for f in m.firms]
    size = 1
    for o in options:
        size *= len(o)
    if size > limit:
        return None
    for pick in itertools.product(*options):
        taken = [s for s in pick if s is not None]
        if sum(len(s) for s in taken) != len(frozenset().union(*taken)):
            continue
        assignment = {w: None for w in m.workers}
        for f, s in zip(m.firms, pick):
            for w in s or ():
                assignment[w] = f
        if stability_violation(m, assignment) is None:
            return True
    return False


def profile_space(chains: dict, workers) -> int:
    """Worker-preference profiles an exhaustive sweep visits: per worker,
    every ranking of every subset of the firms that could hire it."""
    total = 1
    for w in workers:
        r = sum(1 for c in chains.values() if any(w in s for s in acceptable(c)))
        rankings, k_perm = 1, 1
        for k in range(1, r + 1):
            k_perm *= r - k + 1
            rankings += k_perm
        total *= rankings
    return total


def chain_workers(chain) -> list:
    return sorted(frozenset().union(*chain)) if chain else []


def complementary(chain, limit: int = 14) -> Optional[bool]:
    """Choice membership never shrinks when one more worker is available."""
    ws = chain_workers(chain)
    if len(ws) > limit:
        return None
    for r in range(len(ws) + 1):
        for sub in itertools.combinations(ws, r):
            s = frozenset(sub)
            chosen = choice(chain, s)
            if any(not chosen <= choice(chain, s | {x}) for x in ws if x not in s):
                return False
    return True


def additive(chain) -> bool:
    acc = acceptable(chain)
    return all(a & b or (a | b) in acc for a, b in itertools.combinations(acc, 2))


def complement_components(chain) -> list:
    """Components of the graph joining a and b when b's availability
    makes a chosen, over the workers of the acceptable sets."""
    ws = chain_workers(acceptable(chain))
    choices = {}
    for r in range(len(ws) + 1):
        for sub in itertools.combinations(ws, r):
            choices[frozenset(sub)] = choice(chain, frozenset(sub))
    parent = {w: w for w in ws}

    def root(w):
        while parent[w] != w:
            w = parent[w]
        return w

    for a, b in itertools.permutations(ws, 2):
        if root(a) == root(b):
            continue
        for s, chosen in choices.items():
            if b not in s and a not in chosen and a in choices[s | {b}]:
                parent[root(a)] = root(b)
                break
    comps = {}
    for w in ws:
        comps.setdefault(root(w), set()).add(w)
    return [frozenset(c) for c in comps.values()]


def primitive_sets(m: Mkt) -> list:
    out = []
    for f in m.firms:
        comps = complement_components(m.chains[f])
        for s in acceptable(m.chains[f]):
            if any(s <= c for c in comps) and s not in out:
                out.append(s)
    return out


def decompose(m: Mkt, kind: str) -> Mkt:
    """Split firms per acceptable set ("sets") or per complementarity
    component ("components"); siblings f#1, f#2, ... keep f's slot."""
    chains, split = {}, {}
    windex = {w: i for i, w in enumerate(m.workers)}
    for f in m.firms:
        acc = acceptable(m.chains[f])
        if kind == "sets":
            parts = [(s,) for s in acc]
        else:
            comps = sorted(
                complement_components(m.chains[f]),
                key=lambda c: min(windex[w] for w in c),
            )
            parts = [tuple(s for s in acc if s <= c) for c in comps]
        names = [f] if len(parts) == 1 else [f"{f}#{k}" for k in range(1, len(parts) + 1)]
        split[f] = names
        chains.update(zip(names, parts))
    prefs = {w: tuple(g for f in lst for g in split[f]) for w, lst in m.prefs.items()}
    return Mkt(workers=m.workers, firms=tuple(chains), chains=chains, prefs=prefs)


# -- 0-1 matrices ------------------------------------------------------------

def reduce_lines(mat) -> tuple:
    """Drop rows and columns holding at most one 1 until none is left."""
    rows = list(range(len(mat)))
    cols = list(range(len(mat[0]) if mat else 0))
    while True:
        r2 = [i for i in rows if sum(mat[i][j] for j in cols) >= 2]
        c2 = [j for j in cols if sum(mat[i][j] for i in r2) >= 2]
        if (r2, c2) == (rows, cols):
            return rows, cols
        rows, cols = r2, c2


def two_per_line(mat, rows, cols) -> bool:
    sub = [[mat[i][j] for j in cols] for i in rows]
    return (
        len(rows) == len(cols) >= 3
        and all(sum(r) == 2 for r in sub)
        and all(sum(r[j] for r in sub) == 2 for j in range(len(cols)))
    )


def connected(mat, rows, cols) -> bool:
    """The rows of a two-per-line submatrix form one cycle through its columns."""
    seen, stack = {rows[0]}, [rows[0]]
    while stack:
        i = stack.pop()
        for j in cols:
            if mat[i][j]:
                for k in rows:
                    if mat[k][j] and k not in seen:
                        seen.add(k)
                        stack.append(k)
    return len(seen) == len(rows)


def find_cycle_submatrix(mat, odd_only: bool, one_cycle: bool, limit: int = 400_000):
    """Brute force over square submatrices with two 1s per line.

    ``odd_only`` looks for odd order (balancedness), ``one_cycle`` for a
    single cycle (total balancedness). Returns True/False, or None when
    the search would exceed ``limit`` row-column pairs.
    """
    nr, nc = len(mat), len(mat[0]) if mat else 0
    orders = [k for k in range(3, min(nr, nc) + 1) if not odd_only or k % 2]
    work = sum(math.comb(nr, k) * math.comb(nc, k) for k in orders)
    if work > limit:
        return None
    for k in orders:
        for rows in itertools.combinations(range(nr), k):
            for cols in itertools.combinations(range(nc), k):
                if two_per_line(mat, rows, cols) and (
                    not one_cycle or connected(mat, rows, cols)
                ):
                    return True
    return False


def find_unimodular_violation(mat, limit: int = 50_000):
    """Brute force over square submatrices of order 2 and more for one whose
    determinant is not 0, 1 or -1 (entries are 0 or 1, so order 1 never
    is). Returns True/False, or None when the search would exceed
    ``limit`` submatrices."""
    nr, nc = len(mat), len(mat[0]) if mat else 0
    orders = range(2, min(nr, nc) + 1)
    if sum(math.comb(nr, k) * math.comb(nc, k) for k in orders) > limit:
        return None
    for k in orders:
        for rows in itertools.combinations(range(nr), k):
            for cols in itertools.combinations(range(nc), k):
                if abs(determinant([[mat[i][j] for j in cols] for i in rows])) >= 2:
                    return True
    return False


def determinant(sub) -> int:
    """Laplace expansion along rows, memoised on the columns still free."""
    n = len(sub)
    memo = {}

    def det(i, free):
        if i == n:
            return 1
        if (i, free) in memo:
            return memo[(i, free)]
        total, sign = 0, 1
        for j in range(n):
            if free >> j & 1:
                if sub[i][j]:
                    total += sign * sub[i][j] * det(i + 1, free & ~(1 << j))
                sign = -sign
        memo[(i, free)] = total
        return total

    return det(0, (1 << n) - 1)


# -- technology trees ----------------------------------------------------------

@dataclass(frozen=True)
class Tree:
    root: str
    sets: dict  # vertex -> frozenset of workers
    children: dict  # vertex -> tuple of children, in order


def read_outline(text: str) -> Tree:
    sets, children, stack, root = {}, {}, [], None
    for raw in text.splitlines():
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        depth = (len(raw) - len(raw.lstrip(" "))) // 2
        name, _, rest = raw.strip().partition(":")
        inner = rest.strip()[1:-1]
        name = name.strip()
        sets[name] = frozenset(x.strip() for x in inner.split(",") if x.strip())
        children[name] = []
        del stack[depth:]
        if stack:
            children[stack[-1]].append(name)
        else:
            root = name
        stack.append(name)
    return Tree(root, sets, {v: tuple(c) for v, c in children.items()})


def read_tree_json(text: str) -> Tree:
    sets, children = {}, {}

    def walk(node):
        sets[node["name"]] = frozenset(node.get("workers", []))
        children[node["name"]] = tuple(k["name"] for k in node.get("children", []))
        for k in node.get("children", []):
            walk(k)

    data = json.loads(text)
    walk(data)
    return Tree(data["name"], sets, children)


def engagements(t: Tree) -> dict:
    """worker -> list of (vertex, child index) upgrades that add the worker."""
    out = {}
    for v, kids in t.children.items():
        for i, c in enumerate(kids):
            for w in t.sets[c] - t.sets[v]:
                out.setdefault(w, []).append((v, i))
    return out


def neighbour_violations(t: Tree) -> set:
    """Workers whose upgrades leave one vertex or skip a sibling there."""
    bad = set()
    for w, eng in engagements(t).items():
        sources = {v for v, _ in eng}
        pos = sorted(i for _, i in eng)
        if len(sources) > 1 or pos[-1] - pos[0] + 1 != len(pos):
            bad.add(w)
    return bad


def has_neighbour_ordering(t: Tree) -> bool:
    """Some reordering of every vertex's children passes the condition."""
    groups = {}
    for w, eng in engagements(t).items():
        if len({v for v, _ in eng}) > 1:
            return False
        groups.setdefault(eng[0][0], []).append({i for _, i in eng})
    for v, gs in groups.items():
        n = len(t.children[v])
        if not any(
            all(_run([perm.index(i) for i in g]) for g in gs)
            for perm in itertools.permutations(range(n))
        ):
            return False
    return True


def _run(positions) -> bool:
    return max(positions) - min(positions) + 1 == len(positions)
