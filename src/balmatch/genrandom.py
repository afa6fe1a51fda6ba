"""Random instance generators for property sweeps and experiments."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .market import FirmPreference, Market, acceptable_set_family
from .matrices import is_balanced, matrix_of_sets
from .oracle import worker_pref_count, worker_pref_firms
from .prefs import is_complementary
from .techtree import TechnologyTree


@dataclass
class MarketGenConfig:
    max_workers: int = 4
    max_firms: int = 3
    max_chain: int = 3
    max_set: int = 3


def _random_chains(
    rng: random.Random, cfg: MarketGenConfig
) -> tuple[list[str], list[str], dict[str, list[frozenset[str]]]]:
    """Workers, firms and one chain of distinct random sets per firm."""
    nw = rng.randint(2, cfg.max_workers)
    nf = rng.randint(1, cfg.max_firms)
    workers = [f"w{i}" for i in range(1, nw + 1)]
    firms = [f"f{i}" for i in range(1, nf + 1)]
    chains = {}
    for f in firms:
        count = rng.randint(1, cfg.max_chain)
        seen, chain = set(), []
        for _ in range(count):
            size = rng.randint(1, min(cfg.max_set, nw))
            s = frozenset(rng.sample(workers, size))
            if s not in seen:
                seen.add(s)
                chain.append(s)
        chains[f] = chain
    return workers, firms, chains


def random_market(rng: random.Random, cfg: MarketGenConfig = MarketGenConfig()) -> Market:
    """An arbitrary small market: random chains, random truncated worker lists."""
    workers, firms, chains = _random_chains(rng, cfg)
    worker_prefs = {}
    for w in workers:
        listed = rng.sample(firms, rng.randint(0, len(firms)))
        worker_prefs[w] = tuple(listed)
    return Market.build(workers, chains, worker_prefs)


# caps on a sample's worker-preference sweep space and on rejection draws
SWEEP_CAP = 2000
MAX_TRIES = 2000


def random_complementary_balanced_profile(
    rng: random.Random, max_firms: int = 4, max_workers: int = 5
) -> dict[str, FirmPreference]:
    """Rejection-sample a firm profile that is complementary with a balanced
    acceptable-set matrix, keeping the worker-preference sweep space small."""
    cfg = MarketGenConfig(max_workers=max_workers, max_firms=max_firms, max_chain=3, max_set=3)
    for _ in range(MAX_TRIES):
        workers, firms, sets = _random_chains(rng, cfg)
        chains = {f: FirmPreference(tuple(chain)) for f, chain in sets.items()}
        probe = Market(
            workers=tuple(workers),
            firms=tuple(firms),
            worker_prefs={w: tuple(firms) for w in workers},
            firm_prefs=chains,
        )
        if not all(is_complementary(f, probe) for f in firms):
            continue
        if not is_balanced(matrix_of_sets(acceptable_set_family(probe), workers)).ok:
            continue
        if math.prod(worker_pref_count(len(fs)) for fs in worker_pref_firms(probe)) > SWEEP_CAP:
            continue
        return chains
    raise RuntimeError("could not sample a qualifying profile")


def random_neighbour_tree(
    rng: random.Random, max_vertices: int = 10, max_workers: int = 8
) -> TechnologyTree:
    """A random technology tree built to satisfy the contiguity condition.

    Each vertex gets a private worker pool; a pool worker joins a
    contiguous interval of that vertex's child upgrades, so by
    construction every worker engages a neighbour of upgrades.
    """
    for _ in range(200):
        n_vertices = rng.randint(2, max_vertices)
        names = [f"v{i}" for i in range(n_vertices)]
        parent = {names[i]: names[rng.randint(0, i - 1)] for i in range(1, n_vertices)}
        children: dict[str, list[str]] = {v: [] for v in names}
        for c, p in parent.items():
            children[p].append(c)
        pool = [f"w{i}" for i in range(1, max_workers + 1)]
        rng.shuffle(pool)
        pool_iter = iter(pool)
        worker_sets = {names[0]: frozenset()}
        ok = True
        for v in names:
            kids = children[v]
            if not kids:
                continue
            k = len(kids)
            edge_workers: list[set[str]] = [set() for _ in range(k)]
            local = [w for w, _ in zip(pool_iter, range(rng.randint(1, 3)))]
            if not local:
                ok = False
                break
            for w in local:
                a = rng.randint(0, k - 1)
                b = rng.randint(a, k - 1)
                for i in range(a, b + 1):
                    edge_workers[i].add(w)
            if any(not ws for ws in edge_workers):
                ok = False
                break
            for kid, ws in zip(kids, edge_workers):
                worker_sets[kid] = worker_sets[v] | ws
        if not ok:
            continue
        return TechnologyTree(
            root=names[0],
            worker_sets=worker_sets,
            children={v: tuple(c) for v, c in children.items()},
        )
    raise RuntimeError("could not sample a tree")
