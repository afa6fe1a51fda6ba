"""Seeded inputs of the three workloads: the benchmark's set-up.

Each build_* function writes its input files into a work directory and
returns the item list of one pass. An item is one timed unit of work: a
``balmatch.cli.main`` call, or (sweep) one ``exists_for_all_worker_prefs``
call. The same seed gives the same files and items.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from balmatch import formats
from balmatch.fractional import FractionalMatching
from balmatch.genrandom import (
    MarketGenConfig,
    random_complementary_balanced_profile,
    random_market,
    random_neighbour_tree,
)
from balmatch.market import Market
from balmatch.oracle import cyclic_market
from balmatch.prefs import decompose_by_sets

import model


CHECK_FLAGS = (
    "--balanced",
    "--tu",
    "--totally-balanced",
    "--odd-cycles",
    "--firm-worker",
    "--complementary",
    "--additive",
)


def left_out(family: str, n: int) -> set:
    """Flags left out of certify for run length. Cost per item:
    firm-worker 17 s on interval(6), 1.2 s on nested(8), 13 s on nested(9);
    TU 0.7 s and odd-cycles 1.2 s on nested(9), odd-cycles 13 s on nested(10).
    A later benchmark change can add them back."""
    if family == "interval":
        return {"--firm-worker"} if n >= 6 else set()
    return {"--firm-worker"} | ({"--tu", "--odd-cycles"} if n >= 9 else set())


SWEEP_ITEMS = 400  # profiles per pass
SWEEP_PROFILE = {"max_firms": 4, "max_workers": 5}
SWEEP_MAX_DRAWS = 40 * SWEEP_ITEMS

# How often random_complementary_balanced_profile(**SWEEP_PROFILE) draws
# each size of worker-preference space (the profiles an exhaustive sweep
# visits): counts over 20,000 draws, as printed by bench/sweep_mix.py.
SWEEP_SPACES = {
    2: 2823, 4: 3574, 5: 308, 8: 2214, 10: 1654, 16: 222, 20: 1027, 25: 1232,
    32: 409, 40: 273, 50: 834, 64: 107, 65: 8, 80: 1155, 100: 236, 125: 487,
    128: 34, 130: 81, 160: 346, 200: 33, 250: 69, 256: 707, 260: 11, 320: 88,
    325: 333, 400: 451, 500: 14, 512: 94, 520: 2, 625: 12, 640: 12, 650: 45,
    800: 79, 1024: 11, 1040: 537, 1250: 3, 1280: 393, 1300: 7, 1600: 11, 1625: 58,
    2000: 6,
}


@dataclass
class Item:
    kind: str  # check | tree | solve | pipeline | malformed | sweep
    label: str  # family and size, e.g. "cyclic(5)"
    argv: tuple = ()
    path: str = ""  # the input file the item reads
    facts: dict = field(default_factory=dict)  # what the checks know beforehand
    call: Optional[tuple] = None  # sweep: (firm_prefs, workers)


def interval_market(n: int) -> Market:
    """One firm per interval of length >= 2 on a line of n workers."""
    ws = [f"w{i}" for i in range(1, n + 1)]
    ivs = [ws[a:b] for a in range(n) for b in range(a + 2, n + 1)]
    chains = {f"f{k}": [s] for k, s in enumerate(ivs, 1)}
    prefs = {w: [f for f, (s,) in chains.items() if w in s] for w in ws}
    return Market.build(ws, chains, prefs)


def nested_market(n: int) -> Market:
    """One firm whose chain is the nested prefixes of n workers, largest first."""
    ws = [f"w{i}" for i in range(1, n + 1)]
    return Market.build(ws, {"f1": [ws[:k] for k in range(n, 0, -1)]}, {w: ["f1"] for w in ws})


def complementary_market(rng: random.Random) -> Market:
    """A complementary-balanced firm profile with random worker lists."""
    chains = random_complementary_balanced_profile(rng, max_firms=3, max_workers=5)
    ws = sorted({w for p in chains.values() for s in p.chain for w in s})
    firms = list(chains)
    prefs = {w: tuple(rng.sample(firms, rng.randint(1, len(firms)))) for w in ws}
    return Market(workers=tuple(ws), firms=tuple(firms), worker_prefs=prefs, firm_prefs=chains)


class Files:
    """Writes the workload's input files into its work directory."""

    def __init__(self, root: str):
        self.root = root

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.root, name)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def market(self, name: str, m: Market) -> str:
        return self.write(name + ".market", formats.serialize_market(m))


def _corpus(root: str, suffix: str) -> list:
    d = os.path.join(root, "corpus")
    return sorted(os.path.join(d, n) for n in os.listdir(d) if n.endswith(suffix))


def _check_items(path: str, label: str, facts: dict, skip=()) -> list:
    return [
        Item("check", label, ("check", path, flag, "--json"), path, dict(facts, flag=flag))
        for flag in CHECK_FLAGS
        if flag not in skip
    ]


def _tree_items(path: str, label: str, family: str) -> list:
    return [
        Item("tree", label, ("tree", path, mode, "--json"), path, {"family": family})
        for mode in ("--validate", "--matrix", "--permute")
    ]


def build_certify(rng: random.Random, out: Files, repo: str) -> list:
    items = []
    for n in range(3, 10):
        p = out.market(f"cyclic{n}", cyclic_market(n))
        items += _check_items(p, f"cyclic({n})", {"family": "cyclic", "n": n})
    for n in (4, 5, 6):
        p = out.market(f"interval{n}", interval_market(n))
        items += _check_items(p, f"interval({n})", {"family": "interval", "n": n}, left_out("interval", n))
    for n in range(8, 13):
        p = out.market(f"nested{n}", nested_market(n))
        items += _check_items(p, f"nested({n})", {"family": "nested", "n": n}, left_out("nested", n))
    cfg = MarketGenConfig(max_workers=5, max_firms=3, max_chain=3, max_set=3)
    for k in range(6):
        p = out.market(f"random{k}", random_market(rng, cfg))
        items += _check_items(p, "random_market", {"family": "random"})
    for k in range(6):
        p = out.market(f"compbal{k}", complementary_market(rng))
        items += _check_items(p, "complementary_balanced", {"family": "compbal"})
    for p in _corpus(repo, ".market"):
        items += _check_items(p, "corpus " + os.path.basename(p), {"family": "corpus"})
    for p in _corpus(repo, ".tree"):
        items += _tree_items(p, "corpus " + os.path.basename(p), "corpus")
    for k in range(8):
        t = random_neighbour_tree(rng, max_vertices=7, max_workers=8)
        if k % 2:  # shuffled children: the neighbour check may now fail
            t = t.reordered({v: tuple(rng.sample(c, len(c))) for v, c in t.children.items() if c})
        if k % 4 == 3:
            p = out.write(f"tree{k}.json", formats.tree_to_json(t))
        else:
            p = out.write(f"tree{k}.tree", formats.serialize_tree(t))
        items += _tree_items(p, "random_neighbour_tree", "neighbour-tree")
    items += _malformed(rng, out, items)
    return items


# Malformed inputs: (kind, expected exit codes, exception the program raises
# instead, if the kind is a known defect of the program).
MALFORMED = (
    ("missing-key", {65}, None),
    ("string-for-list", {65}, None),
    ("chain-as-string", {65}, None),
    ("odd-indentation", {65}, None),
    ("json-node-without-name", {65}, "KeyError"),
    ("permute-over-six-children", {64, 65}, "TreeError"),
)


def _malformed(rng: random.Random, out: Files, items: list) -> list:
    """Near-valid mutations of generated inputs: each kind once, then two
    seeded extras, so every pass holds eight."""
    markets = sorted({i.path for i in items if i.kind == "check" and i.facts["family"] in ("random", "compbal")})
    kinds = list(MALFORMED) + rng.sample(MALFORMED, 2)
    result = []
    for k, (kind, expect, defect) in enumerate(kinds):
        facts = {"malformed": kind, "expect": sorted(expect), "defect": defect}
        if kind in ("missing-key", "string-for-list", "chain-as-string"):
            with open(rng.choice(markets)) as fh:
                data = json.load(fh)
            if kind == "missing-key":
                del data[rng.choice(["workers", "firms", "worker_prefs"])]
            elif kind == "string-for-list":
                w = rng.choice(sorted(data["worker_prefs"]))
                data["worker_prefs"][w] = "".join(data["firms"])
            else:
                f = rng.choice(sorted(data["firms"]))
                data["firms"][f] = ",".join(sorted(data["workers"]))
            p = out.write(f"bad{k}.market", json.dumps(data, indent=2))
            argv = ("check", p, rng.choice(CHECK_FLAGS), "--json")
        elif kind == "odd-indentation":
            lines = formats.serialize_tree(random_neighbour_tree(rng, max_vertices=7)).splitlines()
            i = rng.randrange(1, len(lines))
            lines[i] = " " + lines[i]
            p = out.write(f"bad{k}.tree", "\n".join(lines) + "\n")
            argv = ("tree", p, "--validate", "--json")
        elif kind == "json-node-without-name":
            data = json.loads(formats.tree_to_json(random_neighbour_tree(rng, max_vertices=7)))
            node = data
            while node["children"] and rng.random() < 0.7:
                node = rng.choice(node["children"])
            del node["name"]
            p = out.write(f"bad{k}.json", json.dumps(data, indent=2))
            argv = ("tree", p, rng.choice(["--validate", "--matrix", "--permute"]), "--json")
        else:
            p = out.write(f"bad{k}.tree", _wide_fan(rng))
            argv = ("tree", p, "--permute", "--json")
        result.append(Item("malformed", kind, argv, p, facts))
    return result


def _wide_fan(rng: random.Random) -> str:
    """A root with seven children; one worker engages two of them, so the
    permutation search has to order more than six children."""
    n = 7
    a, b = rng.sample(range(n), 2)
    lines = ["v0: {}"]
    for i in range(n):
        ws = [f"w{i + 1}"] + (["x"] if i in (a, b) else [])
        lines.append(f"  v{i + 1}: {{{','.join(ws)}}}")
    return "\n".join(lines) + "\n"


def half_levels(m: Market, out: Files, name: str) -> str:
    """Every decomposed firm of m at level 1/2 with no unmatched share."""
    d = decompose_by_sets(m)
    fm = FractionalMatching(
        levels={f: Fraction(1, 2) for f in d.market.firms},
        null_assignment={w: Fraction(0) for w in d.market.workers},
    )
    return out.write(name + ".frac", formats.serialize_fractional(fm, d))


def build_solve(rng: random.Random, out: Files, repo: str) -> list:
    items = []

    def solve(path, label, facts, *extra):
        facts = dict(facts, decompose=extra[1] if extra else None)
        items.append(Item("solve", label, ("solve", path, "--json") + extra, path, facts))

    for n in range(8, 13):
        p = out.market(f"nested{n}", nested_market(n))
        facts = {"family": "nested", "n": n}
        solve(p, f"nested({n})", facts)
        solve(p, f"nested({n})", facts, "--decompose", "sets")
        solve(p, f"nested({n})", facts, "--decompose", "components")
    for n in range(3, 10):
        p = out.market(f"cyclic{n}", cyclic_market(n))
        solve(p, f"cyclic({n})", {"family": "cyclic", "n": n})
        solve(p, f"cyclic({n})", {"family": "cyclic", "n": n}, "--decompose", "components")
    for p in _corpus(repo, ".market"):
        solve(p, "corpus " + os.path.basename(p), {"family": "corpus"})
    cfg = MarketGenConfig(max_workers=5, max_firms=3, max_chain=3, max_set=3)
    for k in range(40):
        p = out.market(f"random{k}", random_market(rng, cfg))
        solve(p, "random_market", {"family": "random"})
        solve(p, "random_market", {"family": "random"}, "--decompose", "sets")
    for k in range(40):
        p = out.market(f"compbal{k}", complementary_market(rng))
        solve(p, "complementary_balanced", {"family": "compbal"})
        solve(p, "complementary_balanced", {"family": "compbal"}, "--decompose", "components")
    for n in range(3, 11):
        m = cyclic_market(n)
        p = out.market(f"cyclic{n}", m)
        frac = half_levels(m, out, f"cyclic{n}")
        argv = ("solve", p, "--strategy", "pipeline", "--fractional", frac, "--json")
        items.append(Item("pipeline", f"cyclic({n}) at 1/2", argv, p, {"family": "cyclic", "n": n}))
    corpus = os.path.join(repo, "corpus")
    p = os.path.join(corpus, "two_firms.market")
    frac = os.path.join(corpus, "half_half.frac")
    argv = ("solve", p, "--strategy", "pipeline", "--fractional", frac, "--json")
    items.append(Item("pipeline", "corpus two_firms + half_half", argv, p, {"family": "corpus", "rounds": True}))
    return items


def sweep_quotas(n: int) -> dict:
    """Items per space size in a pass of n: each size's measured share of
    n, rounded by largest remainder. Sizes rarer than about 1/n get none."""
    total = sum(SWEEP_SPACES.values())
    exact = {v: k * n / total for v, k in SWEEP_SPACES.items()}
    quota = {v: int(x) for v, x in exact.items()}
    short = n - sum(quota.values())
    for v in sorted(exact, key=lambda v: (quota[v] - exact[v], v))[:short]:
        quota[v] += 1
    return {v: q for v, q in quota.items() if q}


def build_sweep(rng: random.Random, out: Files, repo: str) -> list:
    """SWEEP_ITEMS seeded firm profiles in the measured mix of space sizes:
    profiles are drawn in order, as scripts/sweep_profiles.py does, and
    each is kept while the quota of its size is short. The seed picks the
    profiles; the quotas keep the mix the same for every seed."""
    need = sweep_quotas(SWEEP_ITEMS)
    items = []
    for _ in range(SWEEP_MAX_DRAWS):
        if len(items) == SWEEP_ITEMS:
            return items
        chains = random_complementary_balanced_profile(rng, **SWEEP_PROFILE)
        workers = sorted({w for p in chains.values() for s in p.chain for w in s})
        space = model.profile_space({f: p.chain for f, p in chains.items()}, workers)
        if need.get(space):
            need[space] -= 1
            label = f"{space} profiles, {len(chains)} firms, {len(workers)} workers"
            items.append(Item("sweep", label, call=(chains, workers)))
    raise RuntimeError(f"sweep quotas not filled in {SWEEP_MAX_DRAWS} draws: {need}")


INPUTS = {"certify": build_certify, "solve": build_solve, "sweep": build_sweep}
