import itertools
import pathlib
import random

import pytest

from balmatch import formats
from balmatch.genrandom import MarketGenConfig, random_complementary_balanced_profile, random_market
from balmatch.market import Market, Matching, _first_block, choose
from balmatch.oracle import cyclic_market

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

MARKET_FILES = sorted(p.name for p in CORPUS.glob("*.market"))


def load_market(name: str):
    return formats.parse_market((CORPUS / name).read_text())


def load_tree(name: str):
    return formats.parse_tree((CORPUS / name).read_text())


def reference_solve(m: Market):
    """The direct search before the coalition numbering: firms in market
    order, each with its individually rational sets in chain order and
    then empty, every leaf tested with the frozenset blocking scan. It
    shares no code with ``solve``, which the tests compare against it."""
    options = []
    for f in m.firms:
        acc = [s for s in m.firm_prefs[f].acceptable if all(f in m.worker_prefs[w] for w in s)]
        options.append((f, acc))
    assignment = {w: None for w in m.workers}
    inv = {}
    taken = set()
    pick = [-1] * len(options)  # index into acc; len(acc) is empty, -1 untried
    i = 0
    while i >= 0:
        if i == len(options):
            if _first_block(m, assignment, inv) is None:
                return Matching(dict(assignment))
            i -= 1
            continue
        f, acc = options[i]
        k = pick[i]
        if 0 <= k < len(acc):  # release the set firm i holds
            taken.difference_update(acc[k])
            assignment.update(dict.fromkeys(acc[k]))
            del inv[f]
        k += 1
        while k < len(acc) and acc[k] & taken:
            k += 1
        if k > len(acc):  # every choice tried: back up
            pick[i] = -1
            i -= 1
            continue
        pick[i] = k
        if k < len(acc):
            taken.update(acc[k])
            assignment.update(dict.fromkeys(acc[k], f))
            inv[f] = acc[k]
        i += 1
    return None


def all_assignments(m: Market):
    """Every assignment of each worker to any firm or to the null firm: the
    enumeration ``oracle.all_matchings`` restricts to each worker's list."""
    for combo in itertools.product(m.firms + (None,), repeat=len(m.workers)):
        yield Matching(dict(zip(m.workers, combo)))


def reference_switches(f, m: Market, pairs):
    """Every (A, D, h) among the given pairs of choice sets such that
    ``choose((A | D) - {h}) == A``, ``choose(A | D) == D`` and h is in
    D - A, found with ``choose`` calls: at most |D - A| + 1 per pair, h in
    sorted order. This is the classification before the acceptable-set
    masks; it shares no code with ``prefs``, which the tests compare
    against it."""
    for a, d in pairs:
        u = a | d
        if choose(f, u, m) != d:
            continue
        for h in sorted(d - a):
            if choose(f, u - {h}, m) == a:
                yield a, d, h


def bench_like_markets():
    """The solve benchmark's families at its sizes: nested, cyclic, the
    corpus, random markets and complementary balanced ones."""
    yield from (nested_market(n) for n in range(8, 13))
    yield from (cyclic_market(n) for n in range(3, 10))
    yield from map(load_market, MARKET_FILES)
    rng = random.Random(4)
    cfg = MarketGenConfig(max_workers=5, max_firms=3, max_chain=3, max_set=3)
    yield from (random_market(rng, cfg) for _ in range(40))
    for _ in range(40):
        chains = random_complementary_balanced_profile(rng, max_firms=3, max_workers=5)
        ws = sorted({w for p in chains.values() for s in p.chain for w in s})
        firms = list(chains)
        prefs = {w: tuple(rng.sample(firms, rng.randint(1, len(firms)))) for w in ws}
        yield Market(tuple(ws), tuple(firms), prefs, chains)


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


def shuffled_nested_market(n: int, seed: int) -> Market:
    """One firm per nested prefix of n workers, firm k wanting the first k
    alone, with firms and workers listed in an order shuffled by ``seed``."""
    rng = random.Random(seed)
    ws = [f"w{i}" for i in range(1, n + 1)]
    sets = {f"f{k}": ws[:k] for k in range(1, n + 1)}
    firms, order = list(sets), ws[:]
    rng.shuffle(firms)
    rng.shuffle(order)
    prefs = {w: [f for f in firms if w in sets[f]] for w in order}
    return Market.build(order, {f: [sets[f]] for f in firms}, prefs)


@pytest.fixture
def corpus_dir():
    return CORPUS


@pytest.fixture
def cyclic3():
    return load_market("cyclic3.market")


@pytest.fixture
def two_firms():
    return load_market("two_firms.market")


@pytest.fixture
def two_firms_split():
    return load_market("two_firms_split.market")


@pytest.fixture
def triangle_tu():
    return load_market("triangle_tu.market")


@pytest.fixture
def fan():
    return load_market("fan.market")


@pytest.fixture
def pair_chain():
    return load_market("pair_chain.market")


@pytest.fixture
def nested_chains():
    return load_market("nested_chains.market")


@pytest.fixture
def additive_market():
    return load_market("additive.market")


@pytest.fixture
def two_components():
    return load_market("two_components.market")


@pytest.fixture
def singleton_clash():
    return load_market("singleton_clash.market")


@pytest.fixture
def five_firms():
    return load_market("five_firms.market")


@pytest.fixture(params=MARKET_FILES)
def any_market(request):
    return load_market(request.param)
