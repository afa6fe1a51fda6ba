import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from balmatch.genrandom import MarketGenConfig, random_market
from balmatch.market import Market, MarketError, Matching, acceptable_sets, choose, is_stable
from balmatch.prefs import (
    ComplementarityGraph,
    complementarity_graph,
    complementarity_witness,
    decompose_by_components,
    decompose_by_sets,
    is_additive,
    is_complementary,
    primitive_acceptable_sets,
)
from balmatch.solve import market_certificates, solve
from conftest import (
    MARKET_FILES,
    bench_like_markets,
    load_market,
    nested_market,
    reference_switches,
)


def brute_complementary(f, m):
    """Reference check straight from the definition, over all pairs of sets."""
    ws = sorted({w for s in m.firm_prefs[f].chain for w in s})
    subsets = [
        frozenset(c) for r in range(len(ws) + 1) for c in itertools.combinations(ws, r)
    ]
    for s in subsets:
        for t in subsets:
            if s <= t and not choose(f, s, m) & s <= choose(f, t, m):
                return False
    return True


def brute_expansion_complementary(f, m):
    """Reference check over single-worker expansions of every subset of f's
    chain workers; they compose to any expansion, so this matches the
    definition at a fraction of its cost."""
    ws = sorted({w for s in m.firm_prefs[f].chain for w in s})
    for r in range(len(ws) + 1):
        for sub in itertools.combinations(ws, r):
            s = frozenset(sub)
            chosen = choose(f, s, m)
            if any(not chosen <= choose(f, s | {x}, m) for x in ws if x not in s):
                return False
    return True


def brute_complementarity_graph(f, m):
    """Reference graph: every subset of f's potential employees (the
    workers of its acceptable sets), tabulated."""
    vertices = frozenset().union(*acceptable_sets(f, m))
    ws = sorted(vertices)
    choices = {}
    for r in range(len(ws) + 1):
        for sub in itertools.combinations(ws, r):
            s = frozenset(sub)
            choices[s] = choose(f, s, m)
    edges: set[frozenset[str]] = set()
    for a, b in itertools.combinations(ws, 2):
        if _complements(a, b, choices) or _complements(b, a, choices):
            edges.add(frozenset({a, b}))
    return vertices, frozenset(edges)


def _complements(w, helper, choices):
    for s, chosen in choices.items():
        if helper in s or w in chosen:
            continue
        if w in choices[s | {helper}]:
            return True
    return False


def random_chain_firm(rng, max_workers=10, max_chain=10):
    """One firm "f" over up to max_workers workers. About a third of the
    chain sets extend an earlier set, so they are dominated (unacceptable)."""
    ws = [f"w{i}" for i in range(1, rng.randint(1, max_workers) + 1)]
    chain = []
    for _ in range(rng.randint(1, max_chain)):
        if chain and rng.random() < 0.35:
            extra = rng.sample(ws, rng.randint(0, len(ws)))
            s = rng.choice(chain) | frozenset(extra)
        else:
            s = frozenset(rng.sample(ws, rng.randint(1, len(ws))))
        if s not in chain:
            chain.append(s)
    return Market.build(ws, {"f": chain}, {w: ["f"] for w in ws})


def reference_witness(f, m):
    """The first switch that drops an acceptable set A not inside D, pairs
    taken D first in chain order, then A, as ``reference_switches`` finds it."""
    acc = acceptable_sets(f, m)
    pairs = ((a, d) for i, d in enumerate(acc) for a in acc[i + 1 :] if not a <= d)
    for a, d, h in reference_switches(f, m, pairs):
        return (a | d) - {h}, h
    return None


def reference_graph(f, m):
    """The complementarity graph from every switch ``reference_switches``
    finds: D acceptable, A empty or an acceptable set ranked after D."""
    acc = acceptable_sets(f, m)
    pairs = ((a, d) for i, d in enumerate(acc) for a in (frozenset(), *acc[i + 1 :]))
    edges = set()
    for a, d, h in reference_switches(f, m, pairs):
        edges.update(frozenset({h, w}) for w in d - a if w != h)
    return ComplementarityGraph(f, frozenset().union(*acc), frozenset(edges))


def reference_primitive(f, m):
    comps = reference_graph(f, m).components()
    return [s for s in acceptable_sets(f, m) if any(s <= c for c in comps)]


def reference_decomposition(m):
    """The chains and origins of ``decompose_by_components(m)``, in firm
    order, from the reference graph's components."""
    windex = {w: i for i, w in enumerate(m.workers)}
    chains, origin = {}, {}
    for f in m.firms:
        comps = sorted(
            reference_graph(f, m).components(), key=lambda c: min(windex[w] for w in c)
        )
        parts = [tuple(s for s in acceptable_sets(f, m) if s <= c) for c in comps]
        names = [f] if len(parts) == 1 else [f"{f}#{k}" for k in range(1, len(parts) + 1)]
        for k, (name, chain) in enumerate(zip(names, parts), start=1):
            chains[name] = chain
            origin[name] = (f, k)
    return chains, origin


def classify(m):
    """Every classification of every firm of m, and the component
    decomposition (its error text where it raises)."""
    per_firm = {
        f: (
            complementarity_witness(f, m),
            is_complementary(f, m),
            complementarity_graph(f, m),
            primitive_acceptable_sets(f, m),
        )
        for f in m.firms
    }
    try:
        d = decompose_by_components(m)
    except MarketError as e:
        return per_firm, str(e)
    chains = {f: d.market.firm_prefs[f].chain for f in d.market.firms}
    return per_firm, (chains, d.origin)


def reference_classify(m):
    per_firm = {}
    for f in m.firms:
        witness = reference_witness(f, m)
        per_firm[f] = witness, witness is None, reference_graph(f, m), reference_primitive(f, m)
    # the decomposition fails at the first firm, in market order, that is
    # not complementary or has no acceptable set
    for f, (w, *_) in per_firm.items():
        if w is not None:
            return per_firm, f"firm {f} does not have a complementary preference"
        if not acceptable_sets(f, m):
            return per_firm, f"firm {f} has no acceptable set"
    return per_firm, reference_decomposition(m)


def assert_witness(f, m, witness):
    s, x = witness
    assert x not in s
    assert not choose(f, s, m) <= choose(f, s | {x}, m)


class TestComplementary:
    def test_matches_definition_on_random_markets(self):
        rng = random.Random(17)
        for _ in range(120):
            m = random_market(rng, MarketGenConfig(max_workers=4, max_firms=2))
            for f in m.firms:
                assert is_complementary(f, m) == brute_complementary(f, m)

    def test_matches_oracles_on_random_chains(self):
        rng = random.Random(41)
        dominated = 0
        for _ in range(2000):
            m = random_chain_firm(rng)
            dominated += len(acceptable_sets("f", m)) < len(m.firm_prefs["f"].chain)
            witness = complementarity_witness("f", m)
            assert (witness is None) == brute_expansion_complementary("f", m)
            if len(m.workers) <= 6:
                assert (witness is None) == brute_complementary("f", m)
            if witness is not None:
                assert_witness("f", m, witness)
            g = complementarity_graph("f", m)
            assert (g.vertices, g.edges) == brute_complementarity_graph("f", m)
        assert dominated > 500

    @given(
        st.lists(
            st.frozensets(st.sampled_from(["w1", "w2", "w3", "w4", "w5", "w6"]), min_size=1),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_property_matches_oracles(self, chain):
        ws = sorted(set().union(*chain))
        m = Market.build(ws, {"f": chain}, {w: ["f"] for w in ws})
        witness = complementarity_witness("f", m)
        assert (witness is None) == brute_complementary("f", m)
        if witness is not None:
            assert_witness("f", m, witness)
        g = complementarity_graph("f", m)
        assert (g.vertices, g.edges) == brute_complementarity_graph("f", m)

    def test_witness_on_overlapping_pairs(self, additive_market):
        # {w2,w3} is chosen until w1 arrives and completes {w1,w2}
        assert complementarity_witness("f1", additive_market) == (frozenset({"w2", "w3"}), "w1")
        assert complementarity_witness("f2", additive_market) == (frozenset({"w2", "w3"}), "w1")

    def test_forty_worker_nested_chain(self):
        m = nested_market(40)
        assert is_complementary("f1", m)
        g = complementarity_graph("f1", m)
        assert g.vertices == frozenset(m.workers)
        assert len(g.edges) == 780  # the complete graph on 40 vertices
        assert solve(m).inverse()["f1"] == frozenset(m.workers)
        assert market_certificates(m)["complementary"] == "True"

    def test_nested_chain_is_complementary(self, nested_chains):
        assert is_complementary("f1", nested_chains)
        assert is_complementary("f2", nested_chains)

    def test_overlapping_pairs_are_not(self, additive_market):
        # choosing {w1,w2} stops w3 from being hired even when available
        assert not is_complementary("f1", additive_market)
        assert not is_complementary("f2", additive_market)

    def test_complementary_implies_additive(self):
        rng = random.Random(23)
        for _ in range(150):
            m = random_market(rng, MarketGenConfig(max_workers=4, max_firms=2))
            for f in m.firms:
                if is_complementary(f, m):
                    assert is_additive(f, m)


class TestAdditive:
    def test_pair_cover_profile_is_additive(self, additive_market):
        assert is_additive("f1", additive_market)
        assert is_additive("f2", additive_market)

    def test_missing_union_breaks_additivity(self):
        m = Market.build(
            ["w1", "w2"],
            {"f1": [{"w1"}, {"w2"}]},
            {"w1": [], "w2": []},
        )
        assert not is_additive("f1", m)


def demand_type(f, m):
    """All nonzero choice-difference vectors over the market's worker order,
    from every pair of available sets S and S | T."""
    ws = sorted({w for s in m.firm_prefs[f].chain for w in s}, key=m.workers.index)
    index = {w: i for i, w in enumerate(m.workers)}
    out = set()
    for r in range(len(ws) + 1):
        for sub in itertools.combinations(ws, r):
            s = frozenset(sub)
            cs = choose(f, s, m)
            rest = [w for w in ws if w not in s]
            for r2 in range(1, len(rest) + 1):
                for add in itertools.combinations(rest, r2):
                    vec = [0] * len(m.workers)
                    for w in choose(f, s | set(add), m):
                        vec[index[w]] += 1
                    for w in cs:
                        vec[index[w]] -= 1
                    if any(vec):
                        out.add(tuple(vec))
    return out


class TestDemandType:
    def test_contains_choice_jump(self, triangle_tu):
        # f1's choice flips from {w3} to the triple when w1, w2 arrive
        assert (1, 1, 0) in demand_type("f1", triangle_tu)

    def test_single_set_firm(self, cyclic3):
        assert demand_type("f1", cyclic3) == {(1, 1, 0)}


class TestComplementarityGraph:
    def test_pair_chain_splits_f1(self, pair_chain):
        g = complementarity_graph("f1", pair_chain)
        assert g.edges == frozenset()
        assert sorted(sorted(c) for c in g.components()) == [["w1"], ["w2"]]

    def test_nested_chains(self, nested_chains):
        g1 = complementarity_graph("f1", nested_chains)
        assert sorted(sorted(c) for c in g1.components()) == [["w1", "w2"], ["w3"]]
        g2 = complementarity_graph("f2", nested_chains)
        assert g2.edges == frozenset(
            {frozenset({"w1", "w3"}), frozenset({"w2", "w3"})}
        )
        assert len(g2.components()) == 1

    def test_connection_may_run_through_absent_worker(self, nested_chains):
        # w1 and w2 are joined only via w3, yet share f2's single component
        (comp,) = complementarity_graph("f2", nested_chains).components()
        assert {"w1", "w2"} <= comp

    def test_vertices_are_potential_employees(self, any_market):
        for f in any_market.firms:
            g = complementarity_graph(f, any_market)
            assert g.vertices == frozenset().union(*acceptable_sets(f, any_market))


class TestPrimitiveSets:
    def test_nested_chains_exact(self, nested_chains):
        assert primitive_acceptable_sets("f1", nested_chains) == [
            frozenset({"w1", "w2"}),
            frozenset({"w3"}),
        ]
        # every acceptable set of f2 is primitive
        assert primitive_acceptable_sets("f2", nested_chains) == acceptable_sets(
            "f2", nested_chains
        )
        assert len(acceptable_sets("f2", nested_chains)) == 4

    def test_two_components_exact(self, two_components):
        assert primitive_acceptable_sets("f1", two_components) == [
            frozenset({"w1", "w2"}),
            frozenset({"w3", "w4"}),
        ]

    def test_primitive_subset_of_acceptable(self, any_market):
        for f in any_market.firms:
            acc = acceptable_sets(f, any_market)
            prim = primitive_acceptable_sets(f, any_market)
            assert all(s in acc for s in prim)


class TestDecomposeBySets:
    def test_two_firms_naming_and_order(self, two_firms, two_firms_split):
        d = decompose_by_sets(two_firms)
        assert d.market.firms == ("f1#1", "f1#2", "f1#3", "f2")
        assert d.market.worker_prefs == two_firms_split.worker_prefs
        for f in d.market.firms:
            assert d.market.firm_prefs[f].chain == two_firms_split.firm_prefs[f].chain

    def test_origin_indices(self, two_firms):
        d = decompose_by_sets(two_firms)
        assert d.origin == {
            "f1#1": ("f1", 1),
            "f1#2": ("f1", 2),
            "f1#3": ("f1", 3),
            "f2": ("f2", 1),
        }

    def test_single_set_firm_keeps_name(self, cyclic3):
        d = decompose_by_sets(cyclic3)
        assert d.market.firms == cyclic3.firms
        assert d.market.worker_prefs == cyclic3.worker_prefs

    def test_every_new_firm_has_one_acceptable_set(self, any_market):
        try:
            d = decompose_by_sets(any_market)
        except MarketError:
            pytest.skip("a firm with no acceptable set cannot be decomposed")
        for f in d.market.firms:
            assert len(acceptable_sets(f, d.market)) == 1

    def test_unacceptable_firm_rejected(self):
        m = Market.build(
            ["w1", "w2"],
            {"f1": [{"w1"}, {"w1", "w2"}], "f2": [{"w2"}]},
            {"w1": ["f1"], "w2": ["f2"]},
        )
        # drop f2 and make f1's only chain survivor dominated: build directly
        bad = Market.build(
            ["w1", "w2"],
            {"f1": [{"w1"}]},
            {"w1": ["f1"], "w2": []},
        )
        d = decompose_by_sets(bad)  # fine: one acceptable set
        assert d.market.firms == ("f1",)
        assert len(acceptable_sets("f1", m)) == 1  # {w1,w2} is dominated


class TestDecomposeByComponents:
    def test_two_components_split(self, two_components):
        d = decompose_by_components(two_components)
        assert d.market.firms == ("f1#1", "f1#2", "f2")
        assert d.market.firm_prefs["f1#1"].chain == (frozenset({"w1", "w2"}),)
        assert d.market.firm_prefs["f1#2"].chain == (frozenset({"w3", "w4"}),)
        assert d.market.firm_prefs["f2"].chain == two_components.firm_prefs["f2"].chain

    def test_requires_complementarity(self, additive_market):
        with pytest.raises(MarketError):
            decompose_by_components(additive_market)

    def test_choice_restricts_to_component(self):
        # each sibling's choice is the original choice cut to its workers
        rng = random.Random(31)
        checked = 0
        while checked < 60:
            m = random_market(rng, MarketGenConfig(max_workers=4, max_firms=2))
            if not all(is_complementary(f, m) for f in m.firms):
                continue
            if not all(acceptable_sets(f, m) for f in m.firms):
                continue
            d = decompose_by_components(m)
            checked += 1
            for new_f, (orig, _) in d.origin.items():
                workers = frozenset(
                    w for s in d.market.firm_prefs[new_f].chain for w in s
                )
                for r in range(len(m.workers) + 1):
                    for sub in itertools.combinations(m.workers, r):
                        s = frozenset(sub)
                        assert choose(new_f, s, d.market) == choose(orig, s, m) & workers



class TestMatchesReference:
    """The mask scan classifies every firm as the ``choose``-based switch
    search does: same witness, graph, primitive sets and decomposition."""

    def test_random_chains(self):
        rng = random.Random(43)
        for _ in range(2000):
            m = random_chain_firm(rng)
            assert classify(m) == reference_classify(m)

    def test_bench_like_markets(self):
        decomposed = 0
        for m in bench_like_markets():
            got = classify(m)
            assert got == reference_classify(m)
            decomposed += not isinstance(got[1], str)
        assert decomposed > 20

    @pytest.mark.parametrize("n", range(8, 41))
    def test_nested_markets(self, n):
        m = nested_market(n)
        assert classify(m) == reference_classify(m)

    def test_no_choose_call(self, monkeypatch):
        expected = {name: reference_classify(load_market(name)) for name in MARKET_FILES}

        def unexpected(*args):
            raise AssertionError("choose called")

        original = sys.modules["balmatch.market"].choose
        for name, mod in list(sys.modules.items()):
            if (name == "balmatch" or name.startswith("balmatch.")) and getattr(
                mod, "choose", None
            ) is original:
                monkeypatch.setattr(mod, "choose", unexpected)
        for name in MARKET_FILES:
            assert classify(load_market(name)) == expected[name]
