import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from balmatch.genrandom import MarketGenConfig, random_market
from balmatch.market import (
    BlockReport,
    FirmPreference,
    Market,
    MarketError,
    Matching,
    _check_matching,
    acceptable_set_family,
    acceptable_sets,
    choose,
    find_block,
    is_stable,
)
from balmatch.prefs import decompose_by_sets

from conftest import MARKET_FILES, all_assignments, load_market, run_python


def reference_weakly_prefers(m, w, f, g):
    """Worker w weakly prefers f to g, by rank: a listed firm ranks by its
    position, the null firm (None) right after the list, and a firm w
    does not list after that."""
    if f == g:
        return True
    ranks = {h: i for i, h in enumerate(m.worker_prefs[w])}
    null = len(ranks)
    rf = ranks.get(f, null + 1) if f is not None else null
    rg = ranks.get(g, null + 1) if g is not None else null
    return rf < rg


def brute_choose(f, available, m):
    """Reference choice: best chain set among all subsets of the available set."""
    s = frozenset(available)
    best = None
    chain = m.firm_prefs[f].chain
    for r in range(len(s) + 1):
        for sub in itertools.combinations(sorted(s), r):
            fs = frozenset(sub)
            if fs in chain and (best is None or chain.index(fs) < chain.index(best)):
                best = fs
    return best if best is not None else frozenset()


def brute_block(mu, m):
    """Reference blocking coalition search over every nonempty worker set."""
    for f in m.firms:
        current = mu.inverse().get(f, frozenset())
        chain = m.firm_prefs[f].chain
        for r in range(1, len(m.workers) + 1):
            for sub in itertools.combinations(m.workers, r):
                s = frozenset(sub)
                if choose(f, s, m) != s:
                    continue
                # firm side: s strictly better than its current set
                if s == current:
                    continue
                if current in chain and chain.index(s) >= chain.index(current):
                    continue
                if all(reference_weakly_prefers(m, w, f, mu.firm_of(w)) for w in s):
                    return (f, s)
    return None


def _firm_strictly_prefers(f, s, current, m):
    """s > current for firm f, where both are chain sets or empty."""
    if s == current:
        return False
    chain = m.firm_prefs[f].chain
    if not s:
        return current not in chain  # empty beats off-chain sets only
    if s not in chain:
        return False
    if not current or current not in chain:
        return True
    return chain.index(s) < chain.index(current)


def _reference_ir_violations(mu, m):
    out = []
    for w in m.workers:
        f = mu.firm_of(w)
        if f is not None and f not in m.worker_prefs[w]:
            out.append((w, f"matched to unacceptable firm {f}"))
    inv = mu.inverse()
    for f in m.firms:
        matched = inv.get(f, frozenset())
        if matched and choose(f, matched, m) != matched:
            out.append((f, f"assignment {sorted(matched)} is not its own choice"))
    return out


def reference_find_block(mu, m):
    """find_block by choice-function calls and chain positions: every
    acceptable set is compared with the firm's current set, none skipped."""
    _check_matching(mu, m)
    ir = _reference_ir_violations(mu, m)
    if ir:
        return BlockReport(ir_violations=tuple(ir))
    inv = mu.inverse()
    for f in m.firms:
        current = inv.get(f, frozenset())
        for s in [s for s in m.firm_prefs[f].chain if choose(f, s, m) == s]:
            if not _firm_strictly_prefers(f, s, current, m):
                continue
            if all(reference_weakly_prefers(m, w, f, mu.firm_of(w)) for w in s):
                return BlockReport(blocking=(f, s))
    return BlockReport()


def _assert_find_block_matches_reference(m):
    for mu in all_assignments(m):
        report = reference_find_block(mu, m)
        assert find_block(mu, m) == report
        assert is_stable(mu, m) == report.empty


class TestFirmPreference:
    def test_rejects_empty_set(self):
        with pytest.raises(MarketError):
            FirmPreference.of(set())

    def test_rejects_duplicate_set(self):
        with pytest.raises(MarketError):
            FirmPreference.of({"w1"}, {"w1"})

    @given(st.lists(st.frozensets(st.sampled_from("abcde"), min_size=1), unique=True, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_acceptable_is_self_chosen_chain_sets(self, chain):
        pref = FirmPreference(tuple(chain))
        m = Market(
            workers=tuple("abcde"),
            firms=("f",),
            worker_prefs={w: () for w in "abcde"},
            firm_prefs={"f": pref},
        )
        assert pref.acceptable == tuple(s for s in chain if choose("f", s, m) == s)

    def test_cache_is_not_part_of_value(self):
        p = FirmPreference.of({"w1"}, {"w1", "w2"})
        q = FirmPreference.of({"w1"}, {"w1", "w2"})
        object.__setattr__(q, "acceptable", ())
        assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
        assert repr(p) == f"FirmPreference(chain={p.chain!r})"
        assert p != FirmPreference.of({"w1", "w2"}, {"w1"})


class TestMarketValidation:
    def test_unknown_firm_in_worker_list(self):
        with pytest.raises(MarketError):
            Market.build(["w1"], {"f1": [{"w1"}]}, {"w1": ["f9"]})

    def test_unknown_worker_in_chain(self):
        with pytest.raises(MarketError):
            Market.build(["w1"], {"f1": [{"w2"}]}, {"w1": []})

    def test_unknown_workers_named_in_sorted_order(self):
        # the chain set and the available set hold several unknown workers;
        # each error names the smallest whatever the hash seed, so it runs
        # in fresh processes
        script = (
            "from balmatch.market import Market, MarketError, choose\n"
            "try:\n"
            "    Market.build(['w1'], {'f1': [['w7', 'w8', 'w9', 'w5']]}, {'w1': []})\n"
            "except MarketError as e:\n"
            "    print(e)\n"
            "m = Market.build(['w1'], {'f1': [['w1']]}, {'w1': ['f1']})\n"
            "try:\n"
            "    choose('f1', ['w9', 'w1', 'w8', 'w70'], m)\n"
            "except MarketError as e:\n"
            "    print(e)\n"
        )
        outputs = set()
        for seed in range(5):
            proc = run_python("-c", script, hash_seed=seed)
            outputs.add((proc.returncode, proc.stdout))
        assert outputs == {(0, "unknown worker w5 in chain of firm f1\nunknown worker: w70\n")}

    def test_duplicate_firm_in_worker_list(self):
        with pytest.raises(MarketError):
            Market.build(["w1"], {"f1": [{"w1"}]}, {"w1": ["f1", "f1"]})

    def test_shared_identifier_rejected(self):
        with pytest.raises(MarketError):
            Market.build(["x"], {"x": [{"x"}]}, {"x": []})

    def test_firm_named_null_rejected(self):
        # null is the unmatched column of the text matching and the .frac table
        with pytest.raises(MarketError, match="^firm name null is reserved for the unmatched$"):
            Market.build(["w1", "w2"], {"null": [{"w1", "w2"}], "f2": [{"w1"}]}, {"w1": [], "w2": []})
        # a worker may still be named null
        Market.build(["null"], {"f1": [{"null"}]}, {"null": ["f1"]})

    @pytest.mark.parametrize(
        "prefs, message",
        [
            ({"w1": ("f1",)}, "worker_prefs keys must match workers"),
            ({"w1": ("f1",), "w2": (), "w3": ()}, "worker_prefs keys must match workers"),
            ({"w1": ("f1", "f1"), "w2": ()}, "duplicate firm in preference list of w1"),
            ({"w1": ("f2", "f9", "f8"), "w2": ()}, "unknown firm f9 in preference list of w1"),
            ({"w1": ("w2",), "w2": ()}, "unknown firm w2 in preference list of w1"),
        ],
        ids=["worker-missing", "unknown-worker", "firm-twice", "unknown-firm", "worker-as-firm"],
    )
    def test_worker_list_faults_named(self, prefs, message):
        chains = {"f1": FirmPreference.of({"w1", "w2"}, {"w1"}), "f2": FirmPreference.of({"w2"})}
        with pytest.raises(MarketError) as e:
            Market(("w1", "w2"), ("f1", "f2"), prefs, chains)
        assert str(e.value) == message

    def test_firm_side_is_checked_first(self):
        # a chain with an unknown worker and a list with an unknown firm
        with pytest.raises(MarketError, match="unknown worker w9 in chain of firm f1"):
            Market.build(["w1"], {"f1": [{"w9"}]}, {"w1": ["f9"]})

    def test_markets_sharing_a_firm_side_read_their_own_lists(self, two_firms):
        # w3 ranks f2 first in the corpus market and f1 first in the other
        other = Market(
            two_firms.workers, two_firms.firms,
            dict(two_firms.worker_prefs, w3=("f1", "f2")), two_firms.firm_prefs,
        )
        mu = Matching({"w1": "f1", "w2": "f2", "w3": "f2", "w4": "f2"})
        assert is_stable(mu, two_firms)
        assert find_block(mu, other).blocking == ("f1", frozenset({"w1", "w2", "w3"}))

    def test_a_market_is_its_four_fields(self, two_firms):
        assert [f.name for f in dataclasses.fields(Market)] == [
            "workers", "firms", "worker_prefs", "firm_prefs"
        ]
        assert set(vars(two_firms)) == {"workers", "firms", "worker_prefs", "firm_prefs"}


class TestChoice:
    def test_best_contained_set_wins(self, two_firms):
        assert choose("f1", {"w1", "w2", "w3"}, two_firms) == {"w1", "w2", "w3"}
        assert choose("f1", {"w1", "w2"}, two_firms) == {"w1"}
        assert choose("f1", {"w2", "w3"}, two_firms) == {"w2", "w3"}
        assert choose("f1", {"w2"}, two_firms) == frozenset()

    def test_null_firm_takes_everything(self, two_firms):
        assert choose(None, {"w1", "w4"}, two_firms) == {"w1", "w4"}

    def test_unknown_worker_rejected(self, two_firms):
        with pytest.raises(MarketError):
            choose("f1", {"w9"}, two_firms)

    def test_matches_brute_force_on_random_markets(self):
        rng = random.Random(42)
        for _ in range(200):
            m = random_market(rng)
            for f in m.firms:
                for r in range(len(m.workers) + 1):
                    for sub in itertools.combinations(m.workers, r):
                        assert choose(f, sub, m) == brute_choose(f, sub, m)


class TestAcceptableSets:
    def test_chain_set_dominated_by_subset_is_unacceptable(self):
        # {w1} ahead of {w1,w2} makes the larger set reject itself
        m = Market.build(
            ["w1", "w2"], {"f1": [{"w1"}, {"w1", "w2"}]}, {"w1": [], "w2": []}
        )
        assert choose("f1", {"w1", "w2"}, m) == frozenset({"w1"})
        assert acceptable_sets("f1", m) == [frozenset({"w1"})]

    def test_order_follows_chain(self, two_firms):
        assert acceptable_sets("f1", two_firms) == [
            frozenset({"w1", "w2", "w3"}),
            frozenset({"w1"}),
            frozenset({"w2", "w3"}),
        ]

    def test_family_keeps_first_occurrence(self):
        # f2 repeats f1's {w2} and adds {w3}; the dominated {w1,w3} is left out
        m = Market.build(
            ["w1", "w2", "w3"],
            {"f1": [{"w1"}, {"w2"}, {"w1", "w3"}], "f2": [{"w3"}, {"w2"}]},
            {"w1": [], "w2": [], "w3": []},
        )
        assert acceptable_set_family(m) == [
            frozenset({"w1"}),
            frozenset({"w2"}),
            frozenset({"w3"}),
        ]


class TestStability:
    def test_no_stable_matching_in_odd_cycle(self, cyclic3):
        for combo in itertools.product(["f1", "f2", "f3", None], repeat=3):
            mu = Matching(dict(zip(cyclic3.workers, combo)))
            assert not is_stable(mu, cyclic3)

    def test_grand_coalition_is_stable(self, two_firms):
        mu = Matching({"w1": "f1", "w2": "f1", "w3": "f1", "w4": None})
        assert is_stable(mu, two_firms)

    def test_split_matching_is_also_stable(self, two_firms):
        # {w2,w3} will not leave f2 for f1, so the split survives
        mu = Matching({"w1": "f1", "w2": "f2", "w3": "f2", "w4": "f2"})
        assert find_block(mu, two_firms).empty

    def test_everyone_idle_blocked_by_best_set(self, two_firms):
        mu = Matching({w: None for w in two_firms.workers})
        report = find_block(mu, two_firms)
        assert report.blocking == ("f1", frozenset({"w1", "w2", "w3"}))

    def test_unacceptable_firm_breaks_ir(self, two_firms):
        mu = Matching({"w1": "f1", "w2": "f1", "w3": "f1", "w4": "f1"})
        assert find_block(mu, two_firms).ir_violations[0] == ("w4", "matched to unacceptable firm f1")

    def test_partial_assignment_rejected(self, two_firms):
        # is_stable stops early on a well-formed matching, but makes every
        # check find_block makes first, with the same text
        for check in (is_stable, find_block):
            with pytest.raises(MarketError, match="^matching must assign every worker exactly once$"):
                check(Matching({"w1": None}), two_firms)

    def test_unknown_firm_rejected(self, two_firms):
        # the first unknown firm in assignment order is named
        mu = Matching({"w1": "f1", "w2": "f9", "w3": None, "w4": "f8"})
        for check in (is_stable, find_block):
            with pytest.raises(MarketError, match="^unknown firm: f9$"):
                check(mu, two_firms)

    def test_find_block_matches_brute_force(self):
        rng = random.Random(5)
        cfg = MarketGenConfig(max_workers=4, max_firms=3)
        for _ in range(150):
            m = random_market(rng, cfg)
            options = [list(m.worker_prefs[w]) + [None] for w in m.workers]
            for combo in itertools.product(*options):
                mu = Matching(dict(zip(m.workers, combo)))
                report = find_block(mu, m)
                if report.ir_violations:
                    continue  # brute_block only covers the coalition clause
                assert (report.blocking is None) == (brute_block(mu, m) is None)

    def test_find_block_matches_reference_on_random_markets(self):
        rng = random.Random(11)
        for _ in range(300):
            _assert_find_block_matches_reference(random_market(rng))

    def test_find_block_matches_reference_on_set_split_markets(self):
        rng = random.Random(13)
        for _ in range(150):
            _assert_find_block_matches_reference(decompose_by_sets(random_market(rng)).market)

    @pytest.mark.parametrize("name", MARKET_FILES)
    def test_find_block_matches_reference_on_corpus(self, name):
        _assert_find_block_matches_reference(load_market(name))


@st.composite
def markets(draw):
    seed = draw(st.integers(min_value=0, max_value=10**9))
    return random_market(random.Random(seed))


class TestMatchingShape:
    @given(markets())
    @settings(max_examples=60, deadline=None)
    def test_inverse_partitions_workers(self, m):
        rng = random.Random(0)
        combo = [rng.choice(list(m.firms) + [None]) for _ in m.workers]
        mu = Matching(dict(zip(m.workers, combo)))
        inv = mu.inverse()
        collected = [w for s in inv.values() for w in s]
        assert sorted(collected) == sorted(m.workers)
        for f, s in inv.items():
            assert all(mu.firm_of(w) == f for w in s)
