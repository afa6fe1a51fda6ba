import itertools
import random

import pytest

from balmatch.genrandom import (
    MarketGenConfig,
    random_complementary_balanced_profile,
    random_market,
)
from balmatch.market import FirmPreference, Market, Matching, _first_block, acceptable_sets, is_stable
from balmatch.oracle import (
    BudgetError,
    SWEEP_BUDGET,
    SweepResult,
    _settles,
    _stored,
    all_stable_matchings,
    cyclic_market,
    exists_for_all_worker_prefs,
    worker_pref_options,
    worker_pref_space,
)
from balmatch.solve import solve

TRIANGLE = {
    "f1": FirmPreference.of({"w1", "w2"}),
    "f2": FirmPreference.of({"w2", "w3"}),
    "f3": FirmPreference.of({"w1", "w3"}),
}


def reference_sweep(firm_prefs, workers):
    """The sweep as it was: a fresh Market and a complete solve for every
    profile, its result re-checked with is_stable."""
    workers = list(workers)
    options = []
    for w in workers:
        probe = Market(
            workers=tuple(workers),
            firms=tuple(firm_prefs),
            worker_prefs={x: tuple(firm_prefs) for x in workers},
            firm_prefs=firm_prefs,
        )
        relevant = [f for f in firm_prefs if any(w in s for s in acceptable_sets(f, probe))]
        options.append(worker_pref_options(relevant))
    total = 1
    for opts in options:
        total *= len(opts)
    if total > SWEEP_BUDGET:
        raise BudgetError(f"{total} profiles")
    checked = 0
    for profile in itertools.product(*options):
        checked += 1
        prefs = dict(zip(workers, profile))
        market = Market(tuple(workers), tuple(firm_prefs), prefs, firm_prefs)
        mu = solve(market)
        if mu is None or not is_stable(mu, market):
            return SweepResult(False, total, checked, False, prefs)
    return SweepResult(True, total, checked, False)


def _fields(r):
    return (r.ok, r.total, r.checked, r.sampled, r.counterexample)


def _assert_sweep_matches_reference(firm_prefs, workers):
    r = exists_for_all_worker_prefs(firm_prefs, workers)
    assert _fields(r) == _fields(reference_sweep(firm_prefs, workers))
    assert 0 < r.solved <= r.checked
    return r


class TestEnumeration:
    def test_restricted_equals_full_on_small_markets(self):
        rng = random.Random(14)
        for _ in range(60):
            m = random_market(rng, MarketGenConfig(max_workers=3, max_firms=2))
            fast = {tuple(sorted(mu.assignment.items())) for mu in all_stable_matchings(m)}
            slow = {
                tuple(sorted(mu.assignment.items()))
                for mu in all_stable_matchings(m, restrict=False)
            }
            assert fast == slow

    def test_budget_guard(self):
        workers = [f"w{i}" for i in range(11)]
        m = Market.build(workers, {"f1": [{"w0"}]}, {w: [] for w in workers})
        with pytest.raises(BudgetError):
            all_stable_matchings(m)


class TestCyclicMarkets:
    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            cyclic_market(2)

    def test_three_cycle_matches_corpus(self, cyclic3):
        m = cyclic_market(3)
        assert m.workers == cyclic3.workers
        assert m.firms == cyclic3.firms
        assert m.worker_prefs == cyclic3.worker_prefs
        for f in m.firms:
            assert m.firm_prefs[f].chain == cyclic3.firm_prefs[f].chain

    @pytest.mark.parametrize("n", range(3, 8))
    def test_stability_follows_parity(self, n):
        stable = all_stable_matchings(cyclic_market(n))
        assert bool(stable) == (n % 2 == 0)


class TestPreferenceSweep:
    def test_options_cover_truncations(self):
        opts = worker_pref_options(["f1", "f2"])
        assert set(opts) == {(), ("f1",), ("f2",), ("f1", "f2"), ("f2", "f1")}

    def test_single_pair_firm_always_admits(self):
        prefs = {"f1": FirmPreference.of({"w1", "w2"})}
        r = exists_for_all_worker_prefs(prefs, ["w1", "w2"])
        assert r.ok
        # each worker ranks the subsets of her one relevant firm: 2 ways
        assert r.total == 4
        assert r.checked == 4
        assert not r.sampled

    def test_triangle_profile_has_counterexample(self):
        prefs = TRIANGLE
        r = exists_for_all_worker_prefs(prefs, ["w1", "w2", "w3"])
        assert not r.ok
        assert r.counterexample is not None
        # re-run the found profile through the oracle directly
        m = Market(
            workers=("w1", "w2", "w3"),
            firms=tuple(prefs),
            worker_prefs=r.counterexample,
            firm_prefs=prefs,
        )
        assert not all_stable_matchings(m)

    def test_budget_error_without_sampling(self):
        # seven firms: 13,700 rankings per worker, 1.9e8 profiles, raised
        # before any profile is enumerated
        prefs = {
            f"f{i}": FirmPreference.of({"w1", "w2"}, {"w1"}) for i in range(1, 8)
        }
        assert len(worker_pref_options(list(prefs))) ** 2 > SWEEP_BUDGET
        with pytest.raises(BudgetError):
            exists_for_all_worker_prefs(prefs, ["w1", "w2"])


class TestSweepMatchesReference:
    """The sweep settles profiles from matchings it already found and calls
    solve only on a miss; its verdicts must be the per-profile solve's.
    The (checked, solved) totals are pinned: a try that rejects a matching
    ``is_stable`` accepts, or another order of profiles, moves them."""

    def test_balanced_complementary_profiles(self):
        rng = random.Random(8)
        solved = checked = 0
        for _ in range(25):
            chains = random_complementary_balanced_profile(rng, max_firms=3, max_workers=4)
            workers = sorted({w for p in chains.values() for s in p.chain for w in s})
            r = _assert_sweep_matches_reference(chains, workers)
            assert r.ok
            solved += r.solved
            checked += r.checked
        # stored matchings settled the other profiles
        assert (checked, solved) == (4145, 87)

    def test_random_firm_sides(self):
        rng = random.Random(19)
        cfg = MarketGenConfig(max_workers=3, max_firms=3, max_chain=2, max_set=2)
        verdicts = set()
        solved = checked = 0
        for _ in range(120):
            m = random_market(rng, cfg)
            r = _assert_sweep_matches_reference(m.firm_prefs, m.workers)
            verdicts.add(r.ok)
            solved += r.solved
            checked += r.checked
        assert verdicts == {True, False}  # some firm sides have no stable matching
        assert (checked, solved) == (4881, 540)

    def test_triangle_and_five_cycle(self):
        _assert_sweep_matches_reference(TRIANGLE, ["w1", "w2", "w3"])
        m = cyclic_market(5)
        r = _assert_sweep_matches_reference(m.firm_prefs, m.workers)
        assert not r.ok  # the odd cycle's own worker lists are among the profiles

    def test_stored_matching_no_longer_ir_is_rejected(self):
        # f1 wants w3, else w1; f2 wants w2, else w1 and w3 together
        prefs = {
            "f1": FirmPreference.of({"w3"}, {"w1"}),
            "f2": FirmPreference.of({"w2"}, {"w1", "w3"}),
        }
        workers = ("w1", "w2", "w3")
        mu = Matching({"w1": None, "w2": "f2", "w3": "f1"})
        early = Market(workers, tuple(prefs), {"w1": (), "w2": ("f2",), "w3": ("f1",)}, prefs)
        late = {"w1": ("f1", "f2"), "w2": (), "w3": ("f2", "f1")}
        late_market = early.with_worker_prefs(late)
        # solve finds mu on the early profile, swept before the late one
        assert solve(early) == mu
        assert is_stable(mu, early)
        # on the late lists nothing blocks mu, but w2 sits at a firm she no
        # longer lists: only the IR half of is_stable rejects it, and the
        # late profile has no stable matching at all
        assert _first_block(late_market, mu.assignment, mu.inverse()) is None
        assert not is_stable(mu, late_market)
        assert not all_stable_matchings(late_market)
        r = _assert_sweep_matches_reference(prefs, workers)
        assert (r.ok, r.checked, r.counterexample) == (False, 35, late)
        # the sweep's try rejects mu on the late profile for the same reason
        stored = _stored(mu, early)
        assert _settles(stored, [early.ranking_table(early.worker_prefs[w]) for w in workers])
        assert not _settles(stored, [early.ranking_table(late[w]) for w in workers])

    def test_solved_counts_only_misses(self):
        prefs = {"f1": FirmPreference.of({"w1", "w2"})}
        r = exists_for_all_worker_prefs(prefs, ["w1", "w2"])
        # profiles: both silent, w2 lists f1, w1 lists f1, both list f1;
        # the empty matching settles the first three, the last needs solve
        assert (r.ok, r.checked, r.solved) == (True, 4, 2)


class TestTryMatchesIsStable:
    """A sweep's try of a stored matching (``_settles``) is ``is_stable`` on
    the profile's market, read from the ranking tables that market holds."""

    def test_every_stored_matching_on_every_profile(self):
        rng = random.Random(19)
        cfg = MarketGenConfig(max_workers=3, max_firms=3, max_chain=2, max_set=2)
        pairs = settled = 0
        for _ in range(120):
            base = random_market(rng, cfg)
            base = base.with_worker_prefs({w: () for w in base.workers})
            profiles = list(itertools.product(*worker_pref_space(base)))
            markets = [base.with_worker_prefs(dict(zip(base.workers, p))) for p in profiles]
            # what a sweep may store: solve's matchings, stable on their own market
            stored = {}
            for market in markets:
                mu = solve(market)
                if mu is not None and is_stable(mu, market):
                    stored.setdefault(tuple(mu.assignment.items()), (mu, _stored(mu, base)))
            for profile, market in zip(profiles, markets):
                row = [base.ranking_table(r) for r in profile]
                assert row == [market._prefers[w] for w in market.workers]
                for mu, st in stored.values():
                    settles = _settles(st, row)
                    assert settles == is_stable(mu, market)
                    pairs += 1
                    settled += settles
        assert 0 < settled < pairs
