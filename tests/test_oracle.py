import itertools
import math
import random

import pytest

from balmatch import formats, oracle
from balmatch.cli import EXIT_FAIL, main
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
    all_stable_matchings,
    cyclic_market,
    exists_for_all_worker_prefs,
    worker_pref_count,
    worker_pref_options,
    worker_pref_space,
)
from balmatch.solve import _Coalitions, solve
from conftest import MARKET_FILES, all_assignments, load_market, reference_solve

TRIANGLE = {
    "f1": FirmPreference.of({"w1", "w2"}),
    "f2": FirmPreference.of({"w2", "w3"}),
    "f3": FirmPreference.of({"w1", "w3"}),
}


def reference_sweep(firm_prefs, workers):
    """The sweep as it was: a fresh Market and a complete reference solve
    for every profile, its result re-checked with is_stable."""
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
        mu = reference_solve(market)
        if mu is None or not is_stable(mu, market):
            return SweepResult(False, total, checked, False, prefs)
    return SweepResult(True, total, checked, False)


def _firm_bits(base):
    """Firm f is bit ``1 << i`` for its index i in ``base.firms``."""
    return {f: 1 << i for i, f in enumerate(base.firms)}


def _ranking_table(bits, ranking):
    """A worker ranking as a table: each firm g a worker with that ranking
    may hold (None for the null firm) maps to the bitmask of the firms she
    weakly prefers to g; a firm she does not list has no entry."""
    table, mask = {}, 0
    for f in ranking:
        mask |= bits[f]
        table[f] = mask
    table[None] = mask
    return table


def _record(mu, base, bits):
    """What the stored-first sweep kept of a matching: each worker's firm
    in market order, and its candidate coalitions (firm bit, member
    indices), every acceptable set its firm ranks above the set it holds."""
    index = {w: i for i, w in enumerate(base.workers)}
    inv = mu.inverse()
    coalitions = []
    for f in base.firms:
        current = inv.get(f, frozenset())
        for s in base.firm_prefs[f].acceptable:
            if s == current:
                break
            coalitions.append((bits[f], tuple(index[w] for w in s)))
    return tuple(mu.assignment[w] for w in base.workers), tuple(coalitions)


def _record_settles(record, tables):
    """The stored-first sweep's try: every worker's firm is in its table,
    and no candidate coalition has its firm bit in every member's mask."""
    firms, coalitions = record
    masks = list(map(dict.get, tables, firms))
    if None in masks:
        return False
    for bit, members in coalitions:
        for i in members:
            bit &= masks[i]
        if bit:
            return False
    return True


def stored_first_sweep(firm_prefs, workers):
    """The sweep before the odometer: each profile tries the stored
    matchings against every worker, most recently confirmed first, and
    solves only on a miss. Which matchings are stored, and so every
    ``SweepResult`` field, ``solved`` included, does not depend on the
    order of the tries."""
    workers = list(workers)
    base = Market(tuple(workers), tuple(firm_prefs), {w: () for w in workers}, firm_prefs)
    options = worker_pref_space(base)
    total = math.prod(map(len, options))
    if total > SWEEP_BUDGET:
        raise BudgetError(f"{total} profiles")
    bits = _firm_bits(base)
    found = []
    checked = solved = 0
    for profile in itertools.product(*options):
        checked += 1
        row = [_ranking_table(bits, r) for r in profile]
        for i, record in enumerate(found):
            if _record_settles(record, row):
                found.insert(0, found.pop(i))
                break
        else:
            solved += 1
            market = Market(base.workers, base.firms, dict(zip(workers, profile)), firm_prefs)
            mu = reference_solve(market)
            if mu is None or not is_stable(mu, market):
                return SweepResult(False, total, checked, False, market.worker_prefs, solved)
            found.insert(0, _record(mu, base, bits))
    return SweepResult(True, total, checked, False, None, solved)


def _fields(r):
    return (r.ok, r.total, r.checked, r.sampled, r.counterexample)


def _assert_sweep_matches_reference(firm_prefs, workers):
    r = exists_for_all_worker_prefs(firm_prefs, workers)
    assert _fields(r) == _fields(reference_sweep(firm_prefs, workers))
    assert r == stored_first_sweep(firm_prefs, workers)
    assert 0 < r.solved <= r.checked
    return r


def _with_lists(m, worker_prefs):
    """The market ``m`` with other worker lists."""
    return Market(m.workers, m.firms, worker_prefs, m.firm_prefs)


def _coalitions(base):
    """The sweep's coalition numbering of ``base``, and each worker's
    option coalition tables in ``worker_pref_space`` order."""
    coalitions = _Coalitions(base)
    return coalitions, [[coalitions.table(r) for r in opts] for opts in worker_pref_space(base)]


def _search(coalitions, tables, ks):
    """The search on the profile with option indices ``ks``."""
    return coalitions.search([t[k] for t, k in zip(tables, ks)])


def _kept(coalitions, tables, mu, base):
    """What the sweep keeps of a matching: its candidate mask (per firm,
    the ``cand`` part of the choice it holds) and each worker's keep row
    at the firm she holds."""
    index = {w: i for i, w in enumerate(base.workers)}
    inv = mu.inverse()
    cand = 0
    for f, choices in zip(base.firms, coalitions.choices):
        held = sum(1 << index[w] for w in inv.get(f, ()))  # 0 when f holds nothing
        cand |= next(above for above, people, _ in choices if people == held)
    return cand, [coalitions.row(i, tables[i], mu.assignment[w]) for i, w in enumerate(base.workers)]


def _settles(kept, ks):
    """The search's test of a selection on the profile with option indices
    ``ks``: every worker is IR, and ``cand`` ANDed with her rows is 0."""
    cand, rows = kept
    masks = [row[k] for row, k in zip(rows, ks)]
    if None in masks:
        return False
    for mask in masks:
        cand &= mask
    return not cand


def _walk(kept, fin, ks):
    """The odometer's reading of a kept matching through every worker of
    the profile ``ks``: each worker is IR, and no coalition is still live
    once its last member is read."""
    live, rows = kept
    for i, k in enumerate(ks):
        if rows[i][k] is None:
            return False
        live &= rows[i][k]
        if live & fin[i]:
            return False
    return True


class TestEnumeration:
    def test_restricted_equals_full_on_small_markets(self):
        rng = random.Random(14)
        for _ in range(60):
            m = random_market(rng, MarketGenConfig(max_workers=3, max_firms=2))
            fast = {tuple(sorted(mu.assignment.items())) for mu in all_stable_matchings(m)}
            slow = {
                tuple(sorted(mu.assignment.items()))
                for mu in all_assignments(m)
                if is_stable(mu, m)
            }
            assert fast == slow

    def test_budget_guard(self):
        # ten workers who list all eight firms: 9 ** 10 assignments, refused
        # before the first is enumerated
        workers = [f"w{i}" for i in range(10)]
        firms = [f"f{i}" for i in range(8)]
        m = Market.build(workers, {f: [{w}] for f, w in zip(firms, workers)}, {w: firms for w in workers})
        assert 9 ** 10 > SWEEP_BUDGET
        with pytest.raises(BudgetError, match="3486784401 assignments of 10 workers"):
            all_stable_matchings(m)

    def test_idle_workers_enumerate(self):
        # eleven workers who list no firm have one assignment: all idle
        workers = [f"w{i}" for i in range(11)]
        m = Market.build(workers, {"f1": [{"w0"}]}, {w: [] for w in workers})
        assert all_stable_matchings(m) == [Matching({w: None for w in workers})]


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

    def test_workers_with_the_same_firms_share_one_option_list(self):
        workers = ["w1", "w2", "w3"]
        m = Market.build(workers, {"f1": [{"w1", "w2"}], "f2": [{"w3"}]}, {w: () for w in workers})
        space = worker_pref_space(m)
        assert space == [worker_pref_options(["f1"])] * 2 + [worker_pref_options(["f2"])]

    def test_budget_error_without_sampling(self):
        # seven firms: 13,700 rankings per worker, 1.9e8 profiles, raised
        # before any profile is enumerated
        prefs = {
            f"f{i}": FirmPreference.of({"w1", "w2"}, {"w1"}) for i in range(1, 8)
        }
        assert len(worker_pref_options(list(prefs))) ** 2 > SWEEP_BUDGET
        with pytest.raises(BudgetError):
            exists_for_all_worker_prefs(prefs, ["w1", "w2"])

    def test_budget_is_checked_before_any_ranking_is_built(self, monkeypatch):
        # one worker in the sets of 11 firms has 108,505,112 rankings; they
        # are counted, never built
        def build(firms):
            raise AssertionError(f"built the rankings of {len(firms)} firms")

        monkeypatch.setattr(oracle, "worker_pref_options", build)
        prefs = {f"f{i}": FirmPreference.of({"w1"}) for i in range(1, 12)}
        with pytest.raises(BudgetError, match="^108505112 worker preference profiles exceed"):
            exists_for_all_worker_prefs(prefs, ["w1"])

    @pytest.mark.parametrize("n", range(7))
    def test_count_is_the_number_of_rankings(self, n):
        assert worker_pref_count(n) == len(worker_pref_options([f"f{i}" for i in range(n)]))

    def test_generator_counts_the_sweep_space_without_building_it(self, monkeypatch):
        expected = [random_complementary_balanced_profile(random.Random(seed)) for seed in range(20)]

        def build(firms):
            raise AssertionError("built a worker's rankings")

        monkeypatch.setattr(oracle, "worker_pref_options", build)
        assert [random_complementary_balanced_profile(random.Random(seed)) for seed in range(20)] == expected


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

    def test_larger_balanced_complementary_profiles(self):
        # up to six workers: odometers five digits deep
        rng = random.Random(16)
        deepest = 0
        for _ in range(300):
            chains = random_complementary_balanced_profile(rng, max_firms=4, max_workers=6)
            workers = sorted({w for p in chains.values() for s in p.chain for w in s})
            r = exists_for_all_worker_prefs(chains, workers)
            assert r == stored_first_sweep(chains, workers)
            assert r.ok
            deepest = max(deepest, len(workers))
        assert deepest == 6

    def test_no_workers(self):
        for prefs in ({}, {"f1": FirmPreference.of()}):
            r = exists_for_all_worker_prefs(prefs, [])
            assert r == stored_first_sweep(prefs, [])
            assert r == SweepResult(ok=True, total=1, checked=1, solved=1)

    def test_one_worker(self):
        prefs = {"f1": FirmPreference.of({"w1"}), "f2": FirmPreference.of({"w1"})}
        r = _assert_sweep_matches_reference(prefs, ["w1"])
        assert (r.ok, r.total) == (True, 5)

    def test_workers_whose_only_option_is_empty(self):
        # w0 and w3 are in no acceptable set: their one option is (), first or last
        prefs = {
            "f1": FirmPreference.of({"w1", "w2"}, {"w1"}),
            "f2": FirmPreference.of({"w2"}),
        }
        for workers in (["w0", "w1", "w2", "w3"], ["w1", "w2", "w3"], ["w0", "w1", "w2"]):
            r = _assert_sweep_matches_reference(prefs, workers)
            assert r.total == 10

    def test_triangle_and_five_cycle(self):
        _assert_sweep_matches_reference(TRIANGLE, ["w1", "w2", "w3"])
        m = cyclic_market(5)
        r = _assert_sweep_matches_reference(m.firm_prefs, m.workers)
        assert not r.ok  # the odd cycle's own worker lists are among the profiles

    @pytest.mark.parametrize("widths, chains, workers", [
        # w2 is in sets of three firms, then of four; w9 is in none
        ((5, 16), {"f1": [{"w1", "w2"}, {"w2"}], "f2": [{"w2"}], "f3": [{"w1", "w2"}, {"w1"}]}, ["w1", "w2"]),
        ((16, 65), {"f1": [{"w1", "w2"}, {"w2"}], "f2": [{"w1", "w2"}], "f3": [{"w2"}],
                    "f4": [{"w1", "w2"}, {"w1"}]}, ["w1", "w2"]),
        ((5, 5, 65), {"f1": [{"w1", "w2", "w3"}], "f2": [{"w2", "w3"}], "f3": [{"w3"}], "f4": [{"w1", "w3"}]},
         ["w1", "w2", "w3"]),
        ((16, 65, 1), {"f1": [{"w1", "w2"}, {"w2"}], "f2": [{"w1", "w2"}], "f3": [{"w2"}],
                       "f4": [{"w1", "w2"}, {"w1"}]}, ["w1", "w2", "w9"]),
    ])
    def test_wide_and_narrow_last_workers(self, widths, chains, workers):
        # the last worker's options are settled by bitmask, one row of
        # them per prefix: 16 or 65 options wide, or a single one
        prefs = {f: FirmPreference.of(*sets) for f, sets in chains.items()}
        base = Market(tuple(workers), tuple(prefs), {w: () for w in workers}, prefs)
        assert tuple(map(len, worker_pref_space(base))) == widths
        r = _assert_sweep_matches_reference(prefs, workers)
        assert r.ok and r.solved > 1

    @pytest.mark.parametrize("extra, width, checked, solved", [
        (["f4"], 16, 310, 7),
        (["f4", "f5"], 65, 1242, 9),
    ])
    def test_counterexample_inside_a_last_worker_row(self, extra, width, checked, solved):
        # the triangle, with w3 also wanted alone by the extra firms: the
        # first profile with no stable matching is neither the first nor
        # the last of w3's options under its prefix
        prefs = {**TRIANGLE, **{f: FirmPreference.of({"w3"}) for f in extra}}
        workers = ["w1", "w2", "w3"]
        r = _assert_sweep_matches_reference(prefs, workers)
        assert (r.ok, r.checked, r.solved) == (False, checked, solved)
        base = Market(tuple(workers), tuple(prefs), {w: () for w in workers}, prefs)
        options = worker_pref_space(base)[-1]
        assert len(options) == width
        k = (r.checked - 1) % width
        assert 0 < k < width - 1
        assert r.counterexample["w3"] == options[k]

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
        late_market = Market(workers, tuple(prefs), late, prefs)
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
        # the kept mu fails the late profile for the same reason: w2's
        # option () does not list f2, and no candidate coalition survives
        opts = worker_pref_space(early)
        coalitions, tables = _coalitions(early)
        kept = _kept(coalitions, tables, mu, early)
        early_ks = [o.index(early.worker_prefs[w]) for o, w in zip(opts, workers)]
        late_ks = [o.index(late[w]) for o, w in zip(opts, workers)]
        assert _settles(kept, early_ks) and _walk(kept, coalitions.fin, early_ks)
        assert not _settles(kept, late_ks) and not _walk(kept, coalitions.fin, late_ks)
        cand, rows = kept
        assert rows[1][late_ks[1]] is None
        assert not cand & rows[0][late_ks[0]] & rows[2][late_ks[2]]
        # the search returns solve's mu on the early profile, nothing on the late
        assert _search(coalitions, tables, early_ks) == ([None, "f2", "f1"], cand)
        assert _search(coalitions, tables, late_ks) is None

    def test_counterexample_past_the_enumeration_budget(self):
        # the triangle with eight workers in no acceptable set: eleven
        # workers, past a cap on the worker count, while the confirming
        # enumeration sees one assignment per idle worker, and so does
        # all_stable_matchings, whose budget counts assignments
        workers = ["w1", "w2", "w3"] + [f"x{i}" for i in range(8)]
        r = _assert_sweep_matches_reference(TRIANGLE, workers)
        assert (r.ok, r.total) == (False, 125)
        assert all_stable_matchings(Market(tuple(workers), tuple(TRIANGLE), r.counterexample, TRIANGLE)) == []

    def test_search_miss_is_caught_by_enumeration(self, monkeypatch):
        # a search that finds nothing: the enumeration finds the empty
        # matching stable on the first profile, so the sweep raises rather
        # than report a counterexample
        monkeypatch.setattr(_Coalitions, "search", lambda self, tables: None)
        with pytest.raises(RuntimeError, match="missed a stable matching"):
            exists_for_all_worker_prefs({"f1": FirmPreference.of({"w1", "w2"})}, ["w1", "w2"])

    def test_solved_counts_only_misses(self):
        prefs = {"f1": FirmPreference.of({"w1", "w2"})}
        r = exists_for_all_worker_prefs(prefs, ["w1", "w2"])
        # profiles: both silent, w2 lists f1, w1 lists f1, both list f1;
        # the empty matching settles the first three, the last needs solve
        assert (r.ok, r.checked, r.solved) == (True, 4, 2)


class TestCompiledMatchesIsStable:
    """A matching kept on the sweep's coalition numbering (its ``cand``
    and its workers' shared keep rows) settles a profile iff it is
    ``is_stable`` on the profile's market, the IR-only rejection included,
    whether read as the search reads it or walked as the odometer does."""

    def test_every_stored_matching_on_every_profile(self):
        rng = random.Random(19)
        cfg = MarketGenConfig(max_workers=3, max_firms=3, max_chain=2, max_set=2)
        pairs = settled = not_ir = 0
        for _ in range(120):
            base = random_market(rng, cfg)
            base = _with_lists(base, {w: () for w in base.workers})
            coalitions, tables = _coalitions(base)
            space = worker_pref_space(base)
            indices = list(itertools.product(*map(range, map(len, space))))
            markets = [
                _with_lists(base, {w: o[k] for w, o, k in zip(base.workers, space, ks)})
                for ks in indices
            ]
            # what a sweep may keep: solve's matchings, stable on their own market
            stored = {}
            for market in markets:
                mu = reference_solve(market)
                if mu is not None and is_stable(mu, market):
                    stored.setdefault(tuple(mu.assignment.items()), (mu, _kept(coalitions, tables, mu, base)))
            for ks, market in zip(indices, markets):
                for mu, kept in stored.values():
                    settles = _settles(kept, ks)
                    assert settles == is_stable(mu, market)
                    assert _walk(kept, coalitions.fin, ks) == settles
                    pairs += 1
                    settled += settles
                    not_ir += any(kept[1][i][k] is None for i, k in enumerate(ks))
        assert 0 < settled < pairs
        assert not_ir  # worker IR rejects some of them

    def test_fin_partitions_the_candidate_coalitions(self):
        # f1 holds nothing, so both its sets are candidates; f2 holds its best
        prefs = {
            "f1": FirmPreference.of({"w1", "w3"}, {"w2"}),
            "f2": FirmPreference.of({"w1", "w2"}),
        }
        base = Market(("w1", "w2", "w3"), ("f1", "f2"), {w: () for w in ("w1", "w2", "w3")}, prefs)
        mu = Matching({"w1": "f2", "w2": "f2", "w3": None})
        coalitions, tables = _coalitions(base)
        cand, rows = _kept(coalitions, tables, mu, base)
        # bits: f1 {w1,w3}, f1 {w2}, f2 {w1,w2}; {w2} and {w1,w2} end at w2
        assert coalitions.fin == [0, 0b110, 0b001]
        assert cand == 0b011
        assert [cand & fin for fin in coalitions.fin] == [0, 0b10, 0b01]
        assert [len(row) for row in rows] == [len(o) for o in worker_pref_space(base)]
        # w1 at f2, over her options (), (f1), (f2), (f1 f2), (f2 f1): not
        # IR where f2 is unlisted, else f1's {w1,w3} is dropped unless she
        # ranks f1 above f2
        assert worker_pref_space(base)[0] == [(), ("f1",), ("f2",), ("f1", "f2"), ("f2", "f1")]
        assert rows[0] == [None, None, ~0b001, ~0, ~0b001]


class TestSearchMatchesSolve:
    """The search, run on the sweep's option tables, walks the firm
    selections in the reference solve's order: on every profile it returns
    that matching, or None exactly where the reference does."""

    def test_every_profile_of_random_firm_sides(self):
        rng = random.Random(23)
        cfg = MarketGenConfig(max_workers=3, max_firms=3, max_chain=3, max_set=3)
        found = missing = 0
        for _ in range(200):
            base = random_market(rng, cfg)
            base = _with_lists(base, {w: () for w in base.workers})
            coalitions, tables = _coalitions(base)
            space = worker_pref_space(base)
            for ks in itertools.product(*map(range, map(len, space))):
                market = _with_lists(base, {w: o[k] for w, o, k in zip(base.workers, space, ks)})
                hit = _search(coalitions, tables, ks)
                mu = reference_solve(market)
                if mu is None:
                    assert hit is None
                    missing += 1
                else:
                    held, cand = hit
                    assert mu == Matching(dict(zip(base.workers, held)))
                    assert cand == _kept(coalitions, tables, mu, base)[0]
                    found += 1
        assert (found, missing) == (25602, 219)


class TestCorpusSweeps:
    """Every corpus market's firm side, swept: the two whose firm sides
    admit a worker profile without a stable matching FAIL, and ``balmatch
    solve`` prints no matching on that profile; the others check every
    profile."""

    FAILING = {"cyclic3.market", "singleton_clash.market"}

    def test_corpus_has_eleven_markets(self):
        assert len(MARKET_FILES) == 11
        assert self.FAILING <= set(MARKET_FILES)

    @pytest.mark.parametrize("name", MARKET_FILES)
    def test_verdict(self, name, tmp_path, capsys):
        m = load_market(name)
        r = exists_for_all_worker_prefs(m.firm_prefs, m.workers)
        assert r.ok == (name not in self.FAILING)
        if r.ok:
            assert r.checked == r.total
            return
        counter = _with_lists(m, r.counterexample)
        assert solve(counter) is None
        path = tmp_path / name
        path.write_text(formats.serialize_market(counter))
        assert main(["solve", str(path)]) == EXIT_FAIL
        assert "NONE" in capsys.readouterr().out
