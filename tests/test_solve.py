import importlib
import random
from fractions import Fraction

import pytest

from balmatch.fractional import FractionalError, FractionalMatching, round_fractional
from balmatch.genrandom import (
    MarketGenConfig,
    random_complementary_balanced_profile,
    random_market,
)
from balmatch.market import Market, Matching, acceptable_set_family, is_stable
from balmatch.matrices import is_balanced, matrix_of_sets
from balmatch.oracle import all_stable_matchings, cyclic_market
from balmatch.prefs import (
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
    interval_market,
    load_market,
    nested_market,
    reference_solve,
)

H = Fraction(1, 2)
Z = Fraction(0)
ONE = Fraction(1)


def reference_direct_search(m):
    """The direct search as it was: every leaf built as a Matching and
    handed to the full is_stable."""
    options = []
    for f in m.firms:
        acc = [
            s
            for s in m.firm_prefs[f].acceptable
            if all(f in m.worker_prefs[w] for w in s)
        ]
        options.append((f, acc))
    assignment = {w: None for w in m.workers}
    taken = set()

    def rec(i):
        if i == len(options):
            mu = Matching(dict(assignment))
            return mu if is_stable(mu, m) else None
        f, acc = options[i]
        for s in acc:
            if s & taken:
                continue
            for w in s:
                assignment[w] = f
            taken.update(s)
            hit = rec(i + 1)
            if hit is not None:
                return hit
            taken.difference_update(s)
            for w in s:
                assignment[w] = None
        return rec(i + 1)

    return rec(0)


def _assert_search_matches_reference(m):
    mu = solve(m)
    ref = reference_direct_search(m)
    assert (mu is None) == (ref is None)
    if mu is not None:
        assert mu.assignment == ref.assignment
        assert is_stable(mu, m)


class TestDirect:
    def test_finds_grand_coalition(self, two_firms):
        mu = solve(two_firms)
        assert mu is not None
        assert mu.assignment == {
            "w1": "f1",
            "w2": "f1",
            "w3": "f1",
            "w4": None,
        }

    def test_proves_nonexistence(self, cyclic3):
        assert solve(cyclic3) is None

    def test_agrees_with_oracle_on_corpus(self, any_market):
        mu = solve(any_market)
        stable = all_stable_matchings(any_market)
        assert (mu is not None) == bool(stable)
        if mu is not None:
            assert is_stable(mu, any_market)

    def test_agrees_with_oracle_on_random_markets(self):
        rng = random.Random(21)
        for _ in range(250):
            m = random_market(rng)
            mu = solve(m)
            stable = all_stable_matchings(m)
            assert (mu is not None) == bool(stable)
            if mu is not None:
                assert is_stable(mu, m)

    @pytest.mark.parametrize("name", MARKET_FILES)
    def test_search_matches_reference_on_corpus(self, name):
        _assert_search_matches_reference(load_market(name))

    def test_search_matches_reference_on_random_markets(self):
        rng = random.Random(33)
        cfg = MarketGenConfig(max_workers=6, max_firms=4)
        found = 0
        for _ in range(400):
            m = random_market(rng, cfg)
            _assert_search_matches_reference(m)
            found += solve(m) is not None
        assert 0 < found < 400  # both outcomes occur


class TestSolveMatchesReference:
    """``solve`` returns the reference search's matching, or None exactly
    where it does."""

    def test_bench_like_markets_and_their_decompositions(self):
        markets = found = 0
        for m in bench_like_markets():
            variants = [m, decompose_by_sets(m).market]
            if all(is_complementary(f, m) for f in m.firms):
                variants.append(decompose_by_components(m).market)
            for v in variants:
                mu = solve(v)
                assert mu == reference_solve(v)
                markets += 1
                found += mu is not None
        assert 0 < found < markets

    def test_random_markets(self):
        rng = random.Random(6)
        cfg = MarketGenConfig(max_workers=8, max_firms=6)
        missing = 0
        for _ in range(2000):
            m = random_market(rng, cfg)
            mu = solve(m)
            assert mu == reference_solve(m)
            missing += mu is None
        assert missing  # some have no stable matching

    @pytest.mark.parametrize("n", range(3, 18))
    def test_cyclic_markets(self, n):
        mu = solve(cyclic_market(n))
        assert mu == reference_solve(cyclic_market(n))
        assert (mu is None) == (n % 2 == 1)


def reference_certificates(m):
    """Both balancedness searches, each on its own family."""
    primitive = list(dict.fromkeys(s for f in m.firms for s in primitive_acceptable_sets(f, m)))
    return {
        "complementary": str(all(is_complementary(f, m) for f in m.firms)),
        "additive": str(all(is_additive(f, m) for f in m.firms)),
        "acceptable_sets_balanced": is_balanced(
            matrix_of_sets(acceptable_set_family(m), m.workers)
        ).verdict,
        "primitive_sets_balanced": is_balanced(matrix_of_sets(primitive, m.workers)).verdict,
    }


def complementary_market(rng):
    """A complementary firm side with a balanced acceptable-set matrix, and
    random worker lists."""
    chains = random_complementary_balanced_profile(rng, max_firms=3, max_workers=5)
    ws = sorted({w for p in chains.values() for s in p.chain for w in s})
    firms = list(chains)
    prefs = {w: tuple(rng.sample(firms, rng.randint(1, len(firms)))) for w in ws}
    return Market(workers=tuple(ws), firms=tuple(firms), worker_prefs=prefs, firm_prefs=chains)


def _assert_certificates_match_reference(m):
    certs = market_certificates(m)
    assert list(certs.items()) == list(reference_certificates(m).items())
    return certs["acceptable_sets_balanced"], certs["primitive_sets_balanced"]


class TestDerivedPrimitiveVerdict:
    """An acceptable-set PASS decides the primitive verdict; the dict equals
    the one from searching both families, keys in order."""

    @pytest.mark.parametrize("name", MARKET_FILES)
    def test_corpus_markets(self, name):
        _assert_certificates_match_reference(load_market(name))

    def test_primitive_sets_can_pass_where_acceptable_sets_fail(self, pair_chain):
        assert _assert_certificates_match_reference(pair_chain) == ("FAIL", "PASS")

    @pytest.mark.parametrize(
        "market",
        [nested_market(n) for n in range(8, 13)]
        + [cyclic_market(n) for n in range(3, 11)]
        + [interval_market(n) for n in (4, 5, 6)],
        ids=[f"nested{n}" for n in range(8, 13)]
        + [f"cyclic{n}" for n in range(3, 11)]
        + [f"interval{n}" for n in (4, 5, 6)],
    )
    def test_market_families(self, market):
        _assert_certificates_match_reference(market)

    def test_random_markets(self):
        rng = random.Random(3)
        cfg = MarketGenConfig(max_workers=5, max_firms=3, max_chain=3, max_set=3)
        seen = set()
        for _ in range(2000):
            seen.add(_assert_certificates_match_reference(random_market(rng, cfg)))
        assert ("FAIL", "PASS") in seen
        assert ("PASS", "PASS") in seen and ("FAIL", "FAIL") in seen

    def test_complementary_balanced_markets(self):
        rng = random.Random(24)
        for _ in range(2000):
            verdicts = _assert_certificates_match_reference(complementary_market(rng))
            assert verdicts == ("PASS", "PASS")

    def test_pass_does_not_build_the_primitive_family(self, monkeypatch, two_firms, cyclic3):
        def unexpected(f, m):
            raise AssertionError("primitive_acceptable_sets called")

        solve_module = importlib.import_module("balmatch.solve")
        monkeypatch.setattr(solve_module, "primitive_acceptable_sets", unexpected)
        certs = market_certificates(two_firms)
        assert certs["acceptable_sets_balanced"] == certs["primitive_sets_balanced"] == "PASS"
        # a FAIL still needs the primitive family
        with pytest.raises(AssertionError, match="primitive_acceptable_sets called"):
            market_certificates(cyclic3)

    @pytest.mark.parametrize(
        "name, searches", [("two_firms", 1), ("cyclic3", 1), ("pair_chain", 2)]
    )
    def test_one_search_unless_the_families_differ(self, monkeypatch, name, searches):
        # cyclic3 fails with primitive sets equal to its acceptable sets;
        # pair_chain's primitive sets are fewer
        solve_module = importlib.import_module("balmatch.solve")
        calls = []

        def counted(mat, cap):
            calls.append(mat.cols)
            return is_balanced(mat, cap)

        monkeypatch.setattr(solve_module, "is_balanced", counted)
        market_certificates(load_market(name + ".market"))
        assert len(calls) == searches


class TestCertificates:
    def test_two_firms_certificates(self, two_firms):
        certs = market_certificates(two_firms)
        assert certs["complementary"] == "True"
        assert certs["additive"] == "True"
        assert certs["acceptable_sets_balanced"] == "PASS"
        assert certs["primitive_sets_balanced"] == "PASS"

    def test_cyclic3_certificates(self, cyclic3):
        certs = market_certificates(cyclic3)
        assert certs["acceptable_sets_balanced"] == "FAIL"

    def test_additive_market(self, additive_market):
        certs = market_certificates(additive_market)
        assert certs["complementary"] == "False"
        assert certs["additive"] == "True"


class TestPipeline:
    def test_rounds_to_stable_matching(self, two_firms):
        fm = FractionalMatching(
            levels={"f1#1": H, "f1#2": H, "f1#3": Z, "f2": H},
            null_assignment={"w1": Z, "w2": Z, "w3": Z, "w4": H},
        )
        matching, cert = round_fractional(fm, decompose_by_sets(two_firms))
        assert matching is not None
        assert is_stable(matching, two_firms)
        assert matching.assignment == {
            "w1": "f1",
            "w2": "f1",
            "w3": "f1",
            "w4": None,
        }
        assert cert.verdict == "PASS"

    def test_integral_input_passes_through(self, two_firms):
        fm = FractionalMatching(
            levels={"f1#1": ONE, "f1#2": Z, "f1#3": Z, "f2": Z},
            null_assignment={"w1": Z, "w2": Z, "w3": Z, "w4": ONE},
        )
        matching, cert = round_fractional(fm, decompose_by_sets(two_firms))
        assert matching is not None
        assert cert is None
        assert is_stable(matching, two_firms)

    def test_unstable_fractional_rejected(self, two_firms):
        fm = FractionalMatching(
            levels={"f1#1": Z, "f1#2": ONE, "f1#3": Z, "f2": Z},
            null_assignment={"w1": Z, "w2": ONE, "w3": ONE, "w4": ONE},
        )
        with pytest.raises(FractionalError, match="^fractional input is not stable"):
            round_fractional(fm, decompose_by_sets(two_firms))

    def test_over_full_firm_rejected(self):
        # f#1 and f#2 each hire their worker at level 1, so f holds both
        # of its sets at once: a malformed input, not a matching
        m = Market.build(["w1", "w2"], {"f": [["w1"], ["w2"]]}, {"w1": ["f"], "w2": ["f"]})
        fm = FractionalMatching(
            levels={"f#1": ONE, "f#2": ONE}, null_assignment={"w1": Z, "w2": Z}
        )
        with pytest.raises(FractionalError, match="^firm f levels sum to 2, above 1$"):
            round_fractional(fm, decompose_by_sets(m))
