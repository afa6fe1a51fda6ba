"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS line on
success (run with ``pytest -s`` to see them); any assertion failure marks
the criterion FAIL.
"""

import itertools
import random
from fractions import Fraction

from balmatch import formats
from balmatch.fractional import (
    FractionalMatching,
    apply_stable_transformations,
    build_constraint_system,
    extract_integral_solution,
    integral_to_matching,
    verify_fractional_stability,
)
from balmatch.genrandom import (
    random_complementary_balanced_profile,
    random_market,
    random_neighbour_tree,
)
from balmatch.hypergraphs import check_hypergraph_balanced, firm_worker_hypergraph
from balmatch.market import FirmPreference, Market, acceptable_sets, is_stable
from balmatch.matrices import (
    ZeroOneMatrix,
    integer_determinant,
    is_balanced,
    is_totally_balanced,
    is_totally_unimodular,
    matrix_of_sets,
)
from balmatch.oracle import (
    all_stable_matchings,
    cyclic_market,
    exists_for_all_worker_prefs,
)
from balmatch.prefs import (
    decompose_by_components,
    decompose_by_sets,
    is_additive,
    is_complementary,
    primitive_acceptable_sets,
)
from balmatch.solve import solve
from balmatch.techtree import (
    check_neighbour_condition,
    find_neighbour_ordering,
    worker_set_matrix,
)
from conftest import MARKET_FILES, load_market, load_tree

H = Fraction(1, 2)
Z = Fraction(0)
ONE = Fraction(1)


def _market_matrix(m):
    sets, seen = [], set()
    for f in m.firms:
        for s in acceptable_sets(f, m):
            if s not in seen:
                seen.add(s)
                sets.append(s)
    return matrix_of_sets(sets, m.workers)


def test_criterion_1_nonexistence():
    m = load_market("cyclic3.market")
    assert len(all_stable_matchings(m)) == 0
    assert solve(m) is None
    cert = is_balanced(_market_matrix(m))
    assert cert.verdict == "FAIL"
    assert len(cert.witness_rows) == 3 and len(cert.witness_cols) == 3
    sub = cert.witness.entries
    assert all(sum(r) == 2 for r in sub)
    assert all(sum(c) == 2 for c in zip(*sub))
    print("\ncriterion 1 (nonexistence on the odd pair cycle): PASS")


def test_criterion_2_cyclic_parity():
    assert len(all_stable_matchings(cyclic_market(4))) >= 1
    assert len(all_stable_matchings(cyclic_market(5))) == 0
    print("\ncriterion 2 (parity of cyclic markets, n=4 vs n=5): PASS")


def test_criterion_3_existence_for_balanced_profiles():
    five = load_market("five_firms.market")
    profile = {f: five.firm_prefs[f] for f in five.firms}
    assert is_balanced(_market_matrix(five)).ok
    r = exists_for_all_worker_prefs(profile, five.workers)
    assert r.ok and not r.sampled

    rng = random.Random(2024)
    for _ in range(100):
        chains = random_complementary_balanced_profile(
            rng, max_firms=4, max_workers=5
        )
        workers = sorted({w for p in chains.values() for s in p.chain for w in s})
        r = exists_for_all_worker_prefs(chains, workers)
        assert r.ok, (chains, r.counterexample)
        # spot-confirm a handful of the swept profiles against the oracle
        probe = Market(
            workers=tuple(workers),
            firms=tuple(chains),
            worker_prefs={w: tuple(chains) for w in workers},
            firm_prefs=chains,
        )
        mu = solve(probe)
        assert mu is not None and is_stable(mu, probe)
    print(
        "criterion 3 (stable matching for all worker preferences, "
        "fixed profile + 100 random balanced complementary profiles): PASS"
    )


def test_criterion_4_component_decomposition():
    pair = load_market("pair_chain.market")
    d = decompose_by_components(pair)
    assert d.market.firms == ("f1#1", "f1#2", "f2", "f3")
    profile = {f: d.market.firm_prefs[f] for f in d.market.firms}
    r = exists_for_all_worker_prefs(profile, d.market.workers)
    assert r.ok

    nested = load_market("nested_chains.market")
    assert primitive_acceptable_sets("f1", nested) == [
        frozenset({"w1", "w2"}),
        frozenset({"w3"}),
    ]
    assert primitive_acceptable_sets("f2", nested) == acceptable_sets("f2", nested)

    twoc = load_market("two_components.market")
    assert primitive_acceptable_sets("f1", twoc) == [
        frozenset({"w1", "w2"}),
        frozenset({"w3", "w4"}),
    ]
    assert primitive_acceptable_sets("f2", twoc) == acceptable_sets("f2", twoc)
    print(
        "criterion 4 (existence after component decomposition; "
        "primitive acceptable sets exact): PASS"
    )


def test_criterion_5_additive_profile():
    m = load_market("additive.market")
    for f in m.firms:
        assert is_additive(f, m)
        assert not is_complementary(f, m)
    assert is_balanced(_market_matrix(m)).ok
    profile = {f: m.firm_prefs[f] for f in m.firms}
    r = exists_for_all_worker_prefs(profile, m.workers)
    assert r.ok and not r.sampled
    print(
        "criterion 5 (additive non-complementary profile, balanced, "
        "stable for all worker preferences): PASS"
    )


def test_criterion_6_pipeline_replay(corpus_dir):
    m = load_market("two_firms.market")
    d = decompose_by_sets(m)
    fm = formats.parse_fractional((corpus_dir / "half_half.frac").read_text(), d)
    assert verify_fractional_stability(fm, d).ok

    cs = build_constraint_system(fm, d)
    assert cs.matrix.shape == (6, 5)
    assert [f"{k}:{w}" for k, w in cs.column_meaning] == [
        "take:f1#1", "take:f1#2",
        "take:f2", "empty:f2",
        "null:w4",
    ]
    assert [f"{k}:{w}" for k, w in cs.row_meaning] == [
        "firm:f1", "firm:f2",
        "worker:w1", "worker:w2", "worker:w3", "worker:w4",
    ]
    assert cs.matrix.entries == (
        (1, 1, 0, 0, 0),
        (0, 0, 1, 1, 0),
        (1, 1, 0, 0, 0),
        (1, 0, 1, 0, 0),
        (1, 0, 1, 0, 0),
        (0, 0, 1, 0, 1),
    )
    assert cs.rhs == (1,) * 6

    z = extract_integral_solution(cs)
    assert z == (1, 0, 0, 1, 1)
    # the firm rows force one choice per fractional firm: one of f1's
    # sets, and f2's set or its slack
    assert z[0] + z[1] == 1 and z[2] + z[3] == 1

    integral = apply_stable_transformations(fm, z, cs)
    assert integral.levels == {"f1#1": ONE, "f1#2": Z, "f1#3": Z, "f2": Z}
    assert integral.null_assignment == {"w1": Z, "w2": Z, "w3": Z, "w4": ONE}

    mu = integral_to_matching(integral, d)
    assert mu.assignment == {"w1": "f1", "w2": "f1", "w3": "f1", "w4": None}
    assert is_stable(mu, m)

    # replay the four printed rounding steps one at a time; each
    # intermediate state stays block-free (masses drift, hence pseudo)
    steps = [
        ("level", "f1#1", ONE),
        ("level", "f1#2", Z),
        ("level", "f2", Z),
        ("null", "w4", ONE),
    ]
    current = fm
    for kind, who, value in steps:
        current = (
            current.with_level(who, value)
            if kind == "level"
            else current.with_null(who, value)
        )
        assert verify_fractional_stability(current, d, pseudo=True).ok
    assert current == integral
    print("\ncriterion 6 (constraint-system replay, bit-exact): PASS")


def test_criterion_7_matrix_certificates():
    tri = load_market("triangle_tu.market")
    assert is_totally_unimodular(_market_matrix(tri)).ok

    cycle = ZeroOneMatrix.from_rows(
        rows=("r1", "r2", "r3"),
        cols=("c1", "c2", "c3"),
        entries=((1, 1, 0), (0, 1, 1), (1, 0, 1)),
    )
    assert is_totally_unimodular(cycle).verdict == "FAIL"

    fan = load_market("fan.market")
    mat = _market_matrix(fan)
    assert is_balanced(mat).ok
    cert = is_totally_unimodular(mat)
    assert cert.verdict == "FAIL"
    assert abs(cert.determinant) == 2
    # the reported witness re-evaluates to the reported determinant
    sub = mat.submatrix(cert.witness_rows, cert.witness_cols)
    assert integer_determinant([list(r) for r in sub.entries]) == cert.determinant
    # the four overlapping acceptable sets, suitably ordered, give +2
    cols = ["{w1,w2}", "{w1,w2,w3,w4}", "{w1,w3}", "{w1,w4}"]
    picked = mat.submatrix(range(4), [mat.cols.index(c) for c in cols])
    assert integer_determinant([list(r) for r in picked.entries]) == 2
    print("\ncriterion 7 (totally unimodular / balanced-only certificates): PASS")


def test_criterion_8_technology_trees():
    ladder = load_tree("ladder.tree")
    assert check_neighbour_condition(ladder).ok
    assert is_totally_balanced(worker_set_matrix(ladder)).ok

    triangle = load_tree("triangle.tree")
    assert not check_neighbour_condition(triangle).ok
    assert find_neighbour_ordering(triangle) is None

    rng = random.Random(2025)
    for _ in range(200):
        t = random_neighbour_tree(rng)
        assert check_neighbour_condition(t).ok
        assert is_totally_balanced(worker_set_matrix(t)).verdict == "PASS"
    print(
        "\ncriterion 8 (neighbour condition and totally balanced "
        "technology matrices, 200 random trees): PASS"
    )


def test_criterion_9_firm_worker_hypergraph():
    m = load_market("singleton_clash.market")
    cert = check_hypergraph_balanced(firm_worker_hypergraph(m))
    assert cert.verdict == "FAIL"
    assert cert.cycle is not None and cert.cycle.length % 2 == 1
    assert len(all_stable_matchings(m)) == 0
    print("\ncriterion 9 (firm-worker hypergraph odd cycle, no stable matching): PASS")


def test_criterion_10_solver_oracle_equivalence():
    def canon(mu):
        return tuple(sorted(mu.assignment.items()))

    for name in MARKET_FILES:
        m = load_market(name)
        found = solve(m)
        stable = {canon(mu) for mu in all_stable_matchings(m)}
        assert (found is not None) == bool(stable), name
        if found is not None:
            assert canon(found) in stable, name

    rng = random.Random(77)
    for _ in range(500):
        m = random_market(rng)
        found = solve(m)
        stable = {canon(mu) for mu in all_stable_matchings(m)}
        assert (found is not None) == bool(stable)
        if found is not None:
            assert canon(found) in stable
    print(
        "\ncriterion 10 (solver agrees with the enumeration oracle, "
        "corpus + 500 random markets): PASS"
    )
