import itertools
import random
from fractions import Fraction

import pytest

from balmatch.fractional import (
    ConstraintSystem,
    FractionalError,
    FractionalMatching,
    IntegralExtractionError,
    apply_stable_transformations,
    build_constraint_system,
    extract_integral_solution,
    integral_to_matching,
    reduced_balance_check,
    verify_fractional_stability,
    worker_mass,
)
from balmatch.genrandom import random_market
from balmatch.market import Market, is_stable
from balmatch.matrices import ZeroOneMatrix, set_label
from balmatch.oracle import MAX_FIRMS, all_stable_matchings, cyclic_market
from balmatch.prefs import decompose_by_sets, lift_matching

H = Fraction(1, 2)
Z = Fraction(0)
ONE = Fraction(1)


@pytest.fixture
def split(two_firms):
    return decompose_by_sets(two_firms)


@pytest.fixture
def half_half(split):
    """Every proper firm at level 1/2 except the dominated pair set."""
    return FractionalMatching(
        levels={"f1#1": H, "f1#2": H, "f1#3": Z, "f2": H},
        null_assignment={"w1": Z, "w2": Z, "w3": Z, "w4": H},
    )


def brute_solutions(cs):
    """Reference: all 0/1 vectors solving the system, in canonical order."""
    n = len(cs.column_meaning)
    out = []
    for bits in itertools.product((1, 0), repeat=n):
        if all(
            sum(a * b for a, b in zip(row, bits)) == t
            for row, t in zip(cs.matrix.entries, cs.rhs)
        ):
            out.append(bits)
    return out


def reference_constraint_system(fm, d):
    """Reference: the system built row by row, switching on each column's
    kind for every cell."""

    def unique_set(f):
        (s,) = d.market.firm_prefs[f].chain
        return s

    m = d.market
    frac_firms = [f for f in m.firms if Z < fm.levels[f] < ONE]
    frac_null = [w for w in m.workers if Z < fm.null_assignment[w] < ONE]
    if not frac_firms and not frac_null:
        return ConstraintSystem(
            matrix=ZeroOneMatrix(rows=(), cols=(), entries=()),
            column_meaning=(),
            row_meaning=(),
            rhs=(),
        )
    meanings, labels = [], []
    for f in frac_firms:
        meanings += [("take", f), ("empty", f)]
        labels += [f + ":" + set_label(unique_set(f)), f + ":{}"]
    for w in frac_null:
        meanings.append(("null", w))
        labels.append("null:" + w)
    row_meaning = [("firm", f) for f in frac_firms] + [("worker", w) for w in m.workers]
    rows, rhs = [], []
    for f in frac_firms:
        rows.append(
            tuple(1 if kind in ("take", "empty") and who == f else 0 for kind, who in meanings)
        )
        rhs.append(1)
    for w in m.workers:
        row = []
        for kind, who in meanings:
            if kind == "take":
                row.append(1 if w in unique_set(who) else 0)
            elif kind == "null":
                row.append(1 if who == w else 0)
            else:
                row.append(0)
        rows.append(tuple(row))
        integral = sum(1 for f in m.firms if fm.levels[f] == ONE and w in unique_set(f))
        if fm.null_assignment[w] == ONE:
            integral += 1
        rhs.append(1 - integral)
    return ConstraintSystem(
        matrix=ZeroOneMatrix(
            rows=tuple(who for _, who in row_meaning),
            cols=tuple(labels),
            entries=tuple(rows),
        ),
        column_meaning=tuple(meanings),
        row_meaning=tuple(row_meaning),
        rhs=tuple(rhs),
    )


def overlap_market(rng):
    """Firms wanting one random set of one to three workers, mostly pairs,
    each worker ranking every firm that wants her: overlaps make several
    stable matchings, whose mixes are stable fractional points."""
    workers = [f"w{i}" for i in range(1, rng.randint(3, 6) + 1)]
    chains = {
        f"f{i}": [rng.sample(workers, rng.choice((1, 2, 2, 2, 3)))]
        for i in range(1, rng.randint(2, 6) + 1)
    }
    prefs = {w: [f for f, (s,) in chains.items() if w in s] for w in workers}
    for ranking in prefs.values():
        rng.shuffle(ranking)
    return Market.build(workers, chains, prefs)


def verified_points():
    """Stable fractional matchings: the verified 1/2-1/2 mixes of pairs of
    stable matchings of set-split random and overlap markets (a matching
    mixed with itself is integral), then every firm of
    ``cyclic_market(3..10)`` at 1/2."""
    for seed in range(3):
        rng = random.Random(seed)
        for make in [random_market] * 50 + [overlap_market] * 100:
            d = decompose_by_sets(make(rng))
            if len(d.market.firms) > MAX_FIRMS:
                continue
            stable = [
                ({f: ONE if f in mu.inverse() else Z for f in d.market.firms},
                 {w: ONE if mu.assignment[w] is None else Z for w in d.market.workers})
                for mu in all_stable_matchings(d.market)
            ]
            for (la, na), (lb, nb) in itertools.combinations_with_replacement(stable, 2):
                fm = FractionalMatching(
                    levels={f: (la[f] + lb[f]) / 2 for f in la},
                    null_assignment={w: (na[w] + nb[w]) / 2 for w in na},
                )
                if verify_fractional_stability(fm, d).ok:
                    yield d, fm
    for n in range(3, 11):
        d = decompose_by_sets(cyclic_market(n))
        yield d, FractionalMatching(
            levels={f: H for f in d.market.firms},
            null_assignment={w: Z for w in d.market.workers},
        )


class TestVerification:
    def test_half_half_is_stable(self, half_half, split):
        assert verify_fractional_stability(half_half, split).ok

    def test_mass_conservation_enforced(self, half_half, split):
        broken = half_half.with_null("w4", Z)
        with pytest.raises(FractionalError):
            verify_fractional_stability(broken, split)

    def test_pseudo_skips_mass_check(self, half_half, split):
        overfull = half_half.with_null("w4", ONE)  # w4's mass is now 3/2
        with pytest.raises(FractionalError):
            verify_fractional_stability(overfull, split)
        report = verify_fractional_stability(overfull, split, pseudo=True)
        assert report.ok

    def test_blocking_firm_reported(self, split):
        # starving f1#1 of w1 only: f1#2 and the null share feed it back
        fm = FractionalMatching(
            levels={"f1#1": Z, "f1#2": ONE, "f1#3": ONE, "f2": Z},
            null_assignment={"w1": Z, "w2": Z, "w3": Z, "w4": ONE},
        )
        report = verify_fractional_stability(fm, split)
        assert not report.ok
        assert report.firm == "f1#1"
        assert all(x > 0 for x in report.available.values())

    def test_unacceptable_firm_fails_ir(self):
        from balmatch.market import Market

        m = Market.build(
            ["w1", "w2"],
            {"g1": [{"w1", "w2"}]},
            {"w1": ["g1"], "w2": []},  # w2 never works for g1
        )
        d = decompose_by_sets(m)
        fm = FractionalMatching(
            levels={"g1": ONE},
            null_assignment={"w1": Z, "w2": Z},
        )
        report = verify_fractional_stability(fm, d)
        assert not report.ok
        assert report.firm == "g1"
        assert "unacceptable" in report.detail

    def test_worker_mass(self, half_half, split):
        for w in split.market.workers:
            assert worker_mass(half_half, split, w) == ONE

    def test_level_outside_unit_interval_rejected(self, half_half, split):
        broken = half_half.with_level("f2", Fraction(3, 2))
        with pytest.raises(FractionalError):
            verify_fractional_stability(broken, split)


class TestConstraintSystem:
    def test_shape_and_legend(self, half_half, split):
        cs = build_constraint_system(half_half, split)
        assert cs.matrix.shape == (7, 7)
        assert cs.column_meaning == (
            ("take", "f1#1"),
            ("empty", "f1#1"),
            ("take", "f1#2"),
            ("empty", "f1#2"),
            ("take", "f2"),
            ("empty", "f2"),
            ("null", "w4"),
        )
        assert cs.row_meaning == (
            ("firm", "f1#1"),
            ("firm", "f1#2"),
            ("firm", "f2"),
            ("worker", "w1"),
            ("worker", "w2"),
            ("worker", "w3"),
            ("worker", "w4"),
        )
        assert cs.rhs == (1, 1, 1, 1, 1, 1, 1)

    def test_entries(self, half_half, split):
        cs = build_constraint_system(half_half, split)
        assert cs.matrix.entries == (
            (1, 1, 0, 0, 0, 0, 0),
            (0, 0, 1, 1, 0, 0, 0),
            (0, 0, 0, 0, 1, 1, 0),
            (1, 0, 1, 0, 0, 0, 0),
            (1, 0, 0, 0, 1, 0, 0),
            (1, 0, 0, 0, 1, 0, 0),
            (0, 0, 0, 0, 1, 0, 1),
        )

    def test_integral_input_gives_empty_system(self, split):
        fm = FractionalMatching(
            levels={"f1#1": ONE, "f1#2": Z, "f1#3": Z, "f2": Z},
            null_assignment={"w1": Z, "w2": Z, "w3": Z, "w4": ONE},
        )
        cs = build_constraint_system(fm, split)
        assert cs.empty
        assert extract_integral_solution(cs) == ()

    def test_unstable_input_rejected(self, split):
        fm = FractionalMatching(
            levels={"f1#1": Z, "f1#2": ONE, "f1#3": ONE, "f2": Z},
            null_assignment={"w1": Z, "w2": Z, "w3": Z, "w4": ONE},
        )
        with pytest.raises(FractionalError):
            build_constraint_system(fm, split)

    def test_matches_reference_builder(self):
        points = list(verified_points())
        assert len(points) >= 150
        for d, fm in points:
            assert build_constraint_system(fm, d) == reference_constraint_system(fm, d)


class TestExtraction:
    def test_canonical_solution(self, half_half, split):
        cs = build_constraint_system(half_half, split)
        z = extract_integral_solution(cs)
        assert z == (1, 0, 0, 1, 0, 1, 1)

    def test_first_solution_in_order(self, half_half, split):
        # 1-before-0 depth-first order means the returned vector is the
        # lexicographically largest of all solutions
        cs = build_constraint_system(half_half, split)
        sols = brute_solutions(cs)
        assert extract_integral_solution(cs) == max(sols)

    def test_first_solution_on_verified_points(self):
        outcomes = set()
        for d, fm in verified_points():
            cs = build_constraint_system(fm, d)
            if len(cs.column_meaning) > 16:
                continue
            sols = brute_solutions(cs)
            if sols:
                assert extract_integral_solution(cs) == max(sols)
            else:
                with pytest.raises(IntegralExtractionError):
                    extract_integral_solution(cs)
            outcomes.add(bool(sols))
        assert outcomes == {True, False}

    def test_round_trip_to_stable_matching(self, half_half, split, two_firms):
        cs = build_constraint_system(half_half, split)
        z = extract_integral_solution(cs)
        integral = apply_stable_transformations(half_half, z, cs)
        assert integral.is_integral()
        report = verify_fractional_stability(integral, split)
        assert report.ok
        mu = integral_to_matching(integral, split)
        assert mu.assignment == {"w1": "f1#1", "w2": "f1#1", "w3": "f1#1", "w4": None}
        lifted = lift_matching(mu, split)
        assert is_stable(lifted, two_firms)

    def test_intermediate_steps_verify_as_pseudo(self, half_half, split):
        # apply the rounding one coordinate at a time; each intermediate
        # state keeps the no-blocking property even while masses drift
        cs = build_constraint_system(half_half, split)
        z = extract_integral_solution(cs)
        current = half_half
        for value, (kind, who) in zip(z, cs.column_meaning):
            if kind == "take":
                current = current.with_level(who, ONE if value else Z)
            elif kind == "null":
                current = current.with_null(who, ONE if value else Z)
            assert verify_fractional_stability(current, split, pseudo=True).ok

    def test_wrong_vector_rejected(self, half_half, split):
        cs = build_constraint_system(half_half, split)
        bad = (1,) * len(cs.column_meaning)
        with pytest.raises(FractionalError):
            apply_stable_transformations(half_half, bad, cs)

    def test_infeasible_system_raises_with_certificate(self):
        # hand-built system with odd-cycle structure and no 0/1 point
        from balmatch.fractional import ConstraintSystem
        from balmatch.matrices import ZeroOneMatrix

        cs = ConstraintSystem(
            matrix=ZeroOneMatrix(
                rows=("w1", "w2", "w3"),
                cols=("a", "b", "c"),
                entries=((1, 1, 0), (0, 1, 1), (1, 0, 1)),
            ),
            column_meaning=(("take", "a"), ("take", "b"), ("take", "c")),
            row_meaning=(("worker", "w1"), ("worker", "w2"), ("worker", "w3")),
            rhs=(1, 1, 1),
        )
        with pytest.raises(IntegralExtractionError) as err:
            extract_integral_solution(cs)
        assert err.value.certificate.verdict == "FAIL"


class TestReducedBalanceCheck:
    def test_half_half_system_is_balanced(self, half_half, split):
        cs = build_constraint_system(half_half, split)
        assert reduced_balance_check(cs).ok

    def test_fail_witness_indexes_the_system_matrix(self, cyclic3):
        # firm rows come first, so a witness into the worker x take core
        # would name firm rows and empty columns of cs.matrix
        d = decompose_by_sets(cyclic3)
        fm = FractionalMatching(
            levels={f: H for f in d.market.firms},
            null_assignment={w: Z for w in d.market.workers},
        )
        cs = build_constraint_system(fm, d)
        cert = reduced_balance_check(cs)
        assert cert.verdict == "FAIL"
        assert {cs.row_meaning[i][0] for i in cert.witness_rows} == {"worker"}
        assert {cs.column_meaning[j][0] for j in cert.witness_cols} == {"take"}
        sub = cs.matrix.submatrix(cert.witness_rows, cert.witness_cols)
        assert sub == cert.witness
        assert all(sum(row) == 2 for row in sub.entries)
        assert all(sum(col) == 2 for col in zip(*sub.entries))


class TestIntegralToMatching:
    def test_double_assignment_rejected(self, split):
        fm = FractionalMatching(
            levels={"f1#1": ONE, "f1#2": ONE, "f1#3": Z, "f2": Z},
            null_assignment={"w1": Z, "w2": Z, "w3": Z, "w4": ONE},
        )
        with pytest.raises(FractionalError):
            integral_to_matching(fm, split)

    def test_non_integral_rejected(self, half_half, split):
        with pytest.raises(FractionalError):
            integral_to_matching(half_half, split)
