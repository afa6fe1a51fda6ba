import itertools
import random
from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest

from balmatch import fractional
from balmatch.fractional import (
    ConstraintSystem,
    FractionalError,
    FractionalMatching,
    IntegralExtractionError,
    StabilityReport,
    apply_stable_transformations,
    build_constraint_system,
    extract_integral_solution,
    integral_to_matching,
    reduced_balance_check,
    round_fractional,
    verify_fractional_stability,
)
from balmatch.genrandom import random_market
from balmatch.market import Market, find_block, is_stable
from balmatch.matrices import ZeroOneMatrix, set_label
from balmatch.oracle import all_stable_matchings, cyclic_market
from balmatch.prefs import decompose_by_sets

from conftest import run_python

H = Fraction(1, 2)
Z = Fraction(0)
ONE = Fraction(1)
SIXTHS = (Z, Fraction(1, 6), Fraction(1, 3), H, Fraction(2, 3), ONE)


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
    rows = cs.matrix.entries
    out = []
    for bits in itertools.product((1, 0), repeat=n):
        if all(
            sum(a * b for a, b in zip(row, bits)) == t
            for row, t in zip(rows, cs.rhs)
        ):
            out.append(bits)
    return out


def reference_constraint_system(fm, d):
    """Reference: the system built row by row, switching on each column's
    kind for every cell. A firm row holds its firm's strictly fractional
    take columns and, when 1 minus the firm's total is strictly
    fractional, its empty (slack) column."""

    def unique_set(c):
        (s,) = d.market.firm_prefs[c].chain
        return s

    m = d.market
    columns_of = {}
    for c in m.firms:
        columns_of.setdefault(d.origin[c][0], []).append(c)
    meanings, labels, frac_firms = [], [], []
    for f, cols in columns_of.items():
        takes = [c for c in cols if Z < fm.levels[c] < ONE]
        if not takes:
            continue
        frac_firms.append(f)
        for c in takes:
            meanings.append(("take", c))
            labels.append(c + ":" + set_label(unique_set(c)))
        if Z < ONE - sum(fm.levels[c] for c in cols) < ONE:
            meanings.append(("empty", f))
            labels.append(f + ":{}")
    for w in m.workers:
        if Z < fm.null_assignment[w] < ONE:
            meanings.append(("null", w))
            labels.append("null:" + w)
    if not meanings:
        return ConstraintSystem(
            matrix=ZeroOneMatrix.from_rows(rows=(), cols=(), entries=()),
            column_meaning=(),
            row_meaning=(),
            rhs=(),
        )
    row_meaning = [("firm", f) for f in frac_firms] + [("worker", w) for w in m.workers]
    rows, rhs = [], []
    for f in frac_firms:
        row = []
        for kind, who in meanings:
            if kind == "take":
                row.append(1 if d.origin[who][0] == f else 0)
            elif kind == "empty":
                row.append(1 if who == f else 0)
            else:
                row.append(0)
        rows.append(tuple(row))
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
        integral = sum(1 for c in m.firms if fm.levels[c] == ONE and w in unique_set(c))
        if fm.null_assignment[w] == ONE:
            integral += 1
        rhs.append(1 - integral)
    return ConstraintSystem(
        matrix=ZeroOneMatrix.from_rows(
            rows=tuple(who for _, who in row_meaning),
            cols=tuple(labels),
            entries=tuple(rows),
        ),
        column_meaning=tuple(meanings),
        row_meaning=tuple(row_meaning),
        rhs=tuple(rhs),
    )


def reference_dominating(fm, m, d):
    """Reference: individual rationality and Scarf domination, straight
    from the rows of the original market m. Column c = (f, S) is dominated
    when a row it enters puts all its positive mass on columns the row
    ranks at least as high as c. Row f ranks f's sets by f's chain, its
    slack last. Row w ranks columns by the firm's place on w's list, two
    columns of one firm by that firm's chain, then its null share, then
    the columns of firms w does not list."""
    column = {c: (d.origin[c][0], d.market.firm_prefs[c].chain[0]) for c in d.market.firms}
    positive = [c for c in column if fm.levels[c] > 0]

    def firm_rank(c):
        f, s = column[c]
        return m.firm_prefs[f].chain.index(s)

    def worker_rank(w, c):
        lst = m.worker_prefs[w]
        f = column[c][0]
        return (lst.index(f), firm_rank(c)) if f in lst else (len(lst) + 1, 0)

    for c in positive:
        f, s = column[c]
        if any(f not in m.worker_prefs[w] for w in s):
            return False
    for c, (f, s) in column.items():
        own = [k for k in column if column[k][0] == f]
        slack = ONE - sum(fm.levels[k] for k in own)
        if slack == 0 and all(firm_rank(k) <= firm_rank(c) for k in positive if k in own):
            continue
        if not any(
            all(worker_rank(w, k) <= worker_rank(w, c) for k in positive if w in column[k][1])
            and (fm.null_assignment[w] == 0 or worker_rank(w, c) > (len(m.worker_prefs[w]), 0))
            for w in s
        ):
            return False
    return True


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


def is_verified(fm, d):
    """The verifier's verdict, with a firm whose levels sum above 1 (a
    malformed point) counted as not stable."""
    try:
        return verify_fractional_stability(fm, d).ok
    except FractionalError:
        return False


def stable_integral_points(d):
    """Each stable matching of the set-split market ``d.market`` as its
    0/1 levels and unmatched shares."""
    return [
        ({f: ONE if f in mu.inverse() else Z for f in d.market.firms},
         {w: ONE if mu.assignment[w] is None else Z for w in d.market.workers})
        for mu in all_stable_matchings(d.market)
    ]


def verified_points():
    """Stable fractional matchings (m, d, fm): the verified 1/2-1/2 mixes of
    pairs of stable matchings of set-split random and overlap markets m (a
    matching mixed with itself is integral), then every firm of
    ``cyclic_market(3..10)`` at 1/2."""
    for seed in range(3):
        rng = random.Random(seed)
        for make in [random_market] * 50 + [overlap_market] * 100:
            m = make(rng)
            d = decompose_by_sets(m)
            if len(d.market.firms) > 8:
                continue
            stable = stable_integral_points(d)
            for (la, na), (lb, nb) in itertools.combinations_with_replacement(stable, 2):
                fm = FractionalMatching(
                    levels={f: (la[f] + lb[f]) / 2 for f in la},
                    null_assignment={w: (na[w] + nb[w]) / 2 for w in na},
                )
                if is_verified(fm, d):
                    yield m, d, fm
    for n in range(3, 11):
        yield cyclic_half(n)


def grid_points(count, seed, values=(Z, H, ONE)):
    """Seeded well-formed points (m, d, fm) on random and overlap markets:
    in random order each column takes one of ``values`` (0 among them), as
    far as its firm's total and its workers' masses stay within 1; the
    rest of each worker's mass is unmatched."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.choice((random_market, overlap_market))(rng)
        d = decompose_by_sets(m)
        room = {w: ONE for w in m.workers}
        room.update({f: ONE for f in m.firms})
        levels = {}
        for c in rng.sample(d.market.firms, len(d.market.firms)):
            rows = {d.origin[c][0]} | d.market.firm_prefs[c].chain[0]
            levels[c] = rng.choice([x for x in values if all(x <= room[r] for r in rows)])
            for r in rows:
                room[r] -= levels[c]
        yield m, d, FractionalMatching(
            levels={c: levels[c] for c in d.market.firms},
            null_assignment={w: room[w] for w in m.workers},
        )


def third_mixes():
    """Stable points (m, d, fm) over thirds: the verified mixes of two
    stable matchings of set-split random and overlap markets m, at weights
    1/3 and 2/3 in both orders."""
    for seed in range(2):
        rng = random.Random(100 + seed)
        for make in [random_market] * 40 + [overlap_market] * 80:
            m = make(rng)
            d = decompose_by_sets(m)
            if len(d.market.firms) > 8:
                continue
            stable = stable_integral_points(d)
            for (la, na), (lb, nb) in itertools.permutations(stable, 2):
                fm = FractionalMatching(
                    levels={f: (la[f] + 2 * lb[f]) / 3 for f in la},
                    null_assignment={w: (na[w] + 2 * nb[w]) / 3 for w in na},
                )
                if is_verified(fm, d):
                    yield m, d, fm


def beside(p, q):
    """Points p and q side by side on the union of their set-split markets,
    q's workers and columns renamed with a trailing prime. The union is its
    own set split and stands as the original market too; a worker lists
    only firms of its own side, so the point is stable iff p and q are."""
    (_, d1, fm1), (_, d2, fm2) = p, q
    a, b = d1.market, d2.market

    def r(x):
        return x + "'"

    m = Market.build(
        [*a.workers, *map(r, b.workers)],
        {
            **{f: a.firm_prefs[f].chain for f in a.firms},
            **{r(f): [[r(w) for w in s] for s in b.firm_prefs[f].chain] for f in b.firms},
        },
        {**a.worker_prefs, **{r(w): [r(f) for f in lst] for w, lst in b.worker_prefs.items()}},
    )
    fm = FractionalMatching(
        levels={**fm1.levels, **{r(c): x for c, x in fm2.levels.items()}},
        null_assignment={**fm1.null_assignment, **{r(w): x for w, x in fm2.null_assignment.items()}},
    )
    return m, decompose_by_sets(m), fm


def cyclic_half(n):
    m = cyclic_market(n)
    d = decompose_by_sets(m)
    return m, d, FractionalMatching(
        levels={f: H for f in d.market.firms},
        null_assignment={w: Z for w in d.market.workers},
    )


def sixth_points():
    """Stable points over sixths: each of ``third_mixes`` beside
    ``cyclic_market(n)`` at 1/2, n from 3 to 6 in turn."""
    for k, p in enumerate(third_mixes()):
        yield beside(p, cyclic_half(3 + k % 4))


def denominator(fm):
    return lcm(*(x.denominator for x in [*fm.levels.values(), *fm.null_assignment.values()]))


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
            levels={"f1#1": Z, "f1#2": ONE, "f1#3": Z, "f2": Z},
            null_assignment={"w1": Z, "w2": ONE, "w3": ONE, "w4": ONE},
        )
        report = verify_fractional_stability(fm, split)
        assert not report.ok
        assert report.firm == "f1#1"
        assert all(x > 0 for x in report.available.values())

    def test_available_is_keyed_in_market_order_under_any_hash_seed(self):
        # one firm wanting six workers, at level 0 while every worker is
        # unmatched: it blocks, and each worker's mass is read in market order
        script = (
            "from fractions import Fraction\n"
            "from balmatch.fractional import FractionalMatching, verify_fractional_stability\n"
            "from balmatch.market import Market\n"
            "from balmatch.prefs import decompose_by_sets\n"
            "ws = ['w3', 'w1', 'w6', 'w2', 'w5', 'w4']\n"
            "m = Market.build(ws, {'f': [ws]}, {w: ['f'] for w in ws})\n"
            "fm = FractionalMatching({'f': Fraction(0)}, {w: Fraction(1) for w in ws})\n"
            "report = verify_fractional_stability(fm, decompose_by_sets(m))\n"
            "print(report.firm, *report.available)\n"
        )
        outputs = set()
        for seed in (0, 1):
            proc = run_python("-c", script, hash_seed=seed)
            outputs.add((proc.returncode, proc.stdout))
        assert outputs == {(0, "f w3 w1 w6 w2 w5 w4\n")}

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

    def test_level_outside_unit_interval_rejected(self, half_half, split):
        broken = half_half.with_level("f2", Fraction(3, 2))
        with pytest.raises(FractionalError):
            verify_fractional_stability(broken, split)

    def test_over_full_firm_rejected_unless_pseudo(self):
        # f holds both of its sets at once: its levels sum to 2
        m = Market.build(["w1", "w2"], {"f": [["w1"], ["w2"]]}, {"w1": ["f"], "w2": ["f"]})
        d = decompose_by_sets(m)
        fm = FractionalMatching(levels={"f#1": ONE, "f#2": ONE}, null_assignment={"w1": Z, "w2": Z})
        with pytest.raises(FractionalError, match="^firm f levels sum to 2, above 1$"):
            verify_fractional_stability(fm, d)
        assert verify_fractional_stability(fm, d, pseudo=True).ok

    def test_firm_row_dominates_its_worse_sets(self):
        # f holds {w1}, its first set, so the idle {w2, w3} does not block
        # although both of its workers are unmatched
        m = Market.build(
            ["w1", "w2", "w3"], {"f": [["w1"], ["w2", "w3"]]}, {w: ["f"] for w in ("w1", "w2", "w3")}
        )
        d = decompose_by_sets(m)
        fm = FractionalMatching(
            levels={"f#1": ONE, "f#2": Z}, null_assignment={"w1": Z, "w2": ONE, "w3": ONE}
        )
        assert verify_fractional_stability(fm, d).ok
        assert not verify_fractional_stability(fm.with_level("f#1", H).with_null("w1", H), d).ok

    def test_stable_matchings_of_the_original_market_verify(self):
        # every stable matching of m, read as (f, S) columns, is a stable
        # point, complementary firms or not, and rounds to itself
        rng = random.Random(5)
        checked = 0
        for _ in range(200):
            m = random_market(rng)
            d = decompose_by_sets(m)
            column = {(d.origin[c][0], d.market.firm_prefs[c].chain[0]): c for c in d.market.firms}
            for mu in all_stable_matchings(m):
                held = {column[(f, s)] for f, s in mu.inverse().items() if f is not None}
                fm = FractionalMatching(
                    levels={c: ONE if c in held else Z for c in d.market.firms},
                    null_assignment={w: ONE if mu.assignment[w] is None else Z for w in m.workers},
                )
                assert verify_fractional_stability(fm, d).ok
                assert round_fractional(fm, d) == (mu, None)
                checked += 1
        assert checked >= 200

    def test_agrees_with_reference_on_verified_points(self):
        for m, d, fm in verified_points():
            assert reference_dominating(fm, m, d)

    def test_agrees_with_reference_on_half_points(self):
        verdicts = []
        for m, d, fm in grid_points(3000, seed=11):
            ok = verify_fractional_stability(fm, d).ok
            assert ok == reference_dominating(fm, m, d)
            verdicts.append(ok)
        assert 300 <= sum(verdicts) <= 2700


class TestOtherDenominators:
    """Points over thirds and sixths, whose common denominator is not 2."""

    def test_common_denominator_of_4000_digits_is_the_longest_read(self):
        # 1/(10^2500 - 1) and 1/(10^2500 + 1) are coprime: D has 5,000
        # digits, and a mass message would print past Python's 4,300-digit
        # limit on int-to-str conversion
        m = Market.build(["w1"], {"f1": [["w1"]]}, {"w1": ["f1"]})
        d = decompose_by_sets(m)
        big = 10**2500
        fm = FractionalMatching({"f1": Fraction(1, big - 1)}, {"w1": Fraction(1, big + 1)})
        with pytest.raises(FractionalError, match="^common denominator has more than 4000 digits$"):
            verify_fractional_stability(fm, d)
        # 10^3999 has 4,000 digits: read, and its mass message prints
        fm = FractionalMatching({"f1": Fraction(1, 10**3999)}, {"w1": Z})
        with pytest.raises(FractionalError, match="^worker w1 mass is 1/1(0{3999}), expected 1$"):
            verify_fractional_stability(fm, d)
        fm = FractionalMatching({"f1": Fraction(1, 10**4000)}, {"w1": Z})
        with pytest.raises(FractionalError, match="^common denominator has more than 4000 digits$"):
            verify_fractional_stability(fm, d)

    def test_mass_error_names_the_reduced_total(self, half_half, split):
        # w4 holds f2 at 1/2 and an unmatched share of 2/3
        with pytest.raises(FractionalError, match="^worker w4 mass is 7/6, expected 1$"):
            verify_fractional_stability(half_half.with_null("w4", Fraction(2, 3)), split)

    def test_firm_total_error_names_the_reduced_total(self):
        m = Market.build(["w1", "w2"], {"f": [["w1"], ["w2"]]}, {"w1": ["f"], "w2": ["f"]})
        d = decompose_by_sets(m)
        fm = FractionalMatching(
            levels={"f#1": Fraction(2, 3), "f#2": ONE},
            null_assignment={"w1": Fraction(1, 3), "w2": Z},
        )
        with pytest.raises(FractionalError, match="^firm f levels sum to 5/3, above 1$"):
            verify_fractional_stability(fm, d)

    def test_blocking_report_shows_fractions(self):
        # k, ranked first by both workers, holds half of each; f blocks by
        # drawing w1 from g (1/3) and its unmatched 1/6, and w2 from h
        # (1/6) and its unmatched 1/3: 1/2 of each, over D = 6
        m = Market.build(
            ["w1", "w2"],
            {"f": [["w1", "w2"]], "k": [["w1", "w2"]], "g": [["w1"]], "h": [["w2"]]},
            {"w1": ["k", "f", "g"], "w2": ["k", "f", "h"]},
        )
        d = decompose_by_sets(m)
        fm = FractionalMatching(
            levels={"f": Z, "k": H, "g": Fraction(1, 3), "h": Fraction(1, 6)},
            null_assignment={"w1": Fraction(1, 6), "w2": Fraction(1, 3)},
        )
        report = verify_fractional_stability(fm, d)
        assert report == StabilityReport(
            ok=False,
            firm="f",
            detail="every needed type has positive mass at strictly worse matches",
            available={"w1": H, "w2": H},
        )
        assert {type(x) for x in report.available.values()} == {Fraction}

    def test_verifier_agrees_with_reference(self):
        verdicts = set()
        for m, d, fm in itertools.chain(grid_points(2000, seed=13, values=SIXTHS), sixth_points()):
            ok = verify_fractional_stability(fm, d).ok
            assert ok == reference_dominating(fm, m, d)
            verdicts.add((ok, denominator(fm)))
        assert {(True, 6), (False, 6), (True, 3), (False, 3)} <= verdicts

    def test_pseudo_agrees_with_reference_off_unit_mass(self):
        # every unmatched share redrawn: masses drift off 1, which only
        # pseudo mode accepts, while firm totals stay within 1
        rng = random.Random(15)
        verdicts = set()
        for m, d, fm in itertools.chain(grid_points(1000, seed=14, values=SIXTHS), sixth_points()):
            drifted = replace(fm, null_assignment={w: rng.choice(SIXTHS) for w in m.workers})
            ok = verify_fractional_stability(drifted, d, pseudo=True).ok
            assert ok == reference_dominating(drifted, m, d)
            verdicts.add(ok)
        assert verdicts == {True, False}

    def test_systems_match_reference(self):
        points = [*third_mixes(), *sixth_points()]
        points += [p for p in grid_points(1000, seed=16, values=SIXTHS) if is_verified(p[2], p[1])]
        built = set()
        for _, d, fm in points:
            cs = build_constraint_system(fm, d)
            assert cs == reference_constraint_system(fm, d)
            built.add((denominator(fm), cs.empty))
        assert {(3, False), (6, False)} <= built

    def test_roundings_solve_their_systems(self):
        # each rounding is a 0/1 point of B z = rhs and stable on the
        # original market; flipping any one coordinate breaks B z = rhs
        rounded = 0
        for m, d, fm in itertools.chain(third_mixes(), sixth_points()):
            cs = build_constraint_system(fm, d)
            try:
                z = extract_integral_solution(cs)
            except IntegralExtractionError:
                continue
            mu = integral_to_matching(apply_stable_transformations(fm, z, cs), d)
            assert find_block(mu, m).empty
            for j in range(len(z)):
                flipped = z[:j] + (1 - z[j],) + z[j + 1 :]
                with pytest.raises(FractionalError, match="^vector does not solve the constraint system$"):
                    apply_stable_transformations(fm, flipped, cs)
            rounded += not cs.empty
        assert rounded >= 20


class TestConstraintSystem:
    def test_shape_and_legend(self, half_half, split):
        # f1's levels sum to 1, so f1 has no slack column; f2's slack is 1/2
        cs = build_constraint_system(half_half, split)
        assert cs.matrix.shape == (6, 5)
        assert cs.column_meaning == (
            ("take", "f1#1"),
            ("take", "f1#2"),
            ("take", "f2"),
            ("empty", "f2"),
            ("null", "w4"),
        )
        assert cs.matrix.cols == ("f1#1:{w1,w2,w3}", "f1#2:{w1}", "f2:{w2,w3,w4}", "f2:{}", "null:w4")
        assert cs.row_meaning == (
            ("firm", "f1"),
            ("firm", "f2"),
            ("worker", "w1"),
            ("worker", "w2"),
            ("worker", "w3"),
            ("worker", "w4"),
        )
        assert cs.rhs == (1, 1, 1, 1, 1, 1)

    def test_entries(self, half_half, split):
        cs = build_constraint_system(half_half, split)
        assert cs.matrix.entries == (
            (1, 1, 0, 0, 0),
            (0, 0, 1, 1, 0),
            (1, 1, 0, 0, 0),
            (1, 0, 1, 0, 0),
            (1, 0, 1, 0, 0),
            (0, 0, 1, 0, 1),
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
            levels={"f1#1": Z, "f1#2": ONE, "f1#3": Z, "f2": Z},
            null_assignment={"w1": Z, "w2": ONE, "w3": ONE, "w4": ONE},
        )
        with pytest.raises(FractionalError, match="^fractional input is not stable"):
            build_constraint_system(fm, split)

    def test_matches_reference_builder(self):
        points = list(verified_points())
        assert len(points) >= 150
        for _, d, fm in points:
            assert build_constraint_system(fm, d) == reference_constraint_system(fm, d)


class TestExtraction:
    def test_canonical_solution(self, half_half, split):
        cs = build_constraint_system(half_half, split)
        z = extract_integral_solution(cs)
        assert z == (1, 0, 0, 1, 1)

    def test_first_solution_in_order(self, half_half, split):
        # 1-before-0 depth-first order means the returned vector is the
        # lexicographically largest of all solutions
        cs = build_constraint_system(half_half, split)
        sols = brute_solutions(cs)
        assert extract_integral_solution(cs) == max(sols)

    def test_first_solution_on_verified_points(self):
        outcomes = set()
        for _, d, fm in verified_points():
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
        assert {*integral.levels.values(), *integral.null_assignment.values()} <= {Z, ONE}
        report = verify_fractional_stability(integral, split)
        assert report.ok
        mu = integral_to_matching(integral, split)
        assert mu.assignment == {"w1": "f1", "w2": "f1", "w3": "f1", "w4": None}
        assert is_stable(mu, two_firms)

    def test_roundings_are_stable_on_the_original_market(self):
        points = list(verified_points())
        points += [p for p in grid_points(1000, seed=12) if verify_fractional_stability(p[2], p[1]).ok]
        rounded = 0
        for m, d, fm in points:
            try:
                mu, _ = round_fractional(fm, d)
            except IntegralExtractionError:
                continue
            assert find_block(mu, m).empty
            rounded += 1
        assert rounded >= 400

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

    def test_vector_entries_must_be_0_or_1(self, half_half, split):
        # solves B z = rhs, but would put f1#1, f1#2 and f2 all at level 1
        cs = build_constraint_system(half_half, split)
        with pytest.raises(FractionalError, match="solution entries must be 0 or 1"):
            apply_stable_transformations(half_half, (-1, 2, 2, -1, -1), cs)

    def test_system_deeper_than_recursion_limit(self):
        # rows z_i + z_{i+1} = 1 and z_{n-1} = 1 over an even n: the 1-first
        # pass ends at z_{n-1} = 0, so the search backs up every column
        # to z_0 and returns the alternating point that starts with 0
        n = 1200
        rows = [tuple(int(j in (i, i + 1)) for j in range(n)) for i in range(n - 1)]
        rows.append(tuple(int(j == n - 1) for j in range(n)))
        cs = ConstraintSystem(
            matrix=ZeroOneMatrix.from_rows(
                rows=tuple(f"r{i}" for i in range(n)),
                cols=tuple(f"c{j}" for j in range(n)),
                entries=tuple(rows),
            ),
            column_meaning=tuple(("take", f"c{j}") for j in range(n)),
            row_meaning=tuple(("worker", f"r{i}") for i in range(n)),
            rhs=(1,) * n,
        )
        assert extract_integral_solution(cs) == tuple(j % 2 for j in range(n))

    def test_infeasible_system_raises_with_certificate(self):
        # hand-built system with odd-cycle structure and no 0/1 point
        from balmatch.fractional import ConstraintSystem
        from balmatch.matrices import ZeroOneMatrix

        cs = ConstraintSystem(
            matrix=ZeroOneMatrix.from_rows(
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

    def test_rounding_without_a_01_point_searches_once(self, cyclic3, monkeypatch):
        # the extraction error carries the certificate round_fractional returns
        d = decompose_by_sets(cyclic3)
        fm = FractionalMatching(
            levels={f: H for f in d.market.firms},
            null_assignment={w: Z for w in d.market.workers},
        )
        expected = reduced_balance_check(build_constraint_system(fm, d))
        calls = []
        search = fractional.is_balanced
        monkeypatch.setattr(fractional, "is_balanced", lambda *a: calls.append(a) or search(*a))
        with pytest.raises(IntegralExtractionError) as err:
            round_fractional(fm, d)
        assert err.value.certificate == expected
        assert len(calls) == 1


class TestIntegralToMatching:
    def test_double_assignment_rejected(self, split):
        fm = FractionalMatching(
            levels={"f1#1": ONE, "f1#2": ONE, "f1#3": Z, "f2": Z},
            null_assignment={"w1": Z, "w2": Z, "w3": Z, "w4": ONE},
        )
        with pytest.raises(FractionalError):
            integral_to_matching(fm, split)

    def test_double_assignment_names_first_worker_in_market_order(self):
        # f and g both hold {w1, w2, w3, w4}; the error names w1 whatever
        # the hash seed, so it runs in fresh processes
        script = (
            "from fractions import Fraction\n"
            "from balmatch.fractional import FractionalMatching, integral_to_matching\n"
            "from balmatch.market import Market\n"
            "from balmatch.prefs import decompose_by_sets\n"
            "ws = ['w1', 'w2', 'w3', 'w4']\n"
            "m = Market.build(ws, {'f': [ws], 'g': [ws]}, {w: ['f', 'g'] for w in ws})\n"
            "fm = FractionalMatching({'f': Fraction(1), 'g': Fraction(1)}, {w: Fraction(0) for w in ws})\n"
            "try:\n"
            "    integral_to_matching(fm, decompose_by_sets(m))\n"
            "except ValueError as e:\n"
            "    print(e)\n"
        )
        errors = set()
        for seed in range(4):
            proc = run_python("-c", script, hash_seed=seed)
            errors.add((proc.returncode, proc.stdout))
        assert errors == {(0, "worker w1 assigned twice\n")}

    def test_matched_worker_with_null_share_rejected(self, split):
        # f2 at 1 takes w2, w3 and w4, whose null shares are 1 as well
        fm = FractionalMatching(
            levels={"f1#1": Z, "f1#2": Z, "f1#3": Z, "f2": ONE},
            null_assignment={"w1": ONE, "w2": ONE, "w3": ONE, "w4": ONE},
        )
        with pytest.raises(FractionalError, match="^worker w2 has a column at level 1 and null share 1$"):
            integral_to_matching(fm, split)
        with pytest.raises(FractionalError, match="worker w2 mass is 2, expected 1"):
            verify_fractional_stability(fm, split)

    def test_maps_columns_to_original_firms(self, split):
        fm = FractionalMatching(
            levels={"f1#1": Z, "f1#2": ONE, "f1#3": Z, "f2": ONE},
            null_assignment={"w1": Z, "w2": Z, "w3": Z, "w4": Z},
        )
        mu = integral_to_matching(fm, split)
        assert mu.assignment == {"w1": "f1", "w2": "f2", "w3": "f2", "w4": "f2"}

    def test_non_integral_rejected(self, half_half, split):
        with pytest.raises(FractionalError):
            integral_to_matching(half_half, split)

    @pytest.mark.parametrize(
        "levels, null, error",
        [
            ({"f1#1": ONE, "f1#2": Z, "f2": Z}, {"w1": Z, "w2": Z, "w3": Z, "w4": ONE},
             "levels must cover exactly the decomposed firms"),
            ({"f1#1": ONE, "f1#2": Z, "f1#3": Z, "f2": Z, "f3": Z}, {"w1": Z, "w2": Z, "w3": Z, "w4": ONE},
             "levels must cover exactly the decomposed firms"),
            ({"f1#1": ONE, "f1#2": Z, "f1#3": Z, "f2": Z}, {"w1": Z, "w2": Z, "w3": Z},
             "null assignment must cover exactly the workers"),
            ({"f1#1": ONE, "f1#2": Z, "f1#3": Z, "f2": Z}, {"w1": Z, "w2": Z, "w3": Z, "w4": ONE, "w5": Z},
             "null assignment must cover exactly the workers"),
        ],
        ids=["missing-column", "extra-column", "missing-worker", "extra-worker"],
    )
    def test_columns_and_workers_must_match_the_market(self, split, levels, null, error):
        with pytest.raises(FractionalError, match=error):
            integral_to_matching(FractionalMatching(levels, null), split)
