import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from balmatch.formats import serialize_market
from balmatch.hypergraphs import (
    acceptable_set_hypergraph,
    check_hypergraph_balanced,
    firm_worker_hypergraph,
)
from balmatch import matrices
from balmatch.market import Market, acceptable_set_family
from balmatch.matrices import (
    DEFAULT_CAP,
    FAIL,
    INCONCLUSIVE,
    PASS,
    MatrixCertificate,
    ZeroOneMatrix,
    _pick,
    integer_determinant,
    is_balanced,
    is_totally_balanced,
    is_totally_unimodular,
    matrix_of_sets,
    set_label,
)
from balmatch.oracle import cyclic_market
from conftest import MARKET_FILES, interval_market, load_market, nested_market, run_python, shuffled_nested_market


def permanent_style_det(rows):
    """Reference determinant by Leibniz expansion over permutations."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for the sign
        inv = sum(
            1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j]
        )
        sign = -1 if inv % 2 else 1
        prod = 1
        for i, j in enumerate(perm):
            prod *= rows[i][j]
        total += sign * prod
    return total


def random_01(rng, n, m):
    return [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]


def labelled(entries):
    return ZeroOneMatrix.from_rows(
        rows=tuple(f"r{i}" for i in range(len(entries))),
        cols=tuple(f"c{j}" for j in range(len(entries[0]) if entries else 0)),
        entries=tuple(tuple(r) for r in entries),
    )


def market_matrix(m):
    return matrix_of_sets(acceptable_set_family(m), m.workers)


def reference_reduce(m):
    """Drop rows/columns with at most one 1, to fixpoint, as index lists."""
    e = m.entries
    rows = list(range(len(m.rows)))
    cols = list(range(len(m.cols)))
    changed = True
    while changed:
        changed = False
        keep_rows = [i for i in rows if sum(e[i][j] for j in cols) >= 2]
        if len(keep_rows) != len(rows):
            rows, changed = keep_rows, True
        keep_cols = [j for j in cols if sum(e[i][j] for i in rows) >= 2]
        if len(keep_cols) != len(cols):
            cols, changed = keep_cols, True
    return rows, cols


def unpruned_search(m, rows, cols, orders, keep, odd_twos):
    """The row-subset search without the degree cut: every row subset of
    the reduced matrix, orders ascending, then itertools.combinations, each
    scanning every column."""
    e = m.entries
    colmask = {j: sum(1 << i for i, r in enumerate(rows) if e[r][j]) for j in cols}
    ok = [keep(w) for w in range(len(rows) + 1)]
    for k in orders:
        for rsub in itertools.combinations(range(len(rows)), k):
            mask = sum(1 << i for i in rsub)
            first = {}
            for j in cols:
                x = colmask[j] & mask
                if x not in first and ok[x.bit_count()]:
                    first[x] = j
            if len(first) < k:
                continue
            hit = _pick(list(first.values()), list(first), k, odd_twos)
            if hit is not None:
                return tuple(rows[i] for i in rsub), hit
    return None


UNPRUNED = {
    # property: (cap on the reduced matrix, order step, column filter, TU parity, detail)
    "balanced": (
        True, 2, lambda w: w == 2, False,
        "odd-order submatrix with two 1s per row and column, order {}",
    ),
    "totally balanced": (
        True, 1, lambda w: w == 2, False, "incidence matrix of a cycle of length {}"
    ),
    "totally unimodular": (False, 1, lambda w: w > 0 and w % 2 == 0, True, None),
}


def unpruned_certificate(m, prop, cap=DEFAULT_CAP, search=unpruned_search):
    """The certificate of ``prop`` from ``search``, by default ``unpruned_search``."""
    cap_reduced, step, keep, odd_twos, detail = UNPRUNED[prop]
    rows, cols = reference_reduce(m)
    nr, nc = (len(rows), len(cols)) if cap_reduced else m.shape
    if nr > cap or nc > cap:
        what = "reduced matrix" if cap_reduced else "matrix"
        return MatrixCertificate(prop, INCONCLUSIVE, detail=f"{what} is {nr}x{nc}, cap is {cap}")
    orders = range(3, min(len(rows), len(cols)) + 1, step)
    hit = search(m, rows, cols, orders, keep, odd_twos)
    if hit is None:
        return MatrixCertificate(property=prop, verdict=PASS)
    wr, wc = hit
    det = None
    if detail is None:
        det = integer_determinant([[m.entries[i][j] for j in wc] for i in wr])
        detail = f"submatrix of order {{}} has determinant {det}"
    return MatrixCertificate(
        property=prop,
        verdict=FAIL,
        witness_rows=wr,
        witness_cols=wc,
        determinant=det,
        detail=detail.format(len(wr)),
        witness=m.submatrix(wr, wc),
    )


def assert_same_as_unpruned(m, cap=DEFAULT_CAP):
    """All three certificates equal the unpruned search's, byte for byte."""
    verdicts = []
    for check in (is_balanced, is_totally_balanced, is_totally_unimodular):
        cert = check(m, cap)
        ref = unpruned_certificate(m, cert.property, cap)
        assert repr(cert) == repr(ref)
        assert cert.as_dict() == ref.as_dict()
        assert cert.render() == ref.render()
        verdicts.append(cert.verdict)
    return verdicts


def brute_totally_unimodular(m, cap=DEFAULT_CAP):
    """Reference TU check: the determinant of every square submatrix, orders
    ascending, then row and column subsets lexicographically."""
    nr, nc = m.shape
    if nr > cap or nc > cap:
        return MatrixCertificate(
            property="totally unimodular",
            verdict=INCONCLUSIVE,
            detail=f"matrix is {nr}x{nc}, cap is {cap}",
        )
    e = m.entries
    for k in range(2, min(nr, nc) + 1):
        for rsub in itertools.combinations(range(nr), k):
            block = [e[i] for i in rsub]
            for csub in itertools.combinations(range(nc), k):
                det = integer_determinant([[row[j] for j in csub] for row in block])
                if abs(det) >= 2:
                    return MatrixCertificate(
                        property="totally unimodular",
                        verdict=FAIL,
                        witness_rows=rsub,
                        witness_cols=csub,
                        determinant=det,
                        detail=f"submatrix of order {k} has determinant {det}",
                        witness=m.submatrix(rsub, csub),
                    )
    return MatrixCertificate(property="totally unimodular", verdict=PASS)


def assert_same_as_all_minors(m):
    """Camion's search and the all-minors scan give byte-identical certificates."""
    cert, ref = is_totally_unimodular(m), brute_totally_unimodular(m)
    assert repr(cert) == repr(ref)
    assert cert.as_dict() == ref.as_dict()
    assert cert.render() == ref.render()
    if cert.verdict == FAIL:
        assert abs(cert.determinant) == 2
    return cert


CYCLE3 = ZeroOneMatrix.from_rows(
    rows=("r1", "r2", "r3"),
    cols=("c1", "c2", "c3"),
    entries=((1, 1, 0), (0, 1, 1), (1, 0, 1)),
)

CYCLE4 = ZeroOneMatrix.from_rows(
    rows=("r1", "r2", "r3", "r4"),
    cols=("c1", "c2", "c3", "c4"),
    entries=((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)),
)


class TestDeterminant:
    def test_matches_leibniz_expansion(self):
        rng = random.Random(1)
        for _ in range(300):
            n = rng.randint(1, 5)
            rows = random_01(rng, n, n)
            assert integer_determinant(rows) == permanent_style_det(rows)

    def test_empty_matrix(self):
        assert integer_determinant([]) == 1

    def test_cycle3_det(self):
        assert integer_determinant([list(r) for r in CYCLE3.entries]) == 2

    def test_odd_cycle_determinant_matches_bareiss(self):
        rng = random.Random(5)
        dets = set()
        for k in range(3, 16, 2):
            for _ in range(20):
                order, cols = rng.sample(range(k), k), rng.sample(range(k), k)
                entries = [[0] * k for _ in range(k)]
                for p in range(k):  # edge p joins the cycle's p-th and next vertex
                    entries[order[p]][cols[p]] = entries[order[(p + 1) % k]][cols[p]] = 1
                det = matrices._odd_cycle_determinant(labelled(entries).masks)
                assert det == integer_determinant(entries)
                dets.add(det)
        assert dets == {2, -2}

    def test_cyclic_499_tu_witness_needs_no_elimination(self, monkeypatch):
        def refuse(rows):
            raise AssertionError("integer_determinant called")

        monkeypatch.setattr(matrices, "integer_determinant", refuse)
        cert = is_totally_unimodular(market_matrix(cyclic_market(499)), cap=499)
        assert (cert.verdict, cert.determinant) == (FAIL, 2)
        assert cert.witness_rows == tuple(range(499))
        assert cert.detail == "submatrix of order 499 has determinant 2"


def reference_matrix_of_sets(sets, ground):
    """The indicator matrix built entry by entry, as 0/1 rows."""
    sets = [frozenset(s) for s in sets]
    return ZeroOneMatrix.from_rows(
        ground, [set_label(s) for s in sets], [[int(g in s) for s in sets] for g in ground]
    )


class TestZeroOneMatrix:
    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="^entries must be 0 or 1$"):
            ZeroOneMatrix.from_rows(rows=("r",), cols=("c",), entries=((2,),))

    def test_rejects_ragged(self):
        with pytest.raises(ValueError, match="^column count does not match column labels$"):
            ZeroOneMatrix.from_rows(rows=("r",), cols=("c", "d"), entries=((1,),))
        with pytest.raises(ValueError, match="^column count does not match column labels$"):
            ZeroOneMatrix.from_rows(rows=("r", "s"), cols=("c",), entries=((1,), (1, 0)))

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ValueError, match="^row count does not match row labels$"):
            ZeroOneMatrix.from_rows(rows=("r", "s"), cols=("c",), entries=((1,),))
        # checked before the rows themselves
        with pytest.raises(ValueError, match="^row count does not match row labels$"):
            ZeroOneMatrix.from_rows(rows=(), cols=("c",), entries=((2, 2),))

    def test_masks_are_checked_against_the_labels(self):
        with pytest.raises(ValueError, match="^column count does not match column labels$"):
            ZeroOneMatrix(rows=("r",), cols=("c", "d"), masks=(1,))
        for bad in (0b10, -1):
            with pytest.raises(ValueError, match="^column mask sets a bit past the last row$"):
                ZeroOneMatrix(rows=("r",), cols=("c",), masks=(bad,))

    @given(st.integers(0, 6).flatmap(
        lambda k: st.lists(st.lists(st.integers(0, 1), min_size=k, max_size=k), max_size=6).map(lambda r: (k, r))
    ))
    @settings(max_examples=200, deadline=None)
    def test_from_rows_round_trips(self, case):
        k, rows = case
        m = ZeroOneMatrix.from_rows([f"r{i}" for i in range(len(rows))], [f"c{j}" for j in range(k)], rows)
        assert m.entries == tuple(map(tuple, rows))
        assert m.masks == tuple(sum(row[j] << i for i, row in enumerate(rows)) for j in range(k))

    def test_submatrix_matches_entrywise_reference(self):
        rng = random.Random(3)
        for _ in range(500):
            n, m = rng.randint(1, 9), rng.randint(0, 9)
            mat = labelled(random_01(rng, n, max(m, 1)))
            rows = [rng.randrange(n) for _ in range(rng.randint(0, n + 2))]  # any order, repeats
            cols = [rng.randrange(len(mat.cols)) for _ in range(rng.randint(0, m + 2))]
            sub = mat.submatrix(rows, cols)
            assert sub.rows == tuple(mat.rows[i] for i in rows)
            assert sub.cols == tuple(mat.cols[j] for j in cols)
            assert sub.masks == tuple(
                sum(1 << p for p, i in enumerate(rows) if mat.masks[j] >> i & 1) for j in cols
            )

    def test_matrix_of_sets_layout(self):
        m = matrix_of_sets([{"a", "b"}, {"b"}], ["a", "b", "c"])
        assert m.rows == ("a", "b", "c")
        assert m.cols == ("{a,b}", "{b}")
        assert m.masks == (0b011, 0b010)
        assert m.entries == ((1, 0), (1, 1), (0, 0))

    def test_matrix_of_sets_matches_reference(self):
        rng = random.Random(13)
        for _ in range(500):
            ground = rng.sample(["a", "b", "c", "d", "e", "f", "g"], rng.randint(0, 7))
            sets = [rng.sample(ground, rng.randint(0, len(ground))) for _ in range(rng.randint(0, 6))]
            m = matrix_of_sets(sets, ground)
            assert m == reference_matrix_of_sets(sets, ground)
            assert m.render() == reference_matrix_of_sets(sets, ground).render()

    def test_matrix_of_sets_rejects_stray_element(self):
        with pytest.raises(ValueError, match=r"^set element outside ground set: \['y', 'z'\]$"):
            matrix_of_sets([{"a"}, {"z", "a", "y"}], ["a"])


class TestBalanced:
    def test_odd_cycle_fails(self):
        cert = is_balanced(CYCLE3)
        assert cert.verdict == FAIL
        assert cert.witness_rows == (0, 1, 2)
        assert cert.witness_cols == (0, 1, 2)

    def test_even_cycle_passes(self):
        assert is_balanced(CYCLE4).verdict == PASS

    def test_witness_recheck(self):
        rng = random.Random(2)
        for _ in range(200):
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            mat = ZeroOneMatrix.from_rows(
                rows=tuple(f"r{i}" for i in range(n)),
                cols=tuple(f"c{j}" for j in range(m)),
                entries=tuple(tuple(row) for row in random_01(rng, n, m)),
            )
            cert = is_balanced(mat)
            if cert.verdict != FAIL:
                continue
            sub = mat.submatrix(cert.witness_rows, cert.witness_cols)
            k = len(cert.witness_rows)
            assert k % 2 == 1 and k >= 3
            assert all(sum(row) == 2 for row in sub.entries)
            assert all(sum(col) == 2 for col in zip(*sub.entries))

    def test_cap_gives_inconclusive(self):
        big = matrix_of_sets(
            [{f"x{i}", f"x{(i + 1) % 14}"} for i in range(14)],
            [f"x{i}" for i in range(14)],
        )
        assert is_balanced(big, cap=12).verdict == INCONCLUSIVE
        assert is_balanced(big, cap=14).verdict == PASS

    def test_reduction_drops_thin_lines(self):
        # a pendant column cannot hide or create a two-per-line witness
        padded = ZeroOneMatrix.from_rows(
            rows=CYCLE3.rows + ("r4",),
            cols=CYCLE3.cols + ("c4",),
            entries=tuple(row + (0,) for row in CYCLE3.entries) + ((0, 0, 0, 1),),
        )
        assert is_balanced(padded).verdict == FAIL

    def test_permutation_invariance(self):
        rng = random.Random(3)
        for _ in range(100):
            n, m = rng.randint(2, 5), rng.randint(2, 5)
            entries = random_01(rng, n, m)
            mat = ZeroOneMatrix.from_rows(
                rows=tuple(f"r{i}" for i in range(n)),
                cols=tuple(f"c{j}" for j in range(m)),
                entries=tuple(tuple(r) for r in entries),
            )
            rp = rng.sample(range(n), n)
            cp = rng.sample(range(m), m)
            perm = mat.submatrix(rp, cp)
            assert is_balanced(mat).verdict == is_balanced(perm).verdict
            assert is_totally_balanced(mat).verdict == is_totally_balanced(perm).verdict
            assert (
                is_totally_unimodular(mat).verdict
                == is_totally_unimodular(perm).verdict
            )


class TestTotallyBalanced:
    def test_even_cycle_also_fails(self):
        cert = is_totally_balanced(CYCLE4)
        assert cert.verdict == FAIL
        assert len(cert.witness_rows) == 4

    def test_interval_matrix_passes(self):
        intervals = matrix_of_sets(
            [{"a", "b"}, {"b", "c"}, {"a", "b", "c"}, {"c"}], ["a", "b", "c"]
        )
        assert is_totally_balanced(intervals).verdict == PASS

    def test_disconnected_two_regular_is_not_a_witness(self):
        # two disjoint 3-cycles side by side: 6x6, two per line, but any
        # size-6 selection is not a single cycle; the 3x3 blocks still fail
        entries = [
            [1, 1, 0, 0, 0, 0],
            [0, 1, 1, 0, 0, 0],
            [1, 0, 1, 0, 0, 0],
            [0, 0, 0, 1, 1, 0],
            [0, 0, 0, 0, 1, 1],
            [0, 0, 0, 1, 0, 1],
        ]
        mat = ZeroOneMatrix.from_rows(
            rows=tuple(f"r{i}" for i in range(6)),
            cols=tuple(f"c{j}" for j in range(6)),
            entries=tuple(tuple(r) for r in entries),
        )
        cert = is_totally_balanced(mat)
        assert cert.verdict == FAIL
        assert len(cert.witness_rows) == 3


class TestTotallyUnimodular:
    def test_cycle3_witness(self):
        cert = is_totally_unimodular(CYCLE3)
        assert cert.verdict == FAIL
        assert abs(cert.determinant) == 2
        sub = CYCLE3.submatrix(cert.witness_rows, cert.witness_cols)
        assert integer_determinant([list(r) for r in sub.entries]) == cert.determinant

    def test_interval_matrix_is_tu(self):
        intervals = matrix_of_sets(
            [{"a", "b"}, {"b", "c"}, {"a", "b", "c"}], ["a", "b", "c"]
        )
        assert is_totally_unimodular(intervals).verdict == PASS

    def test_cyclic_11_fails_at_order_11(self):
        cert = is_totally_unimodular(market_matrix(cyclic_market(11)))
        assert cert.verdict == FAIL
        assert cert.witness_rows == cert.witness_cols == tuple(range(11))
        assert cert.determinant == 2

    def test_nested_chain_of_12_passes(self):
        assert is_totally_unimodular(market_matrix(nested_market(12))).verdict == PASS

    def test_sliding_window_10x10_passes(self):
        # column j holds workers j .. j+3, cut off at the last worker
        windows = labelled([[int(j <= i < j + 4) for j in range(10)] for i in range(10)])
        assert is_totally_unimodular(windows).verdict == PASS

    def test_all_ones_12x12_passes(self):
        assert is_totally_unimodular(labelled([[1] * 12] * 12)).verdict == PASS

    def test_cap_is_on_the_unreduced_matrix(self):
        assert is_totally_unimodular(labelled([[1] * 12] * 3)).verdict == PASS
        # the zero columns would be reduced away; the cap still counts them
        padded = labelled([list(r) + [0] * 10 for r in CYCLE3.entries])
        cert = is_totally_unimodular(padded)
        assert cert.verdict == INCONCLUSIVE
        assert cert.detail == "matrix is 3x13, cap is 12"
        assert is_totally_unimodular(padded, cap=13).verdict == FAIL

    def test_tu_implies_balanced(self):
        rng = random.Random(4)
        for _ in range(200):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            mat = ZeroOneMatrix.from_rows(
                rows=tuple(f"r{i}" for i in range(n)),
                cols=tuple(f"c{j}" for j in range(m)),
                entries=tuple(tuple(r) for r in random_01(rng, n, m)),
            )
            if is_totally_unimodular(mat).ok:
                assert is_balanced(mat).ok

    def test_totally_balanced_implies_balanced(self):
        rng = random.Random(6)
        for _ in range(200):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            mat = ZeroOneMatrix.from_rows(
                rows=tuple(f"r{i}" for i in range(n)),
                cols=tuple(f"c{j}" for j in range(m)),
                entries=tuple(tuple(r) for r in random_01(rng, n, m)),
            )
            if is_totally_balanced(mat).ok:
                assert is_balanced(mat).ok


def one_cycle(sub):
    """A square matrix with two 1s per row and column is one cycle iff a walk
    from its first row comes back there only after crossing every column."""
    k = len(sub)
    row, col, steps = 0, sub[0].index(1), 0
    while True:
        row = next(i for i in range(k) if i != row and sub[i][col])
        steps += 1
        if row == 0:
            return steps == k
        col = next(j for j in range(k) if j != col and sub[row][j])


def brute_two_per_line(m, cap, prop, step, cycle_only, detail):
    """Reference search: orders 3, 3 + step, ..., then row and column subsets
    lexicographically, for a submatrix with two 1s per row and column (and,
    with cycle_only, a single cycle). The cap is on the reduced matrix."""
    rows, cols = reference_reduce(m)
    if len(rows) > cap or len(cols) > cap:
        return MatrixCertificate(
            property=prop,
            verdict=INCONCLUSIVE,
            detail=f"reduced matrix is {len(rows)}x{len(cols)}, cap is {cap}",
        )
    nr, nc = m.shape
    # each row of such a submatrix holds two 1s, each column two on its rows
    e = m.entries
    live = [i for i in range(nr) if sum(e[i]) >= 2]
    for k in range(3, min(nr, nc) + 1, step):
        for rsub in itertools.combinations(live, k):
            two = [j for j in range(nc) if sum(e[i][j] for i in rsub) == 2]
            for csub in itertools.combinations(two, k):
                sub = [[e[i][j] for j in csub] for i in rsub]
                if all(sum(r) == 2 for r in sub) and (not cycle_only or one_cycle(sub)):
                    return MatrixCertificate(
                        property=prop,
                        verdict=FAIL,
                        witness_rows=rsub,
                        witness_cols=csub,
                        detail=detail.format(k),
                        witness=m.submatrix(rsub, csub),
                    )
    return MatrixCertificate(property=prop, verdict=PASS)


def brute_balanced(m, cap=DEFAULT_CAP):
    return brute_two_per_line(
        m, cap, "balanced", 2, False,
        "odd-order submatrix with two 1s per row and column, order {}",
    )


def brute_totally_balanced(m, cap=DEFAULT_CAP):
    return brute_two_per_line(
        m, cap, "totally balanced", 1, True, "incidence matrix of a cycle of length {}"
    )


def assert_same_as_two_per_line_scan(m, cap=DEFAULT_CAP):
    """The XOR picker and the two-per-line scan give byte-identical certificates."""
    verdicts = []
    for fast, slow in ((is_balanced, brute_balanced), (is_totally_balanced, brute_totally_balanced)):
        cert, ref = fast(m, cap), slow(m, cap)
        assert repr(cert) == repr(ref)
        assert cert.as_dict() == ref.as_dict()
        assert cert.render() == ref.render()
        verdicts.append(cert.verdict)
    return verdicts


def hypergraph_matrices(market):
    yield acceptable_set_hypergraph(market)
    yield firm_worker_hypergraph(market)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=150, deadline=None)
def test_balanced_matches_brute_force(seed):
    rng = random.Random(seed)
    n, m = rng.randint(1, 5), rng.randint(1, 5)
    assert_same_as_two_per_line_scan(labelled(random_01(rng, n, m)))


class TestXorPickerMatchesTwoPerLineScan:
    def test_random_matrices(self):
        rng = random.Random(12)
        verdicts = []
        for _ in range(2000):
            n, m = rng.randint(1, 7), rng.randint(1, 7)
            density = rng.choice((0.3, 0.5, 0.7))
            mat = labelled([[int(rng.random() < density) for _ in range(m)] for _ in range(n)])
            verdicts += assert_same_as_two_per_line_scan(mat, cap=rng.choice((4, DEFAULT_CAP)))
        assert verdicts.count(FAIL) > 300 and verdicts.count(PASS) > 300
        assert verdicts.count(INCONCLUSIVE) > 100

    @pytest.mark.parametrize("name", MARKET_FILES)
    def test_corpus_markets(self, name):
        market = load_market(name)
        assert_same_as_two_per_line_scan(market_matrix(market))
        for mat in hypergraph_matrices(market):
            assert_same_as_two_per_line_scan(mat, cap=max(mat.shape))

    @pytest.mark.parametrize(
        "market",
        [cyclic_market(n) for n in range(3, 10)]
        + [interval_market(4), interval_market(5), nested_market(8), nested_market(9)],
        ids=[f"cyclic{n}" for n in range(3, 10)] + ["interval4", "interval5", "nested8", "nested9"],
    )
    def test_market_families(self, market):
        assert_same_as_two_per_line_scan(market_matrix(market))
        for mat in hypergraph_matrices(market):
            assert_same_as_two_per_line_scan(mat, cap=max(mat.shape))

    def test_disjoint_all_ones_blocks_pass(self):
        # two 2x2 all-ones blocks: two per line, but two 2-cycles, not one cycle
        blocks = labelled([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]])
        assert is_totally_balanced(blocks).verdict == PASS
        assert is_balanced(blocks).verdict == PASS

    def test_duplicated_column_witness_uses_first_copy(self):
        # CYCLE3 with a copy of its second column put first
        dup = labelled([(r[1],) + r for r in CYCLE3.entries])
        for check in (is_balanced, is_totally_balanced, is_totally_unimodular):
            assert check(dup).witness_cols == (0, 1, 3)


class TestCamionMatchesAllMinors:
    def test_random_matrices(self):
        rng = random.Random(11)
        verdicts = []
        for _ in range(3000):
            n, m = rng.randint(1, 7), rng.randint(1, 7)
            density = rng.choice((0.3, 0.5, 0.7))
            mat = labelled([[int(rng.random() < density) for _ in range(m)] for _ in range(n)])
            verdicts.append(assert_same_as_all_minors(mat).verdict)
        assert verdicts.count(FAIL) > 300 and verdicts.count(PASS) > 300

    @pytest.mark.parametrize("name", MARKET_FILES)
    def test_corpus_markets(self, name):
        assert_same_as_all_minors(market_matrix(load_market(name)))

    @pytest.mark.parametrize(
        "market",
        [cyclic_market(n) for n in range(3, 10)]
        + [interval_market(4), interval_market(5), nested_market(8), nested_market(9)],
        ids=[f"cyclic{n}" for n in range(3, 10)] + ["interval4", "interval5", "nested8", "nested9"],
    )
    def test_market_families(self, market):
        assert_same_as_all_minors(market_matrix(market))


FAMILIES = (
    [nested_market(n) for n in range(8, 13)]
    + [cyclic_market(n) for n in range(3, 12)]
    + [interval_market(n) for n in (4, 5, 6)]
)
FAMILY_IDS = (
    [f"nested{n}" for n in range(8, 13)]
    + [f"cyclic{n}" for n in range(3, 12)]
    + [f"interval{n}" for n in (4, 5, 6)]
)


def cycle_matrix(n):
    """The incidence matrix of a cycle of length n."""
    return matrix_of_sets([{f"x{i}", f"x{(i + 1) % n}"} for i in range(n)], [f"x{i}" for i in range(n)])


def path_matrix(n):
    """The incidence matrix of a path on n vertices."""
    return matrix_of_sets([{f"x{i}", f"x{i + 1}"} for i in range(n - 1)], [f"x{i}" for i in range(n)])


def window_matrix(n, width):
    """n x n interval matrix: column j holds rows j .. j + width - 1, cut off at the last row."""
    return labelled([[int(j <= i < j + width) for j in range(n)] for i in range(n)])


class TestPrunedSearchMatchesUnpruned:
    """The degree cut, which drops a branch once a chosen row can no longer
    lie on two candidate columns, changes no certificate: verdicts,
    witnesses and renderings equal the search over every row subset."""

    @staticmethod
    def random_matrices():
        rng = random.Random(13)
        for _ in range(2000):
            n, m = rng.randint(1, 12), rng.randint(1, 12)
            density = rng.choice((0.15, 0.3, 0.5, 0.7))
            yield labelled([[int(rng.random() < density) for _ in range(m)] for _ in range(n)])

    def test_random_matrices(self):
        verdicts = []
        for mat in self.random_matrices():
            verdicts += assert_same_as_unpruned(mat)
        assert verdicts.count(FAIL) > 1000 and verdicts.count(PASS) > 1000

    def test_witness_is_the_three_cycle_on_rows_1_2_3(self):
        # r0 holds every column, so each row subset with r0 has under three
        # columns with two 1s; the first witness is the 3-cycle on r1, r2, r3
        mat = labelled([[1, 1, 1, 1], [0, 1, 1, 0], [0, 0, 1, 1], [0, 1, 0, 1]])
        for check in (is_balanced, is_totally_balanced):
            assert check(mat).witness_rows == (1, 2, 3)
        assert_same_as_unpruned(mat)

    @pytest.mark.parametrize("market", FAMILIES, ids=FAMILY_IDS)
    def test_market_families(self, market):
        assert_same_as_unpruned(market_matrix(market))
        for mat in hypergraph_matrices(market):
            assert_same_as_unpruned(mat, cap=max(mat.shape))

    @pytest.mark.parametrize("n", range(5, 13))
    def test_nested_families_out_of_order(self, n, monkeypatch):
        # no consecutive ones in either orientation as listed, but the reduced
        # columns are a chain, so with the columns sorted by size every row is
        # a suffix and the interval shape decides each matrix with no search;
        # the search, called from order 3, still runs every order to PASS
        market = shuffled_nested_market(n, seed=n)
        for mat in (market_matrix(market), *hypergraph_matrices(market)):
            rows, cols = matrices._reduce(mat)
            assert interval_order(rows, cols) == "size"
            assert not all(y.bit_count() == 2 for y in cols.values())
            cap = max(mat.shape)
            with monkeypatch.context() as mp:
                mp.setattr(matrices, "_row_subset_search", lambda *a: pytest.fail("searched"))
                assert assert_same_as_unpruned(mat, cap=cap) == [PASS] * 3
            # the unpruned search found PASS above; so does the search from 3
            for prop in UNPRUNED:
                assert unpruned_certificate(mat, prop, cap, search_from_three).verdict == PASS

    @pytest.mark.parametrize("n", range(3, 13))
    def test_cycles_and_intervals(self, n):
        for mat in (cycle_matrix(n), window_matrix(n, 2), window_matrix(n, 3)):
            assert_same_as_unpruned(mat)

    @pytest.mark.parametrize("name", MARKET_FILES)
    def test_corpus_hypergraph_matrices(self, name):
        for mat in hypergraph_matrices(load_market(name)):
            assert_same_as_unpruned(mat, cap=max(mat.shape))

    def test_only_the_whole_cycle_reaches_the_picker(self, monkeypatch):
        # a proper row subset of a cycle has a row on at most one of the
        # cycle's columns inside it, so the degree cut stops it before _pick
        # (the search is called directly from order 3, since the girth floor
        # of a certificate skips every smaller order on a cycle)
        seen = []
        leaf = matrices._leaf
        monkeypatch.setattr(matrices, "_leaf", lambda sub, *rest: seen.append(sub) or leaf(sub, *rest))
        for n in range(3, 13):
            rows, cols = matrices._reduce(cycle_matrix(n))
            for step, tu in ((2, False), (1, False), (1, True)):
                seen.clear()
                hit = matrices._row_subset_search(rows, cols, range(3, n + 1, step), tu)
                searched = step == 1 or n % 2
                assert seen == ([(1 << n) - 1] if searched else [])
                assert (hit is None) == (not searched or tu and n % 2 == 0)
        # the certificates: the whole cycle at its girth, and no search at all
        # where the graph has no cycle of the kind asked for
        for n in range(3, 13):
            for check in (is_balanced, is_totally_balanced, is_totally_unimodular):
                seen.clear()
                cert = check(cycle_matrix(n))
                searched = check is is_totally_balanced or n % 2
                assert seen == ([(1 << n) - 1] if searched else [])
                assert cert.verdict == (FAIL if searched else PASS)
            seen.clear()
            assert is_totally_balanced(path_matrix(n)).verdict == PASS
            assert seen == []

    def test_cyclic_21_firm_worker_fails_on_the_whole_cycle(self):
        # graphic: the odd girth is 21, so only order 21 is searched, and
        # only the whole cycle reaches the picker
        cert = check_hypergraph_balanced(firm_worker_hypergraph(cyclic_market(21)))
        assert cert.as_dict() == {
            "verdict": FAIL,
            "cycle_vertices": [f"w{i}" for i in range(1, 22)],
            "cycle_edges": [f"f{i}:" + set_label({f"w{i}", f"w{i % 21 + 1}"}) for i in range(1, 22)],
        }

    def test_cyclic_20_balanced_passes_at_cap_21(self):
        # graphic with no odd cycle: PASS with no search
        assert is_balanced(market_matrix(cyclic_market(20)), cap=21).verdict == PASS

    def test_nested_chain_of_24_passes_both_hypergraph_checks(self):
        # consecutive ones in both matrices: PASS with no search; the
        # unpruned search doubles per worker from about 6 ms at 12
        market = nested_market(24)
        assert check_hypergraph_balanced(acceptable_set_hypergraph(market)).verdict == PASS
        assert check_hypergraph_balanced(firm_worker_hypergraph(market)).verdict == PASS

    def test_chorded_cycle_of_17_takes_neither_route(self, monkeypatch):
        # cyclic_market(17) and one firm wanting {w1, w6, w11}: a weight-3
        # column, so not graphic, and no consecutive ones either way. Its
        # cycles through the chord have 6, 6 and 8 workers, so the only odd
        # one is the whole cycle: the degree cut carries every smaller
        # order, where the unpruned search takes about a second
        c = cyclic_market(17)
        chord = {"w1", "w6", "w11"}
        market = Market.build(
            c.workers,
            {**{f: c.firm_prefs[f].chain for f in c.firms}, "f18": [chord]},
            {w: (*fs, "f18") if w in chord else fs for w, fs in c.worker_prefs.items()},
        )
        mat = market_matrix(market)
        decided = []
        c1p, girth = matrices._consecutive_ones, matrices._girth
        monkeypatch.setattr(matrices, "_consecutive_ones", lambda *a: decided.append(c1p(*a)) or decided[-1])
        monkeypatch.setattr(matrices, "_girth", lambda *a: decided.append(girth(*a)) or decided[-1])
        verdicts = assert_same_as_unpruned(mat, cap=max(mat.shape))
        assert decided == [False] * 3
        assert verdicts == [FAIL] * 3
        assert is_balanced(mat, cap=18).witness_rows == tuple(range(17))
        assert is_totally_balanced(mat, cap=18).witness_rows == (0, 1, 2, 3, 4, 5)
        assert is_totally_unimodular(mat, cap=18).determinant == 2


def search_from_three(m, rows, cols, orders, keep, odd_twos):
    """``_row_subset_search`` over every order from 3, with no structured
    route before it: the certificates' path before the routes existed."""
    kept = sum(1 << i for i in rows)
    return matrices._row_subset_search(kept, {j: m.masks[j] & kept for j in cols}, orders, odd_twos)


def runs(lines):
    """Whether the 1s of every 0/1 line are adjacent."""
    return all("0" not in "".join(map(str, line)).strip("0") for line in lines)


def interval_order(rows, cols):
    """The order in which the reduced matrix (``rows`` and ``cols`` as from
    ``_reduce``) has consecutive ones, read off its 0/1 entries: "own" when
    its columns or its rows have them as listed, "size" when only its rows
    have them with the columns stably sorted by size, else None."""
    kept = [i for i in range(rows.bit_length()) if rows >> i & 1]
    columns = [[y >> i & 1 for i in kept] for y in cols.values()]
    if runs(columns) or runs(zip(*columns)):
        return "own"
    if runs(zip(*sorted(columns, key=sum))):
        return "size"
    return None


BRUTE = {"balanced": brute_balanced, "totally balanced": brute_totally_balanced}


def interval_shaped(rng, n, m):
    """An n x m matrix whose columns (or, half the time, whose rows) are
    intervals of the other side; half of them with that side shuffled."""
    a, b = (n, m) if rng.random() < 0.5 else (m, n)
    lines = []
    for _ in range(b):
        lo = rng.randrange(a)
        lines.append([int(lo <= i < rng.randint(lo + 1, a)) for i in range(a)])
    entries = [list(r) for r in zip(*lines)]  # a x b, columns are the intervals
    if rng.random() < 0.5:
        rng.shuffle(entries)
    return entries if (a, b) == (n, m) else [list(r) for r in zip(*entries)]


def graphic(rng, n, m):
    """An n x m matrix whose every column holds two 1s, n >= 2."""
    entries = [[0] * m for _ in range(n)]
    for j in range(m):
        for i in rng.sample(range(n), 2):
            entries[i][j] = 1
    return entries


class TestStructuredRoutes:
    """One dispatch on the reduced matrix: a graph starts the search at its
    (odd) girth or passes with no search, and any other matrix with
    consecutive ones, in its own order or with its columns sorted by size,
    is a PASS; each certificate still equals the brute-force references and
    the search from order 3."""

    @pytest.fixture
    def routes(self, monkeypatch):
        taken = {"own order": 0, "size order": 0, "graphic": 0, "no cycle": 0, "floor above 3": 0}
        c1p, girth = matrices._consecutive_ones, matrices._girth

        def on_c1p(rows, cols):
            assert not all(y.bit_count() == 2 for y in cols.values())  # graphs go to _girth
            ok = c1p(rows, cols)
            order = interval_order(rows, cols)
            assert ok == (order is not None)
            if ok:
                taken[f"{order} order"] += 1
            return ok

        def on_girth(rows, cols, odd):
            g = girth(rows, cols, odd)
            taken["graphic"] += 1
            taken["no cycle"] += g is None
            taken["floor above 3"] += g is not None and g > 3
            return g

        monkeypatch.setattr(matrices, "_consecutive_ones", on_c1p)
        monkeypatch.setattr(matrices, "_girth", on_girth)
        return taken

    def assert_same_as_references(self, m, cap, brute=True):
        verdicts = []
        for check in (is_balanced, is_totally_balanced, is_totally_unimodular):
            cert = check(m, cap)
            refs = [unpruned_certificate(m, cert.property, cap, search_from_three)]
            if brute:
                refs.append(BRUTE.get(cert.property, brute_totally_unimodular)(m, cap))
            for ref in refs:
                assert repr(cert) == repr(ref)
                assert cert.as_dict() == ref.as_dict()
                assert cert.render() == ref.render()
            verdicts.append(cert.verdict)
        return verdicts

    def test_random_matrices(self, routes):
        rng = random.Random(17)
        verdicts = []
        for t in range(2000):
            n, m = rng.randint(1, 7), rng.randint(1, 7)
            kind = t % 5 // 2  # 40% interval-shaped, 40% graphic, 20% plain random
            if kind == 0:
                entries = interval_shaped(rng, n, m)
            elif kind == 1:
                entries = graphic(rng, max(n, 2), m)
            else:
                density = rng.choice((0.3, 0.5, 0.7))
                entries = [[int(rng.random() < density) for _ in range(m)] for _ in range(n)]
            verdicts += self.assert_same_as_references(labelled(entries), rng.choice((4, DEFAULT_CAP, DEFAULT_CAP)))
        assert verdicts.count(FAIL) > 300 and verdicts.count(PASS) > 300
        assert verdicts.count(INCONCLUSIVE) > 0
        assert min(routes.values()) > 0, routes

    def test_shuffled_chains(self, routes):
        # columns that are prefixes of one row order, rows and columns shuffled
        rng = random.Random(29)
        verdicts = []
        for _ in range(500):
            n, m = rng.randint(1, 7), rng.randint(1, 7)
            rank = rng.sample(range(n), n)
            sizes = [rng.randint(0, n) for _ in range(m)]
            entries = [[int(rank[i] < size) for size in sizes] for i in range(n)]
            verdicts += self.assert_same_as_references(labelled(entries), rng.choice((4, DEFAULT_CAP)))
        assert set(verdicts) == {PASS, INCONCLUSIVE}
        assert routes["size order"] > 50

    def test_equal_sized_columns_are_not_a_chain(self, routes):
        # {r0,r1,r2} and {r0,r1,r3} have one size and neither holds the other.
        # The rows have consecutive ones in the column order c0, c2, c1, but
        # the stable sort by size keeps the listed order c0, c1, c2, where r2
        # skips c1: no shape decides, and the search passes it
        m = labelled([[1, 1, 1], [1, 1, 1], [1, 0, 1], [0, 1, 1]])
        assert interval_order(*matrices._reduce(m)) is None
        assert runs(zip(*[[1, 1, 1, 0], [1, 1, 1, 1], [1, 1, 0, 1]]))  # c0, c2, c1
        assert self.assert_same_as_references(m, DEFAULT_CAP) == [PASS] * 3
        assert routes["own order"] == routes["size order"] == 0

    @staticmethod
    def size_ordered(rng, n, m):
        """An n x m matrix whose rows are intervals of a column order, most of
        them suffixes, so that column sizes tend to ascend along it; rows and
        columns then shuffled."""
        entries = []
        for _ in range(n):
            lo = rng.randrange(m)
            hi = m if rng.random() < 0.6 else rng.randint(lo + 1, m)
            entries.append([int(lo <= j < hi) for j in range(m)])
        rng.shuffle(entries)
        perm = rng.sample(range(m), m)
        return [[row[j] for j in perm] for row in entries]

    def test_only_size_order_passes(self, routes, monkeypatch):
        # 1,000 matrices up to 7 x 7 that are no graph and have consecutive
        # ones only with their columns sorted by size: the interval shape
        # decides each one with the search patched to fail, and every PASS
        # equals the brute-force references and the search from order 3
        rng = random.Random(41)
        kept = 0
        while kept < 1000:
            mat = labelled(self.size_ordered(rng, rng.randint(1, 7), rng.randint(1, 7)))
            rows, cols = matrices._reduce(mat)
            if interval_order(rows, cols) != "size" or all(y.bit_count() == 2 for y in cols.values()):
                continue
            with monkeypatch.context() as mp:
                mp.setattr(matrices, "_row_subset_search", lambda *a: pytest.fail("searched"))
                certs = [check(mat) for check in (is_balanced, is_totally_balanced, is_totally_unimodular)]
            for cert in certs:
                assert cert.verdict == PASS
                for ref in (
                    unpruned_certificate(mat, cert.property, DEFAULT_CAP, search_from_three),
                    BRUTE.get(cert.property, brute_totally_unimodular)(mat),
                ):
                    assert repr(cert) == repr(ref)
                    assert cert.as_dict() == ref.as_dict()
                    assert cert.render() == ref.render()
            kept += 1
        assert routes["size order"] == 3 * kept

    @pytest.mark.parametrize(
        "market",
        [cyclic_market(n) for n in range(3, 22)] + [interval_market(n) for n in range(4, 8)],
        ids=[f"cyclic{n}" for n in range(3, 22)] + [f"interval{n}" for n in range(4, 8)],
    )
    def test_market_families(self, market, routes):
        mats = [market_matrix(market), *hypergraph_matrices(market)]
        for mat in mats:
            cap = max(mat.shape)
            self.assert_same_as_references(mat, cap, brute=cap <= 7)
        # every certificate of these families is decided by one of the shapes
        assert routes["own order"] + routes["size order"] + routes["graphic"] == 3 * len(mats)


def reference_pick(cand, masks, k, odd_twos):
    """The first k-combination of positions, in ``itertools.combinations``
    order, whose masks XOR to zero and, with ``odd_twos``, hold an odd
    number of masks of weight 2 (mod 4)."""
    for combo in itertools.combinations(range(len(cand)), k):
        xor = twos = 0
        for p in combo:
            xor ^= masks[p]
            twos += masks[p].bit_count() % 4 == 2
        if xor == 0 and (not odd_twos or twos % 2):
            return tuple(cand[p] for p in combo)
    return None


class TestPickMatchesItsDefinition:
    def test_random_lists(self):
        rng = random.Random(31)
        hits = {False: 0, True: 0}
        for _ in range(3000):
            n = rng.randint(0, 9)
            # mostly weight-2 masks on four rows, so that the parity rule
            # has triangles to find; masks repeat on purpose
            pool = [rng.choice((3, 5, 6, 9, 10, 12, 15, rng.randrange(1, 16))) for _ in range(rng.randint(2, 8))]
            masks = [rng.choice(pool) for _ in range(n)]
            cand = rng.sample(range(100), n)
            k = rng.randint(0, n + 2)  # past the list's end too
            if rng.random() < 0.5:
                k = min(k, rng.randint(3, 4))
            for odd_twos in (False, True):
                hit = _pick(cand, masks, k, odd_twos)
                assert hit == reference_pick(cand, masks, k, odd_twos), (cand, masks, k, odd_twos)
                hits[odd_twos] += hit is not None
        assert hits[False] > 1000 and hits[True] > 80


DEEP_CYCLES = """
import contextlib, io, sys
from balmatch.hypergraphs import acceptable_set_hypergraph, check_hypergraph_balanced, firm_worker_hypergraph
from balmatch.market import acceptable_set_family
from balmatch.matrices import is_balanced, is_totally_balanced, is_totally_unimodular, matrix_of_sets
from balmatch.oracle import cyclic_market

market = cyclic_market(151)
sys.setrecursionlimit(200)
for h in (acceptable_set_hypergraph(market), firm_worker_hypergraph(market)):
    cert = check_hypergraph_balanced(h)
    print(cert.verdict, len(cert.cycle.vertices), cert.cycle.vertices[0], cert.cycle.vertices[-1])
mat = matrix_of_sets(acceptable_set_family(market), market.workers)
for check in (is_balanced, is_totally_balanced, is_totally_unimodular):
    cert = check(mat, cap=151)
    print(cert.verdict, len(cert.witness_rows), len(cert.witness_cols), cert.determinant)
from balmatch.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["check", sys.argv[1], "--balanced", "--odd-cycles", "--firm-worker", "--cap", "151"])
print("exit", code, "FAIL lines", sum("FAIL" in line for line in out.getvalue().splitlines()))
"""


def test_deep_cycles_under_a_low_recursion_limit(tmp_path):
    # the whole 151-worker cycle is each search's first hit; the search and
    # the picker are loops, so a recursion limit of 200 does not bound them,
    # nor the CLI that reads the market from a file and runs three of them
    path = tmp_path / "cyclic151.market"
    path.write_text(serialize_market(cyclic_market(151)))
    proc = run_python("-c", DEEP_CYCLES, str(path), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "FAIL 151 w1 w151",
        "FAIL 151 w1 w151",
        "FAIL 151 151 None",
        "FAIL 151 151 None",
        "FAIL 151 151 2",
        "exit 1 FAIL lines 3",
    ]
