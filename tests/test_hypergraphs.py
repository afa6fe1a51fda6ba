import itertools
import random

import pytest

from balmatch.genrandom import MarketGenConfig, random_market
from balmatch.hypergraphs import (
    HyperCycle,
    acceptable_set_hypergraph,
    check_hypergraph_balanced,
    firm_worker_hypergraph,
)
from balmatch.market import acceptable_set_family
from balmatch.matrices import ZeroOneMatrix, is_balanced, matrix_of_sets
from balmatch.oracle import cyclic_market
from conftest import bench_like_markets, interval_market


def edges(h):
    """The hypergraph's edges as (label, set of vertices), one per column."""
    return [
        (label, frozenset(v for i, v in enumerate(h.rows) if x >> i & 1))
        for label, x in zip(h.cols, h.masks)
    ]


def brute_bad_odd_cycle(h):
    """Reference search: is there any bad odd cycle?"""
    return brute_shortest_bad_odd_cycle(h) is not None


def brute_shortest_bad_odd_cycle(h):
    """Reference search: try every vertex sequence and edge assignment,
    shortest first; the length k of the first bad odd cycle, or None."""
    edge_list = edges(h)
    for k in range(3, len(h.rows) + 1, 2):
        for vs in itertools.permutations(h.rows, k):
            for es in itertools.permutations(range(len(edge_list)), k):
                ok = True
                for i in range(k):
                    a, b = vs[i], vs[(i + 1) % k]
                    label, members = edge_list[es[i]]
                    if a not in members or b not in members:
                        ok = False
                        break
                    if len(members & set(vs)) != 2:
                        ok = False
                        break
                if ok:
                    return k
    return None


def reference_cycle(h, rows, cols):
    """The FAIL witness walked as one cycle from its first row, quadratic:
    each step scans the columns left for one on the current row, and reads
    the edge's vertices row by row."""
    on = sum(1 << i for i in rows)
    left = list(cols)
    cur, vs, es = rows[0], [], []
    while left:
        j = next(j for j in left if h.masks[j] >> cur & 1)
        left.remove(j)
        vs.append(h.rows[cur])
        es.append((h.cols[j], frozenset(v for i, v in enumerate(h.rows) if h.masks[j] >> i & 1)))
        cur = (h.masks[j] & on & ~(1 << cur)).bit_length() - 1
    return HyperCycle(vertices=tuple(vs), edges=tuple(es))


def assert_matches_brute_force(h):
    cert = check_hypergraph_balanced(h)
    k = brute_shortest_bad_odd_cycle(h)
    assert cert.ok == (k is None)
    if not cert.ok:
        assert cert.cycle.length == k


class TestHypergraphShape:
    def test_edge_outside_vertices_rejected(self):
        with pytest.raises(ValueError):
            matrix_of_sets([{"a", "z"}], ["a"])
        with pytest.raises(ValueError):
            ZeroOneMatrix(rows=("a",), cols=("e1",), masks=(0b11,))

    def test_repeated_edge_is_harmless(self):
        # the search keeps the first column of each mask, so a later copy of an
        # edge changes no verdict and no witness label
        pairs = [{"a", "b"}, {"b", "c"}, {"a", "c"}]
        h = matrix_of_sets(pairs, "abc")
        dup = ZeroOneMatrix(h.rows, h.cols + ("copy",), h.masks + (h.masks[1],))
        assert check_hypergraph_balanced(dup) == check_hypergraph_balanced(h)
        assert check_hypergraph_balanced(h).cycle.length == 3


class TestHyperCycle:
    def test_degenerate_two_cycle_allowed_by_shape(self):
        # k = 2 is a valid alternating cycle shape, just never a witness
        c = HyperCycle(
            vertices=("a", "b"),
            edges=(
                ("e1", frozenset({"a", "b"})),
                ("e2", frozenset({"a", "b", "c"})),
            ),
        )
        assert c.length == 2

    def test_nonadjacent_vertices_rejected(self):
        with pytest.raises(ValueError):
            HyperCycle(
                vertices=("a", "b", "c"),
                edges=(
                    ("e1", frozenset({"a", "b"})),
                    ("e2", frozenset({"b", "c"})),
                    ("e3", frozenset({"a", "b"})),  # must contain c and a
                ),
            )


class TestMarketHypergraphs:
    def test_acceptable_set_hypergraph_keeps_singletons(self, two_firms):
        h = acceptable_set_hypergraph(two_firms)
        assert h == matrix_of_sets(acceptable_set_family(two_firms), two_firms.workers)
        contents = {members for _, members in edges(h)}
        assert frozenset({"w1"}) in contents
        assert frozenset({"w1", "w2", "w3"}) in contents

    def test_firm_worker_edges_include_firm(self, singleton_clash):
        h = firm_worker_hypergraph(singleton_clash)
        assert h.rows == singleton_clash.firms + singleton_clash.workers
        assert dict(edges(h))["f1:{w1,w2}"] == frozenset({"f1", "w1", "w2"})
        assert dict(edges(h))["f2:{w1}"] == frozenset({"f2", "w1"})


class TestOddCycleCondition:
    def test_triangle_of_pairs_fails(self, cyclic3):
        cert = check_hypergraph_balanced(acceptable_set_hypergraph(cyclic3))
        assert not cert.ok
        assert cert.cycle.length == 3

    def test_covering_triple_saves_triangle(self, triangle_tu):
        # the odd cycle through the pair sets includes a set holding all
        # three of its workers, so the condition holds
        cert = check_hypergraph_balanced(acceptable_set_hypergraph(triangle_tu))
        assert cert.ok

    def test_fan_passes(self, fan):
        assert check_hypergraph_balanced(acceptable_set_hypergraph(fan)).ok

    def test_firm_worker_clash_fails(self, singleton_clash):
        cert = check_hypergraph_balanced(firm_worker_hypergraph(singleton_clash))
        assert not cert.ok
        assert cert.cycle.length == 3
        # the witness alternates firms and workers
        assert set(cert.cycle.vertices) == {"f2", "w1", "w2"}

    def test_witness_recheck(self, any_market):
        cert = check_hypergraph_balanced(acceptable_set_hypergraph(any_market))
        if cert.ok:
            return
        c = cert.cycle
        assert c.length >= 3 and c.length % 2 == 1
        vs = set(c.vertices)
        for _, members in c.edges:
            assert len(members & vs) == 2

    def test_fail_names_a_shortest_cycle(self):
        # a 5-cycle with a chord: the triangle it cuts off is the witness
        vs = ("v1", "v2", "v3", "v4", "v5")
        pairs = [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v5"), ("v5", "v1"), ("v3", "v5")]
        h = matrix_of_sets(pairs, vs)
        cert = check_hypergraph_balanced(h)
        assert not cert.ok
        assert cert.cycle.vertices == ("v3", "v4", "v5")
        assert cert.cycle.length == 3

    def test_matches_brute_force(self):
        rng = random.Random(8)
        for _ in range(80):
            m = random_market(rng, MarketGenConfig(max_workers=4, max_firms=3))
            assert_matches_brute_force(acceptable_set_hypergraph(m))

    def test_firm_worker_matches_brute_force(self):
        rng = random.Random(10)
        for _ in range(80):
            m = random_market(rng, MarketGenConfig(max_workers=3, max_firms=3))
            assert_matches_brute_force(firm_worker_hypergraph(m))

    def test_seven_worker_intervals_pass(self):
        # 21 interval edges: an exhaustive cycle search here took minutes
        assert check_hypergraph_balanced(acceptable_set_hypergraph(interval_market(7))).ok

    def test_consistent_with_matrix_balancedness(self):
        # a bad odd cycle in the acceptable-set hypergraph is exactly an
        # odd two-per-line submatrix of the acceptable-set matrix; the
        # exhaustive cycle search shares no code with is_balanced
        rng = random.Random(9)
        verdicts = set()
        for _ in range(120):
            m = random_market(rng, MarketGenConfig(max_workers=4, max_firms=3))
            mat = matrix_of_sets(acceptable_set_family(m), m.workers)
            ok = is_balanced(mat).ok
            assert ok == (not brute_bad_odd_cycle(acceptable_set_hypergraph(m)))
            verdicts.add(ok)
        assert verdicts == {True, False}

    def test_walk_matches_the_reference_walk(self):
        rng = random.Random(26)
        markets = [*bench_like_markets(), cyclic_market(41), *(random_market(rng) for _ in range(3000))]
        fails = 0
        for m in markets:
            for h in (acceptable_set_hypergraph(m), firm_worker_hypergraph(m)):
                cert = is_balanced(h, cap=max(h.shape))
                if not cert.ok:
                    fails += 1
                    ref = reference_cycle(h, cert.witness_rows, cert.witness_cols)
                    assert check_hypergraph_balanced(h).cycle == ref
        assert fails > 700

    def test_singleton_columns_change_no_certificate(self):
        # each singleton is a column with one 1, so _reduce drops it; the
        # certificate (verdict, cycle vertices and edge labels) is the same
        # on the acceptable-set matrix with and without them
        rng = random.Random(25)
        markets = list(bench_like_markets()) + [random_market(rng) for _ in range(2000)]
        fails = singles = 0
        for m in markets:
            family = acceptable_set_family(m)
            pruned = [s for s in family if len(s) >= 2]
            cert = check_hypergraph_balanced(acceptable_set_hypergraph(m))
            assert cert == check_hypergraph_balanced(matrix_of_sets(pruned, m.workers))
            fails += not cert.ok
            singles += len(pruned) < len(family)
        assert fails > 100 and singles > 1000
