import random

import pytest

from balmatch.formats import parse_tree
from balmatch.genrandom import random_neighbour_tree
from balmatch.matrices import is_totally_balanced
from balmatch.techtree import (
    TechnologyTree,
    TreeError,
    check_neighbour_condition,
    engagements,
    find_neighbour_ordering,
    market_sets_from_tree,
    profile_from_tree,
    sets_from_tree,
    upgrade_workers,
    worker_set_matrix,
)
from conftest import load_tree


@pytest.fixture
def ladder():
    return load_tree("ladder.tree")


@pytest.fixture
def triangle():
    return load_tree("triangle.tree")


@pytest.fixture
def nested():
    return load_tree("nested.tree")


class TestTreeShape:
    def test_root_must_be_empty(self):
        with pytest.raises(TreeError):
            TechnologyTree(
                root="v0",
                worker_sets={"v0": frozenset({"w1"})},
                children={"v0": ()},
            )

    def test_upgrades_must_enlarge(self):
        with pytest.raises(TreeError):
            TechnologyTree(
                root="v0",
                worker_sets={"v0": frozenset(), "v1": frozenset()},
                children={"v0": ("v1",), "v1": ()},
            )

    def test_disconnected_vertex_rejected(self):
        with pytest.raises(TreeError):
            TechnologyTree(
                root="v0",
                worker_sets={"v0": frozenset(), "v1": frozenset({"w1"})},
                children={"v0": (), "v1": ()},
            )

    def test_outline_order(self, ladder):
        assert ladder.vertices() == ["v0", "v1", "v2", "v3", "v5"]
        assert ladder.edges() == [
            ("v0", "v1"),
            ("v0", "v2"),
            ("v0", "v3"),
            ("v3", "v5"),
        ]
        assert ladder.workers() == ["w1", "w2", "w3", "w4", "w5"]


class TestRootOnly:
    def test_root_only_tree_passes_with_empty_matrix(self):
        t = parse_tree("v0: {}\n")
        assert check_neighbour_condition(t).ok
        mat = worker_set_matrix(t)
        assert mat.shape == (0, 0)
        assert is_totally_balanced(mat).ok


class TestEngagement:
    def test_upgrade_workers(self, ladder):
        assert upgrade_workers(("v0", "v1"), ladder) == {"w1", "w2"}
        assert upgrade_workers(("v3", "v5"), ladder) == {"w5"}
        with pytest.raises(TreeError):
            upgrade_workers(("v0", "v5"), ladder)

    def test_engagement_lists(self, ladder):
        table = engagements(ladder)
        assert table["w2"] == [("v0", "v1"), ("v0", "v2")]
        assert table["w3"] == [("v0", "v2"), ("v0", "v3")]
        assert table["w5"] == [("v3", "v5")]

    def test_engagement_table_matches_per_worker_walk(self):
        # random trees whose upgrades draw from one shared worker pool, so a
        # worker may engage at several vertices, and neighbour-condition trees
        rng = random.Random(21)
        for k in range(400):
            if k % 2:
                t = random_neighbour_tree(rng, max_vertices=9, max_workers=8)
            else:
                t = random_shared_pool_tree(rng)
            table = engagements(t)
            assert list(table) == t.workers()
            for w in t.workers():
                assert table[w] == [e for e in t.edges() if w in upgrade_workers(e, t)]
        assert "nobody" not in table


def random_shared_pool_tree(rng):
    """Each vertex below the root adds one to three workers of w1..w6 to its
    parent's set, and its children come in a shuffled order."""
    sets, children = {"v0": frozenset()}, {"v0": []}
    for i in range(1, rng.randint(2, 10)):
        parent = rng.choice([v for v, s in sets.items() if len(s) < 6])
        pool = sorted({f"w{j}" for j in range(1, 7)} - sets[parent])
        name = f"v{i}"
        sets[name] = sets[parent] | set(rng.sample(pool, rng.randint(1, min(3, len(pool)))))
        children[name] = []
        children[parent].append(name)
    for kids in children.values():
        rng.shuffle(kids)
    return TechnologyTree("v0", sets, {v: tuple(kids) for v, kids in children.items()})


class TestNeighbourCondition:
    def test_ladder_passes(self, ladder):
        assert check_neighbour_condition(ladder).ok

    def test_triangle_fails_with_separating_detail(self, triangle):
        cert = check_neighbour_condition(triangle)
        assert not cert.ok
        assert cert.worker == "w1"
        assert "v0->v2" in cert.detail

    def test_nested_passes(self, nested):
        assert check_neighbour_condition(nested).ok

    def test_two_source_worker_fails(self):
        t = parse_tree(
            "v0: {}\n"
            "  v1: {w1}\n"
            "    v2: {w1,w2}\n"
            "  v3: {w2,w3}\n"
        )
        cert = check_neighbour_condition(t)
        assert not cert.ok
        assert cert.worker == "w2"
        assert "distinct vertices" in cert.detail


class TestPermutationSearch:
    def test_triangle_has_no_fix(self, triangle):
        assert find_neighbour_ordering(triangle) is None

    def test_shuffled_ladder_is_repaired(self, ladder):
        shuffled = ladder.reordered({"v0": ("v2", "v1", "v3")})
        assert not check_neighbour_condition(shuffled).ok
        fixed = find_neighbour_ordering(shuffled)
        assert fixed is not None
        assert check_neighbour_condition(fixed).ok
        assert set(fixed.children["v0"]) == {"v1", "v2", "v3"}

    def test_passing_tree_comes_back_passing(self, nested):
        fixed = find_neighbour_ordering(nested)
        assert fixed is not None
        assert check_neighbour_condition(fixed).ok


class TestWorkerSetMatrix:
    def test_ladder_matrix(self, ladder):
        mat = worker_set_matrix(ladder)
        assert mat.cols == ("v1", "v2", "v3", "v5")
        assert is_totally_balanced(mat).ok

    def test_repeated_set_is_labelled_by_its_first_vertex(self):
        t = parse_tree("v0: {}\n  a: {w2}\n    b: {w1,w2}\n  c: {w1,w2}\n  d: {w2}\n")
        mat = worker_set_matrix(t)
        assert mat.cols == ("a", "b")
        assert mat.rows == ("w2", "w1")
        assert mat.entries == ((1, 1), (0, 1))

    def test_triangle_matrix_fails(self, triangle):
        assert not is_totally_balanced(worker_set_matrix(triangle)).ok

    def test_random_neighbour_trees_are_totally_balanced(self):
        rng = random.Random(16)
        for _ in range(120):
            t = random_neighbour_tree(rng)
            assert check_neighbour_condition(t).ok
            cert = is_totally_balanced(worker_set_matrix(t))
            assert cert.verdict == "PASS"


class TestProfilesFromTrees:
    def test_profile_from_vertex_chains(self, ladder):
        profile = profile_from_tree({"f1": ["v5", "v3"]}, ladder)
        assert profile["f1"].chain == (
            frozenset({"w3", "w4", "w5"}),
            frozenset({"w3", "w4"}),
        )
        with pytest.raises(TreeError):
            profile_from_tree({"f1": ["v9"]}, ladder)

    def test_sets_from_tree_modes(self, nested, triangle_tu):
        # the nested tree's technologies cover every acceptable set of the
        # triangle market's firms
        for f in triangle_tu.firms:
            assert sets_from_tree(f, triangle_tu, nested, mode="all")
        assert market_sets_from_tree(triangle_tu, nested, mode="all")

    def test_triangle_tree_covers_pair_market(self, triangle, cyclic3):
        assert sets_from_tree("f1", cyclic3, triangle, mode="all")
        assert market_sets_from_tree(cyclic3, triangle, mode="all")

    def test_pair_market_not_covered_by_ladder(self, ladder, cyclic3):
        assert not sets_from_tree("f3", cyclic3, ladder, mode="all")
        assert not market_sets_from_tree(cyclic3, ladder, mode="all")

    def test_sets_from_tree_default_mode_checks_primitive_sets(self, nested_chains):
        # f1's primitive sets {w1,w2} and {w3} are technologies, but its
        # acceptable set {w1,w2,w3} is not
        t = parse_tree("v0: {}\n  v1: {w1,w2}\n  v2: {w3}\n")
        assert sets_from_tree("f1", nested_chains, t)
        assert not sets_from_tree("f1", nested_chains, t, mode="all")

    def test_unknown_mode_rejected(self, nested, triangle_tu):
        with pytest.raises(ValueError):
            sets_from_tree("f1", triangle_tu, nested, mode="bogus")
