import random

import pytest

from balmatch.formats import parse_tree
from balmatch.genrandom import random_neighbour_tree
from balmatch import matrices
from balmatch.matrices import DEFAULT_CAP, is_balanced, is_totally_balanced, is_totally_unimodular
from balmatch.techtree import (
    TechnologyTree,
    TreeError,
    check_neighbour_condition,
    engagements,
    find_neighbour_ordering,
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

    def test_children_key_must_name_a_vertex(self):
        with pytest.raises(TreeError, match="children key zz names no vertex"):
            TechnologyTree(
                root="r",
                worker_sets={"r": frozenset(), "a": frozenset({"w1"})},
                children={"r": ("a",), "zz": ("q",)},
            )

    @pytest.mark.parametrize(
        "vertex, worker",
        [
            ("a:b", "w1"),
            ("#a", "w1"),
            (" a", "w1"),
            ("a\t", "w1"),
            ("a\nb", "w1"),
            ("a\x85b", "w1"),
            ("a\u2028b", "w1"),
            ("a", ""),
            ("a", "w1,w2"),
            ("a", "w1 "),
            ("a", "w\r1"),
            ("a", "w\x1c1"),
        ],
    )
    def test_names_the_outline_cannot_carry_rejected(self, vertex, worker):
        with pytest.raises(TreeError) as e:
            TechnologyTree(
                root="r",
                worker_sets={"r": frozenset(), vertex: frozenset({worker, "w0"})},
                children={"r": (vertex,)},
            )
        named = f"vertex name {vertex!r}" if worker == "w1" else f"worker name {worker!r}"
        assert str(e.value) == f"{named} cannot be written in a tree outline"

    def test_first_bad_upgrade_in_outline_order_is_named(self):
        # a->c and b->d both fail; the walk reaches a before b
        with pytest.raises(TreeError, match=r"^upgrade a->c must strictly enlarge"):
            TechnologyTree(
                root="r",
                worker_sets={
                    "r": frozenset(),
                    "a": frozenset({"w1"}),
                    "b": frozenset({"w2"}),
                    "c": frozenset({"w1"}),
                    "d": frozenset({"w2"}),
                },
                children={"r": ("a", "b"), "a": ("c",), "b": ("d",)},
            )

    def test_outline_order(self, ladder):
        assert ladder.outline == (("v0", 0), ("v1", 1), ("v2", 1), ("v3", 1), ("v5", 2))
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
                assert table[w] == [(v, c) for v, c in t.edges() if w in t.worker_sets[c] - t.worker_sets[v]]
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

    def test_reordering_a_leaf_missing_from_children(self):
        t = TechnologyTree("r", {"r": frozenset(), "a": frozenset({"w1"})}, {"r": ("a",)})
        same = t.reordered({"a": ()})
        assert same.children == {"r": ("a",), "a": ()}
        assert same.vertices() == t.vertices()
        with pytest.raises(TreeError, match="not a permutation"):
            t.reordered({"a": ("r",)})

    def test_reordering_an_unknown_vertex_rejected(self, ladder):
        with pytest.raises(TreeError, match="unknown vertex: v9"):
            ladder.reordered({"v9": ()})

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

    def test_neighbour_trees_never_reach_the_search(self, monkeypatch):
        # the paper's class: a tree that passes the neighbour condition has a
        # worker-set matrix with consecutive ones along every row, in its own
        # column order, so no certificate of it searches; over the cap (the
        # reduced matrix for balanced and TB, the matrix for TU) it is
        # INCONCLUSIVE, as any matrix is
        monkeypatch.setattr(matrices, "_row_subset_search", lambda *a: pytest.fail("searched"))
        rng = random.Random(19)
        verdicts = []
        for i in range(600):
            size = (12, 10) if i % 3 else (40, 30)
            t = random_neighbour_tree(rng, max_vertices=size[0], max_workers=size[1])
            if not check_neighbour_condition(t).ok:
                continue
            mat = worker_set_matrix(t)
            for row in mat.entries:
                assert "0" not in "".join(map(str, row)).strip("0")
            rows, cols = matrices._reduce(mat)
            for check in (is_balanced, is_totally_balanced, is_totally_unimodular):
                shape = mat.shape if check is is_totally_unimodular else (rows.bit_count(), len(cols))
                cert = check(mat)
                assert cert.verdict == ("INCONCLUSIVE" if max(shape) > DEFAULT_CAP else "PASS")
                verdicts.append(cert.verdict)
        assert len(verdicts) > 1500
        assert verdicts.count("INCONCLUSIVE") > 10 and verdicts.count("PASS") > 1500
