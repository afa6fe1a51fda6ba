import json
import random
import sys
from fractions import Fraction

import pytest

from balmatch import formats
from balmatch.fractional import FractionalMatching
from balmatch.genrandom import random_market, random_neighbour_tree
from balmatch.market import Matching
from balmatch.prefs import decompose_by_sets
from balmatch.techtree import TechnologyTree

H = Fraction(1, 2)
Z = Fraction(0)


class TestMarketFormat:
    def test_round_trip_preserves_everything(self):
        rng = random.Random(19)
        for _ in range(80):
            m = random_market(rng)
            again = formats.parse_market(formats.serialize_market(m))
            assert again.workers == m.workers
            assert again.firms == m.firms
            assert again.worker_prefs == m.worker_prefs
            for f in m.firms:
                assert again.firm_prefs[f].chain == m.firm_prefs[f].chain

    def test_corpus_round_trip(self, any_market):
        again = formats.parse_market(formats.serialize_market(any_market))
        assert again == any_market or (
            again.workers == any_market.workers
            and again.firm_prefs == any_market.firm_prefs
            and again.worker_prefs == any_market.worker_prefs
        )

    def test_missing_key(self):
        with pytest.raises(formats.ParseError):
            formats.parse_market('{"workers": [], "firms": {}}')

    def test_invalid_json_reports_location(self):
        with pytest.raises(formats.ParseError) as err:
            formats.parse_market("{nope}")
        assert "line" in str(err.value)

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            '"workers"',
            '{"workers": "AB", "firms": {}, "worker_prefs": {}}',
            '{"workers": ["w1", 2], "firms": {}, "worker_prefs": {}}',
            '{"workers": ["w1"], "firms": [], "worker_prefs": {"w1": []}}',
            '{"workers": ["w1"], "firms": {"f1": "w1"}, "worker_prefs": {"w1": []}}',
            '{"workers": ["w1"], "firms": {"f1": ["w1"]}, "worker_prefs": {"w1": []}}',
            '{"workers": ["w1"], "firms": {"f1": [[["w1"]]]}, "worker_prefs": {"w1": []}}',
            '{"workers": ["w1"], "firms": {"f1": [["w1"]]}, "worker_prefs": []}',
            '{"workers": ["w1"], "firms": {"f1": [["w1"]]}, "worker_prefs": {"w1": [["f1"]]}}',
        ],
    )
    def test_mistyped_input_rejected(self, text):
        with pytest.raises(formats.ParseError):
            formats.parse_market(text)

    def test_string_list_is_not_split(self):
        # "AB" would otherwise read as the firm list ("A", "B")
        text = '{"workers": ["w1"], "firms": {"A": [["w1"]], "B": [["w1"]]}, "worker_prefs": {"w1": "AB"}}'
        with pytest.raises(formats.ParseError):
            formats.parse_market(text)
        assert formats.parse_market(text.replace('"AB"', '["A", "B"]')).worker_prefs["w1"] == ("A", "B")

    def test_deep_nesting_rejected(self):
        with pytest.raises(formats.ParseError):
            formats.parse_market("[" * 100000)

    def test_semantic_errors_become_parse_errors(self):
        text = '{"workers": ["w1"], "firms": {"f1": [["w9"]]}, "worker_prefs": {"w1": []}}'
        with pytest.raises(formats.ParseError):
            formats.parse_market(text)


class TestFractionalFormat:
    def test_corpus_file_parses(self, corpus_dir, two_firms):
        d = decompose_by_sets(two_firms)
        fm = formats.parse_fractional((corpus_dir / "half_half.frac").read_text(), d)
        assert fm.levels == {"f1#1": H, "f1#2": H, "f1#3": Z, "f2": H}
        assert fm.null_assignment == {"w1": Z, "w2": Z, "w3": Z, "w4": H}

    def test_round_trip(self, two_firms):
        d = decompose_by_sets(two_firms)
        fm = FractionalMatching(
            # 333/1000 is wider than every label
            levels={"f1#1": Fraction(1, 3), "f1#2": Z, "f1#3": Fraction(2, 3), "f2": Fraction(333, 1000)},
            null_assignment={"w1": Fraction(2, 3), "w2": Z, "w3": Z, "w4": Fraction(667, 1000)},
        )
        again = formats.parse_fractional(formats.serialize_fractional(fm, d), d)
        assert again == fm

    def test_values_that_fit_keep_the_labels_width(self, corpus_dir, two_firms):
        d = decompose_by_sets(two_firms)
        fm = formats.parse_fractional((corpus_dir / "half_half.frac").read_text(), d)
        assert formats.serialize_fractional(fm, d) == (
            "          w1    w2    w3    w4\n"
            "f1#1     1/2   1/2   1/2     0\n"
            "f1#2     1/2     0     0     0\n"
            "f1#3       0     0     0     0\n"
            "f2         0   1/2   1/2   1/2\n"
            "null       0     0     0   1/2\n"
        )

    def test_wrong_header_rejected(self, two_firms):
        d = decompose_by_sets(two_firms)
        with pytest.raises(formats.ParseError):
            formats.parse_fractional("w1 w2\nnull 0 0\n", d)

    def test_missing_null_row(self, two_firms):
        d = decompose_by_sets(two_firms)
        text = "w1 w2 w3 w4\nf1#1 0 0 0 0\nf1#2 0 0 0 0\nf1#3 0 0 0 0\nf2 0 0 0 0\n"
        with pytest.raises(formats.ParseError):
            formats.parse_fractional(text, d)

    def test_mass_outside_set_rejected(self, two_firms):
        d = decompose_by_sets(two_firms)
        text = (
            "w1 w2 w3 w4\n"
            "f1#1 0 0 0 0\n"
            "f1#2 1/2 1/2 0 0\n"  # f1#2 only hires w1
            "f1#3 0 0 0 0\n"
            "f2 0 0 0 0\n"
            "null 1/2 1/2 1 1\n"
        )
        with pytest.raises(formats.ParseError):
            formats.parse_fractional(text, d)

    def test_uneven_scale_rejected(self, two_firms):
        d = decompose_by_sets(two_firms)
        text = (
            "w1 w2 w3 w4\n"
            "f1#1 1/2 1/3 1/2 0\n"
            "f1#2 0 0 0 0\n"
            "f1#3 0 0 0 0\n"
            "f2 0 0 0 0\n"
            "null 1/2 2/3 1/2 1\n"
        )
        with pytest.raises(formats.ParseError):
            formats.parse_fractional(text, d)


class TestTreeFormat:
    def test_round_trip_outline(self):
        rng = random.Random(20)
        for _ in range(60):
            t = random_neighbour_tree(rng)
            again = formats.parse_tree(formats.serialize_tree(t))
            assert again.root == t.root
            assert again.worker_sets == t.worker_sets
            assert again.children == t.children

    def test_round_trip_json(self):
        rng = random.Random(22)
        for _ in range(60):
            t = random_neighbour_tree(rng)
            again = formats.tree_from_json(formats.tree_to_json(t))
            assert again.root == t.root
            assert again.worker_sets == t.worker_sets
            assert again.children == t.children

    def test_json_is_nested_dumps(self):
        def nested(t, v):
            children = [nested(t, c) for c in t.children.get(v, ())]
            return {"name": v, "workers": sorted(t.worker_sets[v]), "children": children}

        rng = random.Random(23)
        for _ in range(200):
            t = random_neighbour_tree(rng)
            assert formats.tree_to_json(t) == json.dumps(nested(t, t.root), indent=2)

    def test_json_path_deeper_than_recursion_limit(self):
        # each level adds one worker, on a line indented four spaces per
        # level, so the text grows as levels cubed: the limit is lowered
        # instead of the path grown past the default one
        depth = 150
        t = TechnologyTree(
            root="v0",
            worker_sets={f"v{k}": frozenset(f"w{i}" for i in range(1, k + 1)) for k in range(depth)},
            children={f"v{k}": (f"v{k + 1}",) for k in range(depth - 1)},
        )
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(100)
        try:
            text = formats.tree_to_json(t)
        finally:
            sys.setrecursionlimit(limit)
        assert text.count('"name"') == depth
        assert text.startswith('{\n  "name": "v0",\n  "workers": [],\n  "children": [\n    {\n      "name": "v1",')
        closing = "".join("  " * (2 * k) + "}\n" + "  " * (2 * k - 1) + "]\n" for k in reversed(range(1, depth)))
        assert text.endswith('"children": []\n' + closing + "}")

    @pytest.mark.parametrize(
        "text",
        [
            '{"workers": [], "children": []}',
            '{"name": "v0", "workers": [], "children": [{"workers": ["w1"]}]}',
            '["v0"]',
            '{"name": "v0", "workers": [], "children": ["v1"]}',
            '{"name": "v0", "workers": [], "children": {"name": "v1", "workers": ["w1"]}}',
            '{"name": "v0", "workers": [], "children": "v1"}',
            '{"name": "v0", "workers": [], "children": 5}',
            '{"name": "v0", "workers": [], "children": null}',
            '{"name": 7, "workers": []}',
            '{"name": "v0", "workers": "w1"}',
        ],
    )
    def test_malformed_json_tree_rejected(self, text):
        with pytest.raises(formats.ParseError):
            formats.tree_from_json(text)

    def test_deep_json_tree_rejected(self):
        text = '{"name": "v0", "children": [' * 3000 + "]}" * 3000
        with pytest.raises(formats.ParseError):
            formats.tree_from_json(text)

    def test_corpus_trees_round_trip(self, corpus_dir):
        for path in sorted(corpus_dir.glob("*.tree")):
            t = formats.parse_tree(path.read_text())
            again = formats.parse_tree(formats.serialize_tree(t))
            assert (again.root, again.worker_sets, again.children) == (
                t.root,
                t.worker_sets,
                t.children,
            )

    def test_path_deeper_than_recursion_limit(self):
        # a path outline in which each level adds one worker
        lines = ["v0: {}"]
        for k in range(1, sys.getrecursionlimit() + 100):
            members = ",".join(sorted(f"w{i}" for i in range(1, k + 1)))
            lines.append("  " * k + f"v{k}: {{{members}}}")
        text = "\n".join(lines) + "\n"
        assert formats.serialize_tree(formats.parse_tree(text)) == text

    def test_comments_and_blanks_ignored(self):
        t = formats.parse_tree("# a tree\n\nv0: {}\n  v1: {w1}\n")
        assert t.children["v0"] == ("v1",)

    def test_odd_indent_rejected(self):
        with pytest.raises(formats.ParseError):
            formats.parse_tree("v0: {}\n v1: {w1}\n")

    def test_second_root_rejected(self):
        with pytest.raises(formats.ParseError):
            formats.parse_tree("v0: {}\nv1: {w1}\n")

    def test_level_skip_rejected(self):
        with pytest.raises(formats.ParseError):
            formats.parse_tree("v0: {}\n    v1: {w1}\n")

    def test_missing_braces_rejected(self):
        with pytest.raises(formats.ParseError):
            formats.parse_tree("v0: w1\n")


class TestMatchingRendering:
    def test_none_renders_as_none(self, cyclic3):
        assert formats.render_matching(None, cyclic3) == "NONE"

    def test_two_row_layout(self, two_firms):
        mu = Matching({"w1": "f1", "w2": "f1", "w3": "f1", "w4": None})
        text = formats.render_matching(mu, two_firms)
        top, bottom = text.splitlines()
        assert top.split() == ["f1", "f2", "null"]
        assert bottom.split() == ["w1,w2,w3", "w4"]
