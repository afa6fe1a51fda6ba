import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from balmatch import formats
from balmatch.fractional import FractionalMatching
from balmatch.genrandom import random_market, random_neighbour_tree
from balmatch.market import Matching
from balmatch.prefs import decompose_by_sets
from balmatch.techtree import TechnologyTree, TreeError

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

    @pytest.mark.parametrize(
        "firms, workers, bad",
        [
            # the header of the printed matching splits on whitespace
            (["f 1", "f2"], ["w1"], "firm name 'f 1'"),
            (["f1"], ["w1", "w\u20282"], "worker name 'w\\u20282'"),
            # the matching's bottom row joins a firm's workers with commas
            (["f1"], ["x,y", "z"], "worker name 'x,y'"),
            # a .frac line that starts with # is a comment
            (["f1"], ["#w", "w2"], "worker name '#w'"),
            (["#f"], ["w1"], "firm name '#f'"),
            ([""], ["w1"], "firm name ''"),
            (["f1"], ["w1", ""], "worker name ''"),
        ],
        ids=["space-in-firm", "line-separator-in-worker", "comma-in-worker", "hash-worker", "hash-firm",
             "empty-firm", "empty-worker"],
    )
    def test_names_the_matching_cannot_carry_rejected(self, firms, workers, bad):
        text = json.dumps({
            "workers": workers,
            "firms": {f: [workers[:1]] for f in firms},
            "worker_prefs": {w: [] for w in workers},
        })
        with pytest.raises(formats.ParseError) as err:
            formats.parse_market(text)
        assert str(err.value) == f"{bad} cannot be written in a matching or a fractional table"
        _assert_loads_as_reference(text)

    def test_name_errors_come_after_shape_and_before_set_errors(self):
        # firms in file order, then workers; a comma is fine in a firm name
        market = {
            "workers": ["w1", "w 2"],
            "firms": {"f,1": [[]], "b a": [["w1"]], "#c": [["w1"]]},
            "worker_prefs": {"w1": [], "w 2": []},
        }
        text = json.dumps(market)
        assert _outcome(formats.parse_market, text) == "firm name 'b a' cannot be written in a matching or a fractional table"
        _assert_loads_as_reference(text)
        market["firms"] = {"f,1": [[]]}
        text = json.dumps(market)
        assert _outcome(formats.parse_market, text) == "worker name 'w 2' cannot be written in a matching or a fractional table"
        _assert_loads_as_reference(text)
        market["worker_prefs"]["w1"] = "f,1"
        assert _outcome(formats.parse_market, json.dumps(market)) == "preference list of w1 must be a list of strings"


def _reference_names(value, what):
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise formats.ParseError(f"{what} must be a list of strings")
    return value


def _reference_pairs(pairs):
    keys = [k for k, _ in pairs]
    for i, k in enumerate(keys):
        if k in keys[:i]:
            raise formats.ParseError(f"duplicate key in a JSON object: {k}")
    return dict(pairs)


def _reference_json(text):
    """``json.loads`` with a hook per call that rejects a repeated key."""
    try:
        return json.loads(text, object_pairs_hook=_reference_pairs)
    except json.JSONDecodeError as e:
        raise formats.ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from e
    except RecursionError as e:
        raise formats.ParseError("JSON nested too deeply") from e


def reference_load(text):
    """The market loader checked element by element: ``parse_market``,
    ``FirmPreference`` and ``Market`` as separate passes, each chain set
    tested against every earlier chain set, every worker of every chain set
    and every firm of every list looked up one at a time. It returns the
    loaded market's fields, or raises ``ParseError``. Every firm and worker
    name is checked character by character before the chains. A chain set
    that repeats a worker is rejected in the chain's pass, in chain order,
    and an unknown chain worker is the first of its set in sorted order."""
    data = formats._object(_reference_json(text), "market")
    for key in ("workers", "firms", "worker_prefs"):
        if key not in data:
            raise formats.ParseError(f"missing key: {key}")
    sets = {}
    for f, chain in formats._object(data["firms"], "firms").items():
        if not isinstance(chain, list):
            raise formats.ParseError(f"chain of firm {f} must be a list of worker lists")
        sets[f] = [_reference_names(s, f"a set in the chain of firm {f}") for s in chain]
    worker_prefs = {
        w: tuple(_reference_names(lst, f"preference list of {w}"))
        for w, lst in formats._object(data["worker_prefs"], "worker_prefs").items()
    }
    workers = tuple(_reference_names(data["workers"], "workers"))
    firms = tuple(sets)
    for what, names in (("firm", firms), ("worker", workers)):
        for x in names:
            if not x or any(c.isspace() for c in x) or x[0] == "#" or what == "worker" and "," in x:
                raise formats.ParseError(f"{what} name {x!r} cannot be written in a matching or a fractional table")
    chains, acceptable = {}, {}
    for f in firms:
        chain = tuple(frozenset(s) for s in sets[f])
        seen = set()
        for s, names in zip(chain, sets[f]):
            if not s:
                raise formats.ParseError("empty set in preference chain")
            if len(set(names)) != len(names):
                raise formats.ParseError(f"duplicate worker in a set in the chain of firm {f}")
            if s in seen:
                raise formats.ParseError(f"duplicate set in preference chain: {sorted(s)}")
            seen.add(s)
        chains[f] = chain
        acceptable[f] = tuple(
            s for i, s in enumerate(chain) if not any(earlier <= s for earlier in chain[:i])
        )
    if len(set(workers)) != len(workers):
        raise formats.ParseError("duplicate worker identifiers")
    if set(workers) & set(firms):
        raise formats.ParseError("identifier used as both worker and firm")
    for f in firms:
        for s in chains[f]:
            for w in sorted(s):
                if w not in workers:
                    raise formats.ParseError(f"unknown worker {w} in chain of firm {f}")
    if set(worker_prefs) != set(workers):
        raise formats.ParseError("worker_prefs keys must match workers")
    for w, lst in worker_prefs.items():
        if len(set(lst)) != len(lst):
            raise formats.ParseError(f"duplicate firm in preference list of {w}")
        for f in lst:
            if f not in firms:
                raise formats.ParseError(f"unknown firm {f} in preference list of {w}")
    return (
        workers, firms, list(worker_prefs.items()), list(chains.items()),
        list(acceptable.items()),
    )


def _loaded(m):
    return (
        m.workers, m.firms, list(m.worker_prefs.items()),
        [(f, p.chain) for f, p in m.firm_prefs.items()],
        [(f, p.acceptable) for f, p in m.firm_prefs.items()],
    )


def _outcome(load, text):
    try:
        return load(text)
    except formats.ParseError as e:
        return str(e)


def _assert_loads_as_reference(text):
    got = _outcome(lambda t: _loaded(formats.parse_market(t)), text)
    assert got == _outcome(reference_load, text), text


# Identifier pools small enough to collide: "x" is both a worker and a firm,
# w0, w8, w9, f8 and f9 are never declared.
_WORKERS = ("w1", "w2", "w3", "w4", "x")
_FIRMS = ("f1", "f2", "f3", "x")
_JUNK = (None, 0, 1.5, True, "w1", {}, {"w1": []}, ["w1", 2], [["w1"]])


def _dumps(rng, value):
    """``json.dumps(value)``, except that now and then an object repeats
    one of its keys, with that key's value or another one's."""
    if isinstance(value, dict):
        pairs = [(json.dumps(k), _dumps(rng, v)) for k, v in value.items()]
        if pairs and rng.random() < 0.02:
            pairs.insert(rng.randint(0, len(pairs)), (rng.choice(pairs)[0], rng.choice(pairs)[1]))
        return "{" + ", ".join(f"{k}: {v}" for k, v in pairs) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_dumps(rng, v) for v in value) + "]"
    return json.dumps(value)


def _fuzz_market_text(rng):
    """A market text with, at a few percent each, a wrong type at every
    level, a missing key, a key repeated in an object, an empty, repeated
    or unknown-worker chain set, a repeated or unknown firm in a list, a
    repeated or shared identifier and a missing or extra worker list; about
    one text in five loads."""

    def maybe(value):
        return rng.choice(_JUNK) if rng.random() < 0.03 else value

    def names(pool, unknown):
        out = rng.sample(pool, rng.randint(0, min(3, len(pool))))
        if out and rng.random() < 0.05:
            out.append(rng.choice(out))
        if rng.random() < 0.05:
            for name in rng.sample(unknown, rng.randint(1, 2)):
                out.insert(rng.randint(0, len(out)), name)
        return maybe(out)

    workers = rng.sample(_WORKERS[:4], rng.randint(1, 4))
    if rng.random() < 0.05:
        workers.append(rng.choice(workers))
    if rng.random() < 0.05:
        workers.append("x")
    firms = {}
    for f in rng.sample(_FIRMS[:3], rng.randint(0, 3)) + (["x"] if rng.random() < 0.05 else []):
        chain = [names(workers, ("w9", "w8", "w0")) or workers[:1] for _ in range(rng.randint(0, 3))]
        if chain and rng.random() < 0.05:
            chain.insert(rng.randint(0, len(chain)), [])
        if chain and rng.random() < 0.05:
            chain.append(rng.choice(chain))
        firms[f] = maybe(chain)
    keys = list(dict.fromkeys(workers))
    if rng.random() < 0.05:
        keys.pop(rng.randrange(len(keys)))
    if rng.random() < 0.05:
        keys.append("w9")
    worker_prefs = {w: names(list(firms), ("f9", "f8")) for w in keys}
    data = {"workers": maybe(workers), "firms": maybe(firms), "worker_prefs": maybe(worker_prefs)}
    for key in list(data):
        if rng.random() < 0.02:
            del data[key]
    text = _dumps(rng, maybe(data))
    if rng.random() < 0.01:
        text = text[: rng.randint(0, len(text))]
    return text


class TestLoaderMatchesReference:
    def test_fuzzed_texts(self):
        rng = random.Random(2024)
        loads = repeats = 0
        for _ in range(20_000):
            text = _fuzz_market_text(rng)
            want = _outcome(reference_load, text)
            assert _outcome(lambda t: _loaded(formats.parse_market(t)), text) == want, text
            loads += not isinstance(want, str)
            repeats += isinstance(want, str) and want.startswith("duplicate key")
        assert loads > 2_000 and repeats > 500

    def test_corpus_and_random_markets(self, corpus_dir):
        rng = random.Random(11)
        texts = [p.read_text() for p in sorted(corpus_dir.glob("*.market"))]
        texts += [formats.serialize_market(random_market(rng)) for _ in range(200)]
        for text in texts:
            _assert_loads_as_reference(text)

    def test_worker_repeated_in_a_chain_set(self):
        # rejected like a firm repeated in a worker list, not loaded as {w1}
        market = {"workers": ["w1", "w2"], "firms": {"f1": [["w1", "w1"]]}, "worker_prefs": {"w1": [], "w2": []}}
        want = "duplicate worker in a set in the chain of firm f1"
        assert _outcome(lambda t: _loaded(formats.parse_market(t)), json.dumps(market)) == want
        cases = [
            # with the chain's set-level checks, in chain order
            ({"f1": [["w2"], ["w1", "w2", "w1"], ["w2"]]}, want),
            ({"f1": [["w2"], ["w2"], ["w1", "w1"]]}, "duplicate set in preference chain: ['w2']"),
            ({"f1": [[], ["w1", "w1"]]}, "empty set in preference chain"),
            # in firm order, and before Market's unknown-worker check
            ({"f0": [["w9"]], "f1": [["w1", "w1"]]}, want),
            ({"f0": [["w2", "w2"]], "f1": [["w1", "w1"]]}, "duplicate worker in a set in the chain of firm f0"),
        ]
        for firms, error in cases:
            market["firms"] = firms
            market["worker_prefs"] = {"w1": [], "w2": []}
            text = json.dumps(market)
            assert _outcome(formats.parse_market, text) == error
            _assert_loads_as_reference(text)
            # after every JSON-shape error
            market["worker_prefs"] = {"w1": "f1", "w2": []}
            assert _outcome(formats.parse_market, json.dumps(market)) == "preference list of w1 must be a list of strings"

    def test_error_precedence(self):
        # an empty chain set, a repeated worker and an unknown firm all lose
        # to a worker list of the wrong type
        market = {"workers": ["w1", "w1"], "firms": {"f1": [[]]}, "worker_prefs": {"w1": ["f9"]}}
        assert _outcome(reference_load, json.dumps(market)) == "empty set in preference chain"
        market["worker_prefs"] = {"w1": "f1"}
        text = json.dumps(market)
        assert _outcome(reference_load, text) == "preference list of w1 must be a list of strings"
        _assert_loads_as_reference(text)

    def test_acceptable_tests_earlier_acceptable_sets(self):
        # {w1,w2,w3} holds the acceptable {w1} only through {w1,w2}
        text = json.dumps({
            "workers": ["w1", "w2", "w3"],
            "firms": {"f1": [["w1"], ["w1", "w2"], ["w1", "w2", "w3"], ["w2"]]},
            "worker_prefs": {"w1": ["f1"], "w2": [], "w3": []},
        })
        _assert_loads_as_reference(text)
        m = formats.parse_market(text)
        assert m.firm_prefs["f1"].acceptable == (frozenset({"w1"}), frozenset({"w2"}))


_NAME = st.sampled_from(_WORKERS + _FIRMS + ("w9", "f9"))
_NAMES = st.one_of(st.lists(_NAME, max_size=4), st.sampled_from(_JUNK))
_MARKET = st.one_of(
    st.fixed_dictionaries({}, optional={
        "workers": _NAMES,
        "firms": st.one_of(
            st.dictionaries(st.sampled_from(_FIRMS), st.one_of(st.lists(_NAMES, max_size=3), st.sampled_from(_JUNK)), max_size=3),
            st.sampled_from(_JUNK),
        ),
        "worker_prefs": st.one_of(
            st.dictionaries(st.sampled_from(_WORKERS + ("w9",)), _NAMES, max_size=5),
            st.sampled_from(_JUNK),
        ),
    }),
    st.sampled_from(_JUNK),
)


@given(_MARKET)
@settings(max_examples=300, deadline=None)
def test_loader_matches_reference_on_generated_markets(market):
    _assert_loads_as_reference(json.dumps(market))


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


    def test_equal_tokens_are_one_scale(self, two_firms):
        # 1/2 and 2/4 are separate tokens of one value
        d = decompose_by_sets(two_firms)
        text = (
            "w1 w2 w3 w4\n"
            "f1#1 1/2 2/4 1/2 0\n"
            "f1#2 2/4 0 0 0\n"
            "f1#3 0 0 0 0\n"
            "f2 0 1/2 2/4 1/2\n"
            "null 0 0 0 2/4\n"
        )
        fm = formats.parse_fractional(text, d)
        assert fm.levels == {"f1#1": H, "f1#2": H, "f1#3": Z, "f2": H}
        assert fm.null_assignment == {"w1": Z, "w2": Z, "w3": Z, "w4": H}

    def test_zero_over_any_denominator_is_zero(self, two_firms):
        d = decompose_by_sets(two_firms)
        text = (
            "w1 w2 w3 w4\n"
            "f1#1 1/2 1/2 1/2 0/7\n"
            "f1#2 1/2 0/7 0/3 0\n"
            "f1#3 0/7 0/7 0/7 0/7\n"
            "f2 0/7 1/2 1/2 1/2\n"
            "null 0 0/7 0 1/2\n"
        )
        fm = formats.parse_fractional(text, d)
        assert fm.levels == {"f1#1": H, "f1#2": H, "f1#3": Z, "f2": H}
        assert fm.null_assignment == {"w1": Z, "w2": Z, "w3": Z, "w4": H}

    @pytest.mark.parametrize(
        "token, error",
        [
            ("x", "Invalid literal for Fraction: 'x'"),
            ("1/0", "Fraction(1, 0)"),
            # 1e10000000 would have Fraction build a ten-million-digit int
            ("1e5000", "exponent not accepted: '1e5000'"),
            # outside the ASCII grammar on every Python, though Fraction reads "_"
            # from 3.11 on and any Unicode digit on every version
            ("1_0/2_0", "Invalid literal for Fraction: '1_0/2_0'"),
            ("\u0661/\u0662", "Invalid literal for Fraction: '\u0661/\u0662'"),
        ],
    )
    def test_repeated_bad_token_reported_in_its_first_row(self, two_firms, token, error):
        d = decompose_by_sets(two_firms)
        text = (
            "w1 w2 w3 w4\n"
            "f1#1 1/2 1/2 1/2 0\n"
            f"f1#2 1/2 0 {token} 0\n"
            "f1#3 0 0 0 0\n"
            f"f2 {token} 1/2 1/2 {token}\n"
            f"null {token} 0 0 1/2\n"
        )
        with pytest.raises(formats.ParseError) as err:
            formats.parse_fractional(text, d)
        assert str(err.value) == f"bad rational in row f1#2: {error}"

    def test_exactly_the_exponent_tokens_fraction_reads_are_refused(self):
        # no underscores: Python 3.10's Fraction reads none
        rng = random.Random(41)
        refused = 0
        for _ in range(5000):
            token = "".join(rng.choice("0123456789.eE+-/ ") for _ in range(rng.randint(1, 6))).strip()
            try:
                # a table token holds no space, and the grammar none
                expected = Fraction(token) if " " not in token else ValueError
            except (ValueError, ZeroDivisionError) as e:
                expected = type(e)
            try:
                got = formats._Rationals()[token]
            except (ValueError, ZeroDivisionError) as e:
                got = type(e) if "exponent" not in str(e) else "exponent"
            has_exponent = not isinstance(expected, type) and "e" in token.lower()
            assert (got == "exponent") == has_exponent, token
            if has_exponent:
                refused += 1
            else:
                assert got == expected, token
        assert refused > 150

    def test_tokens_out_of_the_ascii_grammar_are_invalid_literals(self):
        # Fraction reads "_" from 3.11 on and any Unicode digit on every
        # version; the table reads neither, on every Python
        rng = random.Random(42)
        outside = 0
        for _ in range(3000):
            token = "".join(rng.choice("0123456789.eE+-/_\u0661\u0662") for _ in range(rng.randint(1, 6)))
            if token.isascii() and "_" not in token:
                continue
            outside += 1
            with pytest.raises(ValueError) as err:
                formats._Rationals()[token]
            assert str(err.value) == f"Invalid literal for Fraction: {token!r}", token
        assert outside > 1000

    def test_row_shape_error_before_a_bad_token_wins(self, two_firms):
        d = decompose_by_sets(two_firms)
        text = (
            "w1 w2 w3 w4\n"
            "f1#1 1/2 1/2 1/2 0\n"
            "f1#2 1/2 0 0\n"
            "f1#3 0 0 x 0\n"
            "f1#3 0 0 0 0\n"
        )
        with pytest.raises(formats.ParseError) as err:
            formats.parse_fractional(text, d)
        assert str(err.value) == "bad row (expected 5 fields): 'f1#2 1/2 0 0'"
        # a repeated label before a bad token wins too
        with pytest.raises(formats.ParseError, match="^duplicate row label: f1#1$"):
            formats.parse_fractional(text.replace("f1#2 1/2 0 0", "f1#1 0 0 0 0"), d)


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

    def test_json_tree_reads_as_deep_as_the_decoder(self):
        # the deepest path the decoder takes on this interpreter, probed by
        # doubling (3.11 takes about 500 levels, 3.13 about 5,000), read to
        # its last vertex, which repeats the root's name
        def path(levels):
            names = ["v", *(f"u{k}" for k in range(1, levels - 1)), "v"]
            return "".join(f'{{"name": "{v}", "children": [' for v in names) + "]}" * levels

        deepest, levels = None, 256
        while levels <= 8192:
            try:
                formats._load_json(path(levels))
            except formats.ParseError:
                break
            deepest, levels = levels, 2 * levels
        assert deepest is not None
        with pytest.raises(formats.ParseError, match="^duplicate vertex: v$"):
            formats.tree_from_json(path(deepest))

    def test_shape_faults_are_named_before_a_repeated_vertex(self):
        # every node's shape is checked, in preorder, before the outline
        # builder meets the repeated v
        text = '{"name": "v", "children": [{"name": "v"}, {"name": "u", "workers": "w1"}]}'
        with pytest.raises(formats.ParseError, match="^workers of u must be a list of strings$"):
            formats.tree_from_json(text)
        with pytest.raises(formats.ParseError, match="^duplicate vertex: v$"):
            formats.tree_from_json(text.replace('"w1"', '["w1"]'))

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


# letters, and the characters the outline reads as structure or as a line
# end; names of letters alone are drawn as often, so that trees pass too
_TREE_NAME = st.one_of(
    st.text(alphabet="ab", max_size=3), st.text(alphabet="ab ,:#{}\t\n\r\x85\u2028", max_size=3)
)
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _outline_carries(name: str, vertex: bool) -> bool:
    if name != name.strip() or any(c in _LINE_BREAKS for c in name):
        return False
    if vertex:
        return ":" not in name and not name.startswith("#")
    return name != "" and "," not in name


@st.composite
def _named_trees(draw):
    """A root with no worker, then vertices hung under earlier ones, each
    adding at least one worker to its parent's set."""
    vertices = draw(st.lists(_TREE_NAME, min_size=1, max_size=4, unique=True))
    workers = draw(st.lists(_TREE_NAME, min_size=1, max_size=3, unique=True))
    worker_sets = {vertices[0]: frozenset()}
    children: dict[str, list[str]] = {}
    for v in vertices[1:]:
        parent = draw(st.sampled_from(list(worker_sets)))
        more = draw(st.frozensets(st.sampled_from(workers), min_size=1))
        if not more <= worker_sets[parent]:
            worker_sets[v] = worker_sets[parent] | more
            children.setdefault(parent, []).append(v)
    return vertices[0], worker_sets, {v: tuple(c) for v, c in children.items()}


@given(_named_trees())
@settings(max_examples=400, deadline=None)
def test_every_accepted_tree_round_trips_through_the_outline(tree):
    root, worker_sets, children = tree
    carried = all(_outline_carries(v, True) for v in worker_sets) and all(
        _outline_carries(w, False) for s in worker_sets.values() for w in s
    )
    if not carried:
        with pytest.raises(TreeError, match="cannot be written in a tree outline"):
            TechnologyTree(root=root, worker_sets=worker_sets, children=children)
        return
    t = TechnologyTree(root=root, worker_sets=worker_sets, children=children)
    again = formats.parse_tree(formats.serialize_tree(t))
    assert (again.root, again.worker_sets) == (root, worker_sets)
    assert again.children == {v: children.get(v, ()) for v in worker_sets}


class TestMatchingRendering:
    def test_none_renders_as_none(self, cyclic3):
        assert formats.render_matching(None, cyclic3) == "NONE"

    def test_two_row_layout(self, two_firms):
        mu = Matching({"w1": "f1", "w2": "f1", "w3": "f1", "w4": None})
        text = formats.render_matching(mu, two_firms)
        top, bottom = text.splitlines()
        assert top.split() == ["f1", "f2", "null"]
        assert bottom.split() == ["w1,w2,w3", "w4"]
