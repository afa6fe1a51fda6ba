import contextlib
import io
import json
import pathlib
import re
import shlex
import sys

import pytest
from hypothesis import given, settings, strategies as st

from balmatch import cli, formats
from balmatch.market import choose
from balmatch.cli import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_PARSE,
    EXIT_PASS,
    EXIT_USAGE,
    main,
)
from conftest import run_python


CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def corpus(name):
    return str(CORPUS / name)


def _outcome_of_read(read, path):
    try:
        return read(path)
    except UnicodeDecodeError as e:
        return type(e), str(e)


def _text_mode_read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


_INVALID_UTF8 = {
    "invalid-at-0": b'\xff{"workers": []}\n',
    "invalid-past-8k": b"{" + b" " * 9000 + b"\xff}\r\n",
    "truncated-multibyte": '{"workers": ["w\u00e9", "w\u20ac'.encode()[:-1],
}


_READ_CASES = {
    "empty": b"",
    "lf": b'{"workers": []}\n',
    "crlf": b"v0: {}\r\n  v1: {w1}\r\n",
    "lone-cr": b"v0: {}\r  v1: {w1}\r",
    "mixed-endings": b"a\r\nb\rc\nd\r\r\n\n\re\r",
    "crlf-across-8k": b"x" * 8191 + b"\r\n" + b"y" * 8192 + b"\r",
    "bom": b"\xef\xbb\xbf{\"workers\": []}\r\n",
    "multibyte": "w\u00e9 \u20ac\r\n\U0001f600\r".encode(),
    **_INVALID_UTF8,
}


class TestReadText:
    """``cli._read_text`` reads what a text-mode read gives, or raises what
    it raises."""

    @pytest.mark.parametrize("name", sorted(_READ_CASES))
    def test_equals_text_mode_read(self, tmp_path, name):
        path = tmp_path / "input"
        path.write_bytes(_READ_CASES[name])
        assert _outcome_of_read(cli._read_text, path) == _outcome_of_read(_text_mode_read, path)

    @pytest.mark.parametrize("name", sorted(_INVALID_UTF8))
    def test_invalid_utf8_market_exits_65_with_the_decoder_message(self, tmp_path, capsys, name):
        path = tmp_path / f"{name}.market"
        path.write_bytes(_INVALID_UTF8[name])
        _, message = _outcome_of_read(_text_mode_read, path)
        assert main(["check", str(path), "--balanced"]) == EXIT_PARSE
        assert capsys.readouterr() == ("", f"parse error: {message}\n")


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_usage_error_leaves_parser_usable(self, capsys):
        assert main(["check", corpus("two_firms.market"), "--bogus"]) == EXIT_USAGE
        assert main(["check", corpus("two_firms.market"), "--balanced"]) == EXIT_PASS

    def test_check_without_flags(self, capsys):
        assert main(["check", corpus("cyclic3.market")]) == EXIT_USAGE

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent.market", "--balanced"]) == EXIT_USAGE

    def test_directory_is_a_usage_error(self, capsys):
        assert main(["check", corpus(""), "--tu"]) == EXIT_USAGE
        argv = ["solve", corpus("two_firms.market"), "--strategy", "pipeline", "--fractional", corpus("")]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_utf8_file_is_a_parse_error(self, tmp_path, capsys):
        for name, argv in (("bad.market", ["check", "--balanced"]), ("bad.tree", ["tree"])):
            bad = tmp_path / name
            bad.write_bytes(b'{"workers": ["w\xff"]}')
            assert main(argv[:1] + [str(bad)] + argv[1:]) == EXIT_PARSE
            assert capsys.readouterr().err.startswith("parse error: ")

    def test_bom_market_is_a_parse_error(self, tmp_path, capsys):
        bom = tmp_path / "bom.market"
        bom.write_bytes(b"\xef\xbb\xbf" + (CORPUS / "two_firms.market").read_bytes())
        assert main(["check", str(bom), "--balanced"]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("parse error: line 1, column 1: Unexpected UTF-8 BOM")

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("bom.json", ["tree", "{}", "--validate", "--permute", "--json"]),
            ("bom.tree", ["tree", "{}", "--validate", "--permute", "--json"]),
            ("bom.frac", ["solve", corpus("two_firms.market"), "--strategy", "pipeline", "--fractional", "{}"]),
        ],
        ids=["json-tree", "tree-outline", "frac"],
    )
    def test_bom_is_a_parse_error_in_every_format(self, tmp_path, capsys, name, argv):
        # the market's rule, json.loads's own message, holds in every format,
        # also where the text would read: as a root vertex named "\ufeffv0",
        # or as a header comment "\ufeff#" that is no longer a comment
        if name == "bom.json":
            text = formats.tree_to_json(formats.parse_tree((CORPUS / "ladder.tree").read_text()))
        else:
            text = (CORPUS / {"bom.tree": "ladder.tree", "bom.frac": "half_half.frac"}[name]).read_text()
        bom = tmp_path / name
        bom.write_text("\ufeff" + text, encoding="utf-8")
        assert main([a.format(bom) for a in argv]) == EXIT_PARSE
        assert capsys.readouterr() == (
            "", "parse error: line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["check", "{bad}"], "no check selected"),
            (["check", "/nonexistent.market"], "no check selected"),
            (["solve", "{bad}", "--strategy", "pipeline"], "pipeline strategy needs --fractional"),
            (["solve", corpus("singleton_clash.market"), "--strategy", "pipeline", "--decompose", "components"],
             "pipeline strategy needs --fractional"),
        ],
        ids=["check-malformed", "check-missing", "pipeline-malformed", "pipeline-decompose"],
    )
    def test_usage_error_comes_before_the_file_is_read(self, tmp_path, capsys, argv, message):
        bad = tmp_path / "bad.market"
        bad.write_text("{not json")
        assert main([a.format(bad=bad) for a in argv]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "level, null, code, message",
        [
            ("1e5000", "0", EXIT_PARSE, "parse error: bad rational in row f1: exponent not accepted: '1e5000'"),
            ("1e10000000", "0", EXIT_PARSE,
             "parse error: bad rational in row f1: exponent not accepted: '1e10000000'"),
            (f"1/{10**2500 - 1}", f"1/{10**2500 + 1}", EXIT_USAGE,
             "error: common denominator has more than 4000 digits"),
            # Fraction reads "_" from 3.11 on and any Unicode digit on every
            # version; the table reads neither
            ("1_0/2_0", "0", EXIT_PARSE, "parse error: bad rational in row f1: Invalid literal for Fraction: '1_0/2_0'"),
            ("\u0661/\u0662", "0", EXIT_PARSE,
             "parse error: bad rational in row f1: Invalid literal for Fraction: '\u0661/\u0662'"),
        ],
        ids=["exponent", "long-exponent", "long-denominator", "underscore", "arabic-indic-digits"],
    )
    def test_fractional_file_ends_without_a_traceback(self, tmp_path, capsys, level, null, code, message):
        market = tmp_path / "one.market"
        market.write_text('{"workers": ["w1"], "firms": {"f1": [["w1"]]}, "worker_prefs": {"w1": ["f1"]}}')
        frac = tmp_path / "one.frac"
        frac.write_text(f"w1\nf1 {level}\nnull {null}\n", encoding="utf-8")
        assert main(["solve", str(market), "--strategy", "pipeline", "--fractional", str(frac)]) == code
        assert capsys.readouterr() == ("", message + "\n")

    @pytest.mark.parametrize(
        "name, text, argv",
        [
            ("we.market", '{"workers": ["w\u00e9"], "firms": {"f1": [["w\u00e9"]]}, "worker_prefs": {"w\u00e9": ["f1"]}}',
             ["solve"]),
            ("we.tree", "r: {}\n  a: {w\u00e9}\n", ["tree", "--validate"]),
            ("we.tree", "r: {}\n  a: {w\u00e9}\n", ["tree", "--matrix"]),
        ],
        ids=["solve", "tree-validate", "tree-matrix"],
    )
    def test_name_stdout_cannot_encode_is_a_usage_error(self, tmp_path, monkeypatch, name, text, argv):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        monkeypatch.setenv("PYTHONIOENCODING", "ascii")
        proc = run_python("-m", "balmatch.cli", argv[0], str(p), *argv[1:])
        assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
        assert re.fullmatch(r"error: 'ascii' codec can't encode character '\\xe9' in position \d+: "
                            r"ordinal not in range\(128\)\n", proc.stderr), proc.stderr
        # --json escapes every name, so the same command prints in full
        proc = run_python("-m", "balmatch.cli", argv[0], str(p), *argv[1:], "--json")
        assert (proc.returncode, proc.stderr) == (EXIT_PASS, "")
        json.loads(proc.stdout)

    def test_negative_cap_is_a_usage_error(self, capsys):
        assert main(["check", corpus("cyclic3.market"), "--tu", "--cap", "-1"]) == EXIT_USAGE
        assert main(["tree", corpus("ladder.tree"), "--matrix", "--cap", "-1"]) == EXIT_USAGE
        assert main(["check", corpus("cyclic3.market"), "--tu", "--cap", "0"]) == EXIT_INCONCLUSIVE

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.market"
        bad.write_text("{not json")
        assert main(["check", str(bad), "--balanced"]) == EXIT_PARSE

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            '{"workers": "AB", "firms": {}, "worker_prefs": {}}',
            '{"workers": ["w1"], "firms": {"f1": "w1"}, "worker_prefs": {"w1": []}}',
            '{"workers": ["w1"], "firms": {"f1": [[["w1"]]]}, "worker_prefs": {"w1": []}}',
            '{"workers": ["w1"], "firms": {"A": [["w1"]], "B": [["w1"]]}, "worker_prefs": {"w1": "AB"}}',
        ],
    )
    def test_mistyped_market_is_a_parse_error(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.market"
        bad.write_text(text)
        assert main(["check", str(bad), "--complementary"]) == EXIT_PARSE

    def test_worker_repeated_in_a_chain_set_is_a_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.market"
        bad.write_text('{"workers": ["w1"], "firms": {"f1": [["w1", "w1"]]}, "worker_prefs": {"w1": []}}')
        assert main(["solve", str(bad)]) == EXIT_PARSE
        assert "duplicate worker in a set in the chain of firm f1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, text, key",
        [
            # a firm key: json.loads would keep the last chain
            ("bad.market", '{"workers": ["w1"], "firms": {"f1": [["w1"]], "f1": [["w9"]]}, "worker_prefs": {"w1": []}}', "f1"),
            # a worker list key, and a top-level key
            ("bad.market", '{"workers": ["w1"], "firms": {}, "worker_prefs": {"w1": [], "w1": []}}', "w1"),
            ("bad.market", '{"workers": ["w1"], "workers": [], "firms": {}, "worker_prefs": {}}', "workers"),
            # before every other error: the market below also has no firms key
            ("bad.market", '{"workers": [1], "worker_prefs": {"w1": [], "w1": 0}}', "w1"),
            ("bad.json", '{"name": "v0", "workers": [], "children": [{"name": "v1", "name": "v2"}]}', "name"),
        ],
    )
    def test_repeated_json_key_is_a_parse_error(self, tmp_path, capsys, name, text, key):
        bad = tmp_path / name
        bad.write_text(text)
        argv = ["check", str(bad), "--balanced"] if name.endswith(".market") else ["tree", str(bad)]
        assert main(argv) == EXIT_PARSE
        assert capsys.readouterr() == ("", f"parse error: duplicate key in a JSON object: {key}\n")

    @pytest.mark.parametrize("argv", [["check", "--balanced"], ["solve"]])
    def test_firm_named_null_is_a_parse_error(self, tmp_path, capsys, argv):
        bad = tmp_path / "null.market"
        bad.write_text(
            '{"workers": ["w1", "w2"], "firms": {"null": [["w1", "w2"]], "f2": [["w1"]]},'
            ' "worker_prefs": {"w1": ["null", "f2"], "w2": ["null"]}}'
        )
        assert main([argv[0], str(bad), *argv[1:]]) == EXIT_PARSE
        assert capsys.readouterr() == ("", "parse error: firm name null is reserved for the unmatched\n")

    @pytest.mark.parametrize("argv", [["check", "--balanced"], ["solve"]])
    @pytest.mark.parametrize(
        "firms, workers, bad",
        [
            (["f 1", "f2"], ["w1", "w2"], "firm name 'f 1'"),
            (["f1"], ["x,y", "z"], "worker name 'x,y'"),
            (["f1"], ["#w", "w2"], "worker name '#w'"),
            (["#f", "f2"], ["w1"], "firm name '#f'"),
            (["f1"], ["w1", ""], "worker name ''"),
        ],
        ids=["space-in-firm", "comma-in-worker", "hash-worker", "hash-firm", "empty-worker"],
    )
    def test_names_the_matching_cannot_carry_are_parse_errors(self, tmp_path, capsys, argv, firms, workers, bad):
        path = tmp_path / "bad.market"
        path.write_text(json.dumps({
            "workers": workers,
            "firms": {f: [workers] for f in firms},
            "worker_prefs": {w: firms for w in workers},
        }))
        assert main([argv[0], str(path), *argv[1:]]) == EXIT_PARSE
        assert capsys.readouterr() == ("", f"parse error: {bad} cannot be written in a matching or a fractional table\n")

    @pytest.mark.parametrize(
        "tree",
        [
            {"workers": [], "children": []},
            {"name": "v0", "workers": [], "children": ["v1"]},
            {"name": "v0", "workers": [], "children": {"name": "v1"}},
            # a worker name the outline cannot carry: --permute would print
            # a: {x,y}, which reads back as workers x and y
            {"name": "r", "workers": [], "children": [
                {"name": "a", "workers": ["x,y"], "children": []},
                {"name": "b", "workers": ["x,y", "z"], "children": []},
            ]},
        ],
    )
    def test_malformed_json_tree_is_a_parse_error(self, tmp_path, capsys, tree):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(tree))
        assert main(["tree", str(bad), "--validate"]) == EXIT_PARSE
        assert main(["tree", str(bad), "--permute"]) == EXIT_PARSE


class TestCheck:
    def test_balanced_pass(self, capsys):
        assert main(["check", corpus("two_firms.market"), "--balanced"]) == EXIT_PASS
        assert "PASS" in capsys.readouterr().out

    def test_balanced_fail_with_witness(self, capsys):
        code = main(["check", corpus("cyclic3.market"), "--balanced"])
        assert code == EXIT_FAIL
        out = capsys.readouterr().out
        assert "FAIL" in out and "witness" in out

    def test_tu_flag(self, capsys):
        assert main(["check", corpus("triangle_tu.market"), "--tu"]) == EXIT_PASS
        assert main(["check", corpus("fan.market"), "--tu"]) == EXIT_FAIL

    def test_inconclusive_cap(self, capsys):
        code = main(["check", corpus("cyclic3.market"), "--balanced", "--cap", "2"])
        assert code == EXIT_INCONCLUSIVE

    def test_odd_cycles(self, capsys):
        assert main(["check", corpus("fan.market"), "--odd-cycles"]) == EXIT_PASS
        assert main(["check", corpus("cyclic3.market"), "--odd-cycles"]) == EXIT_FAIL
        assert "odd cycle" in capsys.readouterr().out

    def test_firm_worker(self, capsys):
        code = main(["check", corpus("singleton_clash.market"), "--firm-worker"])
        assert code == EXIT_FAIL

    def test_acceptable_set_matrix_built_once(self, monkeypatch, capsys):
        # the three matrix flags and --odd-cycles read one acceptable-set matrix
        calls = []
        real = sys.modules["balmatch.matrices"].matrix_of_sets
        for name, mod in list(sys.modules.items()):
            if (name == "balmatch" or name.startswith("balmatch.")) and getattr(
                mod, "matrix_of_sets", None
            ) is real:
                monkeypatch.setattr(mod, "matrix_of_sets", lambda *a: calls.append(a) or real(*a))
        flags = ["--balanced", "--tu", "--totally-balanced", "--odd-cycles"]
        assert main(["check", corpus("cyclic3.market"), *flags]) == EXIT_FAIL
        assert len(calls) == 1

    def test_classification_flags(self, capsys):
        assert (
            main(["check", corpus("two_firms.market"), "--complementary", "--additive"])
            == EXIT_PASS
        )
        assert main(["check", corpus("additive.market"), "--complementary"]) == EXIT_FAIL
        assert main(["check", corpus("additive.market"), "--additive"]) == EXIT_PASS

    def test_complementary_fail_names_a_witness(self, capsys):
        path = corpus("additive.market")
        assert main(["check", path, "--complementary", "--json"]) == EXIT_FAIL
        detail = json.loads(capsys.readouterr().out)["complementary"]["detail"]
        m = formats.parse_market(pathlib.Path(path).read_text())
        pattern = r"(\w+): choose\(\{([\w,]*)\}\) is not a subset of choose\(\{\2\}\+(\w+)\)"
        named = [re.fullmatch(pattern, line) for line in detail.splitlines()]
        assert [g.group(1) for g in named] == ["f1", "f2"]
        for g in named:
            f, s, x = g.group(1), frozenset(g.group(2).split(",")), g.group(3)
            assert not choose(f, s, m) <= choose(f, s | {x}, m)

    def test_flags_do_not_carry_over_between_commands(self, capsys):
        path = corpus("two_firms.market")
        assert main(["check", path, "--balanced", "--json"]) == EXIT_PASS
        assert list(json.loads(capsys.readouterr().out)) == ["balanced"]
        assert main(["check", path, "--tu", "--json"]) == EXIT_PASS
        assert list(json.loads(capsys.readouterr().out)) == ["totally-unimodular"]

    def test_json_output(self, capsys):
        code = main(["check", corpus("two_firms.market"), "--balanced", "--json"])
        assert code == EXIT_PASS
        payload = json.loads(capsys.readouterr().out)
        assert payload["balanced"]["verdict"] == "PASS"


class TestSolve:
    def test_direct_found(self, capsys):
        assert main(["solve", corpus("two_firms.market")]) == EXIT_PASS
        out = capsys.readouterr().out
        assert "w1,w2,w3" in out

    def test_direct_none(self, capsys):
        assert main(["solve", corpus("cyclic3.market")]) == EXIT_FAIL
        assert "NONE" in capsys.readouterr().out

    def test_json_matching(self, capsys):
        assert main(["solve", corpus("two_firms.market"), "--json"]) == EXIT_PASS
        payload = json.loads(capsys.readouterr().out)
        assert payload["matching"] == {"w1": "f1", "w2": "f1", "w3": "f1", "w4": None}
        assert payload["certificates"]["acceptable_sets_balanced"] == "PASS"

    def test_decompose_sets(self, capsys):
        assert main(["solve", corpus("two_firms.market"), "--decompose", "sets", "--json"]) == EXIT_PASS
        payload = json.loads(capsys.readouterr().out)
        assert payload["matching"]["w1"] == "f1#1"

    def test_pipeline(self, capsys):
        code = main(
            [
                "solve",
                corpus("two_firms.market"),
                "--strategy",
                "pipeline",
                "--fractional",
                corpus("half_half.frac"),
                "--json",
            ]
        )
        assert code == EXIT_PASS
        payload = json.loads(capsys.readouterr().out)
        assert payload["matching"] == {"w1": "f1", "w2": "f1", "w3": "f1", "w4": None}
        assert payload["certificates"]["constraint_system_balanced"] == "PASS"

    @pytest.mark.parametrize(
        "strategy",
        [[], ["--strategy", "pipeline", "--fractional", corpus("half_half.frac")]],
        ids=["direct", "pipeline"],
    )
    def test_certificates_built_once(self, monkeypatch, capsys, strategy):
        calls = []
        real = cli.market_certificates
        monkeypatch.setattr(cli, "market_certificates", lambda m: calls.append(m) or real(m))
        assert main(["solve", corpus("two_firms.market"), *strategy]) == EXIT_PASS
        assert len(calls) == 1

    def test_direct_search_deeper_than_recursion_limit(self, tmp_path, capsys):
        # 1,200 firms: fi's only set is {wi}, and wi lists only fi
        n = 1200
        market = tmp_path / "singletons.market"
        market.write_text(json.dumps({
            "workers": [f"w{i}" for i in range(1, n + 1)],
            "firms": {f"f{i}": [[f"w{i}"]] for i in range(1, n + 1)},
            "worker_prefs": {f"w{i}": [f"f{i}"] for i in range(1, n + 1)},
        }))
        assert main(["solve", str(market), "--json"]) == EXIT_PASS
        payload = json.loads(capsys.readouterr().out)
        assert payload["matching"] == {f"w{i}": f"f{i}" for i in range(1, n + 1)}

    @pytest.mark.parametrize(
        "firms, message",
        [
            ({"f1": []}, "firm f1 has no acceptable set"),
            ({"f": [["w1"], ["w2"]], "f#1": [["w1"]]}, "decomposed firm name collides: f#1"),
        ],
        ids=["empty-chain", "name-collision"],
    )
    def test_set_decomposition_refusals_are_usage_errors(self, tmp_path, capsys, firms, message):
        p = tmp_path / "bad.market"
        p.write_text(json.dumps({"workers": ["w1", "w2"], "firms": firms, "worker_prefs": {"w1": [], "w2": []}}))
        assert main(["solve", str(p), "--decompose", "sets"]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_fractional_table_missing_a_firm_row_is_a_parse_error(self, tmp_path, capsys):
        frac = tmp_path / "no_f2.frac"
        lines = (CORPUS / "half_half.frac").read_text().splitlines(keepends=True)
        frac.write_text("".join(ln for ln in lines if not ln.startswith("f2")))
        argv = ["solve", corpus("two_firms.market"), "--strategy", "pipeline", "--fractional", str(frac)]
        assert main(argv) == EXIT_PARSE
        assert capsys.readouterr() == (
            "", "parse error: row labels ['f1#1', 'f1#2', 'f1#3'] do not match firms ['f1#1', 'f1#2', 'f1#3', 'f2']\n"
        )

    def test_pipeline_needs_fractional(self, capsys):
        code = main(["solve", corpus("two_firms.market"), "--strategy", "pipeline"])
        assert code == EXIT_USAGE

    def test_fractional_needs_pipeline(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.frac")
        code = main(["solve", corpus("two_firms.market"), "--fractional", missing])
        assert code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --fractional needs --strategy pipeline\n"

    def test_pipeline_names_first_unacceptable_worker_in_market_order(self, tmp_path):
        # f hires all four workers at level 1 and none of them lists f; the
        # error names w1 whatever the hash seed, so it runs in fresh processes
        market = tmp_path / "shunned.market"
        market.write_text(json.dumps({
            "workers": ["w1", "w2", "w3", "w4"],
            "firms": {"f": [["w1", "w2", "w3", "w4"]]},
            "worker_prefs": {"w1": [], "w2": [], "w3": [], "w4": []},
        }))
        frac = tmp_path / "full.frac"
        frac.write_text("w1 w2 w3 w4\nf 1 1 1 1\nnull 0 0 0 0\n")
        argv = ["solve", str(market), "--strategy", "pipeline", "--fractional", str(frac)]
        errors = set()
        for seed in range(4):
            proc = run_python("-m", "balmatch.cli", *argv, hash_seed=seed)
            assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
            errors.add(proc.stderr)
        assert errors == {
            "error: fractional input is not stable: "
            "type w1 is matched to a firm it finds unacceptable\n"
        }

    def test_pipeline_over_full_firm_is_a_usage_error(self, tmp_path, capsys):
        # f#1 and f#2 at level 1 puts f's levels at 2: f holds both sets
        market = tmp_path / "pair.market"
        market.write_text(json.dumps({
            "workers": ["w1", "w2"],
            "firms": {"f": [["w1"], ["w2"]]},
            "worker_prefs": {"w1": ["f"], "w2": ["f"]},
        }))
        frac = tmp_path / "both.frac"
        frac.write_text("w1 w2\nf#1 1 0\nf#2 0 1\nnull 0 0\n")
        argv = ["solve", str(market), "--strategy", "pipeline", "--fractional", str(frac)]
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: firm f levels sum to 2, above 1\n"

    def test_pipeline_accepts_a_stable_matching_with_an_idle_worse_set(self, tmp_path, capsys):
        # f holds {w1}, its first set; its idle second set {w2, w3} is
        # dominated at f's row although both of its workers are unmatched
        market = tmp_path / "sibling.market"
        market.write_text(json.dumps({
            "workers": ["w1", "w2", "w3"],
            "firms": {"f": [["w1"], ["w2", "w3"]]},
            "worker_prefs": {"w1": ["f"], "w2": ["f"], "w3": ["f"]},
        }))
        frac = tmp_path / "first.frac"
        frac.write_text("w1 w2 w3\nf#1 1 0 0\nf#2 0 0 0\nnull 0 1 1\n")
        assert main(["solve", str(market), "--json"]) == EXIT_PASS
        direct = json.loads(capsys.readouterr().out)["matching"]
        argv = ["solve", str(market), "--strategy", "pipeline", "--fractional", str(frac), "--json"]
        assert main(argv) == EXIT_PASS
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["matching"] == direct == {"w1": "f", "w2": None, "w3": None}


class TestTree:
    def test_validate_pass(self, capsys):
        assert main(["tree", corpus("ladder.tree")]) == EXIT_PASS
        assert "engagements" in capsys.readouterr().out

    def test_validate_fail(self, capsys):
        assert main(["tree", corpus("triangle.tree")]) == EXIT_FAIL
        assert "w1" in capsys.readouterr().out

    def test_matrix_flag(self, capsys):
        assert main(["tree", corpus("ladder.tree"), "--matrix"]) == EXIT_PASS

    def test_permute_flag(self, capsys):
        assert main(["tree", corpus("triangle.tree"), "--permute"]) == EXIT_FAIL
        assert main(["tree", corpus("nested.tree"), "--permute"]) == EXIT_PASS

    @staticmethod
    def _wide_tree(tmp_path) -> str:
        # seven children under the root; worker x engages v2 and v5
        lines = ["v0: {}"] + [
            f"  v{i}: {{w{i}{',x' if i in (2, 5) else ''}}}" for i in range(1, 8)
        ]
        p = tmp_path / "wide.tree"
        p.write_text("\n".join(lines) + "\n")
        return str(p)

    def test_permute_over_six_children_is_a_usage_error(self, tmp_path, capsys):
        assert main(["tree", self._wide_tree(tmp_path), "--permute"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "more than 6 children" in err

    def test_usage_error_leaves_no_partial_report(self, tmp_path, capsys):
        argv = ["tree", self._wide_tree(tmp_path), "--validate", "--permute"]
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert "more than 6 children" in err

    def test_matrix_of_a_deep_path_prints_quadratic_text(self, tmp_path, capsys):
        # each level adds one worker; columns are labelled by vertex name, so
        # the text grows as levels squared, not as levels cubed
        levels = 200
        lines = ["v0: {}"] + [
            "  " * k + f"v{k}: {{{','.join(f'w{i}' for i in range(1, k + 1))}}}" for k in range(1, levels + 1)
        ]
        p = tmp_path / "path.tree"
        p.write_text("\n".join(lines) + "\n")
        assert main(["tree", str(p), "--matrix", "--cap", str(levels)]) == EXIT_PASS
        out = capsys.readouterr().out
        assert out.splitlines()[2].split() == [f"v{k}" for k in range(1, levels + 1)]
        assert len(out) < 8 * levels**2

    def test_json_tree_nested_past_the_json_limit_is_a_parse_error(self, tmp_path, capsys):
        # few workers per level keep the file small; it is refused while
        # parsing, before any tree rule is checked
        levels = 6000
        text = "".join(f'{{"name":"v{k}","workers":["w{k}"],"children":[' for k in range(levels))
        p = tmp_path / "deep.json"
        p.write_text(text + "]}" * levels)
        assert main(["tree", str(p), "--matrix"]) == EXIT_PARSE
        assert capsys.readouterr() == ("", "parse error: JSON nested too deeply\n")

    def test_json_tree_input(self, tmp_path, capsys):
        t = formats.parse_tree((__import__("pathlib").Path(corpus("ladder.tree"))).read_text())
        p = tmp_path / "ladder.json"
        p.write_text(formats.tree_to_json(t))
        assert main(["tree", str(p), "--validate", "--json"]) == EXIT_PASS
        payload = json.loads(capsys.readouterr().out)
        assert payload["neighbour-condition"]["verdict"] == "PASS"

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("indented.tree", "  a: {}\n", "root must be unindented"),
            ("repeat.tree", "r: {}\n  a: {w1}\n  a: {w2}\n", "duplicate vertex: a"),
            ("flat.tree", "r: {}\n  a: {w1}\n    b: {w1}\n", "upgrade a->b must strictly enlarge the worker set"),
            ("repeat.json", json.dumps({"name": "a", "workers": [], "children": [
                {"name": "a", "workers": ["w1"], "children": []},
            ]}), "duplicate vertex: a"),
        ],
        ids=["indented-root", "repeated-vertex", "upgrade-adds-no-worker", "json-repeated-vertex"],
    )
    def test_malformed_tree_is_a_parse_error(self, tmp_path, capsys, name, text, message):
        p = tmp_path / name
        p.write_text(text)
        assert main(["tree", str(p)]) == EXIT_PARSE
        assert capsys.readouterr() == ("", f"parse error: {message}\n")

    def test_permute_fails_when_a_worker_leaves_two_vertices(self, tmp_path, capsys):
        # w2's upgrades, a->b and r->c, leave two vertices in any child order
        p = tmp_path / "split.tree"
        p.write_text("r: {}\n  a: {w1}\n    b: {w1,w2}\n  c: {w2}\n")
        assert main(["tree", str(p), "--permute"]) == EXIT_FAIL
        assert "no ordering passes" in capsys.readouterr().out


class TestReportOrderAndText:
    """Exact output of every report type: reports come in table order
    whatever the flag order, and FAIL outranks INCONCLUSIVE in the exit code."""

    CHECK_ARGV = [
        "check", corpus("cyclic3.market"), "--additive", "--complementary", "--firm-worker",
        "--odd-cycles", "--totally-balanced", "--tu", "--balanced", "--cap", "2",
    ]
    CHECK_TEXT = """\
[balanced]
balanced: INCONCLUSIVE
reduced matrix is 3x3, cap is 2
[totally-unimodular]
totally unimodular: INCONCLUSIVE
matrix is 3x3, cap is 2
[totally-balanced]
totally balanced: INCONCLUSIVE
reduced matrix is 3x3, cap is 2
[odd-cycles]
FAIL
odd cycle: (w1, {w1,w2}, w2, {w2,w3}, w3, {w1,w3})
[firm-worker]
FAIL
odd cycle: (w1, f1:{w1,w2}, w2, f2:{w2,w3}, w3, f3:{w1,w3})
[complementary]
PASS
[additive]
PASS
"""
    CHECK_JSON = {
        "balanced": {
            "property": "balanced", "verdict": "INCONCLUSIVE", "witness_rows": None,
            "witness_cols": None, "determinant": None, "detail": "reduced matrix is 3x3, cap is 2",
        },
        "totally-unimodular": {
            "property": "totally unimodular", "verdict": "INCONCLUSIVE", "witness_rows": None,
            "witness_cols": None, "determinant": None, "detail": "matrix is 3x3, cap is 2",
        },
        "totally-balanced": {
            "property": "totally balanced", "verdict": "INCONCLUSIVE", "witness_rows": None,
            "witness_cols": None, "determinant": None, "detail": "reduced matrix is 3x3, cap is 2",
        },
        "odd-cycles": {
            "verdict": "FAIL", "cycle_vertices": ["w1", "w2", "w3"],
            "cycle_edges": ["{w1,w2}", "{w2,w3}", "{w1,w3}"],
        },
        "firm-worker": {
            "verdict": "FAIL", "cycle_vertices": ["w1", "w2", "w3"],
            "cycle_edges": ["f1:{w1,w2}", "f2:{w2,w3}", "f3:{w1,w3}"],
        },
        "complementary": {"verdict": "PASS", "detail": ""},
        "additive": {"verdict": "PASS", "detail": ""},
    }
    TREE_ARGV = ["tree", corpus("triangle.tree"), "--permute", "--matrix", "--validate"]
    TREE_TEXT = """\
# engagements:
#   w1: v0->v1, v0->v3
#   w2: v0->v1, v0->v2
#   w3: v0->v2, v0->v3
[neighbour-condition]
FAIL: worker w1: upgrades v0->v1 and v0->v3 are separated by v0->v2
[worker-set-matrix]
FAIL
    v1  v2  v3
w1   1   0   1
w2   1   1   0
w3   0   1   1
[permutation-search]
FAIL
no ordering passes
"""
    TREE_JSON = {
        "neighbour-condition": {
            "verdict": "FAIL", "worker": "w1",
            "detail": "upgrades v0->v1 and v0->v3 are separated by v0->v2",
        },
        "worker-set-matrix": {
            "verdict": "FAIL",
            "detail": "    v1  v2  v3\nw1   1   0   1\nw2   1   1   0\nw3   0   1   1",
        },
        "permutation-search": {"verdict": "FAIL", "detail": "no ordering passes"},
    }

    @pytest.mark.parametrize("which", ["CHECK", "TREE"])
    def test_text(self, capsys, which):
        assert main(getattr(self, which + "_ARGV")) == EXIT_FAIL
        assert capsys.readouterr().out == getattr(self, which + "_TEXT")

    @pytest.mark.parametrize("which", ["CHECK", "TREE"])
    def test_json(self, capsys, which):
        assert main(getattr(self, which + "_ARGV") + ["--json"]) == EXIT_FAIL
        assert capsys.readouterr().out == json.dumps(getattr(self, which + "_JSON"), indent=2) + "\n"


class TestJsonWriter:
    FAIL_CHECK = """\
{
  "balanced": {
    "property": "balanced",
    "verdict": "FAIL",
    "witness_rows": [
      0,
      1,
      2
    ],
    "witness_cols": [
      0,
      1,
      2
    ],
    "determinant": null,
    "detail": "odd-order submatrix with two 1s per row and column, order 3"
  },
  "totally-unimodular": {
    "property": "totally unimodular",
    "verdict": "FAIL",
    "witness_rows": [
      0,
      1,
      2
    ],
    "witness_cols": [
      0,
      1,
      2
    ],
    "determinant": 2,
    "detail": "submatrix of order 3 has determinant 2"
  }
}
"""
    NONE_SOLVE = """\
{
  "matching": null,
  "certificates": {
    "complementary": "True",
    "additive": "True",
    "acceptable_sets_balanced": "FAIL",
    "primitive_sets_balanced": "FAIL"
  }
}
"""

    def test_fail_check(self, capsys):
        assert main(["check", corpus("cyclic3.market"), "--balanced", "--tu", "--json"]) == EXIT_FAIL
        assert capsys.readouterr() == (self.FAIL_CHECK, "")

    def test_none_solve(self, capsys):
        assert main(["solve", corpus("cyclic3.market"), "--json"]) == EXIT_FAIL
        assert capsys.readouterr() == (self.NONE_SOLVE, "")

    def test_other_values_are_left_to_json_dumps(self):
        for x in (True, 1.5, (1, "a"), {"k": [False, 2.0]}, {1: None}, {"k": {"n": (1,)}}, []):
            assert cli._json(x) == json.dumps(x, indent=2), x


# quotes, backslashes, control characters, non-ASCII, a lone surrogate, non-BMP
_JSON_TEXT = st.text(st.sampled_from('ab"\\/\b\f\n\r\t\x00\x1f\x7f é€\u2028\ud7ff\ud800\U0001F600\U00010000'), max_size=8)
_JSON_VALUES = st.recursive(
    st.none() | st.integers(-(2**70), 2**70) | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=20,
)


@given(_JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_json_writer_equals_json_dumps(x):
    assert cli._json(x) == json.dumps(x, indent=2)


ALL_CHECKS =["--balanced", "--tu", "--totally-balanced", "--odd-cycles", "--firm-worker", "--complementary", "--additive"]
LADDER_JSON = formats.tree_to_json(formats.parse_tree((CORPUS / "ladder.tree").read_text()))
FUZZ_SOURCES = [
    (p.suffix, p.read_bytes()) for p in sorted(CORPUS.iterdir()) if p.suffix in (".market", ".tree", ".frac")
] + [(".json", LADDER_JSON.encode())]


def _fuzz_argvs(path, suffix, as_json):
    tail = ["--json"] if as_json else []
    if suffix == ".market":
        return [["check", path, *ALL_CHECKS, *tail], ["solve", path, *tail]]
    if suffix == ".frac":
        return [["solve", corpus("two_firms.market"), "--strategy", "pipeline", "--fractional", path, *tail]]
    return [["tree", path, "--validate", "--matrix", "--permute", *tail]]


@st.composite
def fuzz_inputs(draw):
    """Random bytes, or a corpus file with a few bytes flipped and maybe truncated."""
    if draw(st.booleans()):
        return draw(st.sampled_from([".market", ".tree", ".json", ".frac"])), draw(st.binary(max_size=300))
    suffix, data = draw(st.sampled_from(FUZZ_SOURCES))
    data = bytearray(data)
    for _ in range(draw(st.integers(0, 3))):
        data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
    if draw(st.booleans()):
        data = data[: draw(st.integers(0, len(data)))]
    return suffix, bytes(data)


@given(fuzz_inputs(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_cli_exit_codes_are_total(tmp_path_factory, case, as_json):
    suffix, data = case
    path = tmp_path_factory.mktemp("fuzz") / ("input" + suffix)
    path.write_bytes(data)
    for argv in _fuzz_argvs(str(path), suffix, as_json):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (EXIT_PASS, EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_USAGE, EXIT_PARSE), argv


README = CORPUS.parent / "README.md"


def _readme_argvs():
    """The exit code and argv of every ``balmatch ...`` example in the
    README: the code its ``# exits N`` comment states, or 0 with no comment."""
    text = README.read_text().replace("\\\n", " ")
    examples = []
    for line in text.splitlines():
        if line.startswith("balmatch "):
            command, _, comment = line.partition("#")
            code = int(re.match(r" *exits (\d+)", comment)[1]) if comment else 0
            examples.append((code, shlex.split(command)[1:]))
    return examples


BENCH_ARGVS = (
    # the argv forms the benchmark sends, one per flag or option value
    [["check", "a.market", flag, "--json"] for flag, _, _ in cli.CHECKS]
    + [["tree", "a.tree", mode, "--json"] for mode, _, _ in cli.TREE_MODES]
    + [["solve", "a.market", "--json"]]
    + [["solve", "a.market", "--json", "--decompose", how] for how in ("sets", "components")]
    + [["solve", "a.market", "--strategy", "pipeline", "--fractional", "b.frac", "--json"]]
)


def _same_as_argparse(argv):
    ours = cli._read_argv(argv)
    if ours is not None:
        assert vars(ours) == vars(cli.build_parser().parse_args(argv)), argv
    return ours


class TestReadArgv:
    """``_read_argv`` returns argparse's namespace, or None to hand the argv
    to argparse."""

    def test_readme_and_bench_forms_take_the_fast_path(self):
        readme = _readme_argvs()
        assert len(readme) >= 9
        for argv in [argv for _, argv in readme] + BENCH_ARGVS:
            assert _same_as_argparse(argv) is not None, argv

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate", "a.market"],
            ["--json", "check", "a.market", "--balanced"],
            ["check", "-h"],
            ["check", "a.market", "--help"],
            ["check", "a.market", "--bal"],
            ["check", "a.market", "--balanced", "--cap=3"],
            ["check", "a.market", "--", "--balanced"],
            ["check", "-", "--balanced"],
            ["check", "a.market", "--cap", "-1"],
            ["check", "a.market", "--cap", "²"],
            ["check", "a.market", "b.market"],
            ["check", "--balanced"],
            ["solve", "a.market", "--strategy"],
            ["solve", "a.market", "--strategy", "scarf"],
            ["solve", "a.market", "--fractional", "--json"],
            ["solve", "a.market", "--balanced"],
            ["tree", "a.tree", "--decompose", "sets"],
        ],
    )
    def test_refused_argv_goes_to_argparse(self, argv):
        assert cli._read_argv(argv) is None

    def test_last_value_wins_and_flags_go_anywhere(self):
        argv = ["check", "--cap", "3", "--tu", "a.market", "--cap", " 4", "--tu"]
        ns = _same_as_argparse(argv)
        assert (ns.path, ns.cap, ns.tu, ns.balanced) == ("a.market", 4, True, False)

    def test_main_reads_sys_argv_on_both_paths(self, monkeypatch, capsys):
        argv = ["balmatch", "check", corpus("two_firms.market"), "--balanced", "--json"]
        monkeypatch.setattr(sys, "argv", argv)
        assert cli._read_argv(argv[1:]) is not None
        assert main() == EXIT_PASS
        assert list(json.loads(capsys.readouterr().out)) == ["balanced"]
        monkeypatch.setattr(sys, "argv", ["balmatch", "check", "--help"])
        assert cli._read_argv(["check", "--help"]) is None
        assert main() == EXIT_PASS
        assert capsys.readouterr().out.startswith("usage: balmatch check ")


ARGV_FLAGS = {flag for _, _, options in cli.COMMANDS.values() for flag in options}
ARGV_VALUES = {"-1", "+3", " 4", "٣", "²", "1_0", "0x1", "0", "12", "direct", "pipeline", "sets", "components"}
ARGV_PATHS = ["a.market", "b.frac"]
ARGV_TOKENS = sorted(
    set(cli.COMMANDS) | ARGV_FLAGS | ARGV_VALUES | set(ARGV_PATHS)
    | {"--bal", "--t", "--to", "--c", "--str", "--frac", "--dec", "--js", "--val", "--m"}
    | {"--cap=3", "-h", "--help", "--", "-", "", "-a b"}
)
COMMAND_TOKENS = sorted(ARGV_FLAGS | ARGV_VALUES | {""})


@given(
    st.one_of(
        st.lists(st.sampled_from(ARGV_TOKENS), max_size=7),
        # a command and a path among flags and values: argvs the reader often accepts
        st.builds(
            lambda command, path, rest, at: [command, *rest[:at], path, *rest[at:]],
            st.sampled_from(sorted(cli.COMMANDS)),
            st.sampled_from(ARGV_PATHS),
            st.lists(st.sampled_from(COMMAND_TOKENS), max_size=6),
            st.integers(0, 6),
        ),
        st.builds(
            lambda command, rest: [command, *rest],
            st.sampled_from(sorted(cli.COMMANDS)),
            st.lists(st.sampled_from(ARGV_TOKENS), max_size=7),
        ),
    )
)
@settings(max_examples=1500, deadline=None)
def test_read_argv_equals_argparse(argv):
    _same_as_argparse(argv)
