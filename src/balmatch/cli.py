"""Command-line surface: certify markets, solve them, validate trees.

Exit codes: 0 pass/found, 1 fail with witness / no stable matching,
2 inconclusive at the size cap, 64 usage error, 65 parse error.

``check`` and ``tree`` are each driven by one table (``CHECKS``,
``TREE_MODES``) of flag, report name and report builder. Every report has
``verdict``, ``render()`` and ``as_dict()``, and ``--json`` encodes all of
a command's reports once, through ``_json``: the text of ``json.dumps``
with an indent, written with one type test per value.

``COMMANDS`` is the option table: per command, each flag with its
validator and default, built from ``CHECKS``, ``TREE_MODES``, ``--cap``,
``--json`` and solve's own flags. ``build_parser`` builds the argparse
subparsers from it, and ``_read_argv`` reads an argv of exact flags and
plain values from it directly, into a namespace filled by one update.
``main`` calls argparse only for what the reader refuses (help,
abbreviations, ``--flag=value``, usage errors), so argparse's help,
messages and exit codes are unchanged. Every input file is read by
``_read_text``, unbuffered and in one read.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from typing import Optional

from . import formats
from .fractional import FractionalError, IntegralExtractionError, round_fractional
from .hypergraphs import (
    acceptable_set_hypergraph,
    check_hypergraph_balanced,
    firm_worker_hypergraph,
)
from .market import Market, MarketError
from .matrices import DEFAULT_CAP, FAIL, INCONCLUSIVE, PASS, is_balanced, is_totally_balanced, is_totally_unimodular
from .prefs import complementarity_witness, decompose_by_components, decompose_by_sets, is_additive
from .solve import market_certificates, solve
from .techtree import TreeError, check_neighbour_condition, engagements, find_neighbour_ordering, worker_set_matrix

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_PARSE = 65


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@dataclass(frozen=True)
class _Plain:
    """A verdict with free text, for reports that carry no certificate."""

    verdict: str
    detail: str = ""

    def render(self) -> str:
        return self.verdict if not self.detail else f"{self.verdict}\n{self.detail}"

    def as_dict(self) -> dict:
        return {"verdict": self.verdict, "detail": self.detail}


_string = json.encoder.encode_basestring_ascii


def _json(x, pad: str = "\n") -> str:
    """The text of ``json.dumps(x, indent=2)``, nested after ``pad``. The
    reports' dicts with string keys, lists, strings, ints and None are
    written here, strings by the C encoder (``json.dumps`` with an indent
    encodes in Python); any other value is left to ``json.dumps``. The type
    is read once, and a dict's string and None values are written inline."""
    t = type(x)
    if t is str:
        return _string(x)
    if x is None:
        return "null"
    if t is int:
        return int.__repr__(x)
    inner = pad + "  "
    if t is dict and x:
        parts = []
        for k, v in x.items():
            if type(k) is not str:
                break
            parts.append(inner + _string(k) + (
                ": " + _string(v) if type(v) is str else ": null" if v is None else ": " + _json(v, inner)
            ))
        else:
            return "{" + ",".join(parts) + pad + "}"
    elif t is list and x:
        return "[" + ",".join(inner + _json(v, inner) for v in x) + pad + "]"
    return json.dumps(x, indent=2).replace("\n", pad)


def _emit(reports: list[tuple[str, object]], as_json: bool) -> int:
    """Print the reports, as one JSON object or as ``[name]`` blocks, and
    return the exit code: FAIL before INCONCLUSIVE before PASS."""
    if as_json:
        print(_json({name: cert.as_dict() for name, cert in reports}))
    else:
        for name, cert in reports:
            print(f"[{name}]")
            print(cert.render())
    verdicts = {cert.verdict for _, cert in reports}
    if FAIL in verdicts:
        return EXIT_FAIL
    if INCONCLUSIVE in verdicts:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


def _complementary(m: Market) -> _Plain:
    lines = [
        _witness_line(f, m, *w)
        for f in m.firms
        if (w := complementarity_witness(f, m)) is not None
    ]
    return _Plain(PASS if not lines else FAIL, "\n".join(lines))


def _witness_line(f: str, m: Market, s: frozenset[str], x: str) -> str:
    """One line naming f's witness, workers in market order, in ASCII so any
    terminal encoding can print it."""
    inner = ",".join(w for w in m.workers if w in s)
    return f"{f}: choose({{{inner}}}) is not a subset of choose({{{inner}}}+{x})"


def _additive(m: Market) -> _Plain:
    bad = [f for f in m.firms if not is_additive(f, m)]
    return _Plain(PASS, "") if not bad else _Plain(FAIL, f"non-additive firms: {', '.join(bad)}")


# (flag, report name, builder) in report order. Builders take the market, a
# thunk for its acceptable-set matrix and the cap, and call the layers by
# global name, so wrappers bound onto this module see every call.
CHECKS = (
    ("--balanced", "balanced", lambda m, sets, cap: is_balanced(sets(), cap)),
    ("--tu", "totally-unimodular", lambda m, sets, cap: is_totally_unimodular(sets(), cap)),
    ("--totally-balanced", "totally-balanced", lambda m, sets, cap: is_totally_balanced(sets(), cap)),
    ("--odd-cycles", "odd-cycles", lambda m, sets, cap: check_hypergraph_balanced(sets())),
    ("--firm-worker", "firm-worker", lambda m, sets, cap: check_hypergraph_balanced(firm_worker_hypergraph(m))),
    ("--complementary", "complementary", lambda m, sets, cap: _complementary(m)),
    ("--additive", "additive", lambda m, sets, cap: _additive(m)),
)


def cmd_check(args) -> int:
    chosen = [check for check in CHECKS if getattr(args, _DESTS[check[0]])]
    if not chosen:
        print("error: no check selected", file=sys.stderr)
        return EXIT_USAGE
    m = _load_market(args.path)
    matrix = None

    def sets():
        nonlocal matrix
        if matrix is None:
            matrix = acceptable_set_hypergraph(m)
        return matrix

    return _emit([(name, build(m, sets, args.cap)) for _, name, build in chosen], args.json)


def cmd_solve(args) -> int:
    if bool(args.fractional) != (args.strategy == "pipeline"):  # each needs the other
        need = "--fractional needs --strategy pipeline" if args.fractional else "pipeline strategy needs --fractional"
        print(f"error: {need}", file=sys.stderr)
        return EXIT_USAGE
    m = _load_market(args.path)
    if args.decompose == "sets":
        m = decompose_by_sets(m).market
    elif args.decompose == "components":
        m = decompose_by_components(m).market
    if args.strategy == "pipeline":
        d = decompose_by_sets(m)
        fm = formats.parse_fractional(_read_text(args.fractional), d)
        try:
            matching, cert = round_fractional(fm, d)
        except IntegralExtractionError as e:
            print(f"no integral solution: {e}", file=sys.stderr)
            print(e.certificate.render(), file=sys.stderr)
            return EXIT_FAIL
    else:
        matching, cert = solve(m), None
    certs = market_certificates(m)
    if cert is not None:
        certs["constraint_system_balanced"] = cert.verdict
    if args.json:
        payload = {
            "matching": None if matching is None else dict(matching.assignment),
            "certificates": certs,
        }
        print(_json(payload))
    else:
        print(formats.render_matching(matching, m))
        for name, verdict in certs.items():
            print(f"# {name}: {verdict}")
    return EXIT_PASS if matching is not None else EXIT_FAIL


def _matrix(t, args) -> _Plain:
    mat = worker_set_matrix(t)
    return _Plain(is_totally_balanced(mat, args.cap).verdict, mat.render())


def _permute(t, args) -> _Plain:
    reordered = find_neighbour_ordering(t)
    if reordered is None:
        return _Plain(FAIL, "no ordering passes")
    return _Plain(PASS, formats.serialize_tree(reordered))


# (flag, report name, builder) in report order; with no flag the first runs.
TREE_MODES = (
    ("--validate", "neighbour-condition", lambda t, args: check_neighbour_condition(t)),
    ("--matrix", "worker-set-matrix", _matrix),
    ("--permute", "permutation-search", _permute),
)


def cmd_tree(args) -> int:
    text = _read_text(args.path)
    if args.path.endswith(".json"):
        t = formats.tree_from_json(text)
    else:
        t = formats.parse_tree(text)
    chosen = [mode for mode in TREE_MODES if getattr(args, _DESTS[mode[0]])] or TREE_MODES[:1]
    reports = [(name, build(t, args)) for _, name, build in chosen]
    # in text mode the neighbour condition's engagement lines print first,
    # once every report is built, so a usage error leaves stdout empty
    if not args.json and TREE_MODES[0] in chosen:
        print("# engagements:")
        for w, eng in engagements(t).items():
            edges = ", ".join(f"{a}->{b}" for a, b in eng)
            print(f"#   {w}: {edges}")
    return _emit(reports, args.json)


def _read_text(path: str) -> str:
    """The file's text as ``open(path, encoding="utf-8").read()`` gives it,
    universal newlines included, or the same ``UnicodeDecodeError``: the
    bytes are decoded whole, and ``\r\n`` and lone ``\r`` become ``\n``
    only when a ``\r`` is present. A BOM is kept, as that read keeps it.
    The file is read unbuffered: one whole-file read needs no buffer."""
    with open(path, "rb", buffering=0) as fh:
        text = fh.read().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _load_market(path: str) -> Market:
    return formats.parse_market(_read_text(path))


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


# Each command's (help line, handler, options). An option maps its flag to
# the keywords of argparse's ``add_argument``: a switch is ``store_true``,
# and a flag with a value has a ``type`` validator or ``choices``.
_SWITCH = {"action": "store_true", "default": False}
_CAP = {"type": non_negative_int, "default": DEFAULT_CAP}
COMMANDS = {
    "check": ("certify a market file", cmd_check, {
        **{flag: _SWITCH for flag, _, _ in CHECKS}, "--cap": _CAP, "--json": _SWITCH,
    }),
    "solve": ("find a stable matching", cmd_solve, {
        "--strategy": {"choices": ["direct", "pipeline"], "default": "direct"},
        "--fractional": {},
        "--decompose": {"choices": ["sets", "components"]},
        "--json": _SWITCH,
    }),
    "tree": ("validate a technology tree", cmd_tree, {
        **{flag: _SWITCH for flag, _, _ in TREE_MODES}, "--cap": _CAP, "--json": _SWITCH,
    }),
}
# Each flag's namespace attribute, and per command the namespace's starting
# attributes (command, path, handler and each flag's default), derived from
# COMMANDS once rather than on every argv.
_DESTS = {flag: flag[2:].replace("-", "_") for _, _, options in COMMANDS.values() for flag in options}
_DEFAULTS = {
    command: {
        "command": command, "path": None, "func": func,
        **{_DESTS[flag]: keywords.get("default") for flag, keywords in options.items()},
    }
    for command, (_, func, options) in COMMANDS.items()
}


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once from ``COMMANDS``: ``parse_args``
    returns a fresh namespace per call, so nothing carries over between
    commands."""
    # --help shows the docstring's first two paragraphs: summary and exit codes
    about = "\n\n".join(__doc__.split("\n\n")[:2]) if __doc__ else None
    parser = _Parser(prog="balmatch", description=about)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, func, options) in COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        p.add_argument("path")
        for flag, keywords in options.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def _read_argv(argv: list[str]) -> Optional[argparse.Namespace]:
    """The namespace ``build_parser().parse_args(argv)`` returns, read from
    ``COMMANDS`` when argv is a command, one path, exact flags and plain
    values; None for anything else, which argparse then parses: help, an
    abbreviated flag, ``--flag=value``, ``--``, a token or value starting
    with ``-``, a missing or second path, a missing value, or a value the
    flag's validator or choices refuse."""
    if not argv or argv[0] not in COMMANDS:
        return None
    options = COMMANDS[argv[0]][2]
    values = dict(_DEFAULTS[argv[0]])
    path = None
    tokens = iter(argv[1:])
    for token in tokens:
        keywords = options.get(token)
        if keywords is None:
            if token.startswith("-") or path is not None:
                return None
            path = token
        elif "action" in keywords:
            values[_DESTS[token]] = True
        else:
            value = next(tokens, "-")  # a missing value is refused like "-"
            if value.startswith("-"):
                return None
            if "type" in keywords:
                try:
                    value = keywords["type"](value)
                except (argparse.ArgumentTypeError, TypeError, ValueError):
                    return None
            choices = keywords.get("choices")
            if choices is not None and value not in choices:
                return None
            values[_DESTS[token]] = value
    if path is None:
        return None
    values["path"] = path
    ns = argparse.Namespace()
    vars(ns).update(values)  # one update, where Namespace(**values) sets each in turn
    return ns


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as e:
            return int(e.code or 0)
    try:
        return args.func(args)
    except (formats.ParseError, UnicodeDecodeError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (OSError, MarketError, FractionalError, TreeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
