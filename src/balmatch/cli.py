"""Command-line surface: certify markets, solve them, validate trees.

Exit codes: 0 pass/found, 1 fail with witness / no stable matching,
2 inconclusive at the size cap, 64 usage error, 65 parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from . import formats
from .fractional import FractionalError, IntegralExtractionError
from .hypergraphs import (
    acceptable_set_hypergraph,
    check_hypergraph_balanced,
    firm_worker_hypergraph,
)
from .market import Market, MarketError, acceptable_set_family
from .matrices import FAIL, INCONCLUSIVE, PASS, is_balanced, is_totally_balanced, is_totally_unimodular, matrix_of_sets
from .prefs import complementarity_witness, decompose_by_components, decompose_by_sets, is_additive
from .solve import solve
from .techtree import TreeError, check_neighbour_condition, engagement, find_neighbour_ordering, worker_set_matrix

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


def _emit(reports: list[tuple[str, object]], as_json: bool):
    if as_json:
        payload = {}
        for name, cert in reports:
            payload[name] = json.loads(cert.to_json()) if hasattr(cert, "to_json") else cert
        print(json.dumps(payload, indent=2))
    else:
        for name, cert in reports:
            rendered = cert.render() if hasattr(cert, "render") else str(cert)
            print(f"[{name}]")
            print(rendered)


def _verdict_exit(verdicts: list[str]) -> int:
    if FAIL in verdicts:
        return EXIT_FAIL
    if INCONCLUSIVE in verdicts:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


def cmd_check(args) -> int:
    m = _load_market(args.path)
    cap = args.cap
    reports: list[tuple[str, object]] = []
    verdicts: list[str] = []
    any_flag = False
    if args.balanced or args.tu or args.totally_balanced:
        sets_matrix = matrix_of_sets(acceptable_set_family(m), m.workers)
    if args.balanced:
        any_flag = True
        cert = is_balanced(sets_matrix, cap)
        reports.append(("balanced", cert))
        verdicts.append(cert.verdict)
    if args.tu:
        any_flag = True
        cert = is_totally_unimodular(sets_matrix, cap)
        reports.append(("totally-unimodular", cert))
        verdicts.append(cert.verdict)
    if args.totally_balanced:
        any_flag = True
        cert = is_totally_balanced(sets_matrix, cap)
        reports.append(("totally-balanced", cert))
        verdicts.append(cert.verdict)
    if args.odd_cycles:
        any_flag = True
        cert = check_hypergraph_balanced(acceptable_set_hypergraph(m))
        reports.append(("odd-cycles", cert))
        verdicts.append(cert.verdict)
    if args.firm_worker:
        any_flag = True
        cert = check_hypergraph_balanced(firm_worker_hypergraph(m))
        reports.append(("firm-worker", cert))
        verdicts.append(cert.verdict)
    if args.complementary:
        any_flag = True
        lines = [
            _witness_line(f, m, *w)
            for f in m.firms
            if (w := complementarity_witness(f, m)) is not None
        ]
        verdict = PASS if not lines else FAIL
        detail = "\n".join(lines)
        reports.append(("complementary", _Plain(verdict, detail)))
        verdicts.append(verdict)
    if args.additive:
        any_flag = True
        bad = [f for f in m.firms if not is_additive(f, m)]
        verdict = PASS if not bad else FAIL
        detail = "" if not bad else f"non-additive firms: {', '.join(bad)}"
        reports.append(("additive", _Plain(verdict, detail)))
        verdicts.append(verdict)
    if not any_flag:
        print("error: no check selected", file=sys.stderr)
        return EXIT_USAGE
    _emit(reports, args.json)
    return _verdict_exit(verdicts)


def _witness_line(f: str, m: Market, s: frozenset[str], x: str) -> str:
    """One line naming f's witness, workers in market order, in ASCII so any
    terminal encoding can print it."""
    inner = ",".join(w for w in m.workers if w in s)
    return f"{f}: choose({{{inner}}}) is not a subset of choose({{{inner}}}+{x})"


class _Plain:
    def __init__(self, verdict: str, detail: str = ""):
        self.verdict = verdict
        self.detail = detail

    def render(self) -> str:
        return self.verdict if not self.detail else f"{self.verdict}\n{self.detail}"

    def to_json(self) -> str:
        return json.dumps({"verdict": self.verdict, "detail": self.detail})


def cmd_solve(args) -> int:
    m = _load_market(args.path)
    if args.decompose == "sets":
        m = decompose_by_sets(m).market
    elif args.decompose == "components":
        m = decompose_by_components(m).market
    fm = None
    if args.strategy == "pipeline":
        if not args.fractional:
            print("error: pipeline strategy needs --fractional", file=sys.stderr)
            return EXIT_USAGE
        d = decompose_by_sets(m)
        with open(args.fractional, encoding="utf-8") as fh:
            fm = formats.parse_fractional(fh.read(), d)
    try:
        result = solve(m, strategy=args.strategy, fractional=fm)
    except IntegralExtractionError as e:
        print(f"no integral solution: {e}", file=sys.stderr)
        print(e.certificate.render(), file=sys.stderr)
        return EXIT_FAIL
    if args.json:
        payload = {
            "matching": None
            if result.matching is None
            else {w: f for w, f in result.matching.assignment.items()},
            "certificates": result.certificates,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(formats.render_matching(result.matching, m))
        for name, verdict in result.certificates.items():
            print(f"# {name}: {verdict}")
    return EXIT_PASS if result.found else EXIT_FAIL


def cmd_tree(args) -> int:
    with open(args.path, encoding="utf-8") as fh:
        text = fh.read()
    if args.path.endswith(".json"):
        t = formats.tree_from_json(text)
    else:
        t = formats.parse_tree(text)
    reports: list[tuple[str, object]] = []
    verdicts: list[str] = []
    if args.validate or not (args.matrix or args.permute):
        cert = check_neighbour_condition(t)
        reports.append(("neighbour-condition", cert))
        verdicts.append(cert.verdict)
        if not args.json:
            _print_engagements(t)
    if args.matrix:
        mat = worker_set_matrix(t)
        cert = is_totally_balanced(mat, args.cap)
        reports.append(("worker-set-matrix", _Plain(cert.verdict, mat.render())))
        verdicts.append(cert.verdict)
    if args.permute:
        reordered = find_neighbour_ordering(t)
        if reordered is None:
            reports.append(("permutation-search", _Plain(FAIL, "no ordering passes")))
            verdicts.append(FAIL)
        else:
            reports.append(
                ("permutation-search", _Plain(PASS, formats.serialize_tree(reordered)))
            )
            verdicts.append(PASS)
    _emit(reports, args.json)
    return _verdict_exit(verdicts)


def _print_engagements(t) -> None:
    print("# engagements:")
    for w in t.workers():
        edges = ", ".join(f"{a}->{b}" for a, b in engagement(w, t))
        print(f"#   {w}: {edges}")


def _load_market(path: str) -> Market:
    with open(path, encoding="utf-8") as fh:
        return formats.parse_market(fh.read())


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: ``parse_args`` returns a fresh
    namespace per call, so nothing carries over between commands."""
    parser = _Parser(prog="balmatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="certify a market file")
    p_check.add_argument("path")
    p_check.add_argument("--balanced", action="store_true")
    p_check.add_argument("--tu", action="store_true")
    p_check.add_argument("--totally-balanced", action="store_true")
    p_check.add_argument("--odd-cycles", action="store_true")
    p_check.add_argument("--firm-worker", action="store_true")
    p_check.add_argument("--complementary", action="store_true")
    p_check.add_argument("--additive", action="store_true")
    p_check.add_argument("--cap", type=non_negative_int, default=12)
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=cmd_check)

    p_solve = sub.add_parser("solve", help="find a stable matching")
    p_solve.add_argument("path")
    p_solve.add_argument("--strategy", choices=["direct", "pipeline"], default="direct")
    p_solve.add_argument("--fractional")
    p_solve.add_argument("--decompose", choices=["sets", "components"])
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(func=cmd_solve)

    p_tree = sub.add_parser("tree", help="validate a technology tree")
    p_tree.add_argument("path")
    p_tree.add_argument("--validate", action="store_true")
    p_tree.add_argument("--matrix", action="store_true")
    p_tree.add_argument("--permute", action="store_true")
    p_tree.add_argument("--cap", type=non_negative_int, default=12)
    p_tree.add_argument("--json", action="store_true")
    p_tree.set_defaults(func=cmd_tree)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (formats.ParseError, UnicodeDecodeError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (MarketError, FractionalError, TreeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
