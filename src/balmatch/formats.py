"""File formats: market JSON, fractional-matching tables, tree outlines."""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction
from typing import Optional

from .fractional import FractionalMatching, split_sets
from .market import FirmPreference, Market, MarketError, Matching
from .prefs import DecomposedMarket
from .techtree import TechnologyTree, TreeError


class ParseError(ValueError):
    """Unreadable input file; message carries location context."""


# -- markets -----------------------------------------------------------------

def _object_without_repeats(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"duplicate key in a JSON object: {key}")
            seen.add(key)
    return obj


# one decoder for every file: json.loads with a hook builds one per call
_DECODER = json.JSONDecoder(object_pairs_hook=_object_without_repeats)


def _refuse_bom(text: str):
    """Refuse a leading byte-order mark in any format, as ``json.loads`` does."""
    if text.startswith("\ufeff"):
        raise ParseError("line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)")


def _load_json(text: str):
    """``json.loads(text)``, except that a key repeated in any object is a
    ``ParseError`` naming the key, raised as that object is decoded."""
    _refuse_bom(text)
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from e
    except RecursionError as e:
        raise ParseError("JSON nested too deeply") from e


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{what} must be an object")
    return value


def _names(value, what: str) -> list[str]:
    """A JSON list of strings; a bare string is rejected, not split."""
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a list of strings")
    for x in value:
        if not isinstance(x, str):
            raise ParseError(f"{what} must be a list of strings")
    return value


_sets = itertools.chain.from_iterable


def _reject_repeated_worker(chains: dict, lists: dict):
    """Raise for the first chain set, in firm order and then chain order,
    whose frozenset is shorter than its list, after the set-level errors
    of the chain sets before it."""
    for f, chain in chains.items():
        for i, (s, names) in enumerate(zip(chain, lists[f])):
            if len(s) < len(names):
                FirmPreference(chain[:i])
                raise MarketError(f"duplicate worker in a set in the chain of firm {f}")
        FirmPreference(chain)


def parse_market(text: str) -> Market:
    """JSON market: workers list, firm chains (best first), worker lists.

    Every JSON-shape error (the firms, then the worker lists, then the
    workers) is raised before any check of the market itself. Then each
    firm key, in file order, and each ``workers`` entry must be a name the
    printed matching and the ``.frac`` table can carry: not empty, no
    character ``str.split()`` splits on, no leading ``#``, and no ``,`` in
    a worker name. Then come set-level checks: each firm's chain, in firm
    order and then chain order, for empty sets, sets that repeat a worker
    and repeated sets (``FirmPreference``), then ``Market``'s identifiers,
    each chain set against the workers and each worker list against the
    firms. Each chain set is built as a frozenset once, and a set that
    repeats a worker is found as one whose frozenset is shorter than its
    list."""
    data = _object(_load_json(text), "market")
    for key in ("workers", "firms", "worker_prefs"):
        if key not in data:
            raise ParseError(f"missing key: {key}")
    lists = _object(data["firms"], "firms")
    chains = {}
    for f, chain in lists.items():
        if not isinstance(chain, list):
            raise ParseError(f"chain of firm {f} must be a list of worker lists")
        what = f"a set in the chain of firm {f}"
        chains[f] = tuple([frozenset(_names(s, what)) for s in chain])
    worker_prefs = {
        w: tuple(_names(lst, f"preference list of {w}"))
        for w, lst in _object(data["worker_prefs"], "worker_prefs").items()
    }
    workers = tuple(_names(data["workers"], "workers"))
    for what, names in (("firm", lists), ("worker", workers)):
        for x in names:
            # both formats split on whitespace and skip lines starting with
            # #; the matching joins a firm's workers with commas
            if x.split() != [x] or x.startswith("#") or what == "worker" and "," in x:
                raise ParseError(f"{what} name {x!r} cannot be written in a matching or a fractional table")
    try:
        # no set is longer than its list, so a repeated worker shows in the totals
        if sum(map(len, _sets(chains.values()))) != sum(map(len, _sets(lists.values()))):
            _reject_repeated_worker(chains, lists)
        return Market(
            workers=workers,
            firms=tuple(chains),
            worker_prefs=worker_prefs,
            firm_prefs={f: FirmPreference(chain) for f, chain in chains.items()},
        )
    except MarketError as e:
        raise ParseError(str(e)) from e


def serialize_market(m: Market) -> str:
    data = {
        "workers": list(m.workers),
        "firms": {
            f: [sorted(s) for s in m.firm_prefs[f].chain] for f in m.firms
        },
        "worker_prefs": {w: list(m.worker_prefs[w]) for w in m.workers},
    }
    return json.dumps(data, indent=2, ensure_ascii=False) + "\n"


# -- fractional matchings ----------------------------------------------------

# the tokens Fraction reads as a decimal with an exponent: 1e10000000 would
# have it build a ten-million-digit int
_EXPONENT = re.compile(r"[-+]?(?=\d|\.\d)\d*(?:_\d+)*(?:\.(?:\d+(?:_\d+)*)?)?[eE][-+]?\d+(?:_\d+)*")


class _Rationals(dict):
    """Each token's ``Fraction``, parsed on its first lookup; a token with
    an exponent is refused unread."""

    def __missing__(self, tok: str) -> Fraction:
        if _EXPONENT.fullmatch(tok):
            raise ValueError(f"exponent not accepted: {tok!r}")
        x = self[tok] = Fraction(tok)
        return x


def parse_fractional(text: str, d: DecomposedMarket) -> FractionalMatching:
    """Whitespace table: header of workers, one row per firm plus a ``null``
    row, entries as exact rationals ``p/q`` or decimals without an
    exponent. Each distinct token is parsed once per file; a bad one is
    reported in the first row that has it."""
    _refuse_bom(text)
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ParseError("empty fractional matching file")
    header = lines[0].split()
    workers = list(d.market.workers)
    if header != workers:
        raise ParseError(
            f"header {header} does not list the market's workers {workers}"
        )
    rows: dict[str, dict[str, Fraction]] = {}
    value = _Rationals().__getitem__
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != len(workers) + 1:
            raise ParseError(f"bad row (expected {len(workers) + 1} fields): {ln!r}")
        label = parts[0]
        if label in rows:
            raise ParseError(f"duplicate row label: {label}")
        try:
            rows[label] = dict(zip(workers, map(value, parts[1:])))
        except (ValueError, ZeroDivisionError) as e:
            raise ParseError(f"bad rational in row {label}: {e}") from e
    if "null" not in rows:
        raise ParseError("missing null row")
    null_row = rows.pop("null")
    if set(rows) != set(d.market.firms):
        raise ParseError(
            f"row labels {sorted(rows)} do not match firms {sorted(d.market.firms)}"
        )
    sets = split_sets(d)
    levels = {}
    for f, row in rows.items():
        target = sets[f]
        vals = {row[w] for w in target}
        if len(vals) != 1:
            raise ParseError(f"row {f} is not a single scale of its acceptable set")
        if any(row[w] for w in workers if w not in target):
            raise ParseError(f"row {f} has mass outside its acceptable set")
        levels[f] = vals.pop()
    return FractionalMatching(levels=levels, null_assignment=null_row)


def serialize_fractional(fm: FractionalMatching, d: DecomposedMarket) -> str:
    """The table ``parse_fractional`` reads; every column is as wide as the
    table's widest label or value plus two spaces."""
    workers = list(d.market.workers)
    rows = [(f, [str(fm.levels[f]) if w in s else "0" for w in workers]) for f, s in split_sets(d).items()]
    rows.append(("null", [str(fm.null_assignment[w]) for w in workers]))
    width = max(len(x) for label, row in rows for x in [label, *row, *workers]) + 2
    lines = ["".ljust(width) + "".join(w.rjust(width) for w in workers)]
    lines += [label.ljust(width) + "".join(x.rjust(width) for x in row) for label, row in rows]
    return "\n".join(ln.rstrip() for ln in lines) + "\n"


# -- technology trees --------------------------------------------------------

def parse_tree(text: str) -> TechnologyTree:
    """Indented outline, two spaces per depth: ``name: {w1,w2}``; the
    textual order of children is the tree's child order."""
    _refuse_bom(text)
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        stripped = raw.lstrip(" ")
        indent = len(raw) - len(stripped)
        if indent % 2:
            raise ParseError(f"line {lineno}: odd indentation")
        if ":" not in stripped:
            raise ParseError(f"line {lineno}: expected 'name: {{workers}}'")
        name, _, rest = stripped.partition(":")
        rest = rest.strip()
        if not (rest.startswith("{") and rest.endswith("}")):
            raise ParseError(f"line {lineno}: worker set must be braced")
        inner = rest[1:-1].strip()
        members = frozenset(x.strip() for x in inner.split(",") if x.strip())
        entries.append((indent // 2, name.strip(), members))
    if not entries:
        raise ParseError("empty tree file")
    if entries[0][0] != 0:
        raise ParseError("root must be unindented")
    worker_sets: dict[str, frozenset[str]] = {}
    children: dict[str, list[str]] = {}
    stack: list[str] = []
    for depth, name, members in entries:
        if name in worker_sets:
            raise ParseError(f"duplicate vertex: {name}")
        if depth > len(stack):
            raise ParseError(f"vertex {name} skips a level")
        worker_sets[name] = members
        children[name] = []
        del stack[depth:]
        if stack:
            children[stack[-1]].append(name)
        elif len(worker_sets) > 1:  # the stack is empty only at depth 0
            raise ParseError(f"vertex {name} is a second root")
        stack.append(name)
    try:
        return TechnologyTree(
            root=entries[0][1],
            worker_sets=worker_sets,
            children={v: tuple(c) for v, c in children.items()},
        )
    except TreeError as e:
        raise ParseError(str(e)) from e


def serialize_tree(t: TechnologyTree) -> str:
    """The outline ``parse_tree`` reads, one line per ``t.outline`` entry."""
    return "".join("  " * d + f"{v}: {{{','.join(sorted(t.worker_sets[v]))}}}\n" for v, d in t.outline)


def tree_to_json(t: TechnologyTree) -> str:
    """Nested ``{"name", "workers", "children"}`` objects, the text of
    ``json.dumps(..., indent=2)``, written from ``t.outline``: each vertex
    opens its object, and the next entry's depth says how many to close."""
    out = []
    for (v, d), e in zip(t.outline, [d for _, d in t.outline[1:]] + [0]):
        pad = "    " * d
        workers = json.dumps(sorted(t.worker_sets[v]), indent=2).replace("\n", f"\n{pad}  ")
        out.append(f'{{\n{pad}  "name": {json.dumps(v)},\n{pad}  "workers": {workers},\n{pad}  "children": ')
        if e > d:
            out.append(f"[\n{pad}    ")
            continue
        out.append(f"[]\n{pad}}}")
        out.extend(f"\n{'    ' * a}  ]\n{'    ' * a}}}" for a in range(d - 1, e - 1, -1))
        if e:
            out.append(",\n" + "    " * e)
    return "".join(out)


def tree_from_json(text: str) -> TechnologyTree:
    """JSON tree: nested ``{"name", "workers", "children"}`` objects."""
    worker_sets: dict[str, frozenset[str]] = {}
    children: dict[str, tuple[str, ...]] = {}

    def walk(node) -> str:
        node = _object(node, "tree node")
        name = node.get("name")
        if not isinstance(name, str):
            raise ParseError(f"tree node without a string name: {sorted(node)}")
        if name in worker_sets:
            raise ParseError(f"duplicate vertex: {name}")
        worker_sets[name] = frozenset(_names(node.get("workers", []), f"workers of {name}"))
        kids = node.get("children", [])
        if not isinstance(kids, list):
            raise ParseError(f"children of {name} must be a list")
        children[name] = tuple(map(walk, kids))
        return name

    try:
        root = walk(_load_json(text))
    except RecursionError as e:  # json nests deeper than Python calls on some interpreters
        raise ParseError("JSON nested too deeply") from e
    try:
        return TechnologyTree(root=root, worker_sets=worker_sets, children=children)
    except TreeError as e:
        raise ParseError(str(e)) from e


# -- matchings ---------------------------------------------------------------

def render_matching(mu: Optional[Matching], m: Market) -> str:
    """Two-row layout: firms (plus null) above their matched worker sets."""
    if mu is None:
        return "NONE"
    inv = mu.inverse()
    cells = []
    for f in list(m.firms) + [None]:
        label = f if f is not None else "null"
        members = ",".join(sorted(inv.get(f, frozenset())))
        cells.append((label, members))
    width = [max(len(a), len(b)) + 2 for a, b in cells]
    top = "".join(a.ljust(w) for (a, _), w in zip(cells, width))
    bottom = "".join(b.ljust(w) for (_, b), w in zip(cells, width))
    return top.rstrip() + "\n" + bottom.rstrip()
