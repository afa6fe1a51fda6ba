"""Fractional matchings on a market's (firm, acceptable set) columns, and
integral rounding.

The columns are those of Scarf's matrix: one row per firm and per worker,
one column per (f, S). ``decompose_by_sets`` indexes them: split firm f#k
names (f, S_k), ``d.origin`` groups columns by firm and ``split_sets``
reads their sets. A fractional matching is a level per column (a firm's
levels sum to at most 1, the rest is its slack) plus an unmatched share
per worker type, all exact rationals.

Levels are ``Fraction`` at the surface: in ``FractionalMatching``, in
every message and in ``StabilityReport.available``. Inside, each check
reads every level and share once as an int numerator over D, the lcm of
their denominators, and does all its arithmetic on those ints, exactly
and with no floating point. Rounding goes through a 0-1 system whose 0/1
points are the stability-preserving integral re-assignments; each column
is the set of rows it enters, built directly as a bitmask.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate, chain
from math import lcm
from typing import Optional

from .market import Matching
from .matrices import DEFAULT_CAP, MatrixCertificate, ZeroOneMatrix, is_balanced, set_label
from .prefs import DecomposedMarket

ZERO = Fraction(0)
ONE = Fraction(1)
# a longer common denominator is refused, so that every value a message
# prints stays under Python's 4,300-digit limit on int-to-str conversion
_DIGITS = 4000
_TOO_LONG = 10**_DIGITS


class FractionalError(ValueError):
    """Malformed fractional matching or pipeline precondition failure."""


@dataclass(frozen=True)
class FractionalMatching:
    """Per-column levels, keyed by split firm name, and per-worker unmatched
    shares, exact rationals."""

    levels: dict[str, Fraction]
    null_assignment: dict[str, Fraction]

    def is_integral(self) -> bool:
        vals = list(self.levels.values()) + list(self.null_assignment.values())
        return all(v in (ZERO, ONE) for v in vals)

    def with_level(self, f: str, value: Fraction) -> "FractionalMatching":
        if f not in self.levels:
            raise FractionalError(f"unknown firm: {f}")
        new = dict(self.levels)
        new[f] = Fraction(value)
        return replace(self, levels=new)

    def with_null(self, w: str, value: Fraction) -> "FractionalMatching":
        if w not in self.null_assignment:
            raise FractionalError(f"unknown worker: {w}")
        new = dict(self.null_assignment)
        new[w] = Fraction(value)
        return replace(self, null_assignment=new)


def split_sets(d: DecomposedMarket) -> dict[str, frozenset[str]]:
    """Each split firm's one acceptable set, in firm order."""
    sets = {}
    for f in d.market.firms:
        chain = d.market.firm_prefs[f].chain
        if len(chain) != 1:
            raise FractionalError(f"firm {f} does not have a unique acceptable set")
        sets[f] = chain[0]
    return sets


def _columns_by_firm(d: DecomposedMarket) -> dict[str, list[str]]:
    """Each original firm's columns, in chain order."""
    groups: dict[str, list[str]] = {}
    for c in d.market.firms:
        groups.setdefault(d.origin[c][0], []).append(c)
    return groups


def _numerators(
    fm: FractionalMatching, d: DecomposedMarket
) -> tuple[int, dict[str, int], dict[str, int]]:
    """D, the lcm of fm's denominators, and every level and null share as
    an int numerator over D, once fm covers exactly the columns and the
    workers of ``d``, D has at most 4,000 digits and every value lies in
    [0, 1]."""
    if set(fm.levels) != set(d.market.firms):
        raise FractionalError("levels must cover exactly the decomposed firms")
    if set(fm.null_assignment) != set(d.market.workers):
        raise FractionalError("null assignment must cover exactly the workers")
    den = lcm(*{x.denominator for x in chain(fm.levels.values(), fm.null_assignment.values())})
    if den >= _TOO_LONG:
        raise FractionalError(f"common denominator has more than {_DIGITS} digits")
    levels = {f: x.numerator * (den // x.denominator) for f, x in fm.levels.items()}
    null = {w: x.numerator * (den // x.denominator) for w, x in fm.null_assignment.items()}
    for f, x in levels.items():
        if not 0 <= x <= den:
            raise FractionalError(f"level of {f} outside [0, 1]: {fm.levels[f]}")
    for w, x in null.items():
        if not 0 <= x <= den:
            raise FractionalError(f"null share of {w} outside [0, 1]: {fm.null_assignment[w]}")
    return den, levels, null


@dataclass(frozen=True)
class StabilityReport:
    ok: bool
    firm: Optional[str] = None
    detail: str = ""
    # per worker type of the violating firm: the mass the firm could draw
    available: dict[str, Fraction] = None  # type: ignore[assignment]


def verify_fractional_stability(
    fm: FractionalMatching, d: DecomposedMarket, pseudo: bool = False
) -> StabilityReport:
    """Check individual rationality and that every column is dominated.

    Column (f, S_k) is dominated at its firm's row when f's levels on
    S_1..S_k sum to 1, and otherwise blocks iff it could simultaneously
    draw a positive mass of every type in S_k, counting the unmatched
    share and the columns its target types like strictly less (two
    columns of one firm ranked by that firm's chain). With ``pseudo`` the
    per-worker mass and per-firm total checks are skipped, so
    intermediate states of a rounding chain can be verified too.
    """
    den, levels, null = _numerators(fm, d)
    m = d.market
    sets = split_sets(d)
    groups = _columns_by_firm(d)
    held = {}  # each column's firm's levels on its chain up to that column
    for cols in groups.values():
        held.update(zip(cols, accumulate(levels[c] for c in cols)))
    covering: dict[str, list[str]] = {w: [] for w in m.workers}  # each worker's columns
    for f, s in sets.items():
        for w in s:
            covering[w].append(f)
    if not pseudo:
        for w, cols in covering.items():
            if (mass := null[w] + sum(levels[c] for c in cols)) != den:
                raise FractionalError(f"worker {w} mass is {Fraction(mass, den)}, expected 1")
        for f, cols in groups.items():
            if (total := held[cols[-1]]) > den:
                raise FractionalError(f"firm {f} levels sum to {Fraction(total, den)}, above 1")
    # rank[w][g]: g's place on w's list; the null firm ranks right after
    # the list, and an unlisted firm below it
    rank = {w: {g: k for k, g in enumerate(lst)} for w, lst in m.worker_prefs.items()}
    # (a) individual rationality: positive level only at firms acceptable
    # to every type they hire; the first offender in market order is named.
    for f, target in sets.items():
        if levels[f] and not all(f in rank[w] for w in target):
            w = next(w for w in m.workers if w in target and f not in rank[w])
            return StabilityReport(
                ok=False,
                firm=f,
                detail=f"type {w} is matched to a firm it finds unacceptable",
                available={},
            )
    # (b) no blocking column: one blocks when each of its types has positive
    # mass unmatched or at columns it likes strictly less.
    for f, target in sets.items():
        if held[f] >= den:
            continue
        avail: dict[str, int] = {}
        for w in target:
            place = rank[w]
            if (r := place.get(f)) is None:
                break
            # g is strictly worse for w: listed after f, or not listed
            if not (mass := null[w] + sum(levels[g] for g in covering[w] if place.get(g, r + 1) > r)):
                break
            avail[w] = mass
        if avail and len(avail) == len(target):
            return StabilityReport(
                ok=False,
                firm=f,
                detail="every needed type has positive mass at strictly worse matches",
                available={w: Fraction(x, den) for w, x in avail.items()},
            )
    return StabilityReport(ok=True)


ColumnMeaning = tuple[str, str]  # ("take", column), ("empty", firm) or ("null", worker)


@dataclass(frozen=True)
class ConstraintSystem:
    """The 0-1 system whose 0/1 solutions are stability-preserving roundings."""

    matrix: ZeroOneMatrix
    column_meaning: tuple[ColumnMeaning, ...]
    row_meaning: tuple[tuple[str, str], ...]  # ("firm"|"worker", id)
    rhs: tuple[int, ...]

    @property
    def empty(self) -> bool:
        return not self.column_meaning


def build_constraint_system(
    fm: FractionalMatching, d: DecomposedMarket
) -> ConstraintSystem:
    """Each column is the set of rows it enters: take f#k is ``{f} | S_k``
    for a strictly fractional level, empty f is ``{f}`` (f's slack) when 1
    minus f's total is strictly fractional, null w is ``{w}`` for a
    strictly fractional unmatched share. A firm row picks one of its
    firm's fractional columns or its slack; worker rows restore unit mass
    net of the integral part."""
    report = verify_fractional_stability(fm, d)
    if not report.ok:
        raise FractionalError(f"fractional input is not stable: {report.detail}")
    den, levels, null = _numerators(fm, d)
    m = d.market
    sets = split_sets(d)
    bit = {w: 1 << i for i, w in enumerate(m.workers)}
    frac_firms = []
    # (meaning, label, firm-row bit, worker-row mask) per column
    columns: list[tuple[ColumnMeaning, str, int, int]] = []
    for f, cols in _columns_by_firm(d).items():
        takes = [c for c in cols if 0 < levels[c] < den]
        if takes:
            row = 1 << len(frac_firms)
            frac_firms.append(f)
            columns += [
                (("take", c), c + ":" + set_label(sets[c]), row, sum(map(bit.__getitem__, sets[c])))
                for c in takes
            ]
            if sum(levels[c] for c in cols) < den:
                columns.append((("empty", f), f + ":{}", row, 0))
    columns += [(("null", w), "null:" + w, 0, bit[w]) for w in m.workers if 0 < null[w] < den]
    if not columns:
        return ConstraintSystem(ZeroOneMatrix(rows=(), cols=(), masks=()), (), (), ())
    meanings, labels, firm_rows, worker_rows = zip(*columns)
    k = len(frac_firms)  # the worker rows follow the firm rows
    integral = dict.fromkeys(m.workers, 0)  # each worker's columns at level 1
    for c, s in sets.items():
        if levels[c] == den:
            for w in s:
                integral[w] += 1
    return ConstraintSystem(
        matrix=ZeroOneMatrix(
            rows=(*frac_firms, *m.workers),
            cols=labels,
            masks=tuple([r | x << k for r, x in zip(firm_rows, worker_rows)]),
        ),
        column_meaning=meanings,
        row_meaning=tuple([("firm", f) for f in frac_firms] + [("worker", w) for w in m.workers]),
        rhs=(1,) * k + tuple([1 - integral[w] - (null[w] == den) for w in m.workers]),
    )


class IntegralExtractionError(RuntimeError):
    """No 0/1 solution exists; carries the balancedness certificate."""

    def __init__(self, message: str, certificate: MatrixCertificate):
        super().__init__(message)
        self.certificate = certificate


def extract_integral_solution(cs: ConstraintSystem) -> tuple[int, ...]:
    """First 0/1 solution of B z = rhs in canonical order (try 1 before 0).

    Backtracking with row-slack propagation, as a loop over the columns so
    its depth is not bounded by the recursion limit; complete, so failure
    means the system has no 0/1 point at all, which is reported together
    with the balancedness certificate of B.
    """
    if cs.empty:
        return ()
    n = len(cs.column_meaning)
    # the rows each column enters
    col_rows = [[i for i in range(x.bit_length()) if x >> i & 1] for x in cs.matrix.masks]
    need = list(cs.rhs)
    # columns that can still contribute to each row
    pending = [0] * len(cs.matrix.rows)
    for i in chain.from_iterable(col_rows):
        pending[i] += 1
    assign: list[Optional[int]] = [None] * n  # None: column j is untried
    j = 0
    while j >= 0:
        if j == n:
            if all(v == 0 for v in need):
                return tuple(assign)  # type: ignore[arg-type]
            j -= 1
            continue
        value = assign[j]
        if value is not None:  # withdraw the value column j holds
            for i in col_rows[j]:
                need[i] += value
                pending[i] += 1
        value = 1 if value is None else value - 1
        while value >= 0:
            for i in col_rows[j]:
                need[i] -= value
                pending[i] -= 1
            if all(0 <= need[i] <= pending[i] for i in col_rows[j]):
                break
            for i in col_rows[j]:
                need[i] += value
                pending[i] += 1
            value -= 1
        if value < 0:  # both values tried: back up
            assign[j] = None
            j -= 1
        else:
            assign[j] = value
            j += 1
    cert = is_balanced(cs.matrix)
    raise IntegralExtractionError("no 0/1 solution to the constraint system", cert)


def apply_stable_transformations(
    fm: FractionalMatching, z: tuple[int, ...], cs: ConstraintSystem
) -> FractionalMatching:
    """Round fm per z: each fractional firm to its selected option, each
    fractional unmatched share to its selected quantity, once z solves
    B z = rhs (checked column by column, over the 1s of B)."""
    if len(z) != len(cs.column_meaning):
        raise FractionalError("solution length does not match the system")
    got = [0] * len(cs.matrix.rows)  # B z, row by row
    for x, b in zip(cs.matrix.masks, z):
        while x:  # the rows this column enters
            low = x & -x
            got[low.bit_length() - 1] += b
            x ^= low
    if got != list(cs.rhs):
        raise FractionalError("vector does not solve the constraint system")
    levels = dict(fm.levels)
    null_assignment = dict(fm.null_assignment)
    for value, (kind, who) in zip(z, cs.column_meaning):
        if kind == "take":
            levels[who] = ONE if value else ZERO
        elif kind == "null":
            null_assignment[who] = ONE if value else ZERO
    return FractionalMatching(levels=levels, null_assignment=null_assignment)


def integral_to_matching(fm: FractionalMatching, d: DecomposedMarket) -> Matching:
    """Read an integral fractional matching as a matching of the original
    firms: each worker, in market order, goes to the firm of its one
    column at level 1, or stays unmatched at null share 1."""
    if not fm.is_integral():
        raise FractionalError("matching is not integral")
    holding: dict[str, list[str]] = {w: [] for w in d.market.workers}
    for c, s in split_sets(d).items():
        if fm.levels[c]:
            for w in s:
                holding[w].append(c)
    assignment: dict[str, Optional[str]] = {}
    for w, held in holding.items():
        if len(held) > 1:
            raise FractionalError(f"worker {w} assigned twice")
        if not held and fm.null_assignment[w] != ONE:
            raise FractionalError(f"worker {w} unaccounted for")
        assignment[w] = d.origin[held[0]][0] if held else None
    return Matching(assignment)


def reduced_balance_check(cs: ConstraintSystem) -> MatrixCertificate:
    """Balancedness of B, with witnesses indexing ``cs.matrix``.

    The certificate's reduction drops the null and empty columns (a single
    1 each) and then the firm rows left with one fractional column, so the
    take-set columns over the worker rows, plus the rows of firms with two
    or more fractional columns, decide balancedness of the whole system,
    and the default cap applies to that core.
    """
    return is_balanced(cs.matrix, DEFAULT_CAP)


def round_fractional(
    fm: FractionalMatching, d: DecomposedMarket
) -> tuple[Matching, Optional[MatrixCertificate]]:
    """Round a stable fractional matching of ``d`` to a stable matching of
    the original firms, with the system's balancedness certificate (None
    for an integral input, whose system is empty). A 0/1 point uses only
    columns the input uses, so the rows dominating the input dominate it.
    ``FractionalError`` if the input is malformed or unstable,
    ``IntegralExtractionError`` if the system has no 0/1 point."""
    cs = build_constraint_system(fm, d)
    z = extract_integral_solution(cs)  # its error carries the certificate
    cert = None if cs.empty else reduced_balance_check(cs)
    return integral_to_matching(apply_stable_transformations(fm, z, cs), d), cert
