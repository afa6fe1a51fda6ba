"""Fractional matchings over a set-decomposed market and integral rounding.

Every firm here has a single acceptable set and hires its workers at a
common level x in [0, 1] (one scale per firm); ``split_sets`` is the one
index of those sets, in firm order. A fractional matching is therefore a
level per firm plus an unmatched share per worker type, all exact
rationals. Rounding goes through a 0-1 constraint system whose feasible
0/1 points are exactly the stability-preserving integral re-assignments.
Its rows are the strictly fractional firms, then the workers, and each
column is the set of rows it enters (take f: f and its set; empty f: f;
null w: w), so ``matrix_of_sets`` builds it.

``round_fractional`` runs the whole route: verify once, round, lift back
to the market the firms were split from, and re-check that matching.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .market import Matching, find_block
from .matrices import DEFAULT_CAP, MatrixCertificate, ZeroOneMatrix, is_balanced, matrix_of_sets, set_label
from .prefs import DecomposedMarket, lift_matching

ZERO = Fraction(0)
ONE = Fraction(1)


class FractionalError(ValueError):
    """Malformed fractional matching or pipeline precondition failure."""


@dataclass(frozen=True)
class FractionalMatching:
    """Per-firm hiring levels and per-worker unmatched shares, exact rationals."""

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


def _validate_shape(fm: FractionalMatching, d: DecomposedMarket):
    if set(fm.levels) != set(d.market.firms):
        raise FractionalError("levels must cover exactly the decomposed firms")
    if set(fm.null_assignment) != set(d.market.workers):
        raise FractionalError("null assignment must cover exactly the workers")
    for f, x in fm.levels.items():
        if not (ZERO <= x <= ONE):
            raise FractionalError(f"level of {f} outside [0, 1]: {x}")
    for w, x in fm.null_assignment.items():
        if not (ZERO <= x <= ONE):
            raise FractionalError(f"null share of {w} outside [0, 1]: {x}")


def worker_mass(fm: FractionalMatching, d: DecomposedMarket, w: str) -> Fraction:
    return _mass(fm, split_sets(d), w)


def _mass(fm: FractionalMatching, sets: dict[str, frozenset[str]], w: str) -> Fraction:
    return fm.null_assignment[w] + sum(fm.levels[f] for f, s in sets.items() if w in s)


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
    """Check individual rationality and absence of fractional blocks.

    A firm below full scale blocks iff it could simultaneously draw a
    positive mass of every type in its set, counting the unmatched share
    and the levels of firms its target types like strictly less. With
    ``pseudo`` the per-worker mass-conservation check is skipped, so
    intermediate states of a rounding chain can be verified too.
    """
    _validate_shape(fm, d)
    m = d.market
    sets = split_sets(d)
    if not pseudo:
        for w in m.workers:
            if (mass := _mass(fm, sets, w)) != ONE:
                raise FractionalError(f"worker {w} mass is {mass}, expected 1")
    # (a) individual rationality: positive level only at firms acceptable
    # to every type they hire; the first offender in market order is named.
    for f, target in sets.items():
        if fm.levels[f] > 0:
            for w in m.workers:
                if w in target and not m.worker_weakly_prefers(w, f, None):
                    return StabilityReport(
                        ok=False,
                        firm=f,
                        detail=f"type {w} is matched to a firm it finds unacceptable",
                        available={},
                    )
    # (b) no blocking firm.
    for f, target in sets.items():
        if fm.levels[f] >= ONE:
            continue
        avail: dict[str, Fraction] = {}
        for w in target:
            if not m.worker_weakly_prefers(w, f, None):
                avail[w] = ZERO
                continue
            mass = fm.null_assignment[w]
            for g, s in sets.items():
                if g != f and w in s and m.worker_weakly_prefers(w, f, g):  # g is strictly worse
                    mass += fm.levels[g]
            avail[w] = mass
        if target and min(avail.values()) > 0:
            return StabilityReport(
                ok=False,
                firm=f,
                detail="every needed type has positive mass at strictly worse matches",
                available=avail,
            )
    return StabilityReport(ok=True)


ColumnMeaning = tuple[str, str]  # ("take"|"empty", firm) or ("null", worker)


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
    """Each column is the set of rows it enters: take f is ``{f} | S_f`` and
    empty f is ``{f}`` for a strictly fractional firm f, null w is ``{w}``
    for a strictly fractional unmatched share. Firm rows force each pair to
    sum to 1; worker rows restore unit mass net of the integral part."""
    report = verify_fractional_stability(fm, d)
    if not report.ok:
        raise FractionalError(f"fractional input is not stable: {report.detail}")
    m = d.market
    sets = split_sets(d)
    frac_firms = [f for f in m.firms if ZERO < fm.levels[f] < ONE]
    frac_null = [w for w in m.workers if ZERO < fm.null_assignment[w] < ONE]
    if not frac_firms and not frac_null:
        return ConstraintSystem(
            matrix=ZeroOneMatrix(rows=(), cols=(), entries=()),
            column_meaning=(),
            row_meaning=(),
            rhs=(),
        )
    columns: list[tuple[ColumnMeaning, str, frozenset[str]]] = []
    for f in frac_firms:
        columns.append((("take", f), f + ":" + set_label(sets[f]), sets[f] | {f}))
        columns.append((("empty", f), f + ":{}", frozenset([f])))
    for w in frac_null:
        columns.append((("null", w), "null:" + w, frozenset([w])))
    meanings, labels, column_sets = zip(*columns)
    matrix = matrix_of_sets(column_sets, frac_firms + list(m.workers))
    rhs = [1] * len(frac_firms)
    for w in m.workers:
        integral = sum(fm.levels[f] == ONE for f, s in sets.items() if w in s)
        rhs.append(1 - integral - (fm.null_assignment[w] == ONE))
    return ConstraintSystem(
        matrix=replace(matrix, cols=labels),
        column_meaning=meanings,
        row_meaning=tuple([("firm", f) for f in frac_firms] + [("worker", w) for w in m.workers]),
        rhs=tuple(rhs),
    )


class IntegralExtractionError(RuntimeError):
    """No 0/1 solution exists; carries the balancedness certificate."""

    def __init__(self, message: str, certificate: MatrixCertificate):
        super().__init__(message)
        self.certificate = certificate


def extract_integral_solution(cs: ConstraintSystem) -> tuple[int, ...]:
    """First 0/1 solution of B z = rhs in canonical order (try 1 before 0).

    Backtracking with row-slack propagation; complete, so failure means
    the system has no 0/1 point at all, which is reported together with
    the balancedness certificate of B.
    """
    if cs.empty:
        return ()
    n = len(cs.column_meaning)
    rows = cs.matrix.entries
    # the rows each column enters
    col_rows = [[i for i, row in enumerate(rows) if row[j]] for j in range(n)]
    need = list(cs.rhs)
    # columns that can still contribute to each row
    pending = [sum(row) for row in rows]
    assign: list[Optional[int]] = [None] * n

    def rec(j: int) -> bool:
        if j == n:
            return all(v == 0 for v in need)
        for value in (1, 0):
            ok = True
            for i in col_rows[j]:
                need[i] -= value
                pending[i] -= 1
                if need[i] < 0 or need[i] > pending[i]:
                    ok = False
            if ok:
                assign[j] = value
                if rec(j + 1):
                    return True
            for i in col_rows[j]:
                need[i] += value
                pending[i] += 1
        assign[j] = None
        return False

    if not rec(0):
        cert = is_balanced(cs.matrix)
        raise IntegralExtractionError(
            "no 0/1 solution to the constraint system", cert
        )
    return tuple(assign)  # type: ignore[arg-type]


def apply_stable_transformations(
    fm: FractionalMatching, z: tuple[int, ...], cs: ConstraintSystem
) -> FractionalMatching:
    """Round fm per z: each fractional firm to its selected option, each
    fractional unmatched share to its selected quantity."""
    if len(z) != len(cs.column_meaning):
        raise FractionalError("solution length does not match the system")
    for row, target in zip(cs.matrix.entries, cs.rhs):
        if sum(a * b for a, b in zip(row, z)) != target:
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
    """Read an integral fractional matching as a discrete matching."""
    if not fm.is_integral():
        raise FractionalError("matching is not integral")
    assignment: dict[str, Optional[str]] = {w: None for w in d.market.workers}
    for f, s in split_sets(d).items():
        if fm.levels[f] == ONE:
            for w in s:
                if assignment[w] is not None:
                    raise FractionalError(f"worker {w} assigned twice")
                assignment[w] = f
    for w in d.market.workers:
        if assignment[w] is None and fm.null_assignment[w] != ONE:
            raise FractionalError(f"worker {w} unaccounted for")
    return Matching(assignment)


def reduced_balance_check(cs: ConstraintSystem) -> MatrixCertificate:
    """Balancedness of B, with witnesses indexing ``cs.matrix``.

    The certificate's reduction drops the null and empty columns (a single
    1 each) and then the firm rows, so the take-set columns over the worker
    rows decide balancedness of the whole system, and the default cap
    applies to that core.
    """
    return is_balanced(cs.matrix, DEFAULT_CAP)


def round_fractional(
    fm: FractionalMatching, d: DecomposedMarket
) -> tuple[Matching, Optional[MatrixCertificate]]:
    """Round a stable fractional matching of ``d`` and lift it to ``d.original``.

    Returns the lifted matching and the constraint system's balancedness
    certificate (None for an integral input, whose system is empty).
    ``FractionalError`` if the input or the lifted matching is unstable
    (two siblings matched at once can leave a firm holding a set it would
    not choose), ``IntegralExtractionError`` if the system has no 0/1 point.
    """
    cs = build_constraint_system(fm, d)
    cert = None if cs.empty else reduced_balance_check(cs)
    z = extract_integral_solution(cs)
    integral = apply_stable_transformations(fm, z, cs)
    mu = lift_matching(integral_to_matching(integral, d), d)
    report = find_block(mu, d.original)
    if report.ir_violations:
        who, why = report.ir_violations[0]
        raise FractionalError(f"lifted matching is not individually rational: {who}: {why}")
    if report.blocking is not None:
        f, s = report.blocking
        raise FractionalError(f"lifted matching is blocked by {f} with {set_label(s)}")
    return mu, cert
