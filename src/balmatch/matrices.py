"""Exact certification of 0-1 matrices: balanced, totally unimodular, totally balanced.

All verdicts come with re-checkable witnesses (row/column index lists into
the original matrix) and never use floating point. The three properties
share one search: orders ascending, row subsets lexicographically, and for
each row subset a filter on column weights and a column picker. Total
unimodularity is decided by Camion's criterion, so a determinant is
evaluated only for the FAIL witness. Searches are exhaustive up to a size
cap (on the reduced matrix for balanced and totally balanced, on the
matrix itself for totally unimodular); beyond the cap the verdict is
INCONCLUSIVE, never a guess.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

DEFAULT_CAP = 12


class CapExceeded(RuntimeError):
    """Search budget exceeded; certification inconclusive at this cap."""


@dataclass(frozen=True)
class ZeroOneMatrix:
    """A labelled 0-1 matrix; columns are usually indicator vectors of sets."""

    rows: tuple[str, ...]
    cols: tuple[str, ...]
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.entries) != len(self.rows):
            raise ValueError("row count does not match row labels")
        for row in self.entries:
            if len(row) != len(self.cols):
                raise ValueError("column count does not match column labels")
            if any(x not in (0, 1) for x in row):
                raise ValueError("entries must be 0 or 1")

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.cols)

    def submatrix(self, rows: Iterable[int], cols: Iterable[int]) -> "ZeroOneMatrix":
        rows, cols = list(rows), list(cols)
        return ZeroOneMatrix(
            rows=tuple(self.rows[i] for i in rows),
            cols=tuple(self.cols[j] for j in cols),
            entries=tuple(tuple(self.entries[i][j] for j in cols) for i in rows),
        )

    def render(self) -> str:
        width = max([len(r) for r in self.rows] + [1]) if self.rows else 1
        colw = [max(len(c), 1) for c in self.cols]
        head = " " * width + "  " + "  ".join(
            c.rjust(w) for c, w in zip(self.cols, colw)
        )
        lines = [head.rstrip()]
        for label, row in zip(self.rows, self.entries):
            lines.append(
                label.rjust(width)
                + "  "
                + "  ".join(str(x).rjust(w) for x, w in zip(row, colw))
            )
        return "\n".join(lines)


def set_label(s: Iterable[str]) -> str:
    return "{" + ",".join(sorted(s)) + "}"


def matrix_of_sets(
    sets: Iterable[Iterable[str]], ground: Iterable[str]
) -> ZeroOneMatrix:
    """Indicator-vector matrix: one row per ground element, one column per set."""
    ground = list(ground)
    gset = set(ground)
    cols, entries_by_col = [], []
    for s in sets:
        fs = frozenset(s)
        if not fs <= gset:
            raise ValueError(f"set element outside ground set: {sorted(fs - gset)}")
        cols.append(set_label(fs))
        entries_by_col.append(fs)
    return ZeroOneMatrix(
        rows=tuple(ground),
        cols=tuple(cols),
        entries=tuple(
            tuple(1 if g in fs else 0 for fs in entries_by_col) for g in ground
        ),
    )


@dataclass(frozen=True)
class MatrixCertificate:
    """Verdict plus a re-checkable witness into the original matrix."""

    property: str
    verdict: str
    witness_rows: Optional[tuple[int, ...]] = None
    witness_cols: Optional[tuple[int, ...]] = None
    determinant: Optional[int] = None
    detail: str = ""
    witness: Optional[ZeroOneMatrix] = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.verdict == PASS

    def to_json(self) -> str:
        data = {
            "property": self.property,
            "verdict": self.verdict,
            "witness_rows": list(self.witness_rows) if self.witness_rows else None,
            "witness_cols": list(self.witness_cols) if self.witness_cols else None,
            "determinant": self.determinant,
            "detail": self.detail,
        }
        return json.dumps(data, indent=2)

    def render(self) -> str:
        lines = [f"{self.property}: {self.verdict}"]
        if self.detail:
            lines.append(self.detail)
        if self.witness is not None:
            lines.append("witness submatrix:")
            lines.append(self.witness.render())
        return "\n".join(lines)


def integer_determinant(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _reduce(m: ZeroOneMatrix) -> tuple[list[int], list[int]]:
    """Drop rows/columns with at most one 1, to fixpoint.

    Such lines cannot appear in a submatrix with two 1s per row and
    column, so the reduction preserves all balancedness witnesses.
    """
    rows = list(range(len(m.rows)))
    cols = list(range(len(m.cols)))
    changed = True
    while changed:
        changed = False
        keep_rows = [
            i for i in rows if sum(m.entries[i][j] for j in cols) >= 2
        ]
        if len(keep_rows) != len(rows):
            rows, changed = keep_rows, True
        keep_cols = [
            j for j in cols if sum(m.entries[i][j] for i in rows) >= 2
        ]
        if len(keep_cols) != len(cols):
            cols, changed = keep_cols, True
    return rows, cols


def _row_subset_search(
    m: ZeroOneMatrix,
    rows: list[int],
    cols: list[int],
    orders: Iterable[int],
    keep: Callable[[int], bool],
    pick: Callable[..., Optional[tuple[int, ...]]],
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """First k x k submatrix that ``pick`` accepts.

    Enumerates orders ascending, then row subsets lexicographically. For each
    row subset the candidate columns are those whose weight on it passes
    ``keep``; ``pick(cand, colmask, mask, k)`` returns the lexicographically
    first accepted choice of k of them, or None. The first hit is returned.
    """
    colmask = {
        j: sum(1 << i for i, r in enumerate(rows) if m.entries[r][j]) for j in cols
    }
    for k in orders:
        if k > len(rows) or k > len(cols):
            continue
        for rsub in itertools.combinations(range(len(rows)), k):
            mask = sum(1 << i for i in rsub)
            cand = [j for j in cols if keep((colmask[j] & mask).bit_count())]
            if len(cand) < k:
                continue
            hit = pick(cand, colmask, mask, k)
            if hit is not None:
                return tuple(rows[i] for i in rsub), hit
    return None


def _pick_two_per_line(cand, colmask, mask, k, connected_only):
    """Backtracking choice of k candidate columns covering each row exactly twice.

    With connected_only the submatrix must additionally be a single cycle's
    incidence matrix.
    """
    need = {i: 2 for i in range(mask.bit_length()) if (mask >> i) & 1}

    def rec(start: int, chosen: list[int], remaining: int):
        if remaining == 0:
            if all(v == 0 for v in need.values()):
                if connected_only and not _single_cycle(chosen, colmask, mask):
                    return None
                return tuple(sorted(chosen))
            return None
        for pos in range(start, len(cand)):
            j = cand[pos]
            covered = [i for i in need if (colmask[j] >> i) & 1]
            if any(need[i] == 0 for i in covered):
                continue
            for i in covered:
                need[i] -= 1
            chosen.append(j)
            hit = rec(pos + 1, chosen, remaining - 1)
            if hit is not None:
                return hit
            chosen.pop()
            for i in covered:
                need[i] += 1
        return None

    return rec(0, [], k)


def _single_cycle(cols_chosen, colmask, rowmask) -> bool:
    """True iff the two-per-line submatrix is one connected cycle."""
    adj: dict[int, list[int]] = {}
    for j in cols_chosen:
        covered = [i for i in range(rowmask.bit_length()) if (colmask[j] >> i) & 1 and (rowmask >> i) & 1]
        a, b = covered
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(adj) == len(cols_chosen)


def _two_per_line_certificate(
    m: ZeroOneMatrix, cap: int, prop: str, step: int, connected_only: bool, detail: str
) -> MatrixCertificate:
    """Search orders 3, 3 + step, ... of the reduced matrix; ``detail`` takes the order."""
    rows, cols = _reduce(m)
    if len(rows) > cap or len(cols) > cap:
        return MatrixCertificate(
            property=prop,
            verdict=INCONCLUSIVE,
            detail=f"reduced matrix is {len(rows)}x{len(cols)}, cap is {cap}",
        )
    orders = range(3, min(len(rows), len(cols)) + 1, step)
    pick = functools.partial(_pick_two_per_line, connected_only=connected_only)
    hit = _row_subset_search(m, rows, cols, orders, lambda w: w == 2, pick)
    if hit is None:
        return MatrixCertificate(property=prop, verdict=PASS)
    wr, wc = hit
    return MatrixCertificate(
        property=prop,
        verdict=FAIL,
        witness_rows=wr,
        witness_cols=wc,
        detail=detail.format(len(wr)),
        witness=m.submatrix(wr, wc),
    )


def is_balanced(m: ZeroOneMatrix, cap: int = DEFAULT_CAP) -> MatrixCertificate:
    """No odd-order square submatrix with exactly two 1s per row and column."""
    return _two_per_line_certificate(
        m, cap, "balanced", 2, False, "odd-order submatrix with two 1s per row and column, order {}"
    )


def is_totally_balanced(m: ZeroOneMatrix, cap: int = DEFAULT_CAP) -> MatrixCertificate:
    """No submatrix equal to the incidence matrix of a cycle of length >= 3."""
    return _two_per_line_certificate(
        m, cap, "totally balanced", 1, True, "incidence matrix of a cycle of length {}"
    )


def _pick_camion(cand, colmask, mask, k):
    """First k candidate columns, lexicographically, whose masks XOR to zero on
    the row subset and that hold an odd number of columns of weight 2 (mod 4).

    Failed (position, remaining, xor, parity) states are remembered, so equal
    columns do not multiply the work.
    """
    masks = [colmask[j] & mask for j in cand]
    twos = [x.bit_count() % 4 == 2 for x in masks]
    if not any(twos):
        return None
    failed = set()

    def rec(pos: int, remaining: int, xor: int, odd: bool):
        if remaining == 0:
            return () if xor == 0 and odd else None
        state = (pos, remaining, xor, odd)
        if len(cand) - pos < remaining or state in failed:
            return None
        hit = rec(pos + 1, remaining - 1, xor ^ masks[pos], odd ^ twos[pos])
        if hit is not None:
            return (cand[pos],) + hit
        hit = rec(pos + 1, remaining, xor, odd)
        if hit is None:
            failed.add(state)
        return hit

    return rec(0, k, 0, False)


def is_totally_unimodular(m: ZeroOneMatrix, cap: int = DEFAULT_CAP) -> MatrixCertificate:
    """Every square submatrix has determinant 0 or +-1, decided by Camion's criterion.

    A 0-1 matrix is totally unimodular iff no square submatrix with even row
    and column sums has entry sum 2 (mod 4) (Camion, Proc. AMS 1965;
    Schrijver, Theory of Linear and Integer Programming, ch. 19). Searched
    with orders ascending, the first such submatrix is minimally non-TU: its
    determinant is +-2, so each of its lines holds at least two of its 1s. It
    therefore lies in the reduced matrix, has order 3 or more and has no
    column that is zero on its rows. At that order these submatrices are
    exactly the ones with |det| >= 2, met in the same lexicographic order as
    a scan of all minors, so the witness is the first non-TU minor. Only its
    determinant is evaluated.
    """
    nr, nc = m.shape
    if nr > cap or nc > cap:
        return MatrixCertificate(
            property="totally unimodular",
            verdict=INCONCLUSIVE,
            detail=f"matrix is {nr}x{nc}, cap is {cap}",
        )
    rows, cols = _reduce(m)
    orders = range(3, min(len(rows), len(cols)) + 1)
    hit = _row_subset_search(m, rows, cols, orders, lambda w: w > 0 and w % 2 == 0, _pick_camion)
    if hit is None:
        return MatrixCertificate(property="totally unimodular", verdict=PASS)
    wr, wc = hit
    det = integer_determinant([[m.entries[i][j] for j in wc] for i in wr])
    return MatrixCertificate(
        property="totally unimodular",
        verdict=FAIL,
        witness_rows=wr,
        witness_cols=wc,
        determinant=det,
        detail=f"submatrix of order {len(wr)} has determinant {det}",
        witness=m.submatrix(wr, wc),
    )
