"""Exact certification of 0-1 matrices: balanced, totally unimodular, totally balanced.

A matrix is its row and column labels plus one bitmask per column, bit i
for row i. ``matrix_of_sets`` builds the masks straight from the sets and
``ZeroOneMatrix.from_rows`` from 0/1 rows, the one constructor that checks
entries. The search starts from the masks, and the 0/1 rows
(``entries``), witness submatrices, renderings and the TU witness's
determinant are read off them.

All verdicts come with re-checkable witnesses (row/column index lists into
the original matrix) and never use floating point. The three properties
share one search and one column picker: orders ascending, row subsets
lexicographically, and for each row subset the lexicographically first
choice of distinct columns whose masks XOR to zero on it. They differ only
in their column filter (two 1s on the row subset for balanced and totally
balanced, a positive even number for totally unimodular), their orders
(odd ones for balanced) and the parity rule of total unimodularity, which
is decided by Camion's criterion, so a determinant is evaluated only for
the FAIL witness: in O(k) off the cycle when that witness is one odd
cycle, else by Bareiss elimination. The search keeps the column counts of
its chosen rows as bit-planes, so a row subset's candidate columns are one
bitmask, and it cuts a branch once a chosen row can no longer lie on two
candidates, which every row of a first witness does. The search and the
picker run depth first over explicit stacks, so no recursion limit bounds
them. Searches are exhaustive up to a size cap (on the reduced matrix for
balanced and totally balanced, on the matrix itself for totally
unimodular); beyond the cap the verdict is INCONCLUSIVE, never a guess.

Three shapes are decided before the search, after the cap test, on the
reduced matrix; none changes a FAIL witness. Consecutive ones: if
every column's 1s are adjacent among the kept rows, or every kept row's
1s among the columns, the matrix or its transpose is an interval matrix,
so totally unimodular, hence balanced, and totally balanced, since each
column of a k-cycle submatrix, consecutive on its k rows, would join one
of their k - 1 adjacent pairs: all three are PASS. Graphic: if every
reduced column has two 1s, the columns are the edges of a graph on the
kept rows. A cycle submatrix is a cycle of it, and a square submatrix
with even line sums is an even-degree graph whose entry sum, twice its
edge count, is 2 (mod 4) only for an odd count, when it holds an odd
cycle no longer than its order. So the search starts at the odd girth
(balanced, totally unimodular) or the girth (totally balanced), and a
graph with no such cycle is a PASS with no search. Nested: if the
reduced columns form a chain under inclusion, order the kept rows by the
smallest column that holds them; every column is then a prefix, so the
matrix is an interval matrix in that row order and all three are PASS,
by the consecutive-ones argument, whatever order the rows come in.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

DEFAULT_CAP = 12


@dataclass(frozen=True)
class ZeroOneMatrix:
    """A labelled 0-1 matrix, one bitmask per column (bit i for row i);
    columns are usually indicator vectors of sets."""

    rows: tuple[str, ...]
    cols: tuple[str, ...]
    masks: tuple[int, ...]

    def __post_init__(self):
        if len(self.masks) != len(self.cols):
            raise ValueError("column count does not match column labels")
        if any(x >> len(self.rows) for x in self.masks):
            raise ValueError("column mask sets a bit past the last row")

    @classmethod
    def from_rows(
        cls, rows: Iterable[str], cols: Iterable[str], entries: Iterable[Iterable[int]]
    ) -> "ZeroOneMatrix":
        """The matrix with the 0/1 rows ``entries``; the one check of entries."""
        rows, cols, entries = tuple(rows), tuple(cols), [tuple(r) for r in entries]
        if len(entries) != len(rows):
            raise ValueError("row count does not match row labels")
        for row in entries:
            if len(row) != len(cols):
                raise ValueError("column count does not match column labels")
            if any(x not in (0, 1) for x in row):
                raise ValueError("entries must be 0 or 1")
        masks = [sum(1 << i for i, row in enumerate(entries) if row[j]) for j in range(len(cols))]
        return cls(rows, cols, tuple(masks))

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.cols)

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The 0/1 rows, rebuilt from the masks on each access in
        O(rows x cols); the search reads ``masks``."""
        return tuple(tuple(x >> i & 1 for x in self.masks) for i in range(len(self.rows)))

    def submatrix(self, rows: Iterable[int], cols: Iterable[int]) -> "ZeroOneMatrix":
        """Rows ``rows`` and columns ``cols``, in that order; each column's
        mask is read bit by bit only where it meets the chosen rows."""
        rows, cols = list(rows), list(cols)
        labels = tuple(self.rows[i] for i in rows)
        to: dict[int, int] = {}  # a chosen row's bit -> its bits in the submatrix
        for p, i in enumerate(rows):
            to[1 << i] = to.get(1 << i, 0) | 1 << p
        kept = sum(to)
        masks = []
        for j in cols:
            x, y = self.masks[j] & kept, 0
            while x:
                low = x & -x
                x ^= low
                y |= to[low]
            masks.append(y)
        return ZeroOneMatrix(labels, tuple(self.cols[j] for j in cols), tuple(masks))

    def render(self) -> str:
        width = max([len(r) for r in self.rows] + [1]) if self.rows else 1
        colw = [max(len(c), 1) for c in self.cols]
        head = " " * width + "  " + "  ".join(
            c.rjust(w) for c, w in zip(self.cols, colw)
        )
        lines = [head.rstrip()]
        for i, label in enumerate(self.rows):
            lines.append(
                label.rjust(width)
                + "  "
                + "  ".join(str(x >> i & 1).rjust(w) for x, w in zip(self.masks, colw))
            )
        return "\n".join(lines)


def set_label(s: Iterable[str]) -> str:
    return "{" + ",".join(sorted(s)) + "}"


def matrix_of_sets(
    sets: Iterable[Iterable[str]], ground: Iterable[str]
) -> ZeroOneMatrix:
    """Indicator-vector matrix: one row per ground element, one column per set."""
    ground = tuple(ground)
    bit: dict[str, int] = {}
    for i, g in enumerate(ground):
        bit[g] = bit.get(g, 0) | 1 << i
    cols, masks = [], []
    for s in sets:
        fs = frozenset(s)
        try:
            masks.append(sum(map(bit.__getitem__, fs)))
        except KeyError:
            raise ValueError(f"set element outside ground set: {sorted(fs - bit.keys())}") from None
        cols.append(set_label(fs))
    return ZeroOneMatrix(rows=ground, cols=tuple(cols), masks=tuple(masks))


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

    def as_dict(self) -> dict:
        return {
            "property": self.property,
            "verdict": self.verdict,
            "witness_rows": list(self.witness_rows) if self.witness_rows else None,
            "witness_cols": list(self.witness_cols) if self.witness_cols else None,
            "determinant": self.determinant,
            "detail": self.detail,
        }

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


def cycle_walk(masks: tuple[int, ...]) -> list[tuple[int, int]]:
    """Walk a k x k 0-1 matrix whose columns (bit i for row i) are the
    edges of one cycle through all its rows, in O(k): the pair (i, j) of
    each row i and the column j that leaves it for the next row, from row 0
    and its first column."""
    at: list[list[int]] = [[] for _ in masks]  # each row's two columns, ascending
    for j, x in enumerate(masks):
        at[(x & -x).bit_length() - 1].append(j)
        at[x.bit_length() - 1].append(j)
    walk = []
    i, j = 0, at[0][0]
    for _ in masks:
        walk.append((i, j))
        i = (masks[j] ^ 1 << i).bit_length() - 1
        a, b = at[i]
        j = b if a == j else a
    return walk


def _odd_cycle_determinant(masks: tuple[int, ...]) -> int:
    """Determinant of a k x k 0-1 matrix, k odd, whose columns (bit i for
    row i) are the edges of one cycle through all its rows, in O(k).

    Walk the cycle (``cycle_walk``), each column leaving one row for the
    next. The matrix is P_s + P_t, where the permutation matrix P_s maps
    each column to the row it enters and P_t to the row it leaves. P_t^-1
    P_s steps round the cycle, a k-cycle with determinant (-1)^(k-1) = 1,
    and det(I + P) over a k-cycle P is 1 - (-1)^k = 2. So the determinant
    is 2 det(P_t) = 2 det(P_s), twice the sign of t, whichever way the walk
    runs.
    """
    k = len(masks)
    leaves = [0] * k
    for i, j in cycle_walk(masks):
        leaves[j] = i
    # the sign of t is (-1)^(k - number of its cycles)
    cycles, seen = 0, [False] * k
    for j in range(k):
        if not seen[j]:
            cycles += 1
            while not seen[j]:
                seen[j] = True
                j = leaves[j]
    return 2 if (k - cycles) % 2 == 0 else -2


def _reduce(m: ZeroOneMatrix) -> tuple[int, dict[int, int]]:
    """Drop rows/columns with at most one 1, to fixpoint.

    Such lines cannot appear in a submatrix with two 1s per row and
    column, so the reduction preserves all balancedness witnesses. Returns
    the kept rows as a bitmask (bit i for row i) and the kept columns, in
    index order, each with the bitmask of its 1s on the kept rows.
    """
    rows = (1 << len(m.rows)) - 1
    while True:
        cols = {j: y for j, x in enumerate(m.masks) if (y := x & rows).bit_count() >= 2}
        once = twice = 0  # rows with at least one, at least two 1s in cols
        for x in cols.values():
            twice |= once & x
            once |= x
        if twice == rows:
            return rows, cols
        rows = twice


def _consecutive_ones(rows: int, cols: dict[int, int]) -> bool:
    """Whether every column's 1s are adjacent among the kept rows, or every
    kept row's 1s among the columns; ``rows`` and ``cols`` as from ``_reduce``."""
    if all(rows & ((1 << y.bit_length()) - (y & -y)) == y for y in cols.values()):
        return True
    seen = gone = 0  # rows met in an earlier column; rows a later one has missed
    for y in cols.values():
        if y & gone:
            return False
        gone |= seen & ~y
        seen |= y
    return True


def _nested(cols: dict[int, int]) -> bool:
    """Whether the reduced columns form a chain under inclusion: sorted by
    size, each lies inside the next."""
    ys = sorted(cols.values(), key=int.bit_count)
    return all(not a & ~b for a, b in zip(ys, ys[1:]))


def _girth(rows: int, cols: dict[int, int], odd: bool) -> Optional[int]:
    """Length of the shortest cycle (with ``odd``, shortest odd cycle) of
    the simple graph on the kept rows whose edges are the reduced columns,
    each with two 1s; None if there is none.

    A breadth-first search from s meeting an edge inside layer d closes an
    odd walk of length 2d + 1, and one meeting a vertex with two parents in
    layer d a walk of 2d + 2; each holds a cycle no longer, odd for the
    first. By parity some edge of an odd cycle through s lies inside a
    layer, at most half the cycle deep, and the deepest vertex of any cycle
    through s shares its layer with a neighbour on it or has both as
    parents. So the search from s bounds every cycle through s, and s then
    leaves the graph. A search stops at the first layer that cannot beat
    the best length so far; a vertex with under two neighbours left is
    dropped unsearched.
    """
    nbr: dict[int, int] = {}
    for y in cols.values():
        a = y & -y
        nbr[a] = nbr.get(a, 0) | y ^ a
        nbr[y ^ a] = nbr.get(y ^ a, 0) | a
    best = rows.bit_count() + 1  # longer than any cycle
    left = rows
    while left:
        s = left & -left
        d, seen, layer = 0, s, s if (nbr[s] & left).bit_count() >= 2 else 0
        while layer and 2 * d + 1 < best:
            nxt = twice = inner = 0
            x = layer
            while x:
                u = x & -x
                x ^= u
                n = nbr[u] & left
                inner |= n & layer
                n &= ~seen
                twice |= nxt & n
                nxt |= n
            if inner or twice and not odd:
                best = 2 * d + (1 if inner else 2)
                break
            seen |= nxt
            layer = nxt
            d += 1
        left ^= s
    return best if best <= rows.bit_count() else None


def _row_subset_search(
    rows: int, cols: dict[int, int], orders: range, tu: bool
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """First k x k submatrix of the reduced matrix whose columns XOR to zero
    on its rows; ``rows`` and ``cols`` are as ``_reduce`` returns them.

    Enumerates orders ascending, then row subsets lexicographically. For each
    row subset the candidates are the first column of each distinct mask on
    it with exactly two 1s, or with ``tu`` a positive even number of 1s;
    ``_pick`` returns the lexicographically first k of them whose masks XOR
    to zero, holding an odd number of columns of weight 2 (mod 4) when
    ``tu``. The first hit is returned. The search runs depth first over
    explicit stacks, so no recursion limit bounds it.

    Keeping one column per mask loses no first witness. A minimal witness
    never holds two equal columns (for total unimodularity its determinant
    is +-2), and swapping in an earlier equal column gives a
    lexicographically earlier witness.

    With weight-2 columns, the XOR test finds the first cycle submatrix. The
    distinct columns are the edges of a simple graph on the row subset, and
    k of them XOR to zero exactly when they form an even-degree graph. Such
    a graph holds a simple cycle of length 3 or more on at most k rows, odd
    when k is odd, and that cycle is a cycle submatrix. So the smallest
    order with a hit is the order of the smallest cycle submatrix (odd, if
    only odd orders are searched), and every hit at that order is a single
    cycle through all its rows.

    Column counts as bit-planes. Each row carries the bitmask of its columns
    (bit p for the p-th of ``cols``), and the depth-first search carries the
    column counts of the chosen rows as three such masks: the columns with
    at least one, at least two and at least three 1s, or with ``tu`` at
    least one, at least two and an odd number. Adding a row updates them
    with three int operations, and the candidate columns are one mask:
    exactly two 1s (at least two and not three), or with ``tu`` a positive
    even number (at least two and not odd). A leaf reads only those
    columns, in index order, so the first column per mask is unchanged.

    Degree cut. Every hit at the smallest order puts each of its rows on two
    of its columns: without ``tu`` it is a single cycle through all its
    rows, and with ``tu`` it is minimally non-TU, so each of its lines holds
    at least two of its 1s. Smaller orders have no hit at all. So a branch
    of row subsets sharing its chosen rows holds no first hit once a chosen
    row lies on fewer than two columns that can still end as candidates:
    those that are candidates now and, while rows remain to add, those
    holding one 1 (with ``tu``, an odd number) that meet a row above the
    last chosen one. Each row's union of the columns of the rows above it
    is built once, so the test costs one AND and one bit count per chosen
    row. A leaf reaches ``_pick`` only when each of its rows lies on two
    candidates, and the first hit is unchanged.
    """
    col_list = list(cols.items())
    # each kept row's bit, with the bitmask of its columns (bit p for col_list[p])
    row_cols: dict[int, int] = {}
    for p, (_, x) in enumerate(col_list):
        while x:
            low = x & -x
            x ^= low
            row_cols[low] = row_cols.get(low, 0) | 1 << p
    # above[bit of row a]: the columns of the kept rows above row a
    above: dict[int, int] = {}
    x = 0
    for low in sorted(row_cols, reverse=True):
        above[low] = x
        x |= row_cols[low]

    for k in orders:
        # frames: chosen rows, their column masks, bit-planes, rows left to try
        stack = [(0, (), 0, 0, 0, rows)]
        while stack:
            chosen, chosen_cols, one, two, three, cand = stack.pop()
            need = k - len(chosen_cols)
            while cand.bit_count() >= need:
                low = cand & -cand
                cand ^= low
                x = row_cols[low]
                t1, t2, t3 = one | x, two | one & x, three ^ x if tu else three | two & x
                ok = t2 & ~t3
                # the columns that can still end as candidates: those that are, and
                # while rows remain to add, those one more 1 from a row above low makes one
                could = ok if need == 1 else ok | (t3 if tu else t1 & ~t2) & above[low]
                if (x & could).bit_count() < 2:
                    continue
                for y in chosen_cols:
                    if (y & could).bit_count() < 2:
                        break
                else:
                    if need == 1:
                        hit = _leaf(chosen | low, ok, col_list, k, tu)
                        if hit is not None:
                            return hit
                        continue
                    # this frame resumes once the child's rows are spent; the loop
                    # test left the child at least the need - 1 rows it must add
                    stack.append((chosen, chosen_cols, one, two, three, cand))
                    stack.append((chosen | low, chosen_cols + (x,), t1, t2, t3, cand))
                    break
    return None


def _leaf(sub, ok, col_list, k, tu):
    """``_pick`` on the first column of each distinct mask among the
    candidate columns ``ok`` (bit p for col_list[p]) of row subset ``sub``."""
    first: dict[int, int] = {}
    while ok:
        low = ok & -ok
        ok ^= low
        j, x = col_list[low.bit_length() - 1]
        x &= sub
        if x not in first:
            first[x] = j
    if len(first) < k:
        return None
    hit = _pick(list(first.values()), list(first), k, tu)
    if hit is None:
        return None
    return tuple(i for i in range(sub.bit_length()) if sub >> i & 1), hit


def _pick(cand, masks, k, odd_twos):
    """First k candidate columns, lexicographically, whose masks XOR to zero
    and, with ``odd_twos``, that hold an odd number of weight 2 (mod 4).

    A state is remembered as failed once expanded: positions only grow, so
    it comes back only after its whole branch has failed.
    """
    twos = [odd_twos and x.bit_count() % 4 == 2 for x in masks]
    if odd_twos and not any(twos):
        return None
    failed = set()
    stack = [(0, k, 0, False, 0)]
    while stack:
        pos, remaining, xor, odd, taken = stack.pop()
        if remaining == 0:
            if xor == 0 and odd == odd_twos:
                return tuple(c for p, c in enumerate(cand) if taken >> p & 1)
            continue
        state = (pos, remaining, xor, odd)
        if len(cand) - pos < remaining or state in failed:
            continue
        failed.add(state)
        # "skip" is pushed first, so "take" runs first; taken is a bitmask
        stack.append((pos + 1, remaining, xor, odd, taken))
        stack.append((pos + 1, remaining - 1, xor ^ masks[pos], odd ^ twos[pos], taken | 1 << pos))
    return None


def _certificate(
    m: ZeroOneMatrix, prop: str, cap: int, step: int, tu: bool, detail: str
) -> MatrixCertificate:
    """Decide the reduced matrix by its shape, or search its orders 3 (or
    its girth), 3 + step, ...; ``detail`` takes the order.

    The cap applies to ``m`` itself when ``tu``, else to the reduced matrix.
    """
    rows, cols = _reduce(m)
    nr, nc = m.shape if tu else (rows.bit_count(), len(cols))
    if nr > cap or nc > cap:
        what = "matrix" if tu else "reduced matrix"
        return MatrixCertificate(prop, INCONCLUSIVE, detail=f"{what} is {nr}x{nc}, cap is {cap}")
    if _consecutive_ones(rows, cols):
        return MatrixCertificate(property=prop, verdict=PASS)
    low = 3
    if all(y.bit_count() == 2 for y in cols.values()):
        low = _girth(rows, cols, odd=tu or step == 2)
        if low is None:
            return MatrixCertificate(property=prop, verdict=PASS)
    elif _nested(cols):
        return MatrixCertificate(property=prop, verdict=PASS)
    orders = range(low, min(rows.bit_count(), len(cols)) + 1, step)
    hit = _row_subset_search(rows, cols, orders, tu)
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
    return _certificate(
        m, "balanced", cap, 2, False,
        "odd-order submatrix with two 1s per row and column, order {}",
    )


def is_totally_balanced(m: ZeroOneMatrix, cap: int = DEFAULT_CAP) -> MatrixCertificate:
    """No submatrix equal to the incidence matrix of a cycle of length >= 3."""
    return _certificate(
        m, "totally balanced", cap, 1, False, "incidence matrix of a cycle of length {}"
    )


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
    determinant is evaluated. When each of its columns holds two 1s, each
    row, of even sum and at least two 1s, holds two as well: the columns
    are the edges of cycles through every row, and there is one, odd, since
    a proper odd cycle is non-TU and even cycles alone give determinant 0.
    Its determinant is then read off the cycle in O(k); any other witness
    is evaluated by Bareiss elimination.
    """
    cert = _certificate(m, "totally unimodular", cap, 1, True, "")
    if cert.verdict != FAIL:
        return cert
    masks = cert.witness.masks
    if all(x.bit_count() == 2 for x in masks):
        det = _odd_cycle_determinant(masks)
    else:
        det = integer_determinant([[x >> i & 1 for x in masks] for i in range(len(masks))])
    return replace(cert, determinant=det, detail=f"submatrix of order {len(masks)} has determinant {det}")
