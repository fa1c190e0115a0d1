"""Exact linear algebra over the rationals.

Everything here is built on fractions.Fraction; no floats enter at any point.
rank is a sparse elimination on {column: Fraction} rows, the sparsest row
pivoting first. rref keeps a fixed pivot rule (leftmost column, topmost
unused row), so reduced echelon forms, pivot sets and kernel bases are
deterministic across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Rat = Fraction
Vec = tuple[Rat, ...]


def vec(xs: Iterable) -> Vec:
    return tuple(Fraction(x) for x in xs)


def vec_dot(a: Vec, b: Vec) -> Rat:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


@dataclass(frozen=True)
class RatMatrix:
    """Immutable rational matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[Rat, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "RatMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return RatMatrix(n, m, tuple(
            x if type(x) is Fraction else Fraction(x) for r in rows for x in r))

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix(n, n, tuple(
            Fraction(1) if i == j else Fraction(0)
            for i in range(n) for j in range(n)))

    def __getitem__(self, ij: tuple[int, int]) -> Rat:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vec:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> Vec:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_list(self) -> list[list[Rat]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "RatMatrix":
        return RatMatrix(self.cols, self.rows, tuple(
            self[i, j] for j in range(self.cols) for i in range(self.rows)))

    def matmul(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.rows):
            r = self.row(i)
            for j in range(other.cols):
                out.append(vec_dot(r, other.col(j)))
        return RatMatrix(self.rows, other.cols, tuple(out))

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        return self.matmul(other)

    def mat_vec(self, v: Sequence) -> Vec:
        v = vec(v)
        return tuple(vec_dot(self.row(i), v) for i in range(self.rows))


def rref(a: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form with the fixed pivot rule.

    Columns are scanned left to right; the pivot for a column is the topmost
    not-yet-used row with a nonzero entry there. Returns (R, pivot_columns).
    """
    m = a.row_list()
    pivots: list[int] = []
    r = 0
    for c in range(a.cols):
        pr = next((i for i in range(r, a.rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(a.rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == a.rows:
            break
    return RatMatrix.from_rows(m) if m else a, tuple(pivots)


def rank(a: RatMatrix | Iterable[Sequence | dict[int, object]]) -> int:
    """Rank of a matrix, given as a RatMatrix or as rows that are sequences
    (dense) or {column: value} dicts (sparse), by sparse elimination.

    Rows are held as {column: Fraction} dicts of their nonzero entries. The
    pivot is always the remaining row with the fewest entries; its first
    column is eliminated from the other rows, and a row that becomes empty
    is dropped. Sparse rows (orbit sums, single variables) then pivot first
    and each costs O(its support) on every row it meets.
    """
    if isinstance(a, RatMatrix):
        a = a.row_list()
    rows = []
    for r in a:
        d = {j: x if type(x) is Fraction else Fraction(x) for j, x in
             (r.items() if isinstance(r, dict) else enumerate(r)) if x}
        if d:
            rows.append(d)
    found = 0
    while rows:
        piv = rows.pop(min(range(len(rows)), key=lambda k: len(rows[k])))
        c = min(piv)
        pc = piv[c]
        for row in rows:
            f = row.get(c)
            if f is None:
                continue
            f /= pc
            for j, x in piv.items():
                y = row.get(j)
                y = -f * x if y is None else y - f * x
                if y:
                    row[j] = y
                else:
                    del row[j]
        rows = [row for row in rows if row]
        found += 1
    return found


def kernel_basis(a: RatMatrix) -> tuple[Vec, ...]:
    """Basis of the right null space, one vector per free column.

    The vector for free column f has a 1 in position f and the negated
    echelon entries in the pivot positions, so the basis is deterministic.
    """
    red, pivots = rref(a)
    pivot_set = set(pivots)
    free = [j for j in range(a.cols) if j not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * a.cols
        v[f] = Fraction(1)
        for k, p in enumerate(pivots):
            v[p] = -red[k, f]
        basis.append(tuple(v))
    return tuple(basis)


def spans_equal(a: Iterable[Sequence | dict[int, object]],
                b: Iterable[Sequence | dict[int, object]]) -> bool:
    """Whether two collections of rows, in any form rank takes, span the
    same row space."""
    a, b = list(a), list(b)
    return rank(a) == rank(b) == rank(a + b)
