"""Dense Fraction matrices and Gauss-Jordan elimination, kept as oracles.

The library computes with lattice maps as integer 4-tuples
(toricsym.symmetry.Mat2) and with sparse rows (toricsym.exactlin.rank). The
tests check both against this independent dense route: RatMatrix products,
inverses and mat_vec images, rref and kernel_basis. rref keeps a fixed pivot
rule (leftmost column, topmost unused row), so reduced echelon forms, pivot
sets and kernel bases are deterministic across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from toricsym.exactlin import Rat, Vec
from toricsym.geometry import RationalPolygon, polygon_from_vertices


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
        return RatMatrix(n, m, tuple(Fraction(x) for r in rows for x in r))

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

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        return RatMatrix(self.rows, other.cols, tuple(
            vec_dot(self.row(i), other.col(j))
            for i in range(self.rows) for j in range(other.cols)))

    def mat_vec(self, v: Sequence) -> Vec:
        v = vec(v)
        return tuple(vec_dot(self.row(i), v) for i in range(self.rows))


def rat(g: Sequence[int]) -> RatMatrix:
    """The 2 x 2 RatMatrix of a Mat2 (a, b, c, d)."""
    return RatMatrix(2, 2, tuple(map(Fraction, g)))


def mat2(m: RatMatrix) -> tuple[int, int, int, int]:
    """The Mat2 of an integral 2 x 2 RatMatrix."""
    assert (m.rows, m.cols) == (2, 2)
    assert all(x.denominator == 1 for x in m.entries), m
    return tuple(x.numerator for x in m.entries)


def inverse2(m: RatMatrix) -> RatMatrix:
    a, b, c, d = m.entries
    det = a * d - b * c
    if det == 0:
        raise ValueError("singular matrix")
    return RatMatrix.from_rows([[d / det, -b / det], [-c / det, a / det]])


def dual_matrix(m: RatMatrix) -> RatMatrix:
    """Action induced on normal vectors by x -> m x (inverse transpose)."""
    return inverse2(m.transpose())


def apply_linear(mat: RatMatrix, p: RationalPolygon) -> RationalPolygon:
    """Image of a polygon under an invertible linear map (vertex-wise)."""
    return polygon_from_vertices([mat.mat_vec(v) for v in p.vertices])


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
