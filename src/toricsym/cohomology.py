"""Rational cohomology ring of the toric surface attached to a polygon.

The ring is Q[x_0..x_{m-1}] / (I + J) with one generator per edge, where I
is the Stanley-Reisner ideal of the normal fan and J is generated by the two
linear forms sum_i <e_k, n_i> x_i built from the edge normals. I is fixed by
m and the cyclic order alone (Fulton, Introduction to Toric Varieties,
ch. 5): it is generated by the products x_i x_j of edges that share no
vertex (geometry.nonadjacent_pairs(m)), and for a triangle by the single
cubic x_0 x_1 x_2. So a ring stores only its polygon and the two relation
rows of J. Gradings: variables sit in degree 2, the ring is 1, m-2, 1 in
degrees 0, 2, 4 and zero above.

A linear form, which is all the checks ever need, is a Row: a dict mapping
an edge index i to the nonzero Fraction coefficient of x_i. H^2 is Q^E / M_Q,
so a degree-2 class is a row read modulo the two relation rows
(linear_rows). Its coordinates on x_2 .. x_{m-1} (deg2_class) come from
Cramer's rule for x_0 and x_1; ranks of classes are taken on the rows
themselves (deg2_rank), by the sparse elimination of exactlin.rank. Degree-4
values come from the closed-form intersection table T of the normal fan
(Fulton, ch. 5): with the edge normals n_i in counterclockwise order,
x_i x_{i+1} is 1/|det(n_i, n_{i+1})| times the point class, x_i^2 is
-det(n_{i-1}, n_{i+1}) / (det(n_{i-1}, n_i) det(n_i, n_{i+1})) times it, and
every other product is zero. T is cyclic tridiagonal, so the product of two
linear forms v, w is the bilinear form v^T T w (deg4), which reads three
table entries per term of v. On x_2 .. x_{m-1}, T is the degree-2 pairing,
of determinant (-1)^(m-3) d_0^2 / prod_i d_i with d_i = det(n_i, n_{i+1})
(cohomology_ring). Witness text prints rows with row_str.

A symmetry of the polygon acts on the ring by permuting the edge variables,
so a group action is stored as a permutation and nothing else: it moves the
coefficient of x_i of a row to x_{perm[i]}. Over Q the averaging operator
sends x_i to a multiple of its orbit sum (Serre, Linear Representations of
Finite Groups, 2.6), so the degree-2 invariants are spanned by the variable
orbit sums (orbit_sums). The only elimination in this module is the sparse
rank inside deg2_rank, whose rows are orbit sums, map images and the two
relation rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .errors import NotASymmetry, UnexpectedBettiNumber
from .exactlin import Rat, Vec, rank
from .geometry import RationalPolygon, cross, format_rational

Row = dict[int, Rat]                # a linear form: x_i -> nonzero coefficient
_ZERO = Fraction(0)


def row_str(row: Row, names: Optional[Mapping[int, str]] = None) -> str:
    """A linear form as text, its terms in edge order."""
    if not row:
        return "0"
    parts = []
    for i in sorted(row):
        c, label = row[i], (names or {}).get(i, f"x{i}")
        parts.append(label if c == 1 else f"-{label}" if c == -1
                     else f"{format_rational(c)}*{label}")
    return " + ".join(parts).replace("+ -", "- ")


@dataclass(frozen=True)
class CohomologyRing:
    polygon: RationalPolygon
    linear_rows: tuple[Row, Row]            # sum_i <e_k, n_i> x_i, k = 0, 1
    betti: tuple[int, int, int]
    deg2_basis: tuple[int, ...]             # (2, ..., m-1)
    _pivot_rows: tuple[Vec, Vec]            # classes of x_0 and x_1
    product_table: tuple[tuple[Rat, ...], ...]
    pairing_det: Rat

    @property
    def m(self) -> int:
        return self.polygon.m

    @cached_property
    def pairing(self) -> tuple[tuple[Rat, ...], ...]:
        """The degree-2 intersection pairing on deg2_basis as a tuple of
        rows, built on first use: only its printout needs the dense
        matrix."""
        t = self.product_table
        return tuple(tuple(t[a][b] for b in self.deg2_basis)
                     for a in self.deg2_basis)

    def deg2_class(self, row: Row) -> Vec:
        """Coordinates on deg2_basis of the class of a linear form: x_0 and
        x_1 are replaced by their classes, every other x_b is kept."""
        c0, c1 = row.get(0, _ZERO), row.get(1, _ZERO)
        return tuple(row.get(b, _ZERO) + c0 * r0 + c1 * r1
                     for b, r0, r1 in zip(self.deg2_basis, *self._pivot_rows))

    def deg2_rank(self, rows: Iterable[Row]) -> int:
        """Dimension of the span of the rows' classes in H^2 = Q^E / M_Q: the
        rank of rows with the two linear_rows appended, minus 2
        (adjacent normals are independent, so those two have rank 2). Rows A
        and B span the same classes iff deg2_rank of A, B and A + B agree."""
        return rank([*rows, *self.linear_rows]) - 2

    def deg4(self, v: Row, w: Row) -> Rat:
        """The point-class coordinate of the product of two linear forms,
        v^T T w for the intersection table T. T is cyclic tridiagonal, so a
        term c x_i of v meets only x_{i-1}, x_i and x_{i+1} of w, and the
        sparser form is walked: O(min(|supp v|, |supp w|))."""
        if len(w) < len(v):
            v, w = w, v
        t = self.product_table
        m, total = len(t), _ZERO
        for i, c in v.items():
            row = t[i]
            for j in ((i - 1) % m, i, (i + 1) % m):
                x = w.get(j)
                if x is not None:
                    total += c * row[j] * x
        return total


def cohomology_ring(p: RationalPolygon) -> CohomologyRing:
    """The ring of p. In degree 2, Cramer's rule on the independent normals
    n_0, n_1 gives x_0 = -sum_b det(n_b, n_1) x_b / det(n_0, n_1) and x_1 =
    -sum_b det(n_0, n_b) x_b / det(n_0, n_1), b >= 2; degree-4 products are
    the closed-form intersection table (Fulton, ch. 5), which both linear
    relations must annihilate column by column. The basis omits x_0, so the
    pairing is tridiagonal; with d_i = det(n_i, n_{i+1}), the Plucker
    relation of n_1, n_{k-1}, n_k, n_{k+1} shows that its leading k x k minor
    is (-1)^(k-1) det(n_1, n_{k+1}) / (d_1 ... d_k). At k = m - 1 that is
    (-1)^(m-3) d_0^2 / prod_i d_i, never 0: adjacent normals of a convex
    polygon are never parallel."""
    m = p.m
    n = p.normals()
    rows = tuple({i: Fraction(v[k]) for i, v in enumerate(n) if v[k]}
                 for k in (0, 1))
    # int determinants, so that each entry is built once as Fraction(num, den)
    det = [cross(n[i], n[(i + 1) % m]) for i in range(m)]  # det(n_i, n_i+1)
    basis = tuple(range(2, m))
    pivot_rows = (tuple(Fraction(-cross(n[b], n[1]), det[0]) for b in basis),
                  tuple(Fraction(-cross(n[0], n[b]), det[0]) for b in basis))

    table = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        j = (i + 1) % m
        table[i][j] = table[j][i] = Fraction(1, abs(det[i]))
        table[i][i] = Fraction(-cross(n[i - 1], n[j]), det[i - 1] * det[i])
    for r in (0, 1):
        for i in range(m):
            if sum(n[k % m][r] * table[k % m][i] for k in (i - 1, i, i + 1)):
                raise UnexpectedBettiNumber(
                    f"linear relation {r} does not annihilate the "
                    f"intersection numbers of x{i}")
    table = tuple(tuple(row) for row in table)

    pairing_det = Fraction((-1) ** (m - 3) * det[0] ** 2, math.prod(det))
    return CohomologyRing(
        polygon=p, linear_rows=rows, betti=(1, m - 2, 1), deg2_basis=basis,
        _pivot_rows=pivot_rows, product_table=table, pairing_det=pairing_det)


# ---------------------------------------------------------------------------
# group actions on the ring


@dataclass(frozen=True)
class RingAction:
    """A permutation of the variables acting as a ring automorphism: x_i
    goes to x_{perm[i]}, and the point class is multiplied by deg4_scalar."""

    perm: tuple[int, ...]
    deg4_scalar: Rat

    @staticmethod
    def of(ring: CohomologyRing, perm: Sequence[int]) -> "RingAction":
        """The action of a permutation known to preserve both ideals, such as
        a product of checked ones: x_0 x_1 is T[0][1] times the point class
        and goes to x_{perm[0]} x_{perm[1]}, which is T[perm[0]][perm[1]]
        times it."""
        t = ring.product_table
        return RingAction(tuple(perm), t[perm[0]][perm[1]] / t[0][1])


def ring_action(ring: CohomologyRing, perm: Sequence[int]) -> RingAction:
    """Check that permuting variables by perm preserves both ideals and
    return the action with its scalar on degree 4.

    Raises NotASymmetry when a permuted linear relation is not again a
    combination of the relations (equivalently, nonzero in degree 2).
    """
    m = ring.m
    perm = tuple(perm)
    if sorted(perm) != list(range(m)):
        raise NotASymmetry("not a permutation of the variables")
    # perm permutes unordered pairs and there are m adjacent ones, so it keeps
    # disjoint pairs disjoint iff it keeps every pair (i, i+1) adjacent, that
    # is at cyclic distance 1
    for i in range(m):
        j = (i + 1) % m
        if (perm[j] - perm[i]) % m not in (1, m - 1):
            raise NotASymmetry(
                f"permutation sends the adjacent pair ({i},{j}) to the "
                f"disjoint edges ({perm[i]},{perm[j]})")
    for row in ring.linear_rows:
        if any(ring.deg2_class({perm[i]: c for i, c in row.items()})):
            raise NotASymmetry(
                "permutation does not preserve the linear relations")
    return RingAction.of(ring, perm)


def invariant_deg2(ring: CohomologyRing,
                   actions: Iterable[RingAction]) -> tuple[Row, ...]:
    """Rows spanning the degree-2 invariants of the given actions: one 0/1
    row per variable orbit, its orbit sum. A group and its generators have
    the same orbits, so either may be passed."""
    return orbit_sums(ring.m, [a.perm for a in actions])


# the averaging-operator name of the same construction, kept for older callers
reynolds_image = invariant_deg2


def orbit_sums(m: int, perms: Sequence[Sequence[int]]) -> tuple[Row, ...]:
    """One row per variable orbit: the sum of the orbit's variables."""
    one = Fraction(1)
    seen: set[int] = set()
    sums = []
    for i in range(m):
        if i in seen:
            continue
        orbit = {i}
        frontier = [i]
        while frontier:
            nxt = []
            for k in frontier:
                for pi in perms:
                    if pi[k] not in orbit:
                        orbit.add(pi[k])
                        nxt.append(pi[k])
            frontier = nxt
        seen |= orbit
        sums.append({k: one for k in sorted(orbit)})
    return tuple(sums)
