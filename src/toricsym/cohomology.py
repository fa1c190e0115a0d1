"""Rational cohomology ring of the toric surface attached to a polygon.

The ring is Q[x_0..x_{m-1}] / (I + J) with one generator per edge, where I
is generated by the products of variables whose edges do not meet (all
squarefree monomials x_i x_j with non-adjacent edges; for a triangle the
single cubic x_0 x_1 x_2) and J by the two linear forms sum_i <e_k, n_i> x_i
built from the edge normals. Gradings: variables sit in degree 2, the ring
is 1, m-2, 1 in degrees 0, 2, 4 and zero above.

Polynomials are plain dicts mapping sorted variable-index tuples to
Fractions. Degree-2 classes are coordinatized on x_2 .. x_{m-1}, with x_0
and x_1 given by Cramer's rule; degree-4 classes on the point class.
Degree-2 ranks are taken in edge coordinates instead (deg2_rank), by the
sparse elimination of exactlin.rank. Degree-4 products come from the
closed-form intersection table T of the normal fan (Fulton, Introduction to
Toric Varieties, ch. 5): with the edge normals n_i in counterclockwise
order, x_i x_{i+1} is 1/|det(n_i, n_{i+1})| times the point class, x_i^2 is
-det(n_{i-1}, n_{i+1}) / (det(n_{i-1}, n_i) det(n_i, n_{i+1})) times it, and
every other product is zero. T is cyclic tridiagonal, so the product of two
linear forms v, w is the bilinear form v^T T w (deg4), which reads three
table entries per term of v.

A symmetry of the polygon acts on the ring by permuting the edge variables,
so a group action is stored as a permutation and nothing else: the image of
a class is the normal form of the renamed polynomial (permute). Over Q the
averaging operator sends x_i to a multiple of its orbit sum (Serre, Linear
Representations of Finite Groups, 2.6), so the degree-2 invariants are
spanned by the variable orbit sums (orbit_sums). The only elimination in
this module is the sparse rank inside deg2_rank, whose rows are orbit sums,
map images and the two relation rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    DegeneratePairing, DegreeTooHigh, NotASymmetry, UnexpectedBettiNumber,
)
from .exactlin import Rat, RatMatrix, Vec, rank
from .geometry import IntVec, RationalPolygon

Poly = dict[tuple[int, ...], Rat]


def poly(terms: Mapping[Sequence[int], object]) -> Poly:
    out: Poly = {}
    for mono, coef in terms.items():
        key = tuple(sorted(mono))
        coef = Fraction(coef)
        if coef:
            out[key] = out.get(key, Fraction(0)) + coef
            if not out[key]:
                del out[key]
    return out


def poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + v
        if not out[k]:
            del out[k]
    return out


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(sorted(ka + kb))
            out[k] = out.get(k, Fraction(0)) + va * vb
            if not out[k]:
                del out[k]
    return out


def linear_poly(coeffs: Mapping[int, object]) -> Poly:
    return poly({(i,): c for i, c in coeffs.items()})


def poly_str(a: Poly, names: Optional[Mapping[int, str]] = None) -> str:
    if not a:
        return "0"
    parts = []
    for mono in sorted(a):
        c = a[mono]
        label = "*".join((names or {}).get(i, f"x{i}") for i in mono) or "1"
        if c == 1 and mono:
            parts.append(label)
        elif c == -1 and mono:
            parts.append(f"-{label}")
        else:
            parts.append(f"{c}*{label}" if mono else f"{c}")
    return " + ".join(parts).replace("+ -", "- ")


@dataclass(frozen=True)
class Presentation:
    polygon: RationalPolygon
    sr_quadratics: tuple[tuple[int, int], ...]
    sr_cubic: Optional[tuple[int, int, int]]
    linear_rows: RatMatrix  # 2 x m

    def linear_polys(self) -> tuple[Poly, Poly]:
        r0, r1 = self.linear_rows.row(0), self.linear_rows.row(1)
        return (linear_poly(dict(enumerate(r0))),
                linear_poly(dict(enumerate(r1))))


def presentation(p: RationalPolygon) -> Presentation:
    m = p.m
    quads = tuple((i, j) for i in range(m) for j in range(i + 1, m)
                  if not p.adjacent(i, j))
    cubic = (0, 1, 2) if m == 3 else None
    rows = RatMatrix.from_rows([
        [Fraction(p.edges[i].normal[k]) for i in range(m)] for k in (0, 1)])
    return Presentation(p, quads, cubic, rows)


@dataclass(frozen=True)
class RingElement:
    degree: int
    coords: Vec

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


@dataclass(frozen=True)
class CohomologyRing:
    pres: Presentation
    betti: tuple[int, int, int]
    deg2_basis: tuple[int, ...]             # (2, ..., m-1)
    _pivot_rows: tuple[Vec, Vec]            # classes of x_0 and x_1
    product_table: tuple[tuple[Rat, ...], ...]
    pairing_det: Rat

    @property
    def m(self) -> int:
        return self.pres.polygon.m

    @cached_property
    def pairing(self) -> RatMatrix:
        """The degree-2 intersection pairing on deg2_basis, built on first
        use: only its printout needs the dense matrix."""
        t = self.product_table
        return RatMatrix.from_rows(
            [[t[a][b] for b in self.deg2_basis] for a in self.deg2_basis])

    # -- normal forms -----------------------------------------------------

    def deg2_nf(self, i: int) -> Vec:
        return self.normal_form({(i,): Fraction(1)}).coords

    def normal_form(self, f: Poly) -> RingElement:
        """Class of a homogeneous polynomial (degree = 2 * monomial length).

        Degree 6 and higher land in zero graded pieces and return the zero
        class; mixed-degree input raises DegreeTooHigh.
        """
        if not f:
            return RingElement(0, (Fraction(0),))
        lengths = {len(k) for k in f}
        if len(lengths) != 1:
            raise DegreeTooHigh("polynomial is not homogeneous")
        ln = lengths.pop()
        if ln == 0:
            return RingElement(0, (f[()],))
        if ln == 1:
            c0, c1 = (f.get((k,), Fraction(0)) for k in (0, 1))
            return RingElement(2, tuple(
                f.get((b,), Fraction(0)) + c0 * r0 + c1 * r1
                for b, r0, r1 in zip(self.deg2_basis, *self._pivot_rows)))
        if ln == 2:
            t = self.product_table
            return RingElement(4, (sum((c * t[i][j] for (i, j), c in f.items()),
                                       Fraction(0)),))
        return RingElement(2 * ln, ())

    def edge_rows(self, forms: Iterable[Poly]) -> list[Vec]:
        """Linear forms as rows of coefficients on x_0 .. x_{m-1}; the empty
        form is the zero row."""
        zero = Fraction(0)
        return [tuple(f.get((i,), zero) for i in range(self.m)) for f in forms]

    def deg2_rank(self, rows: Sequence[Sequence]) -> int:
        """Dimension of the span of the edge rows' classes in H^2 = Q^E / M_Q:
        the rank of rows with the two rows of pres.linear_rows appended, minus
        2 (adjacent normals are independent, so those two have rank 2). Rows
        A and B span the same classes iff deg2_rank of A, B and A + B agree."""
        lin = self.pres.linear_rows
        return rank([*rows, lin.row(0), lin.row(1)]) - 2

    def deg4(self, v: Poly, w: Poly) -> Rat:
        """The point-class coordinate of the product of two linear forms,
        v^T T w for the intersection table T. T is cyclic tridiagonal, so a
        term c x_i of v meets only x_{i-1}, x_i and x_{i+1} of w, and the
        sparser form is walked: O(min(|supp v|, |supp w|))."""
        if len(w) < len(v):
            v, w = w, v
        m, t = self.m, self.product_table
        total = Fraction(0)
        for (i,), c in v.items():
            row = t[i]
            for j in ((i - 1) % m, i, (i + 1) % m):
                x = w.get((j,))
                if x is not None:
                    total += c * row[j] * x
        return total


def _cross(a: IntVec, b: IntVec) -> int:
    """det(a, b) of two integer vectors, such as edge normals; an int, so
    that each table entry is built once as Fraction(num, den)."""
    return a[0] * b[1] - a[1] * b[0]


def cohomology_ring(p: RationalPolygon) -> CohomologyRing:
    """The ring of p. In degree 2, Cramer's rule on the independent normals
    n_0, n_1 gives x_0 = -sum_b det(n_b, n_1) x_b / det(n_0, n_1) and x_1 =
    -sum_b det(n_0, n_b) x_b / det(n_0, n_1), b >= 2; degree-4 products are
    the closed-form intersection table (Fulton, ch. 5), which both linear
    relations must annihilate column by column. The table is cyclic
    tridiagonal and the basis omits x_0, so the pairing is tridiagonal and
    its determinant is the continuant of its diagonals."""
    pres = presentation(p)
    m = p.m
    n = p.normals()
    det = [_cross(n[i], n[(i + 1) % m]) for i in range(m)]  # det(n_i, n_i+1)
    basis = tuple(range(2, m))
    pivot_rows = (tuple(Fraction(-_cross(n[b], n[1]), det[0]) for b in basis),
                  tuple(Fraction(-_cross(n[0], n[b]), det[0]) for b in basis))

    table = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        j = (i + 1) % m
        table[i][j] = table[j][i] = Fraction(1, abs(det[i]))
        table[i][i] = Fraction(-_cross(n[i - 1], n[j]), det[i - 1] * det[i])
    for r in (0, 1):
        for i in range(m):
            if sum(n[k % m][r] * table[k % m][i] for k in (i - 1, i, i + 1)):
                raise UnexpectedBettiNumber(
                    f"linear relation {r} does not annihilate the "
                    f"intersection numbers of x{i}")
    table = tuple(tuple(row) for row in table)

    pairing_det, prev = Fraction(1), Fraction(0)
    for b in basis:
        pairing_det, prev = (table[b][b] * pairing_det
                             - table[b - 1][b] ** 2 * prev), pairing_det
    if pairing_det == 0:
        raise DegeneratePairing("degree-2 intersection pairing is singular")
    return CohomologyRing(
        pres=pres, betti=(1, m - 2, 1), deg2_basis=basis,
        _pivot_rows=pivot_rows, product_table=table, pairing_det=pairing_det)


# ---------------------------------------------------------------------------
# group actions on the ring


@dataclass(frozen=True)
class RingAction:
    """A permutation of the variables acting as a ring automorphism: x_i
    goes to x_{perm[i]}, and the point class is multiplied by deg4_scalar."""

    perm: tuple[int, ...]
    deg4_scalar: Rat


def permute(f: Poly, perm: Sequence[int]) -> Poly:
    """Rename the variables of f: x_i becomes x_{perm[i]}."""
    return {tuple(sorted(perm[i] for i in mono)): c for mono, c in f.items()}


def ring_action(ring: CohomologyRing, perm: Sequence[int]) -> RingAction:
    """Check that permuting variables by perm preserves both ideals and
    return the action with its scalar on degree 4.

    Raises NotASymmetry when a permuted linear form is not again a linear
    combination of the linear forms (equivalently, nonzero in degree 2).
    """
    m = ring.m
    perm = tuple(perm)
    if sorted(perm) != list(range(m)):
        raise NotASymmetry("not a permutation of the variables")
    # perm permutes unordered pairs and there are m adjacent ones, so it keeps
    # disjoint pairs disjoint iff it keeps every pair (i, i+1) adjacent
    p = ring.pres.polygon
    for i in range(m):
        j = (i + 1) % m
        if not p.adjacent(perm[i], perm[j]):
            raise NotASymmetry(
                f"permutation sends the adjacent pair ({i},{j}) to the "
                f"disjoint edges ({perm[i]},{perm[j]})")
    for f in ring.pres.linear_polys():
        if not ring.normal_form(permute(f, perm)).is_zero():
            raise NotASymmetry(
                "permutation does not preserve the linear relations")
    det01 = ring.product_table[0][1]
    scalar = ring.product_table[perm[0]][perm[1]] / det01
    return RingAction(perm, scalar)


def invariant_deg2(ring: CohomologyRing,
                   actions: Iterable[RingAction]) -> RatMatrix:
    """Rows spanning the degree-2 invariants of the given actions in edge
    coordinates: one 0/1 row per variable orbit, its orbit sum. A group and
    its generators have the same orbits, so either may be passed."""
    return RatMatrix.from_rows(
        ring.edge_rows(orbit_sums(ring.m, [a.perm for a in actions])))


# the averaging-operator name of the same construction, kept for older callers
reynolds_image = invariant_deg2


def orbit_sums(m: int, perms: Sequence[Sequence[int]]) -> tuple[Poly, ...]:
    """One linear polynomial per variable orbit: the sum of the orbit."""
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
        sums.append(linear_poly({k: 1 for k in sorted(orbit)}))
    return tuple(sums)
